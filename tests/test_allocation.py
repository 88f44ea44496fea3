"""Profiles, rate shares, counters, and the evaluate() contract."""

import sys

import numpy as np
import pytest

from dcalloc import (Allocation, ChannelTable, RateCalcCounter, ScenarioParams, evaluate,
                     share_rate, DIGIT_BOTH, DIGIT_MACRO_ONLY, DIGIT_SMALL_ONLY)
from dcalloc.kernels import objective_chunk

from conftest import (adversarial_table, python_rates, python_row_sum, seeded_table,
                      synthetic_table)


def test_digit_constants_match_profile_pairs():
    alloc = Allocation([DIGIT_BOTH, DIGIT_MACRO_ONLY, DIGIT_SMALL_ONLY])
    assert alloc.d_macro.tolist() == [1, 1, 0]
    assert alloc.d_small.tolist() == [1, 0, 1]


def test_digits_roundtrip_exhaustive():
    for idx in range(3 ** 4):
        digits = [(idx // 3 ** k) % 3 for k in range(4)]
        alloc = Allocation(digits)
        assert alloc.digits.tolist() == digits


def test_from_digits_rejects_bad_digit():
    """Out-of-range numbers are refused, and so are strings, None, complex
    numbers, dates and Python objects, with the digits' own ValueError."""
    for digits in ([0, 3], [0.5, 1, 2], [-1, 0, 0], [np.nan, 0, 0], ["0", "1"], [None],
                   np.array([1 + 0j]), np.array([0, 1], dtype=object),
                   np.array(["2020-01-01"], dtype="M8[D]"), np.array([1], dtype="m8[s]")):
        with pytest.raises(ValueError, match="profile digits must be 0, 1 or 2"):
            Allocation(digits)


def test_validate_rejects_unserved_ue():
    """Starting from 3 and subtracting, per serving tier, the code of the
    profile lacking it gives each profile's digit; a UE that no tier serves
    keeps 3, which Allocation's own check refuses."""
    d_macro = np.array([1, 1, 0, 0], np.uint8)
    d_small = np.array([1, 0, 1, 0], np.uint8)
    digits = 3 - DIGIT_SMALL_ONLY * d_macro - DIGIT_MACRO_ONLY * d_small
    assert digits[:3].tolist() == [DIGIT_BOTH, DIGIT_MACRO_ONLY, DIGIT_SMALL_ONLY]
    assert Allocation(digits[:3]).d_macro.tolist() == d_macro[:3].tolist()
    assert Allocation(digits[:3]).d_small.tolist() == d_small[:3].tolist()
    with pytest.raises(ValueError, match="profile digits must be 0, 1 or 2"):
        Allocation(digits)


def test_equality_and_hash_follow_the_digits():
    for digits, other in (([1], [2]), ([0, 1, 2], [0, 2, 1])):
        alloc = Allocation(digits)
        same = Allocation(np.array(digits, dtype=np.int64))
        assert alloc == same and not alloc != same
        assert hash(alloc) == hash(same)
        assert alloc != Allocation(other)
        assert len({alloc, same, Allocation(other)}) == 2
    assert Allocation([0]) != Allocation([0, 0])
    assert Allocation([0, 1]) != [0, 1]


def test_constructors():
    """Allocation(digits) is the one constructor."""
    assert not hasattr(Allocation, "from_flags")
    assert not hasattr(Allocation, "all_both")
    assert not hasattr(Allocation, "all_small_only")
    both = Allocation(np.full(3, DIGIT_BOTH))
    assert both.digits.tolist() == [0, 0, 0]
    assert both.d_macro.tolist() == both.d_small.tolist() == [1, 1, 1]
    macro_only = Allocation([1] * 3)
    assert macro_only.d_macro.tolist() == [1, 1, 1]
    assert macro_only.d_small.tolist() == [0, 0, 0]
    assert macro_only.digits.tolist() == [1, 1, 1]
    small_only = Allocation(np.full(3, DIGIT_SMALL_ONLY))
    assert small_only.digits.tolist() == [2, 2, 2]
    assert small_only.d_macro.tolist() == [0, 0, 0]


def test_counter_behaviour():
    c = RateCalcCounter()
    assert c.count == 0
    c.tick()
    c.tick(5)
    assert c.count == 6
    with pytest.raises(ValueError):
        c.tick(-1)
    for bad in (2.5, True, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match="tick count"):
            c.tick(bad)
    assert c.count == 6
    # numpy integers are stored as Python ints: no int64 wrap past 2**63
    c.tick(np.int64(2 ** 62))
    c.tick(np.int64(2 ** 62))
    c.tick(np.int64(1))
    assert c.count == 2 ** 63 + 7
    assert type(c.count) is int


def test_share_rate_formula():
    assert share_rate(10e6, 4, 2.0) == 10e6 / 4 * 2.0
    assert share_rate(1.0, 1, 0.0) == 0.0
    with pytest.raises(ValueError):
        share_rate(10e6, 0, 1.0)


def _tiny_rate_table() -> ChannelTable:
    """Eight UEs on two SBSs with 1e-300 Hz bandwidths. SNRs and SINRs of
    1e-300 give log terms of 0.0 (1 + x rounds to 1), and those near 1e-15
    log terms a few times log2(1 + 2^-52), the least nonzero one (a
    log2(1 + x) of a double is never subnormal), so their rate terms
    bw / load * log are subnormal. An SNR of 5e3 gives normal macro terms,
    while every small-only row sums to a subnormal."""
    params = ScenarioParams(num_sbs=2, num_ue=8, bw_macro_hz=1e-300, bw_small_hz=1e-300,
                            n_macro_dbm_hz=2930.0, n_small_dbm_hz=2930.0)
    table = synthetic_table([1e-300, 2.3e-16, 1e-15, 5e3] * 2,
                            [1e-300, 2.3e-16, 1e-15, 4e-15] * 2, [0, 1] * 4, params)
    assert 0.0 in table.log_macro.tolist() and 0.0 in table.log_small.tolist()
    return table


def _evaluate_tables():
    """Seeded tables at K = 1..12, 20, 50 and 200 on 1, 4 and 16 SBSs, the
    adversarial greedy family and the tiny-rate table."""
    rng = np.random.default_rng(77)
    for k_ues in (*range(1, 13), 20, 50, 200):
        for num_sbs in (1, 4, 16):
            yield seeded_table(k_ues, num_sbs=num_sbs, seed=int(rng.integers(2 ** 31)))
    yield adversarial_table(12)
    yield _tiny_rate_table()


def test_evaluate_matches_python_oracle():
    """On random digit rows and the three one-profile rows, evaluate() sums
    bit for bit as the documented order and objective_chunk do, returns an
    np.float64 and ticks once per served (UE, tier) pair."""
    rng = np.random.default_rng(78)
    subnormal = 0
    for table in _evaluate_tables():
        k_ues = table.num_ue
        rows = [rng.integers(0, 3, size=k_ues) for _ in range(4)]
        rows += [np.full(k_ues, d) for d in (DIGIT_BOTH, DIGIT_MACRO_ONLY, DIGIT_SMALL_ONLY)]
        chunk = objective_chunk(np.array(rows, dtype=np.uint8), table).tolist()
        for digits, expected in zip(rows, chunk):
            alloc = Allocation(digits)
            counter = RateCalcCounter()
            sum_rate = evaluate(alloc, table, counter)

            rates_m, rates_s = python_rates(
                digits.tolist(), table.snr_macro.tolist(), table.sinr_small.tolist(),
                table.assoc_sbs.tolist(), table.num_sbs,
                table.params.bw_macro_hz, table.params.bw_small_hz)
            assert sum_rate == pytest.approx(sum(rates_m) + sum(rates_s), rel=1e-12)
            # every served term, summed in the documented order, bit for bit
            assert sum_rate.hex() == python_row_sum(digits.tolist(), table).hex() == \
                expected.hex()
            # repr(sum_rate) is hashed into the benchmark's golden digests
            assert type(sum_rate) is np.float64
            served_pairs = int(np.sum(alloc.d_macro)) + int(np.sum(alloc.d_small))
            assert counter.count == served_pairs
            if 0.0 < sum_rate < sys.float_info.min:
                subnormal += 1
    assert subnormal > 0


def test_evaluate_tick_counts_per_tier():
    table = seeded_table(5, seed=2)
    for alloc, ticks in ((Allocation([0] * 5), 10), (Allocation([2] * 5), 5),
                         (Allocation([1] * 5), 5)):
        counter = RateCalcCounter()
        evaluate(alloc, table, counter)
        assert counter.count == ticks


def test_evaluate_rejects_mismatch_and_invalid():
    """A size mismatch is refused by evaluate(); an allocation leaving a UE
    unserved cannot be built, so evaluate() never sees one."""
    table = seeded_table(4, seed=3)
    with pytest.raises(ValueError, match="size"):
        evaluate(Allocation([0] * 5), table)
    with pytest.raises(ValueError, match="profile digits"):
        Allocation([0, 3, 0, 0])


def test_evaluate_accumulates_counter():
    """A counter carried across calls keeps accumulating."""
    table = seeded_table(3, seed=4)
    counter = RateCalcCounter()
    evaluate(Allocation([2] * 3), table, counter)
    evaluate(Allocation([0] * 3), table, counter)
    assert counter.count == 3 + 6


def test_zero_rate_entries_for_unserved_tier():
    """With the macro tier idle, the sum-rate is the small-tier terms alone,
    added left to right, bit for bit."""
    table = seeded_table(3, seed=6)
    loads = np.bincount(table.assoc_sbs, minlength=table.num_sbs).tolist()
    total = 0.0
    for i, log_s in zip(table.assoc_sbs.tolist(), table.log_small.tolist()):
        total += table.params.bw_small_hz / loads[i] * log_s
    assert evaluate(Allocation([2] * 3), table) == total
