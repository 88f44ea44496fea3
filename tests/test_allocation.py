"""Profiles, rate shares, counters, and the evaluate() contract."""

import numpy as np
import pytest

from dcalloc import (Allocation, RateCalcCounter, evaluate, share_rate,
                     DIGIT_BOTH, DIGIT_MACRO_ONLY, DIGIT_SMALL_ONLY)

from conftest import python_rates, seeded_table


def test_digit_constants_match_profile_pairs():
    alloc = Allocation.from_digits([DIGIT_BOTH, DIGIT_MACRO_ONLY, DIGIT_SMALL_ONLY])
    assert alloc.d_macro.tolist() == [1, 1, 0]
    assert alloc.d_small.tolist() == [1, 0, 1]


def test_digits_roundtrip_exhaustive():
    for idx in range(3 ** 4):
        digits = [(idx // 3 ** k) % 3 for k in range(4)]
        alloc = Allocation.from_digits(digits)
        assert alloc.to_digits().tolist() == digits


def test_from_digits_rejects_bad_digit():
    for digits in ([0, 3], [0.5, 1, 2], [-1, 0, 0], [np.nan, 0, 0]):
        with pytest.raises(ValueError, match="digits"):
            Allocation.from_digits(digits)


def test_validate_rejects_unserved_ue():
    alloc = Allocation(d_macro=np.array([1, 0]), d_small=np.array([1, 0]))
    with pytest.raises(ValueError, match="1"):
        alloc.validate()


def test_flags_must_be_binary():
    for flags in (np.array([2, 0, 1]), [0.5, 1, 1], [-1, 1, 1]):
        with pytest.raises(ValueError, match="0 or 1"):
            Allocation(d_macro=flags, d_small=np.array([1, 1, 1]))


def test_constructors():
    assert Allocation.all_both(3).to_digits().tolist() == [0, 0, 0]
    macro_only = Allocation.from_digits([1] * 3)
    assert macro_only.d_macro.tolist() == [1, 1, 1]
    assert macro_only.d_small.tolist() == [0, 0, 0]
    assert macro_only.to_digits().tolist() == [1, 1, 1]
    assert Allocation.all_small_only(3).to_digits().tolist() == [2, 2, 2]


def test_counter_behaviour():
    c = RateCalcCounter()
    assert c.count == 0
    c.tick()
    c.tick(5)
    assert c.count == 6
    with pytest.raises(ValueError):
        c.tick(-1)


def test_share_rate_formula():
    assert share_rate(10e6, 4, 2.0) == 10e6 / 4 * 2.0
    assert share_rate(1.0, 1, 0.0) == 0.0
    with pytest.raises(ValueError):
        share_rate(10e6, 0, 1.0)


def test_evaluate_matches_python_oracle():
    rng = np.random.default_rng(77)
    for trial in range(50):
        k_ues = int(rng.integers(2, 9))
        table = seeded_table(k_ues, num_sbs=4, seed=int(rng.integers(2 ** 31)))
        digits = rng.integers(0, 3, size=k_ues)
        alloc = Allocation.from_digits(digits)
        counter = RateCalcCounter()
        report = evaluate(alloc, table, counter)

        rates_m, rates_s = python_rates(
            digits.tolist(), table.snr_macro.tolist(), table.sinr_small.tolist(),
            table.assoc_sbs.tolist(), table.num_sbs,
            table.params.bw_macro_hz, table.params.bw_small_hz)
        assert report.rate_macro == pytest.approx(rates_m, rel=1e-12)
        assert report.rate_small == pytest.approx(rates_s, rel=1e-12)
        assert report.sum_rate == pytest.approx(sum(rates_m) + sum(rates_s), rel=1e-12)
        # repr(sum_rate) is hashed into the benchmark's golden digests
        assert type(report.sum_rate) is np.float64
        served_pairs = int(np.sum(alloc.d_macro)) + int(np.sum(alloc.d_small))
        assert counter.count == served_pairs
        assert report.rate_calc_count == counter.count


def test_evaluate_tick_counts_per_tier():
    table = seeded_table(5, seed=2)
    assert evaluate(Allocation.all_both(5), table).rate_calc_count == 10
    assert evaluate(Allocation.all_small_only(5), table).rate_calc_count == 5
    assert evaluate(Allocation.from_digits([1] * 5), table).rate_calc_count == 5


def test_evaluate_rejects_mismatch_and_invalid():
    table = seeded_table(4, seed=3)
    with pytest.raises(ValueError):
        evaluate(Allocation.all_both(5), table)
    bad = Allocation(d_macro=np.array([1, 0, 1, 1]), d_small=np.array([1, 0, 1, 1]))
    with pytest.raises(ValueError):
        evaluate(bad, table)


def test_evaluate_accumulates_counter():
    """A counter carried across calls keeps accumulating; the report stores
    the final reading."""
    table = seeded_table(3, seed=4)
    counter = RateCalcCounter()
    evaluate(Allocation.all_small_only(3), table, counter)
    report = evaluate(Allocation.all_both(3), table, counter)
    assert counter.count == 3 + 6
    assert report.rate_calc_count == 9


def test_zero_rate_entries_for_unserved_tier():
    table = seeded_table(3, seed=6)
    report = evaluate(Allocation.all_small_only(3), table)
    assert np.all(report.rate_macro == 0.0)
    assert np.all(report.rate_small > 0.0)
