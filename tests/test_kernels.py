"""Bit-identity of the load-class scan with the row-at-a-time reference and
the Python oracle, its pruning, the scan memo's key, the numba-free import,
and prefix window pricing against full subset enumeration."""

import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dcalloc
import dcalloc.kernels as kernels
import dcalloc.solvers as solvers
from dcalloc import (DEFAULT_BRUTE_CAP, Allocation, BruteForceCapError,
                     brute_force_scan, build_sorted_matrix, check_proposition1, evaluate,
                     solve_1a_only, solve_3c_only, solve_brute_force, solve_proposed,
                     solve_stronger, subset_degradations)

from conftest import (adversarial_table, chunked_scan, exact_maximizers, python_brute,
                      python_objective, python_row_sum, python_subset_table, seeded_table,
                      synthetic_table, twin_table)


def test_import_ignores_backend_variable():
    """The package has one scan implementation: a leftover DCALLOC_BACKEND
    setting neither breaks the import nor loads numba."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), DCALLOC_BACKEND="numba")
    script = ("import sys, dcalloc; "
              "assert dcalloc.get_backend() == 'numpy'; "
              "assert dcalloc.available_backends() == ('numpy',); "
              "assert 'numba' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_objective_chunk_matches_python_oracle():
    """Bit for bit the plain-Python left-to-right row sum, on 0, 1 and 4096
    random rows of: a seeded table, K=1 on one SBS, K=10 on 16 SBSs (some
    serve nobody), all-equal log terms, and twin UEs."""
    tables = [seeded_table(6, num_sbs=3, seed=8), seeded_table(1, num_sbs=1, seed=9),
              seeded_table(10, num_sbs=16, seed=10), _all_equal_table(8, 2, seed=11),
              twin_table(seeded_table(7, num_sbs=2, seed=12), [(0, 1), (2, 6)])]
    assert len(set(tables[2].assoc_sbs.tolist())) < 16
    rng = np.random.default_rng(5)
    for table in tables:
        for n_rows in (0, 1, 4096):
            digits = rng.integers(0, 3, size=(n_rows, table.num_ue), dtype=np.uint8)
            vals = kernels.objective_chunk(digits, table)
            assert vals.dtype == np.float64 and vals.shape == (n_rows,)
            expected = [python_row_sum(row, table) for row in digits.tolist()]
            assert [v.hex() for v in vals.tolist()] == [v.hex() for v in expected]


def test_objective_chunk_scores_solver_allocations_as_evaluate():
    """Every solver's allocation scores the same bits in objective_chunk as
    in evaluate(), on seeded tables K=1..20 (the exhaustive solver to its
    cap)."""
    solvers = [solve_proposed, solve_3c_only, solve_1a_only, solve_stronger]
    for k_ues in range(1, 21):
        for num_sbs in (1, 4, 16):
            table = seeded_table(k_ues, num_sbs=num_sbs, seed=7000 + 100 * k_ues + num_sbs)
            picked = solvers + [solve_brute_force] * (k_ues <= DEFAULT_BRUTE_CAP)
            for solve in picked:
                alloc = solve(table).alloc
                score = kernels.objective_chunk(alloc.digits[None], table)
                assert score[0].hex() == evaluate(alloc, table).hex(), \
                    (k_ues, num_sbs, solve.__name__)


def test_objective_chunk_refuses_bad_rows():
    """A digit outside {0, 1, 2} is refused with Allocation's message, as is
    an input that is not a 2-d (rows, K) array; an integer-valued float row
    scores as its digits do."""
    table = seeded_table(3, seed=1)
    for rows in ([[3, 3, 3]], [[-1, 7, 0]], [[0.5, 0, 0]], [[0, 1, np.nan]], [["0", "1", "2"]]):
        with pytest.raises(ValueError, match=r"^profile digits must be 0, 1 or 2$"):
            kernels.objective_chunk(np.array(rows), table)
    for rows in (np.zeros(3, np.uint8), np.zeros((1, 2), np.uint8), np.zeros((1, 4), np.uint8),
                 np.zeros((2, 3, 1), np.uint8), np.uint8(0)):
        with pytest.raises(ValueError, match=r"^digits must be a 2-d \(rows, num_ue\) array$"):
            kernels.objective_chunk(rows, table)
    rows = [[0, 1, 2], [2, 2, 2]]
    assert (kernels.objective_chunk(np.array(rows, dtype=float), table).tolist()
            == kernels.objective_chunk(np.array(rows, dtype=np.uint8), table).tolist())


def test_brute_scan_matches_python_oracle():
    for seed in (1, 2, 3, 4):
        table = seeded_table(5, num_sbs=4, seed=seed)
        ref_val, _ = python_brute(table)
        val, digits = brute_force_scan(table)
        assert val == pytest.approx(ref_val, rel=1e-12)
        # the winner's own objective must match the oracle's maximum
        assert python_objective(digits, table) == pytest.approx(ref_val, rel=1e-12)


def test_brute_scan_returns_a_maximizer_on_ties():
    """Two UEs at identical geometry make symmetric combinations tie; the
    scan must return the digit row of a row that scores the maximum bit for
    bit."""
    twin = twin_table(seeded_table(4, num_sbs=4, seed=12), [(0, 1)])
    assert brute_force_scan(twin)[1] in exact_maximizers(twin)


def test_scan_returns_a_maximizers_digit_row():
    """The scan names its maximizer by its digit row alone: a tuple of ints
    that scores the reference's maximum bit for bit, whose evaluate() replay
    has the maximum's bits too, on twin tables and all-equal tables,
    K=1..10. No enumeration index is decoded or reported."""
    assert not hasattr(dcalloc, "decode_combo") and not hasattr(kernels, "decode_combo")
    for k_ues in range(1, 11):
        tables = [_all_equal_table(k_ues, 2, seed=80 + k_ues)]
        if k_ues >= 2:
            base = seeded_table(k_ues, num_sbs=2, seed=90 + k_ues)
            tables += [twin_table(base, [(0, 1)]), twin_table(base, [(0, k_ues - 1)])]
        for table in tables:
            ref_val, *_ = chunked_scan(table)
            val, digits = brute_force_scan(table)
            assert type(digits) is tuple and all(type(d) is int for d in digits)
            assert val.hex() == ref_val.hex(), k_ues
            assert digits in exact_maximizers(table), k_ues
            assert evaluate(Allocation(digits), table).hex() == val.hex()
            assert solve_brute_force(table).wall_notes == {"combinations": 3 ** k_ues}


def _reference_tables():
    for k_ues in range(1, 10):
        for num_sbs in (1, 4, 16):
            for seed in range(2):
                yield seeded_table(k_ues, num_sbs=num_sbs, seed=900 + 10 * k_ues + seed)
    for k_ues in range(2, 10):
        base = seeded_table(k_ues, num_sbs=2, seed=950 + k_ues)
        yield twin_table(base, [(0, 1)])
        yield twin_table(base, [(j, j + 1) for j in range(0, k_ues - 1, 2)])
    for k_ues in range(5, 11):
        yield adversarial_table(k_ues)
    # every SBS's low UEs interleave with another's in assoc
    for num_sbs, assoc in ((2, [1, 0] * 5), (3, [2, 0, 1] * 3 + [0])):
        base = seeded_table(10, num_sbs=num_sbs, seed=970 + num_sbs)
        yield replace(base, assoc_sbs=np.array(assoc))
    # zero log terms, where a row that leaves a station idle ties the row
    # serving one of its UEs on that tier too
    for k_ues in (1, 3, 6, 9):
        for num_sbs in (1, 4):
            base = seeded_table(k_ues, num_sbs=num_sbs, seed=1000 + 10 * k_ues + num_sbs)
            every = range(k_ues)
            yield _zeroed_table(base, small=every)
            yield _zeroed_table(base, macro=every)
            yield _zeroed_table(base, macro=every, small=every)
            yield _zeroed_table(base, macro=every[::2], small=every[1::3])
    # many one-UE SBSs
    for k_ues in range(8, 11):
        for seed in range(3):
            yield seeded_table(k_ues, num_sbs=16, seed=1100 + 10 * k_ues + seed)


# chunk sizes the scan must be indifferent to: the default, a few rows (pieces
# cut across a load class) and one row at a time
CHUNK_SIZES = (kernels._CHUNK_ROWS, 7, 1)


def test_block_scan_matches_chunked_reference(monkeypatch):
    """Value bits and served flags equal the row-at-a-time enumeration at
    every chunk size, and the digit row is one maximizer, the same at every
    chunk size, among several on some tables. Against a unique maximizer, a
    UE's flag for the tier its digit excludes is False."""
    false_flags = tied = 0
    for table in _reference_tables():
        ref_val, _, *ref_flags = chunked_scan(table)
        maximizers = exact_maximizers(table)
        returned = set()
        for chunk_rows in CHUNK_SIZES:
            monkeypatch.setattr(kernels, "_CHUNK_ROWS", chunk_rows)
            val, digits, *flags = kernels._block_scan(table)
            assert (val.hex(), flags) == (ref_val.hex(), ref_flags)
            assert digits in maximizers
            assert brute_force_scan(table) == (ref_val, digits)
            returned.add(digits)
        monkeypatch.undo()
        assert len(returned) == 1
        false_flags += sum(flag.count(False) for flag in ref_flags)
        tied += len(maximizers) > 1
    assert false_flags > 0 and tied > 0


def test_block_scan_keys_classes_on_sbs_loads(monkeypatch):
    """Two UEs on one SBS. The optimum serves UE 0 small-only and UE 1
    macro-only, digits (2, 1), in the class of MBS load 1 and SBS load 1;
    the rows where UE 1 takes digit 0 instead have the same MBS load but SBS
    load 2. Scoring a class's rows with another's shares would price UE 0's
    small term at the wrong load and miss the optimum, at any chunk size."""
    snr = np.array([0.5, 60.0])
    sinr = np.array([80.0, 0.2])
    params = seeded_table(2, num_sbs=1).params
    table = synthetic_table(snr, sinr, [0, 0], params)
    ref = chunked_scan(table)
    assert ref[1] == (2, 1)
    for chunk_rows in CHUNK_SIZES + (2,):
        monkeypatch.setattr(kernels, "_CHUNK_ROWS", chunk_rows)
        assert kernels._block_scan(table) == ref


def test_numpy_blocking_is_invisible(monkeypatch, scan_calls):
    """Every chunk size gives the reference's value bits and first
    maximizer, and each one really scans: a copy built by replace is a new
    table object, which the memo does not recognise."""
    for seed in (9, 10):
        table = seeded_table(6, num_sbs=4, seed=seed)
        ref_val, ref_digits, *_ = chunked_scan(table)
        whole = brute_force_scan(table)
        assert (whole[0].hex(), whole[1]) == (ref_val.hex(), ref_digits)
        with monkeypatch.context() as m:
            for chunk_rows in (1, 2, 5, 7, kernels._CHUNK_ROWS):
                m.setattr(kernels, "_CHUNK_ROWS", chunk_rows)
                before = len(scan_calls)
                chunked = brute_force_scan(replace(table))
                assert (chunked[0].hex(), chunked[1]) == (whole[0].hex(), whole[1])
                assert scan_calls[before:] == [chunk_rows]


def _all_equal_table(k_ues, num_sbs, seed=0):
    """A seeded table's SBS association with every SNR and SINR 3.0: every
    log term is 2.0, so whole load classes tie and the bound prunes almost
    nothing."""
    base = seeded_table(k_ues, num_sbs=num_sbs, seed=seed)
    return synthetic_table(np.full(k_ues, 3.0), np.full(k_ues, 3.0), base.assoc_sbs,
                           base.params)


def _zeroed_table(table, macro=(), small=()):
    """Copy of table where the UEs in macro (small) have SNR (SINR) 1e-20, so
    that their macro (small) log term is exactly 0.0."""
    snr, sinr = table.snr_macro.copy(), table.sinr_small.copy()
    snr[list(macro)] = 1e-20
    sinr[list(small)] = 1e-20
    table = synthetic_table(snr, sinr, table.assoc_sbs, table.params)
    assert all(table.log_macro[list(macro)] == 0.0) and all(table.log_small[list(small)] == 0.0)
    return table


def _class_of(digits, assoc, num_sbs):
    """(MBS load, SBS loads) of one digit row."""
    loads = [0] * num_sbs
    for d, i in zip(digits, assoc):
        loads[i] += d != 1
    return sum(d != 2 for d in digits), tuple(loads)


def _station_bound(logs, bw, n):
    """bw / n times the sum of the n largest logs: the most a station adds
    where it serves n of these UEs."""
    return bw / n * sum(sorted(logs, reverse=True)[:n])


def _class_bounds(table):
    """Every load class the scan sums from, with its bound, by plain
    enumeration. Every station with UEs serves at least one of them. The
    MBS serves the UEs no SBS serves, so it adds at most bw_m / n_m times the
    lesser of its n_m largest log terms and, for each group, the g - n
    largest it leaves to the MBS plus the largest others it has room for."""
    k_ues, assoc = table.num_ue, table.assoc_sbs.tolist()
    log_m, log_s = table.log_macro.tolist(), table.log_small.tolist()
    bw_m, bw_s = table.params.bw_macro_hz, table.params.bw_small_hz
    groups = [[k for k in range(k_ues) if assoc[k] == i] for i in range(table.num_sbs)]
    bounds = {}
    for loads in itertools.product(*(range(min(len(g), 1), len(g) + 1) for g in groups)):
        uncovered = k_ues - sum(loads)
        left = sum(sum(sorted((log_m[k] for k in g), reverse=True)[:len(g) - n])
                   for g, n in zip(groups, loads))
        small = sum(_station_bound([log_s[k] for k in g], bw_s, n)
                    for g, n in zip(groups, loads) if n)
        for n_m in range(max(uncovered, 1), k_ues + 1):
            cover = bw_m / n_m * (left + sum(sorted(log_m, reverse=True)[:n_m - uncovered]))
            bounds[n_m, loads] = min(_station_bound(log_m, bw_m, n_m), cover) + small
    return bounds


def _best_bounded_class(table):
    """The load class with the highest bound, the first in _class_bounds'
    order on a tie."""
    bounds = _class_bounds(table)
    return max(bounds, key=bounds.get)


def _dominance_tables():
    for k_ues in range(1, 7):
        for num_sbs in (1, 4, 16):
            yield seeded_table(k_ues, num_sbs=num_sbs, seed=1200 + 10 * k_ues + num_sbs)
        yield _all_equal_table(k_ues, 2, seed=1300 + k_ues)
        base = seeded_table(k_ues, num_sbs=2, seed=1400 + k_ues)
        every = range(k_ues)
        yield _zeroed_table(base, small=every)
        yield _zeroed_table(base, macro=every, small=every)
        yield _zeroed_table(base, macro=every[::2], small=every[1::2])
        if k_ues >= 2:
            yield twin_table(base, [(0, k_ues - 1)])


def test_scan_classes_hold_every_undominated_row():
    """Every digit row of small tables, K <= 6. A row where every station
    with UEs serves one of them lies in one of _class_bounds' classes and
    sums to at most its bound (1e-12 relative, for the other summation
    order), which is at most the bound without the covering term; every
    class holds such a row. A row that leaves a station idle is matched by
    the row where that station's first UE takes digit 0: a smaller digit
    row, a sum at least as large and every (UE, tier) pair still served. So
    the maximum, its first maximizer and every served flag lie in the
    classes the scan sums."""
    for table in _dominance_tables():
        k_ues, assoc, num_sbs = table.num_ue, table.assoc_sbs.tolist(), table.num_sbs
        log_m, log_s = table.log_macro.tolist(), table.log_small.tolist()
        bounds = _class_bounds(table)
        for (n_m, loads), bound in bounds.items():
            assert bound <= _station_bound(log_m, table.params.bw_macro_hz, n_m) + sum(
                _station_bound([log_s[k] for k in range(k_ues) if assoc[k] == i],
                               table.params.bw_small_hz, n) for i, n in enumerate(loads) if n)
        # every digit row in enumeration order, UE 0 the least significant digit
        rows = [row[::-1] for row in itertools.product(range(3), repeat=k_ues)]
        vals = kernels.objective_chunk(np.array(rows, dtype=np.uint8), table).tolist()
        index = {row: j for j, row in enumerate(rows)}
        held = set()
        for row, val in zip(rows, vals):
            n_m, loads = _class_of(row, assoc, num_sbs)
            idle = [k for k in range(k_ues) if n_m == 0 or loads[assoc[k]] == 0]
            if not idle:
                held.add((n_m, loads))
                assert val <= bounds[n_m, loads] * (1 + 1e-12)
                continue
            better = row[:idle[0]] + (0,) + row[idle[0] + 1:]
            assert better[::-1] < row[::-1] and vals[index[better]] >= val
            assert all((d == 2 or b != 2) and (d == 1 or b != 1) for d, b in zip(row, better))
        assert held == set(bounds)


def test_block_scan_on_all_equal_logs(monkeypatch):
    """With every log term equal, rows of different classes tie in exact
    arithmetic and differ only by rounding, so the bound's margin is all
    that keeps their maximizers: K=1..10 on 1, 2 and 4 SBSs. Some rows of
    different SBS patterns tie bit for bit, and the scan returns the same
    one of them at every chunk size."""
    for k_ues in range(1, 11):
        for num_sbs in (1, 2, 4):
            table = _all_equal_table(k_ues, num_sbs, seed=40 + k_ues)
            ref_val, _, *ref_flags = chunked_scan(table)
            maximizers = exact_maximizers(table)
            returned = set()
            for chunk_rows in CHUNK_SIZES:
                monkeypatch.setattr(kernels, "_CHUNK_ROWS", chunk_rows)
                val, digits, *flags = kernels._block_scan(table)
                assert (val.hex(), flags) == (ref_val.hex(), ref_flags), (k_ues, num_sbs)
                assert digits in maximizers, (k_ues, num_sbs)
                returned.add(digits)
            assert len(returned) == 1, (k_ues, num_sbs)


def test_block_scan_on_single_sbs_tables(monkeypatch):
    """One SBS: a single group holds every UE, so a class's rows come from
    one choice table; K=1..10, two seeds each, at every chunk size."""
    for k_ues in range(1, 11):
        for seed in (60, 61):
            table = seeded_table(k_ues, num_sbs=1, seed=100 * k_ues + seed)
            ref_val, ref_digits, *ref_flags = chunked_scan(table)
            for chunk_rows in CHUNK_SIZES:
                monkeypatch.setattr(kernels, "_CHUNK_ROWS", chunk_rows)
                val, digits, *flags = kernels._block_scan(table)
                assert (val.hex(), digits, flags) == (ref_val.hex(), ref_digits, ref_flags)


def test_block_scan_finds_optimum_outside_best_bounded_class():
    """On this seeded table the class with the highest bound, the covering
    term included, does not hold the optimum, so the scan must go on past
    it."""
    table = seeded_table(10, num_sbs=16, seed=902)
    ref_val, ref_digits, *ref_flags = chunked_scan(table)
    optimum = _class_of(ref_digits, table.assoc_sbs.tolist(), 16)
    assert optimum != _best_bounded_class(table)
    val, digits, *flags = kernels._block_scan(table)
    assert (val.hex(), digits, flags) == (ref_val.hex(), ref_digits, ref_flags)


def _subnormal_table():
    """A seeded K=7 table at a bandwidth of 1e-300 Hz on both tiers."""
    base = seeded_table(7, num_sbs=2, seed=71)
    params = replace(base.params, bw_macro_hz=1e-300, bw_small_hz=1e-300)
    return synthetic_table(base.snr_macro, base.sinr_small, base.assoc_sbs, params)


def test_block_scan_sums_every_class_when_terms_are_subnormal():
    """At a bandwidth of 1e-300 Hz the smallest terms are subnormal, where
    rounding is no longer relative, so the scan sums every class; it still
    matches the reference."""
    table = _subnormal_table()
    assert table.log_macro.min() * 1e-300 / 7 < 2.0 ** -1000
    ref_val, ref_digits, *ref_flags = chunked_scan(table)
    val, digits, *flags = kernels._block_scan(table)
    assert (val.hex(), digits, flags) == (ref_val.hex(), ref_digits, ref_flags)


_WORST_CASE_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from dcalloc import kernels
from dcalloc.kernels import objective_chunk
from conftest import chunked_scan, seeded_table, synthetic_table

base = seeded_table(12, num_sbs=1, seed=0)
table = synthetic_table(np.full(12, 3.0), np.full(12, 3.0), base.assoc_sbs, base.params)
val, digits, *flags = kernels._block_scan(table)
ref_val, _, *ref_flags = chunked_scan(table)
assert (val.hex(), flags) == (ref_val.hex(), ref_flags)
assert objective_chunk(np.array([digits]), table)[0].hex() == val.hex()
print(val.hex(), "".join(map(str, digits)))
"""


def test_block_scan_worst_case_under_memory_limit():
    """An all-equal K=12 table on one SBS leaves the bound almost nothing to
    prune. In a child process capped at 2 GiB of address space, the scan
    still sums it in pieces of bounded size, matches the reference's value
    and flags and returns a row that scores the value."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    proc = subprocess.run([sys.executable, "-c", _WORST_CASE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.split()) == 2


def test_scan_memo_keys_on_the_table_object(scan_calls):
    """solve_brute_force then check_proposition1 on one table object cost one
    scan together; an equal table built anew is scanned again, to the same
    result."""
    table = seeded_table(7, num_sbs=4, seed=31)
    opt = solve_brute_force(table)
    assert check_proposition1(table, opt.alloc) == (True, None)
    assert brute_force_scan(table) == (opt.sum_rate, tuple(opt.alloc.digits.tolist()))
    assert len(scan_calls) == 1
    assert brute_force_scan(seeded_table(7, num_sbs=4, seed=31)) == brute_force_scan(table)
    assert len(scan_calls) == 3


def test_every_scan_refuses_past_the_cap(scan_calls):
    """The scan owns the K cap: the public scan, the exhaustive solver and
    the head checker all refuse K = DEFAULT_BRUTE_CAP + 1 with one message,
    before any row is summed."""
    table = seeded_table(DEFAULT_BRUTE_CAP + 1, seed=35)
    messages = set()
    for call in (lambda: brute_force_scan(table), lambda: solve_brute_force(table),
                 lambda: check_proposition1(table, Allocation([0] * table.num_ue))):
        with pytest.raises(BruteForceCapError) as err:
            call()
        messages.add(str(err.value))
    assert messages == {f"K={DEFAULT_BRUTE_CAP + 1} exceeds the exhaustive-search cap "
                        f"of {DEFAULT_BRUTE_CAP} UEs"}
    assert scan_calls == []


@pytest.mark.parametrize("change", ["log_macro", "log_small", "assoc_sbs",
                                    "bw_macro_hz", "bw_small_hz"])
def test_scan_memo_rescans_on_changed_input(scan_calls, change):
    """A table changed in any input the scan reads is a new table, built by
    replace: another received power for one UE, hence another SNR or SINR and
    log term, another SBS for one UE, or another bandwidth scans again, and
    the rescan matches a fresh reference."""
    table = seeded_table(6, num_sbs=4, seed=33)
    brute_force_scan(table)
    if change in ("log_macro", "log_small"):
        name = {"log_macro": "rx_macro_w", "log_small": "rx_small_w"}[change]
        values = getattr(table, name).copy()
        values[2] *= 1.5
        changed = replace(table, **{name: values})
        assert getattr(changed, change)[2] != getattr(table, change)[2]
    elif change == "assoc_sbs":
        assoc = table.assoc_sbs.copy()
        assoc[1] = (assoc[1] + 1) % table.num_sbs
        changed = replace(table, assoc_sbs=assoc)
    else:
        params = replace(table.params, **{change: getattr(table.params, change) * 2})
        changed = replace(table, params=params)
    val, digits = brute_force_scan(changed)
    assert len(scan_calls) == 2
    ref_val, ref_digits, *_ = chunked_scan(changed)
    assert (val.hex(), digits) == (ref_val.hex(), ref_digits)


def test_scan_result_and_layout_are_read_only(scan_calls):
    """The memoized result is a tuple of tuples and the cached choice,
    pick and pattern tables the scan builds its rows from are read-only, so
    no caller can corrupt a later scan."""
    table = seeded_table(9, num_sbs=4, seed=34)
    scan = kernels._table_scan(table)
    assert type(scan) is tuple
    assert all(type(flags) is tuple for flags in scan[2:])
    cached = [kernels._choices(n, r) for n, r in ((4, 2), (9, 0), (9, 9))]
    cached += [kernels._picks(n, r) for n, r in ((4, 2), (5, 0), (5, 5))]
    for sizes, loads, n_single in (((3, 2), (2, 1), 1), ((4,), (4,), 0), ((2, 2), (1, 2), 3)):
        cached.append(kernels._layout(sizes, loads, n_single))
    for arr in cached:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    assert kernels._table_scan(table) is scan
    assert len(scan_calls) == 1


def test_layout_cache_is_keyed_by_group_shape(monkeypatch):
    """Two tables whose SBS groups have the same sizes but other member UEs
    (a permuted assoc_sbs) share the cached SBS patterns, and each scans to
    the row-at-a-time reference at every chunk size."""
    base = seeded_table(9, num_sbs=3, seed=36)
    perm = np.array([4, 7, 0, 2, 8, 1, 6, 3, 5])
    moved = replace(base, assoc_sbs=base.assoc_sbs[perm])
    assert np.array_equal(np.bincount(moved.assoc_sbs), np.bincount(base.assoc_sbs))
    assert not np.array_equal(moved.assoc_sbs, base.assoc_sbs)
    kernels._layout.cache_clear()
    kernels._block_scan(base)
    seen = kernels._layout.cache_info()
    kernels._block_scan(moved)
    assert kernels._layout.cache_info().hits > seen.hits
    for table in (base, moved):
        ref_val, ref_digits, *ref_flags = chunked_scan(table)
        for chunk_rows in CHUNK_SIZES:
            monkeypatch.setattr(kernels, "_CHUNK_ROWS", chunk_rows)
            val, digits, *flags = kernels._block_scan(table)
            assert (val.hex(), digits, flags) == (ref_val.hex(), ref_digits, ref_flags)


def _check_by_scoring(table, alloc):
    """check_proposition1's rule with every allocation scored by
    objective_chunk, the scan's own maximizer included."""
    best, _, macro_served, small_served = kernels._table_scan(table)
    value = kernels.objective_chunk(alloc.digits[None], table)[0]
    if value < best - 2 * table.num_ue * math.ulp(best):
        raise ValueError("not a maximizer")
    mbs = table.num_sbs
    for bs, col in enumerate(build_sorted_matrix(table)):
        if len(col) and not (macro_served if bs == mbs else small_served)[col[0]]:
            return False, {"bs": bs, "head_ue": int(col[0]), "max_sum_rate": best}
    return True, None


def test_check_proposition1_scores_only_other_maximizers(monkeypatch):
    """objective_chunk scores the scan's own maximizer to the scan's
    maximum bit for bit, so the checker takes the maximum for it and calls
    evaluate zero times; a swapped-twin maximizer, another row, is scored
    once. Both get the (ok, witness) of scoring every allocation with
    objective_chunk. The tables: the reference set (twins, zero logs),
    all-equal tables and the subnormal one."""
    calls = []

    def counted(alloc, table):
        calls.append(tuple(alloc.digits.tolist()))
        return evaluate(alloc, table)

    monkeypatch.setattr(solvers, "evaluate", counted)
    swapped_rows = 0
    all_equal = [_all_equal_table(k, i, seed=40 + k) for k in range(6, 10) for i in (1, 2, 4)]
    for table in itertools.chain(_reference_tables(), all_equal, [_subnormal_table()]):
        best, digits = brute_force_scan(table)
        assert kernels.objective_chunk(np.array([digits]), table)[0].hex() == best.hex()
        own = Allocation(digits)
        expected = _check_by_scoring(table, own)
        del calls[:]
        assert check_proposition1(table, own) == expected
        assert calls == []
        assoc = table.assoc_sbs.tolist()
        twins = [(a, b) for a, b in itertools.combinations(range(table.num_ue), 2)
                 if digits[a] != digits[b] and assoc[a] == assoc[b]
                 and table.snr_macro[a] == table.snr_macro[b]
                 and table.sinr_small[a] == table.sinr_small[b]]
        for a, b in twins[:1]:
            row = list(digits)
            row[a], row[b] = row[b], row[a]
            swapped = Allocation(row)
            assert check_proposition1(table, swapped) == _check_by_scoring(table, swapped)
            assert calls == [tuple(row)]
            swapped_rows += 1
    assert swapped_rows >= 10


def test_subset_degradations_match_python_oracle():
    """A column's rate totals over a window's prefixes have the bits of full
    enumeration's, and pricing the window from them returns its least
    degradation bit for bit and the length of the prefix that wins it: among
    the subsets of least degradation, the one leaving the highest rate
    total, then the fewest rows, then the least window offsets. Columns are
    descending, as a station's: cs_size committed rows, then the window.
    Every other column draws its terms from four values so that they repeat
    exactly."""
    rng = np.random.default_rng(17)
    for trial in range(300):
        w = int(rng.integers(1, 13))
        cs_size = int(rng.integers(0, 4))
        if trial % 2:
            terms = rng.choice([0.25, 1.0, 2.5, 6.0], size=cs_size + w)
        else:
            terms = rng.uniform(0.01, 8.0, size=cs_size + w)
        column = np.sort(terms)[::-1]
        bw = 10e6
        # the greedy's rate totals over the column, committed rows first
        totals = [0.0, *(bw / np.arange(1, cs_size + w + 1) * np.cumsum(column)).tolist()]
        cs_logsum = float(np.cumsum(column)[cs_size - 1]) if cs_size else 0.0
        ref_degs, ref_csums, ref_pcnts = python_subset_table(
            column[cs_size:].tolist(), cs_logsum, cs_size, bw)
        assert totals[cs_size + 1:] == [bw / (cs_size + s) * ref_csums[(1 << s) - 1]
                                        for s in range(1, w + 1)]
        deg, rows = subset_degradations(totals[cs_size + 1:], totals[cs_size])
        assert deg.hex() == min(ref_degs).hex()
        best_mask = min((m for m in range(1, 1 << w) if ref_degs[m] == deg),
                        key=lambda m: (-(bw / (cs_size + ref_pcnts[m]) * ref_csums[m]),
                                       ref_pcnts[m], [b for b in range(w) if (m >> b) & 1]))
        assert best_mask == (1 << rows) - 1


def test_subset_degradations_signs():
    """Adopting a stronger-than-average UE must register as an improvement
    (negative degradation), a weaker one as a loss; equal totals go to the
    shorter prefix."""
    # committed log 1, then a window of logs 9 and 0.001, on bandwidth 1
    deg, rows = subset_degradations([1.0 / 2 * 10.0, 1.0 / 3 * 10.001], 1.0)
    assert (deg, rows) == (1.0 - 1.0 / 2 * 10.0, 1)
    assert deg < 0.0            # newcomer log 9 vs committed average 1
    weak, _ = subset_degradations([1.0 / 2 * 1.001], 1.0)
    assert weak > 0.0
    # empty committed set: any adoption is pure gain
    assert subset_degradations([0.5], 0.0) == (-0.5, 1)
    assert subset_degradations([2.0, 3.0, 3.0, 1.0], 2.5) == (-0.5, 2)
