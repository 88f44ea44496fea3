"""Solver behaviour: exact search, greedy, baselines, optimality checker."""

import copy
import dataclasses
import hashlib
import inspect
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcalloc.kernels as kernels
import dcalloc.solvers as solvers
from dcalloc import (Allocation, BruteForceCapError, ChannelTable, ScenarioParams,
                     build_sorted_matrix, check_proposition1, evaluate,
                     solve_1a_only, solve_3c_only, solve_brute_force,
                     solve_proposed, solve_stronger)
from dcalloc.cli import cli_main

from conftest import (adversarial_table, chunked_scan, exact_maximizers, python_brute,
                      python_greedy, python_prefix_greedy, seeded_table, synthetic_table,
                      twin_table)


def _synthetic(snr, sinr, assoc, num_sbs, **scenario):
    params = ScenarioParams(num_sbs=num_sbs, num_ue=len(snr), **scenario)
    return synthetic_table(snr, sinr, assoc, params)


# --- sorted matrix ---------------------------------------------------------

def test_sorted_matrix_single_sbs_order():
    table = _synthetic(snr=[1.0, 1.0, 1.0], sinr=[5.0, 9.0, 1.0], assoc=[0, 0, 0], num_sbs=1)
    cols = build_sorted_matrix(table)
    assert cols[0] == [1, 0, 2]


def test_sorted_matrix_tie_goes_to_lower_index():
    table = _synthetic(snr=[2.0, 3.0, 2.0], sinr=[4.0, 4.0, 4.0], assoc=[0, 0, 0], num_sbs=1)
    cols = build_sorted_matrix(table)
    assert cols[0] == [0, 1, 2]
    assert cols[-1] == [1, 0, 2]


def test_sorted_matrix_invariants_on_seeded_instances():
    for seed in range(10):
        table = seeded_table(num_ue=12, num_sbs=4, seed=seed)
        cols = build_sorted_matrix(table)
        assert len(cols) == 4 + 1
        assert sorted(sum(cols[:4], [])) == list(range(12))
        assert sorted(cols[-1]) == list(range(12))
        for i in range(4):
            col = cols[i]
            assert all(table.assoc_sbs[u] == i for u in col)
            vals = table.sinr_small[col]
            assert np.all(np.diff(vals) <= 0)
            if len(col):
                # head is the argmax by an independent scan, ties to lowest index
                members = np.flatnonzero(table.assoc_sbs == i)
                best = members[np.argmax(table.sinr_small[members])]
                assert cols[i][0] == best
        assert np.all(np.diff(table.snr_macro[cols[-1]]) <= 0)
        assert cols[4][0] == int(np.argmax(table.snr_macro))


def test_sorted_matrix_empty_column():
    table = _synthetic(snr=[1.0], sinr=[2.0], assoc=[1], num_sbs=2)
    cols = build_sorted_matrix(table)
    assert cols[0] == []
    assert cols[1] == [0]


def test_sorted_matrix_equals_per_sbs_sorts():
    """The columns are lists of ints, those of a stable descending sort of
    each SBS group on its own, with repeated SINRs and SNRs and SBSs that
    serve nobody; the table's own columns are the same as tuples of ints."""
    rng = np.random.default_rng(23)
    empty_groups = 0
    for trial in range(60):
        num_sbs = int(rng.integers(1, 17))
        k_ues = int(rng.integers(1, 25))
        # few SBSs in use, so that some groups are empty
        assoc = rng.integers(0, max(1, num_sbs // 2), size=k_ues)
        levels = [0.5, 2.0, 7.0] if trial % 2 else rng.uniform(0.1, 9.0, size=k_ues)
        table = _synthetic(snr=rng.choice(levels, size=k_ues),
                           sinr=rng.choice(levels, size=k_ues), assoc=assoc, num_sbs=num_sbs)
        expected = []
        for i in range(num_sbs):
            members = np.flatnonzero(table.assoc_sbs == i)
            expected.append(members[np.argsort(-table.sinr_small[members], kind="stable")])
        expected.append(np.argsort(-table.snr_macro, kind="stable"))
        cols = build_sorted_matrix(table)
        assert cols == [col.tolist() for col in expected]
        assert all(type(col) is list and all(type(ue) is int for ue in col) for col in cols)
        assert table.columns == tuple(tuple(col.tolist()) for col in expected)
        assert all(type(col) is tuple and all(type(ue) is int for ue in col)
                   for col in table.columns)
        empty_groups += sum(col.size == 0 for col in expected[:num_sbs])
    assert empty_groups > 0


# --- brute force -----------------------------------------------------------

def test_brute_force_k1_checks_three_profiles():
    table = seeded_table(num_ue=1, seed=31)
    res = solve_brute_force(table)
    assert res.op_count == 3
    candidates = [evaluate(Allocation([d]), table) for d in range(3)]
    assert res.sum_rate == max(candidates)


@pytest.mark.parametrize("k_ues", range(1, 8))
def test_brute_force_counter_identity(k_ues):
    table = seeded_table(num_ue=k_ues, seed=40 + k_ues)
    res = solve_brute_force(table)
    assert res.op_count == k_ues * 3 ** k_ues


def test_brute_force_matches_python_oracle():
    for seed in (3, 14, 15):
        table = seeded_table(num_ue=5, seed=seed)
        ref_val, ref_digits = python_brute(table)
        res = solve_brute_force(table)
        assert res.sum_rate == pytest.approx(ref_val, rel=1e-12)
        assert tuple(res.alloc.digits.tolist()) == ref_digits


def test_brute_force_cap():
    table = seeded_table(num_ue=15, seed=1)
    with pytest.raises(BruteForceCapError, match="14"):
        solve_brute_force(table)
    # the head checker scans 3^K too and refuses the same K
    with pytest.raises(BruteForceCapError, match="14"):
        check_proposition1(table, Allocation([0] * 15))


# --- baselines -------------------------------------------------------------

def test_3c_only_serves_everyone_twice():
    table = seeded_table(num_ue=5, seed=50)
    res = solve_3c_only(table)
    assert res.alloc.digits.tolist() == [0] * 5
    assert res.op_count == 10


def test_1a_only_leaves_macro_empty():
    table = seeded_table(num_ue=5, seed=51)
    res = solve_1a_only(table)
    assert res.alloc.digits.tolist() == [2] * 5
    assert np.flatnonzero(res.alloc.d_macro).size == 0
    assert res.op_count == 5


def test_every_solver_takes_the_table_alone():
    """A solver's one argument is the table, and its op_count is the charge
    of that solve alone: solving again reports the same count."""
    table = seeded_table(num_ue=6, seed=52)
    for solve in (solve_brute_force, solve_proposed, solve_3c_only, solve_1a_only,
                  solve_stronger):
        assert list(inspect.signature(solve).parameters) == ["table"], solve.__name__
        first, again = solve(table), solve(table)
        assert type(first) is solvers.SolverResult
        assert first.op_count == again.op_count > 0
        assert first.alloc == again.alloc


def test_stronger_picks_higher_received_power_tie_to_macro():
    table = ChannelTable(rx_macro_w=[2.0, 1.0, 1.0], rx_small_w=[1.0, 2.0, 1.0],
                         interference_w=[0.0, 0.0, 0.0], assoc_sbs=[0, 0, 0],
                         params=ScenarioParams(num_sbs=1, num_ue=3))
    res = solve_stronger(table)
    assert res.alloc.digits.tolist() == [1, 2, 1]


# --- greedy ----------------------------------------------------------------

def test_proposed_k1_gets_both_tiers():
    table = seeded_table(num_ue=1, num_sbs=1, seed=60)
    res = solve_proposed(table)
    assert res.alloc.digits.tolist() == [0]
    assert res.sum_rate == evaluate(Allocation([0]), table)
    assert res.wall_notes["passes"] == 0
    assert res.op_count == 2   # only the final evaluate


def test_proposed_terminates_at_initialization_when_heads_cover_everyone():
    # three UEs, three stations, each UE heads exactly one column
    table = _synthetic(snr=[1e3, 1.0, 2.0], sinr=[0.1, 9.0, 8.0],
                       assoc=[0, 0, 1], num_sbs=2)
    res = solve_proposed(table)
    assert res.wall_notes["passes"] == 0
    assert res.wall_notes["commits"] == 0
    assert res.wall_notes["initial_commits"] == 3
    assert res.wall_notes["subset_evaluations"] == 0
    assert res.alloc.digits.tolist() == [1, 2, 2]


def test_proposed_invariants_on_random_instances():
    rng = np.random.default_rng(123)
    for trial in range(60):
        k_ues = int(rng.integers(1, 15))
        num_sbs = int(rng.integers(1, 6))
        table = seeded_table(k_ues, num_sbs=num_sbs, seed=int(rng.integers(2 ** 31)))
        res = solve_proposed(table)
        notes = res.wall_notes
        # every commit consumes at least one row of the 2K total rows
        assert notes["commits"] <= 2 * k_ues
        assert notes["passes"] <= 2 * k_ues + 1
        # op_count is this solve's own charge: a second solve reports the same
        assert solve_proposed(table).op_count == res.op_count
        # each station serves exactly a nonempty prefix of its sorted column
        for bs, col in enumerate(build_sorted_matrix(table)):
            flags = (res.alloc.d_macro if bs == num_sbs else res.alloc.d_small)[col].tolist()
            depth = sum(flags)
            assert flags == [1] * depth + [0] * (len(col) - depth)
            assert depth >= 1 or len(col) == 0


def test_proposed_never_beats_brute_force_bitwise():
    for seed in range(25):
        table = seeded_table(num_ue=7, num_sbs=4, seed=200 + seed)
        opt = solve_brute_force(table)
        prop = solve_proposed(table)
        assert prop.sum_rate <= opt.sum_rate


def test_dominance_across_all_solvers():
    rng = np.random.default_rng(9)
    for trial in range(40):
        k_ues = int(rng.integers(2, 9))
        table = seeded_table(k_ues, num_sbs=4, seed=int(rng.integers(2 ** 31)))
        opt = solve_brute_force(table)
        for solver in (solve_proposed, solve_3c_only, solve_1a_only, solve_stronger):
            res = solver(table)
            assert res.sum_rate <= opt.sum_rate


def test_solver_results_keep_the_types_the_benchmark_hashes():
    """The benchmark hashes repr(sum_rate) and compares op counts exactly:
    every solver returns evaluate()'s np.float64, an int op count and a
    frozen allocation holding a read-only copy of its digits."""
    for k_ues in (1, 12, 20):
        table = seeded_table(k_ues, num_sbs=4, seed=900 + k_ues)
        picked = [solve_proposed, solve_3c_only, solve_1a_only, solve_stronger]
        picked += [solve_brute_force] * (k_ues <= solvers.DEFAULT_BRUTE_CAP)
        for solve in picked:
            res = solve(table)
            where = (k_ues, solve.__name__)
            assert type(res.sum_rate) is np.float64, where
            assert type(res.op_count) is int, where
            assert res.sum_rate.hex() == evaluate(res.alloc, table).hex(), where
            assert not res.alloc.digits.flags.writeable, where
            with pytest.raises(dataclasses.FrozenInstanceError):
                res.alloc.digits = np.zeros(k_ues, np.uint8)
            arr = res.alloc.digits.copy()
            alloc = Allocation(arr)
            assert arr.flags.writeable and not np.shares_memory(arr, alloc.digits), where
            arr[0] = (arr[0] + 1) % 3
            assert alloc.digits.tolist() == res.alloc.digits.tolist(), where
            for twin in (pickle.loads(pickle.dumps(alloc)), copy.deepcopy(alloc)):
                assert twin.digits.tolist() == alloc.digits.tolist(), where
                assert not twin.digits.flags.writeable, where


def test_adversarial_family_subset_eval_count_exact():
    """On the window-widening family, greedy's subset evaluations follow the
    closed form 2^(K-1) - 2^(N-1) + (K-N)(N-1) with N = 3 stations."""
    for k_ues in range(5, 17):
        res = solve_proposed(adversarial_table(k_ues))
        expected = 2 ** (k_ues - 1) - 2 ** 2 + (k_ues - 3) * 2
        assert res.wall_notes["subset_evaluations"] == expected
        assert res.wall_notes["commits"] == k_ues - 3
        digits = res.alloc.digits.tolist()
        assert digits[0] == 1          # macro head stays macro-only
        assert digits[1:] == [2] * (k_ues - 1)


def test_proposed_matches_plain_python_greedy():
    """The plain-Python greedy enumerates every subset of every window and
    tracks committed sets; solve_proposed prices prefixes and tracks column
    depths. Their digits, op counts and notes must agree. Two tables tie
    exactly (every log term 1.0, bandwidths that divide evenly): in the
    first, SBS 0's window [UE 1, UE 2] prices both prefixes at 0, and the
    shorter (1,) beats (1, 2); in the second, SBS 0 and the MBS price the
    window [UE 1] alike, and the lower station index wins."""
    tables = [seeded_table(k_ues, num_sbs=num_sbs, seed=100 * k_ues + 10 * num_sbs + s)
              for k_ues in range(1, 13) for num_sbs in (1, 4, 16) for s in range(5)]
    tables += [adversarial_table(k_ues) for k_ues in range(5, 13)]
    tables += [_synthetic(snr=[1.0, 1e3, 0.5], sinr=[1.0, 1.0, 1.0], assoc=[0, 0, 0],
                          num_sbs=1, bw_small_hz=3e6),
               _synthetic(snr=[3.0, 1.0], sinr=[3.0, 1.0], assoc=[0, 0], num_sbs=1)]
    assert [solve_proposed(t).alloc.digits.tolist() for t in tables[-2:]] == \
        [[2, 0, 2], [0, 2]]
    for table in tables:
        res = solve_proposed(table)
        digits, ticks, notes = python_greedy(table)
        assert res.alloc.digits.tolist() == digits
        assert res.op_count == ticks
        assert res.wall_notes == notes


def test_proposed_prefix_tie_goes_to_the_shortest_prefix():
    """Three consecutive SINRs near 1e6 share one log term, so SBS 0's
    window [UE 2, UE 1] below its head UE 0 leaves the station the same
    rate total with either prefix. The shorter one wins: the first commit
    adopts UE 2 alone and a second adopts UE 1, which ends where adopting
    both at once did, with the same sum-rate bits, after more ticks."""
    x0 = 1e6
    x1 = np.nextafter(x0, np.inf)
    x2 = np.nextafter(x1, np.inf)
    table = _synthetic(snr=[1.0, 0.5, 10.0], sinr=[x2, x0, x1], assoc=[0, 0, 0], num_sbs=1)
    assert len(set(table.log_small.tolist())) == 1
    res = solve_proposed(table)
    assert res.alloc.digits.tolist() == [2, 2, 0]
    assert float(res.sum_rate).hex() == "0x1.be25e009cf529p+27"
    assert (res.wall_notes["commits"], res.op_count) == (2, 33)
    assert (res.alloc.digits.tolist(), res.op_count, res.wall_notes) == python_greedy(table)


_LARGE_K_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from dcalloc import ScenarioParams, make_instance, solve_proposed
from conftest import python_prefix_greedy

for k_ues in (30, 60, 100, 200):
    for seed in range(3):
        _, table = make_instance(ScenarioParams(num_ue=k_ues, seed=seed))
        windows = []
        digits, ticks, notes = python_prefix_greedy(table, windows)
        res = solve_proposed(table)
        assert res.alloc.digits.tolist() == digits, (k_ues, seed)
        assert res.op_count == ticks, (k_ues, seed)
        assert res.wall_notes == notes, (k_ues, seed)
        print(k_ues, seed, max(w for _, _, w in windows))
"""


def test_proposed_large_k_under_memory_limit():
    """Windows reach dozens of rows at K >= 30; pricing them must not grow
    with 2^w. Runs in a child process capped at 2 GiB of address space, and
    checks digits, notes and the counter, which still charges the paper's
    subset enumeration per examined window, against the plain-Python
    prefix-pricing greedy."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    proc = subprocess.run([sys.executable, "-c", _LARGE_K_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 12


# sha256 of solve_proposed's outputs on the pinned tables, recorded from the
# greedy's numpy-array implementation; the list implementation keeps it
_PINNED_GREEDY_DIGEST = "d937a0f00c130fcdd101347520e0f0dae4c739804cf113b4bdfcefb4c971c8cd"


def test_proposed_outputs_pinned_past_the_oracles():
    """python_greedy enumerates subsets only up to K = 12. Past it, every
    output of solve_proposed, its digits, sum-rate bits, op count and
    notes, is pinned by a digest on 78 seeded tables at K = 13..200 on 1, 4
    and 16 SBSs."""
    digest = hashlib.sha256()
    for k_ues in (*range(13, 21), 30, 60, 100, 200):
        for num_sbs in (1, 4, 16):
            for s in range(2):
                res = solve_proposed(seeded_table(k_ues, num_sbs=num_sbs,
                                                  seed=1000 * k_ues + 10 * num_sbs + s))
                digest.update(repr((res.alloc.digits.tolist(), res.sum_rate.hex(),
                                    res.op_count, res.wall_notes)).encode())
    assert digest.hexdigest() == _PINNED_GREEDY_DIGEST


def _widening_table():
    """Three UEs on one SBS. The SNRs, and the SINRs of UEs 1 and 2, are
    consecutive doubles near 5e6 that share one log term; UE 0's SINR is
    1.0. Pass 1 prices the MBS window [UE 2] below the head UE 1, but SBS 0
    ties it, wins by its lower index and serves UE 2. Pass 2 then finds the
    MBS window at the same depth widened to [UE 2, UE 0], whose two-row
    prefix rounds to a degradation below zero and beats SBS 0's [UE 0]."""
    x0 = 5e6
    x1 = np.nextafter(x0, np.inf)
    x2 = np.nextafter(x1, np.inf)
    return _synthetic(snr=[x0, x2, x1], sinr=[1.0, x2, x1], assoc=[0, 0, 0], num_sbs=1)


def test_proposed_reprices_a_window_widened_at_fixed_depth():
    """A price kept from the MBS's one-row window would commit UE 2 alone
    and take a third pass; the widened window must be priced afresh."""
    table = _widening_table()
    windows = []
    python_prefix_greedy(table, windows)
    assert windows == [(0, 1, 1), (1, 1, 1), (0, 2, 1), (1, 1, 2)]
    res = solve_proposed(table)
    assert (res.alloc.digits.tolist(), res.op_count, res.wall_notes) == \
        python_greedy(table)
    assert res.alloc.digits.tolist() == [1, 0, 0]
    assert res.wall_notes["passes"] == 2


def _python_rate_totals(table):
    """Per station, in build_sorted_matrix's order, its rate total serving
    the first d rows of its column for d = 0..len: bw / d * (their log terms
    added left to right) in plain Python, and 0.0 for d = 0."""
    mbs = table.num_sbs
    out = []
    for bs, col in enumerate(build_sorted_matrix(table)):
        log = (table.log_macro if bs == mbs else table.log_small).tolist()
        bw = table.params.bw_macro_hz if bs == mbs else table.params.bw_small_hz
        row, total = [0.0], 0.0
        for d, ue in enumerate(col, 1):
            total += log[ue]
            row.append(bw / d * total)
        out.append(row)
    return out


def test_proposed_prices_windows_from_plain_rate_totals(monkeypatch):
    """Every window solve_proposed prices is a station's current rate total
    and the slice of its totals that the window's prefixes give, each equal
    bit for bit to the plain-Python bw / d * left-to-right sum."""
    calls = []
    pricer = solvers.subset_degradations

    def recording(window, before):
        calls.append((before, window))
        return pricer(window, before)

    monkeypatch.setattr(solvers, "subset_degradations", recording)
    checked = 0
    for k_ues in (5, 20, 60, 200):
        for num_sbs in (1, 4, 16):
            for seed in range(3):
                table = seeded_table(k_ues, num_sbs=num_sbs, seed=9000 + 10 * k_ues + seed)
                calls.clear()
                solve_proposed(table)
                totals = [[x.hex() for x in row] for row in _python_rate_totals(table)]
                for before, window in calls:
                    got = [x.hex() for x in (before, *window)]
                    assert any(row[d:d + len(got)] == got
                               for row in totals for d in range(1, len(row) - len(window))), \
                        (k_ues, num_sbs, seed)
                    checked += len(window)
    assert checked > 1000


def test_proposed_prices_each_distinct_window_once(monkeypatch):
    """The reference greedy examines every live window on every pass;
    solve_proposed must call subset_degradations exactly once per distinct
    (station, depth, width) among them, and must still match it."""
    calls = []
    pricer = solvers.subset_degradations

    def recording(window, before):
        calls.append((before, len(window)))
        return pricer(window, before)

    monkeypatch.setattr(solvers, "subset_degradations", recording)
    tables = [seeded_table(k_ues, num_sbs=num_sbs, seed=7000 + 100 * k_ues + num_sbs)
              for k_ues in range(2, 41, 3) for num_sbs in (1, 4, 16)]
    tables += [adversarial_table(12), _widening_table()]
    examined = distinct = 0
    for table in tables:
        windows = []
        digits, ticks, notes = python_prefix_greedy(table, windows)
        calls.clear()
        res = solve_proposed(table)
        assert (res.alloc.digits.tolist(), res.op_count, res.wall_notes) == \
            (digits, ticks, notes)
        totals = _python_rate_totals(table)
        assert sorted(calls) == sorted((totals[bs][cs], w) for bs, cs, w in set(windows))
        examined += len(windows)
        distinct += len(set(windows))
    assert distinct < examined / 2


def test_proposed_handles_empty_sbs_columns():
    # all UEs associate to SBS 1; SBS 0 never serves anyone
    table = _synthetic(snr=[3.0, 2.0, 1.0], sinr=[5.0, 4.0, 3.0],
                       assoc=[1, 1, 1], num_sbs=2)
    res = solve_proposed(table)
    assert np.flatnonzero(res.alloc.d_small & (table.assoc_sbs == 0)).size == 0


# --- optimality condition --------------------------------------------------

def test_check_proposition1_trivial_k1():
    table = seeded_table(num_ue=1, seed=70)
    res = solve_brute_force(table)
    ok, witness = check_proposition1(table, res.alloc)
    assert ok and witness is None


def test_check_proposition1_two_ue_hand_case():
    """One SBS, two UEs with distinct SINRs: the optimum serves the
    higher-SINR UE at the SBS, so the check passes."""
    table = _synthetic(snr=[0.5, 0.4], sinr=[6.0, 2.0], assoc=[0, 0], num_sbs=1)
    res = solve_brute_force(table)
    ok, witness = check_proposition1(table, res.alloc)
    assert ok and witness is None
    assert res.alloc.d_small[0] == 1


def test_check_proposition1_on_seeded_instances():
    for seed in range(20):
        table = seeded_table(num_ue=6, num_sbs=4, seed=300 + seed)
        res = solve_brute_force(table)
        ok, witness = check_proposition1(table, res.alloc)
        assert ok, witness


def test_check_proposition1_blocking_is_invisible(monkeypatch, scan_calls):
    """The running maximum and the head flags must carry across chunks and
    load classes. The last table twins UE 2 onto UE 0: the two swapped
    optima tie in exact arithmetic but not in summation order, and the swap
    that sums one ulp lower must still count as a maximizer at every chunk
    size. Each chunk size scans a copy built by replace, a new table object,
    exactly once, in solve_brute_force; the checks read that scan."""
    tables = [seeded_table(num_ue=5, num_sbs=4, seed=300 + seed) for seed in range(5)]
    tables.append(twin_table(seeded_table(num_ue=3, num_sbs=2, seed=5321), [(0, 2)]))
    for table in tables:
        ref_val, ref_digits, *_ = chunked_scan(table)
        opt = solve_brute_force(table)
        assert (opt.sum_rate.hex(), tuple(opt.alloc.digits.tolist())) == \
            (ref_val.hex(), ref_digits)
        with monkeypatch.context() as m:
            for chunk_rows in (1, 2, 7, kernels._CHUNK_ROWS):
                m.setattr(kernels, "_CHUNK_ROWS", chunk_rows)
                before = len(scan_calls)
                fresh = dataclasses.replace(table)
                chunked = solve_brute_force(fresh)
                assert (repr(chunked.sum_rate), chunked.alloc) == (repr(opt.sum_rate), opt.alloc)
                assert check_proposition1(fresh, opt.alloc) == (True, None)
                with pytest.raises(ValueError):
                    check_proposition1(fresh, solve_1a_only(fresh).alloc)
                assert scan_calls[before:] == [chunk_rows]
    assert opt.alloc.digits.tolist() == [1, 1, 0]


def test_check_proposition1_witness_names_first_failing_station(monkeypatch):
    table = seeded_table(num_ue=5, num_sbs=4, seed=300)
    opt = solve_brute_force(table)
    heads = {bs: col[0] for bs, col in enumerate(build_sorted_matrix(table)) if col}
    stations = sorted(heads)
    scan = solvers._table_scan

    def first_head_only(tbl):
        """Only the first station's head is served by some maximizer."""
        best, digits, _, _ = scan(tbl)
        first = tuple(ue == heads[stations[0]] for ue in range(tbl.num_ue))
        none = (False,) * tbl.num_ue
        return (best, digits) + ((first, none) if stations[0] == tbl.num_sbs else (none, first))

    monkeypatch.setattr(solvers, "_table_scan", first_head_only)
    ok, witness = check_proposition1(table, opt.alloc)
    assert (ok, witness) == (False, {
        "bs": stations[1], "head_ue": heads[stations[1]], "max_sum_rate": opt.sum_rate})
    assert type(witness["head_ue"]) is int


def _head_tables():
    """Seeded tables, twin tables, all-equal tables, two-valued tie tables
    and tables whose SBSs include some that serve nobody."""
    for k_ues in range(1, 9):
        for num_sbs in (1, 2, 4, 16):
            base = seeded_table(k_ues, num_sbs=num_sbs, seed=6000 + 10 * k_ues + num_sbs)
            yield base
            yield _synthetic(snr=[3.0] * k_ues, sinr=[3.0] * k_ues, assoc=base.assoc_sbs,
                             num_sbs=num_sbs)
            if k_ues >= 2:
                yield twin_table(base, [(0, 1)])
                yield twin_table(base, [(0, k_ues - 1)])
    rng = np.random.default_rng(29)
    for k_ues in range(2, 9):
        for num_sbs in (3, 8):
            # half the SBSs serve nobody
            yield _synthetic(snr=rng.choice([0.5, 2.0], size=k_ues),
                             sinr=rng.choice([0.5, 2.0], size=k_ues),
                             assoc=rng.integers(0, num_sbs // 2 + 1, size=k_ues),
                             num_sbs=num_sbs)


def test_check_proposition1_heads_are_the_sorted_columns_first_ues(monkeypatch):
    """Each station's head is the first UE of its column of the sorted
    matrix: ties go to the lowest index. Forcing one station's head alone to
    be served by no maximizer names that station and that UE, and the check
    never builds the sorted matrix."""
    scan = solvers._table_scan
    sorts = []
    build = solvers.build_sorted_matrix
    monkeypatch.setattr(solvers, "build_sorted_matrix",
                        lambda table: sorts.append(table) or build(table))
    empty_groups = 0
    for table in _head_tables():
        opt = solve_brute_force(table)
        mbs = table.num_sbs
        for bs, col in enumerate(build(table)):
            if not col:
                empty_groups += 1
                continue
            head = col[0]

            def head_fails(tbl, bs=bs, head=head):
                """Every (UE, tier) pair is served by some maximizer but the
                head of station bs at that station."""
                flags = [[True] * tbl.num_ue, [True] * tbl.num_ue]
                flags[bs != mbs][head] = False
                return scan(tbl)[:2] + tuple(map(tuple, flags))

            with monkeypatch.context() as m:
                m.setattr(solvers, "_table_scan", head_fails)
                ok, witness = check_proposition1(table, opt.alloc)
            assert (ok, witness) == (False, {"bs": bs, "head_ue": head,
                                             "max_sum_rate": opt.sum_rate})
            assert type(witness["head_ue"]) is int
    assert sorts == [] and empty_groups > 0


def test_check_proposition1_passes_on_twin_tables():
    """Exact twins make several optima tie in exact arithmetic while their
    sums differ in the last bits; every one of them must count as a
    maximizer, and the exhaustive optimum must keep the reference scan's
    value bits and return a row that scores them."""
    for k_ues in range(2, 10):
        for num_sbs in (1, 2, 4, 16):
            for s in range(3):
                base = seeded_table(k_ues, num_sbs=num_sbs,
                                    seed=5000 + 100 * k_ues + 10 * num_sbs + s)
                for pairs in ([(0, 1)], [(0, k_ues - 1)],
                              [(j, j + 1) for j in range(0, k_ues - 1, 2)]):
                    table = twin_table(base, pairs)
                    ref_val, *_ = chunked_scan(table)
                    opt = solve_brute_force(table)
                    assert opt.sum_rate.hex() == ref_val.hex()
                    assert tuple(opt.alloc.digits.tolist()) in exact_maximizers(table)
                    assert check_proposition1(table, opt.alloc) == (True, None), \
                        (k_ues, num_sbs, s, pairs)


def test_check_proposition1_accepts_every_swapped_twin_optimum():
    """Swapping the digits of two exact twins gives another maximizer whose
    sum may be an ulp below the least-index optimum's. The checker accepts
    it with the same (ok, witness) as that optimum and still refuses the
    all-small-only allocation, which leaves the MBS idle."""
    lower = 0
    for k_ues in range(2, 10):
        for num_sbs in (1, 2, 4):
            for s in range(12):
                base = seeded_table(k_ues, num_sbs=num_sbs,
                                    seed=5000 + 100 * k_ues + 10 * num_sbs + s)
                for a, b in {(0, 1), (0, k_ues - 1)}:
                    table = twin_table(base, [(a, b)])
                    opt = solve_brute_force(table)
                    digits = opt.alloc.digits.copy()
                    digits[[a, b]] = digits[[b, a]]
                    swapped = Allocation(digits)
                    lower += evaluate(swapped, table) < opt.sum_rate
                    assert check_proposition1(table, swapped) == \
                        check_proposition1(table, opt.alloc), (k_ues, num_sbs, s, a, b)
                    with pytest.raises(ValueError, match="not an exhaustive-search"):
                        check_proposition1(table, solve_1a_only(table).alloc)
    assert lower > 0
    table = twin_table(seeded_table(2, num_sbs=1, seed=5210), [(0, 1)])
    assert solve_brute_force(table).alloc.digits.tolist() == [0, 1]
    assert check_proposition1(table, Allocation([1, 0])) == (True, None)


def test_check_proposition1_rejects_non_optimal_input():
    table = seeded_table(num_ue=5, num_sbs=4, seed=71)
    opt = solve_brute_force(table)
    sub = solve_1a_only(table)
    assert sub.sum_rate < opt.sum_rate  # genuinely suboptimal here
    with pytest.raises(ValueError):
        check_proposition1(table, sub.alloc)


def test_check_proposition1_rejects_malformed_allocations():
    table = seeded_table(num_ue=5, num_sbs=4, seed=71)
    with pytest.raises(ValueError, match="size"):
        check_proposition1(table, Allocation([0] * 4))
    # an allocation that leaves a UE unserved (code 3) cannot be built, so none
    # reaches the check
    with pytest.raises(ValueError, match="profile digits"):
        check_proposition1(table, Allocation([0, 0, 3, 0, 0]))


def test_oracle_loop_scans_once_per_trial(scan_calls, capsys):
    """The oracle-check loop's solve_brute_force and check_proposition1 share
    one scan per trial."""
    assert cli_main(["oracle-check", "--k", "6", "--i", "4", "--trials", "4"]) == 0
    assert "4/4 pass" in capsys.readouterr().out
    assert len(scan_calls) == 4


def test_solve_brute_force_raises_when_replay_disagrees(monkeypatch):
    """The scan == evaluate() replay gate is an explicit error, so python -O
    keeps it: a scan maximum one ulp off the replay raises RuntimeError."""
    table = seeded_table(num_ue=5, num_sbs=4, seed=72)
    val, digits = solvers.brute_force_scan(table)
    monkeypatch.setattr(solvers, "brute_force_scan",
                        lambda tbl: (float(np.nextafter(val, np.inf)), digits))
    with pytest.raises(RuntimeError, match=re.escape(f"digits {list(digits)} disagree")):
        solve_brute_force(table)


# --- invariances -----------------------------------------------------------

_SOLVES = (solve_brute_force, solve_proposed, solve_3c_only, solve_1a_only, solve_stronger)


def _invariance_tables():
    """Seeded tables at K = 1..12 with 1, 2, 4 and 16 SBSs."""
    for k_ues in range(1, 13):
        for num_sbs in (1, 2, 4, 16):
            for seed in range(2):
                yield seeded_table(k_ues, num_sbs=num_sbs,
                                   seed=8000 + 100 * k_ues + 10 * num_sbs + seed)


def test_doubling_powers_and_bandwidths_doubles_every_sum_rate():
    """Doubling every received power, the interference and both bandwidths,
    hence both noise powers, leaves every SNR, SINR and log term's bits and
    the columns as they were, and doubles each rate term exactly. So each
    solver returns the same digits, op_count and tallies and exactly twice
    the sum-rate, and the checker's verdict stands. Twin and all-equal
    tables, whose maximizers tie, are included."""
    tables = list(_invariance_tables())
    tables += [twin_table(seeded_table(k, num_sbs=2, seed=8900 + k), [(0, 1), (k - 1, k - 2)])
               for k in range(3, 13)]
    tables += [_synthetic(snr=[3.0] * k, sinr=[3.0] * k, assoc=[j % 2 for j in range(k)],
                          num_sbs=2) for k in range(1, 10)]
    checks = 0
    for table in tables:
        params = dataclasses.replace(table.params, bw_macro_hz=2 * table.params.bw_macro_hz,
                                     bw_small_hz=2 * table.params.bw_small_hz)
        doubled = ChannelTable(table.rx_macro_w * 2, table.rx_small_w * 2,
                               table.interference_w * 2, table.assoc_sbs, params)
        for name in ("snr_macro", "sinr_small", "log_macro", "log_small"):
            assert getattr(doubled, name).tobytes() == getattr(table, name).tobytes(), name
        assert doubled.columns == table.columns
        for solve in _SOLVES:
            res, twice = solve(table), solve(doubled)
            assert twice.alloc == res.alloc, solve.__name__
            assert (twice.op_count, twice.wall_notes) == (res.op_count, res.wall_notes)
            assert twice.sum_rate == 2 * res.sum_rate, solve.__name__
            checks += 1
        opt = solve_brute_force(table)
        ok, witness = check_proposition1(table, opt.alloc)
        assert ok and witness is None
        assert check_proposition1(doubled, opt.alloc) == (ok, witness)
    assert checks == 5 * len(tables) == 5 * (96 + 10 + 9)


def test_relabeling_the_ues_permutes_every_answer():
    """Permuting the per-UE inputs of a seeded table, whose SNRs and SINRs
    are distinct, relabels its UEs: each column lists the same UEs under
    their new labels, each solver's digits permute with the same op_count
    and a sum-rate within 2K ulps (it adds its terms in another order), and
    the checker's verdict stands."""
    rng = np.random.default_rng(31)
    for table in _invariance_tables():
        k_ues = table.num_ue
        assert len(set(table.snr_macro.tolist())) == len(set(table.sinr_small.tolist())) == k_ues
        perm = rng.permutation(k_ues)
        # UE j of moved is UE perm[j] of table, which moved labels label[perm[j]] = j
        moved = ChannelTable(table.rx_macro_w[perm], table.rx_small_w[perm],
                             table.interference_w[perm], table.assoc_sbs[perm], table.params)
        label = np.argsort(perm).tolist()
        assert moved.columns == tuple(tuple(label[ue] for ue in col) for col in table.columns)
        for solve in _SOLVES:
            res, relabeled = solve(table), solve(moved)
            assert relabeled.alloc.digits.tolist() == res.alloc.digits[perm].tolist()
            assert relabeled.op_count == res.op_count, solve.__name__
            assert abs(relabeled.sum_rate - res.sum_rate) <= 2 * k_ues * math.ulp(res.sum_rate)
        opt = solve_brute_force(moved)
        assert check_proposition1(moved, opt.alloc) == (True, None)
        assert check_proposition1(table, Allocation(opt.alloc.digits[label])) == (True, None)
