"""Solver behaviour: exact search, greedy, baselines, optimality checker."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcalloc.kernels as kernels
import dcalloc.solvers as solvers
from dcalloc import (Allocation, BruteForceCapError, ChannelTable, RateCalcCounter,
                     ScenarioParams, build_sorted_matrix, check_proposition1,
                     evaluate, serving_sets, solve_1a_only, solve_3c_only,
                     solve_brute_force, solve_proposed, solve_stronger)

from conftest import (adversarial_table, chunked_scan, python_brute, seeded_table,
                      twin_table)


def _synthetic(snr, sinr, assoc, num_sbs, rx_macro=None, rx_small=None):
    params = ScenarioParams(num_sbs=num_sbs, num_ue=len(snr))
    return ChannelTable(snr_macro=np.asarray(snr, float),
                        assoc_sbs=np.asarray(assoc),
                        sinr_small=np.asarray(sinr, float), params=params,
                        rx_macro_w=None if rx_macro is None else np.asarray(rx_macro, float),
                        rx_small_w=None if rx_small is None else np.asarray(rx_small, float))


# --- sorted matrix ---------------------------------------------------------

def test_sorted_matrix_single_sbs_order():
    table = _synthetic(snr=[1.0, 1.0, 1.0], sinr=[5.0, 9.0, 1.0], assoc=[0, 0, 0], num_sbs=1)
    mat = build_sorted_matrix(table)
    assert mat.columns[0].tolist() == [1, 0, 2]


def test_sorted_matrix_tie_goes_to_lower_index():
    table = _synthetic(snr=[2.0, 3.0, 2.0], sinr=[4.0, 4.0, 4.0], assoc=[0, 0, 0], num_sbs=1)
    mat = build_sorted_matrix(table)
    assert mat.columns[0].tolist() == [0, 1, 2]
    assert mat.mbs_column.tolist() == [1, 0, 2]


def test_sorted_matrix_invariants_on_seeded_instances():
    for seed in range(10):
        table = seeded_table(num_ue=12, num_sbs=4, seed=seed)
        mat = build_sorted_matrix(table)
        assert mat.num_sbs == 4
        seen = np.concatenate([mat.columns[i] for i in range(4)])
        assert sorted(seen.tolist()) == list(range(12))
        assert sorted(mat.mbs_column.tolist()) == list(range(12))
        for i in range(4):
            col = mat.columns[i]
            assert all(table.assoc_sbs[u] == i for u in col)
            vals = table.sinr_small[col]
            assert np.all(np.diff(vals) <= 0)
            if len(col):
                # head is the argmax by an independent scan, ties to lowest index
                members = np.flatnonzero(table.assoc_sbs == i)
                best = members[np.argmax(table.sinr_small[members])]
                assert mat.head(i) == best
        assert np.all(np.diff(table.snr_macro[mat.mbs_column]) <= 0)
        assert mat.head(4) == int(np.argmax(table.snr_macro))


def test_sorted_matrix_empty_column():
    table = _synthetic(snr=[1.0], sinr=[2.0], assoc=[1], num_sbs=2)
    mat = build_sorted_matrix(table)
    assert mat.columns[0].size == 0
    assert mat.head(0) is None


# --- brute force -----------------------------------------------------------

def test_brute_force_k1_checks_three_profiles():
    table = seeded_table(num_ue=1, seed=31)
    counter = RateCalcCounter()
    res = solve_brute_force(table, counter)
    assert counter.count == 3
    candidates = [evaluate(Allocation.from_digits([d]), table).sum_rate for d in range(3)]
    assert res.sum_rate == max(candidates)


@pytest.mark.parametrize("k_ues", range(1, 8))
def test_brute_force_counter_identity(k_ues):
    table = seeded_table(num_ue=k_ues, seed=40 + k_ues)
    counter = RateCalcCounter()
    res = solve_brute_force(table, counter)
    assert counter.count == k_ues * 3 ** k_ues
    assert res.op_count == counter.count


def test_brute_force_matches_python_oracle():
    for seed in (3, 14, 15):
        table = seeded_table(num_ue=5, seed=seed)
        ref_val, _, ref_digits = python_brute(table)
        res = solve_brute_force(table)
        assert res.sum_rate == pytest.approx(ref_val, rel=1e-12)
        assert res.alloc.to_digits().tolist() == ref_digits


def test_brute_force_cap():
    table = seeded_table(num_ue=15, seed=1)
    with pytest.raises(BruteForceCapError, match="14"):
        solve_brute_force(table)
    small = seeded_table(num_ue=4, seed=1)
    with pytest.raises(BruteForceCapError, match="3"):
        solve_brute_force(small, cap=3)
    res = solve_brute_force(small, cap=3, override_cap=True)
    assert res.sum_rate > 0
    # the head checker scans 3^K too and refuses the same K
    with pytest.raises(BruteForceCapError, match="14"):
        check_proposition1(table, Allocation.all_both(15))


# --- baselines -------------------------------------------------------------

def test_3c_only_serves_everyone_twice():
    table = seeded_table(num_ue=5, seed=50)
    counter = RateCalcCounter()
    res = solve_3c_only(table, counter)
    assert res.alloc.to_digits().tolist() == [0] * 5
    assert counter.count == 10


def test_1a_only_leaves_macro_empty():
    table = seeded_table(num_ue=5, seed=51)
    counter = RateCalcCounter()
    res = solve_1a_only(table, counter)
    assert res.alloc.to_digits().tolist() == [2] * 5
    macro_ues, _ = serving_sets(res.alloc, table)
    assert macro_ues.size == 0
    assert counter.count == 5


def test_stronger_picks_higher_received_power_tie_to_macro():
    table = _synthetic(snr=[1.0, 1.0, 1.0], sinr=[1.0, 1.0, 1.0], assoc=[0, 0, 0],
                       num_sbs=1, rx_macro=[2.0, 1.0, 1.0], rx_small=[1.0, 2.0, 1.0])
    res = solve_stronger(table)
    assert res.alloc.to_digits().tolist() == [1, 2, 1]


# --- greedy ----------------------------------------------------------------

def test_proposed_k1_gets_both_tiers():
    table = seeded_table(num_ue=1, num_sbs=1, seed=60)
    counter = RateCalcCounter()
    res = solve_proposed(table, counter)
    assert res.alloc.to_digits().tolist() == [0]
    assert res.sum_rate == evaluate(Allocation.all_both(1), table).sum_rate
    assert res.wall_notes["passes"] == 0
    assert counter.count == 2   # only the final evaluate


def test_proposed_terminates_at_initialization_when_heads_cover_everyone():
    # three UEs, three stations, each UE heads exactly one column
    table = _synthetic(snr=[1e3, 1.0, 2.0], sinr=[0.1, 9.0, 8.0],
                       assoc=[0, 0, 1], num_sbs=2)
    res = solve_proposed(table)
    assert res.wall_notes["passes"] == 0
    assert res.wall_notes["commits"] == 0
    assert res.wall_notes["initial_commits"] == 3
    assert res.wall_notes["subset_evaluations"] == 0
    assert res.alloc.to_digits().tolist() == [1, 2, 2]


def test_proposed_invariants_on_random_instances():
    rng = np.random.default_rng(123)
    for trial in range(60):
        k_ues = int(rng.integers(1, 15))
        num_sbs = int(rng.integers(1, 6))
        table = seeded_table(k_ues, num_sbs=num_sbs, seed=int(rng.integers(2 ** 31)))
        counter = RateCalcCounter()
        res = solve_proposed(table, counter)
        res.alloc.validate()
        notes = res.wall_notes
        assert not notes["fallback"]
        # every commit consumes at least one row of the 2K total rows
        assert notes["commits"] <= 2 * k_ues
        assert notes["passes"] <= 2 * k_ues + 1
        assert res.op_count == counter.count
        # column heads stay with their stations
        mat = build_sorted_matrix(table)
        for bs in range(num_sbs + 1):
            head = mat.head(bs)
            if head is None:
                continue
            if bs == num_sbs:
                assert res.alloc.d_macro[head] == 1
            else:
                assert res.alloc.d_small[head] == 1


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
            res.alloc.validate()
            assert res.sum_rate <= opt.sum_rate


def test_adversarial_family_subset_eval_count_exact():
    """On the window-widening family, greedy's subset evaluations follow the
    closed form 2^(K-1) - 2^(N-1) + (K-N)(N-1) with N = 3 stations."""
    for k_ues in range(5, 17):
        res = solve_proposed(adversarial_table(k_ues))
        expected = 2 ** (k_ues - 1) - 2 ** 2 + (k_ues - 3) * 2
        assert res.wall_notes["subset_evaluations"] == expected
        assert res.wall_notes["commits"] == k_ues - 3
        assert not res.wall_notes["fallback"]
        digits = res.alloc.to_digits().tolist()
        assert digits[0] == 1          # macro head stays macro-only
        assert digits[1:] == [2] * (k_ues - 1)


def test_proposed_prefix_tie_goes_to_lexicographically_smallest_ues():
    """Three consecutive SINRs near 1e6 share one log term, so SBS 0's
    window [UE 2, UE 1] prices both prefixes at exactly 0. The sorted tuple
    (1, 2) beats (2,), so one commit adopts both rows. (Enumerating every
    subset would instead adopt UE 1 alone, a non-prefix that ties the
    prefixes: only distinct SINRs with equal log terms allow that.)"""
    x0 = 1e6
    x1 = np.nextafter(x0, np.inf)
    x2 = np.nextafter(x1, np.inf)
    table = _synthetic(snr=[1.0, 0.5, 10.0], sinr=[x2, x0, x1], assoc=[0, 0, 0], num_sbs=1)
    assert len(set(table.log_small.tolist())) == 1
    res = solve_proposed(table)
    assert res.wall_notes["commits"] == 1
    assert res.alloc.to_digits().tolist() == [2, 2, 0]


_LARGE_K_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import dcalloc.kernels as kernels
import dcalloc.solvers as solvers
from dcalloc import RateCalcCounter, ScenarioParams, make_instance

windows = []
pricer = solvers.subset_degradations
def recording(pool_logs, cs_logsum, cs_size, bw):
    windows.append((len(pool_logs), cs_size))
    return pricer(pool_logs, cs_logsum, cs_size, bw)
solvers.subset_degradations = recording

for k_ues in (30, 60, 100, 200):
    for seed in range(3):
        _, table = make_instance(ScenarioParams(num_ue=k_ues, seed=seed))
        windows.clear()
        counter = RateCalcCounter()
        res = solvers.solve_proposed(table, counter)
        res.alloc.validate()
        served_pairs = int(res.alloc.d_macro.sum() + res.alloc.d_small.sum())
        paper = sum(cs * 2 ** w + w * 2 ** (w - 1) for w, cs in windows)
        assert counter.count == paper + served_pairs, (k_ues, seed)
        assert res.wall_notes["subset_evaluations"] == sum(2 ** w for w, _ in windows)
        print(k_ues, seed, max(w for w, _ in windows))
"""


def test_proposed_large_k_under_memory_limit():
    """Windows reach dozens of rows at K >= 30; pricing them must not grow
    with 2^w. Runs in a child process capped at 2 GiB of address space, and
    checks the counter still charges the paper's subset enumeration."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _LARGE_K_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 12


def test_proposed_handles_empty_sbs_columns():
    # all UEs associate to SBS 1; SBS 0 never serves anyone
    table = _synthetic(snr=[3.0, 2.0, 1.0], sinr=[5.0, 4.0, 3.0],
                       assoc=[1, 1, 1], num_sbs=2)
    res = solve_proposed(table)
    res.alloc.validate()
    _, sbs_ues = serving_sets(res.alloc, table)
    assert sbs_ues[0].size == 0


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


def test_check_proposition1_blocking_is_invisible(monkeypatch):
    """The running maximum and the head flags must carry across block
    boundaries. The last table twins UE 2 onto UE 0: the two swapped optima
    tie in exact arithmetic but not in summation order, and the swap that
    sums one ulp lower must still count as a maximizer at every block size."""
    tables = [seeded_table(num_ue=5, num_sbs=4, seed=300 + seed) for seed in range(5)]
    tables.append(twin_table(seeded_table(num_ue=3, num_sbs=2, seed=5321), [(0, 2)]))
    for table in tables:
        opt = solve_brute_force(table)
        for block_ues in (0, 1, table.num_ue - 1, table.num_ue, kernels._BLOCK_UES):
            monkeypatch.setattr(kernels, "_BLOCK_UES", block_ues)
            blocked = solve_brute_force(table)
            assert (repr(blocked.sum_rate), blocked.wall_notes["best_index"]) == \
                (repr(opt.sum_rate), opt.wall_notes["best_index"])
            assert check_proposition1(table, opt.alloc) == (True, None)
            with pytest.raises(ValueError):
                check_proposition1(table, solve_1a_only(table).alloc)
        monkeypatch.undo()
    assert opt.alloc.to_digits().tolist() == [1, 1, 0]


def test_check_proposition1_witness_names_first_failing_station(monkeypatch):
    table = seeded_table(num_ue=5, num_sbs=4, seed=300)
    opt = solve_brute_force(table)
    mat = build_sorted_matrix(table)
    stations = [bs for bs in range(table.num_sbs + 1) if mat.head(bs) is not None]
    scan = solvers._block_scan

    def first_head_only(*args):
        best, idx, flags = scan(*args)
        return best, idx, [True] + [False] * (len(flags) - 1)

    monkeypatch.setattr(solvers, "_block_scan", first_head_only)
    assert check_proposition1(table, opt.alloc) == (False, {
        "bs": stations[1], "head_ue": mat.head(stations[1]), "max_sum_rate": opt.sum_rate})


def test_check_proposition1_passes_on_twin_tables():
    """Exact twins make several optima tie in exact arithmetic while their
    sums differ in the last bits; every one of them must count as a
    maximizer, and the exhaustive optimum must keep the reference scan's
    value bits and first index."""
    for k_ues in range(2, 10):
        for num_sbs in (1, 2, 4, 16):
            for s in range(3):
                base = seeded_table(k_ues, num_sbs=num_sbs,
                                    seed=5000 + 100 * k_ues + 10 * num_sbs + s)
                for pairs in ([(0, 1)], [(0, k_ues - 1)],
                              [(j, j + 1) for j in range(0, k_ues - 1, 2)]):
                    table = twin_table(base, pairs)
                    ref_val, ref_idx, _ = chunked_scan(table)
                    opt = solve_brute_force(table)
                    assert (opt.sum_rate.hex(), opt.wall_notes["best_index"]) == \
                        (ref_val.hex(), ref_idx)
                    assert check_proposition1(table, opt.alloc) == (True, None), \
                        (k_ues, num_sbs, s, pairs)


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
        check_proposition1(table, Allocation.all_both(4))
    unserved = Allocation.all_both(5)
    unserved.d_macro[2] = unserved.d_small[2] = 0
    with pytest.raises(ValueError, match="without any serving tier"):
        check_proposition1(table, unserved)
