"""Bit-identity of the block scan with the row-at-a-time reference and the
Python oracle, the numba-free import, and prefix window pricing against
full subset enumeration."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcalloc.kernels as kernels
from dcalloc import ChannelTable, brute_force_scan, decode_combo, subset_degradations

from conftest import (adversarial_table, chunked_scan, python_brute, python_objective,
                      python_subset_table, seeded_table, twin_table)


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


def test_decode_combo_known_values():
    assert decode_combo(0, 3).tolist() == [0, 0, 0]
    assert decode_combo(1, 3).tolist() == [1, 0, 0]   # UE 0 least significant
    assert decode_combo(5, 2).tolist() == [2, 1]
    assert decode_combo(3 ** 3 - 1, 3).tolist() == [2, 2, 2]
    with pytest.raises(ValueError):
        decode_combo(9, 2)
    with pytest.raises(ValueError):
        decode_combo(-1, 2)


def test_objective_chunk_matches_python_oracle():
    rng = np.random.default_rng(5)
    table = seeded_table(6, num_sbs=3, seed=8)
    digits = rng.integers(0, 3, size=(40, 6))
    vals = kernels.objective_chunk(
        digits, table.log_macro, table.log_small,
        table.assoc_sbs.astype(np.int64), table.num_sbs,
        table.params.bw_macro_hz, table.params.bw_small_hz)
    expected = [python_objective(row, table) for row in digits]
    assert vals == pytest.approx(expected, rel=1e-12)


def test_brute_scan_matches_python_oracle():
    for seed in (1, 2, 3, 4):
        table = seeded_table(5, num_sbs=4, seed=seed)
        ref_val, ref_idx, _ = python_brute(table)
        val, idx = brute_force_scan(table)
        assert val == pytest.approx(ref_val, rel=1e-12)
        # the winner's own objective must match the oracle's maximum
        assert python_objective(decode_combo(idx, 5), table) == pytest.approx(ref_val, rel=1e-12)


def test_brute_scan_first_maximizer_on_ties():
    """Two UEs at identical geometry make symmetric combinations tie; the
    scan must keep the lowest enumeration index."""
    twin = twin_table(seeded_table(4, num_sbs=4, seed=12), [(0, 1)])
    _, ref_idx, _ = python_brute(twin)
    assert brute_force_scan(twin)[1] == ref_idx


def _all_heads(num_ue):
    """Every (ue, excluded digit) pair: against a unique maximizer, the
    pairs excluding its own digits come out False."""
    return [(ue, e) for ue in range(num_ue) for e in range(3)]


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


def test_block_scan_matches_chunked_reference(monkeypatch):
    """Value bits, first maximizer and head flags equal the row-at-a-time
    enumeration, at the default block size and at blocks of 3 rows (many
    blocks, so partial sums are shared across blocks)."""
    false_flags = 0
    for table in _reference_tables():
        heads = _all_heads(table.num_ue)
        ref_val, ref_idx, ref_flags = chunked_scan(table, heads)
        for block_ues in (kernels._BLOCK_UES, 1):
            monkeypatch.setattr(kernels, "_BLOCK_UES", block_ues)
            val, idx, flags = kernels._block_scan(*kernels._scan_args(table), heads)
            assert (val.hex(), idx, flags) == (ref_val.hex(), ref_idx, ref_flags)
            assert brute_force_scan(table) == (ref_val, ref_idx)
        monkeypatch.undo()
        false_flags += ref_flags.count(False)
    assert false_flags > 0


def test_block_scan_keys_partial_sums_on_sbs_loads(monkeypatch):
    """With blocks over UE 0 alone, the blocks where UE 1 takes digit 0 and
    digit 1 add the same macro load but different loads to SBS 0, which UE 0
    shares. Reusing one block's partial sums for the other would price UE 0's
    small term at the wrong load and miss the optimum: UE 0 small-only and
    UE 1 macro-only, index 2 + 3 * 1."""
    snr = np.array([0.5, 60.0])
    sinr = np.array([80.0, 0.2])
    params = seeded_table(2, num_sbs=1).params
    table = ChannelTable(snr_macro=snr, assoc_sbs=np.array([0, 0]), sinr_small=sinr,
                         params=params)
    ref = chunked_scan(table, _all_heads(2))
    assert ref[1] == 5
    for block_ues in (0, 1, 2):
        monkeypatch.setattr(kernels, "_BLOCK_UES", block_ues)
        assert kernels._block_scan(*kernels._scan_args(table), _all_heads(2)) == ref


def test_numpy_blocking_is_invisible(monkeypatch):
    for seed in (9, 10):
        table = seeded_table(6, num_sbs=4, seed=seed)
        whole = brute_force_scan(table)
        for block_ues in (0, 1, 5, 6, kernels._BLOCK_UES):
            monkeypatch.setattr(kernels, "_BLOCK_UES", block_ues)
            blocked = brute_force_scan(table)
            assert (blocked[0].hex(), blocked[1]) == (whole[0].hex(), whole[1])
        monkeypatch.undo()


def _lexicographic_winner(candidates, degs, ues_of):
    """Index of the least degradation; ties go to the lexicographically
    smallest sorted UE tuple, the greedy's documented tie rule."""
    low = min(degs[c] for c in candidates)
    return min((c for c in candidates if degs[c] == low),
               key=lambda c: tuple(sorted(ues_of(c))))


def test_subset_degradations_match_python_oracle():
    """Prefix pricing picks the subset full enumeration picks, with the same
    degradation and log-sum bits. Windows are descending, as in a station
    column, with equal terms in ascending UE order; every other window draws
    its terms from four values so that they repeat exactly."""
    rng = np.random.default_rng(17)
    for trial in range(300):
        w = int(rng.integers(1, 13))
        if trial % 2:
            pool = rng.choice([0.25, 1.0, 2.5, 6.0], size=w)
        else:
            pool = rng.uniform(0.01, 8.0, size=w)
        ids = rng.permutation(100)[:w]
        order = np.lexsort((ids, -pool))
        pool, ids = pool[order], ids[order]
        cs_size = int(rng.integers(0, 4))
        cs_logsum = float(rng.uniform(0.0, 10.0)) if cs_size else 0.0
        bw = 10e6
        ref_degs, ref_csums, ref_pcnts = python_subset_table(
            pool.tolist(), cs_logsum, cs_size, bw)
        degs, csum = subset_degradations(pool, cs_logsum, cs_size, bw)
        prefix_masks = [(1 << s) - 1 for s in range(1, w + 1)]
        assert degs.tolist() == [ref_degs[m] for m in prefix_masks]
        assert csum.tolist() == [ref_csums[m] for m in prefix_masks]

        def window_ues(mask):
            return [int(ids[b]) for b in range(w) if (mask >> b) & 1]
        best_mask = _lexicographic_winner(range(1, 1 << w), ref_degs, window_ues)
        j = _lexicographic_winner(range(w), degs.tolist(),
                                  lambda t: ids[:t + 1].tolist())
        assert prefix_masks[j] == best_mask
        assert csum[j] == ref_csums[best_mask]
        assert ref_pcnts[best_mask] == j + 1


def test_subset_degradations_signs():
    """Adopting a stronger-than-average UE must register as an improvement
    (negative degradation), a weaker one as a loss."""
    degs, csum = subset_degradations(np.array([9.0, 0.001]), 1.0, 1, 1.0)
    assert degs[0] < 0.0        # newcomer log 9 vs committed average 1
    assert degs[1] > degs[0]    # the weak second row drags the average down
    assert csum.tolist() == [10.0, 10.001]
    weak, _ = subset_degradations(np.array([0.001]), 1.0, 1, 1.0)
    assert weak[0] > 0.0
    # empty committed set: any adoption is pure gain
    degs0, _ = subset_degradations(np.array([0.5]), 0.0, 0, 1.0)
    assert degs0[0] == pytest.approx(-0.5, rel=1e-15)
