"""Backend selection, bit-identity of the numba and numpy scan kernels,
and prefix window pricing against full subset enumeration."""

import numpy as np
import pytest

import dcalloc.kernels as kernels
from dcalloc import (available_backends, brute_force_scan, decode_combo,
                     get_backend, set_backend, subset_degradations)

from conftest import python_brute, python_objective, python_subset_table, seeded_table


@pytest.fixture(autouse=True)
def restore_backend():
    before = get_backend()
    yield
    set_backend(before)


def test_backend_selection():
    assert get_backend() in available_backends()
    set_backend("numpy")
    assert get_backend() == "numpy"
    if "numba" in available_backends():
        set_backend("NumBa")  # names are case-insensitive
        assert get_backend() == "numba"
    with pytest.raises(ValueError):
        set_backend("fortran")


def test_env_var_resolution():
    assert kernels._resolve_backend(None) in available_backends()
    assert kernels._resolve_backend(" numpy ") == "numpy"
    with pytest.raises(ValueError):
        kernels._resolve_backend("cuda")


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


def test_brute_scan_matches_python_oracle_and_backends_agree():
    for seed in (1, 2, 3, 4):
        table = seeded_table(5, num_sbs=4, seed=seed)
        ref_val, ref_idx, _ = python_brute(table)
        results = {}
        for backend in available_backends():
            set_backend(backend)
            results[backend] = brute_force_scan(table)
        vals = {v for v, _ in results.values()}
        idxs = {i for _, i in results.values()}
        assert len(vals) == 1 and len(idxs) == 1  # backends agree bitwise
        val, idx = next(iter(results.values()))
        assert val == pytest.approx(ref_val, rel=1e-12)
        # the winner's own objective must match the oracle's maximum
        assert python_objective(decode_combo(idx, 5), table) == pytest.approx(ref_val, rel=1e-12)


def test_brute_scan_first_maximizer_on_ties():
    """Two UEs at identical geometry make symmetric combinations tie; the
    scan must keep the lowest enumeration index."""
    table = seeded_table(4, num_sbs=4, seed=12)
    snr = table.snr_macro.copy(); snr[1] = snr[0]
    sinr = table.sinr_small.copy(); sinr[1] = sinr[0]
    assoc = table.assoc_sbs.copy(); assoc[1] = assoc[0]
    from dcalloc import ChannelTable
    twin = ChannelTable(snr_macro=snr, assoc_sbs=assoc, sinr_small=sinr,
                        params=table.params)
    _, ref_idx, _ = python_brute(twin)
    for backend in available_backends():
        set_backend(backend)
        _, idx = brute_force_scan(twin)
        assert idx == ref_idx


def test_numpy_chunking_is_invisible(monkeypatch):
    table = seeded_table(6, num_sbs=4, seed=9)
    set_backend("numpy")
    whole = brute_force_scan(table)
    monkeypatch.setattr(kernels, "_CHUNK", 7)
    chunked = brute_force_scan(table)
    assert chunked == whole


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
