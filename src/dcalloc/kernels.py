"""Hot numeric kernels.

The exhaustive 3^K scan has two backends that compute identical results
bit for bit:

* ``numba``: @njit-compiled loops (default whenever numba imports cleanly)
* ``numpy``: pure-numpy fallback, chunked where enumeration is large

Selection: the DCALLOC_BACKEND environment variable ("numba" or "numpy")
wins at import time; set_backend() switches at runtime. Both backends keep
the same floating-point operation order, so solver outputs do not depend on
the backend choice.

The greedy's window pricing needs no backend: the least-degrading subset of
a descending window is always a prefix, so subset_degradations() prices the
w prefixes with one cumulative sum instead of enumerating 2^w subsets.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "ENV_BACKEND",
    "available_backends",
    "get_backend",
    "set_backend",
    "decode_combo",
    "objective_chunk",
    "brute_force_scan",
    "subset_degradations",
]

ENV_BACKEND = "DCALLOC_BACKEND"

# rows per chunk in the numpy enumeration paths
_CHUNK = 1 << 17

try:
    import numba
    _HAVE_NUMBA = True
except ImportError:       # pragma: no cover - exercised only without numba
    numba = None
    _HAVE_NUMBA = False


def available_backends() -> tuple:
    return ("numba", "numpy") if _HAVE_NUMBA else ("numpy",)


def _resolve_backend(name) -> str:
    if name is None:
        return "numba" if _HAVE_NUMBA else "numpy"
    low = str(name).strip().lower()
    if low not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}, expected 'numba' or 'numpy'")
    if low == "numba" and not _HAVE_NUMBA:
        raise ValueError("numba backend requested but numba is not importable")
    return low


_BACKEND = _resolve_backend(os.environ.get(ENV_BACKEND))


def get_backend() -> str:
    return _BACKEND


def set_backend(name: str) -> str:
    global _BACKEND
    _BACKEND = _resolve_backend(name)
    return _BACKEND


def decode_combo(index: int, num_ue: int) -> np.ndarray:
    """Profile digits of one enumeration index; UE 0 is the least
    significant base-3 digit."""
    if not 0 <= index < 3 ** num_ue:
        raise ValueError("combination index out of range")
    digits = np.empty(num_ue, dtype=np.uint8)
    for k in range(num_ue):
        digits[k] = index % 3
        index //= 3
    return digits


def objective_chunk(digits, log_m, log_s, assoc, num_sbs, bw_m, bw_s) -> np.ndarray:
    """Sum-rate of each digit row. Accumulates per UE in ascending order,
    macro term then small term, matching evaluate() and the njit kernels."""
    n_rows, k_ues = digits.shape
    macro_served = digits != 2
    small_served = digits != 1
    n_macro = macro_served.sum(axis=1)
    n_small = np.empty((n_rows, num_sbs), dtype=np.int64)
    for i in range(num_sbs):
        n_small[:, i] = (small_served & (assoc == i)[None, :]).sum(axis=1)
    obj = np.zeros(n_rows)
    for k in range(k_ues):
        mm = macro_served[:, k]
        if mm.any():
            obj[mm] += bw_m / n_macro[mm] * log_m[k]
        sm = small_served[:, k]
        if sm.any():
            obj[sm] += bw_s / n_small[sm, assoc[k]] * log_s[k]
    return obj


def _brute_scan_numpy(log_m, log_s, assoc, num_sbs, bw_m, bw_s, n_combos):
    k_ues = log_m.shape[0]
    powers = 3 ** np.arange(k_ues, dtype=np.int64)
    best_val = -1.0
    best_idx = -1
    for start in range(0, n_combos, _CHUNK):
        stop = min(start + _CHUNK, n_combos)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % 3
        vals = objective_chunk(digits, log_m, log_s, assoc, num_sbs, bw_m, bw_s)
        j = int(np.argmax(vals))
        # strict > keeps the earliest maximizer across chunk boundaries
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_idx = start + j
    return best_val, best_idx


if _HAVE_NUMBA:

    @numba.njit(cache=True)
    def _brute_scan_numba(log_m, log_s, assoc, num_sbs, bw_m, bw_s, n_combos):
        k_ues = log_m.shape[0]
        digits = np.zeros(k_ues, np.int64)
        n_small = np.zeros(num_sbs, np.int64)
        for k in range(k_ues):
            n_small[assoc[k]] += 1
        n_macro = k_ues
        best_val = -1.0
        best_idx = -1
        for idx in range(n_combos):
            obj = 0.0
            for k in range(k_ues):
                d = digits[k]
                if d != 2:
                    obj += bw_m / n_macro * log_m[k]
                if d != 1:
                    obj += bw_s / n_small[assoc[k]] * log_s[k]
            if obj > best_val:
                best_val = obj
                best_idx = idx
            # base-3 odometer with incremental tier counts, UE 0 first
            p = 0
            while p < k_ues:
                d = digits[p]
                if d == 0:
                    digits[p] = 1
                    n_small[assoc[p]] -= 1
                    break
                elif d == 1:
                    digits[p] = 2
                    n_macro -= 1
                    n_small[assoc[p]] += 1
                    break
                else:
                    digits[p] = 0
                    n_macro += 1
                    p += 1
        return best_val, best_idx


def brute_force_scan(table):
    """Best sum-rate over all 3^K profile combinations.

    Returns (best_value, best_index) where best_index is the lowest
    enumeration index attaining the maximum.
    """
    log_m = np.ascontiguousarray(table.log_macro)
    log_s = np.ascontiguousarray(table.log_small)
    assoc = np.ascontiguousarray(table.assoc_sbs, dtype=np.int64)
    n_combos = 3 ** table.num_ue
    args = (log_m, log_s, assoc, table.num_sbs,
            table.params.bw_macro_hz, table.params.bw_small_hz, n_combos)
    if _BACKEND == "numba":
        val, idx = _brute_scan_numba(*args)
    else:
        val, idx = _brute_scan_numpy(*args)
    return float(val), int(idx)


def subset_degradations(pool_logs, cs_logsum, cs_size, bw):
    """Degradations of adopting each prefix of a candidate window.

    The window lists a station's candidates by descending SINR/SNR, so
    pool_logs is descending. For every size s the left-to-right sum of the
    first s terms is then at least the sum of any other s of them (IEEE
    addition is monotone), so the least-degrading subset is always a
    prefix. Entry s-1 prices the first s rows:

        degs[s-1] = bw/cs_size*cs_logsum - bw/(cs_size+s)*csum[s-1]

    where csum[s-1] = cs_logsum + pool_logs[0] + ... + pool_logs[s-1],
    accumulated in that order; an empty committed set contributes 0 before.
    Returns (degs, csum).
    """
    pool_logs = np.asarray(pool_logs, dtype=np.float64)
    csum = np.cumsum(np.concatenate(([float(cs_logsum)], pool_logs)))[1:]
    bef = bw / cs_size * cs_logsum if cs_size >= 1 else 0.0
    sizes = cs_size + np.arange(1, pool_logs.shape[0] + 1, dtype=np.int64)
    return bef - bw / sizes * csum, csum
