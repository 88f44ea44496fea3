"""Hot numeric kernels.

The exhaustive 3^K scan has two backends that compute identical results
bit for bit:

* ``numba``: @njit-compiled loops (default whenever numba imports cleanly)
* ``numpy``: a block scan that reuses the low UEs' partial sums (below)

Selection: the DCALLOC_BACKEND environment variable ("numba" or "numpy")
wins at import time; set_backend() switches at runtime. Both backends keep
the same floating-point operation order, so solver outputs do not depend on
the backend choice.

The numpy scan enumerates in blocks of 3^c rows that share the digits of
UEs c..K-1. A row's sum adds UE 0..K-1 in order, so its first 2c additions
depend only on the low digits and on the row's loads (n_macro and the
n_small of the low UEs' SBSs). Those loads are the low digits' own plus what
the high digits add, so blocks whose high digits add equal loads share one
partial-sum vector, and each block adds only its K-c high terms to it.

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

# UEs enumerated inside one block of the numpy scan: a block holds the
# 3^_BLOCK_UES combinations that share the digits of every higher UE
_BLOCK_UES = 8

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


def _digit_rows(n_digits: int) -> np.ndarray:
    """All 3^n digit rows in enumeration order, digit 0 least significant."""
    idx = np.arange(3 ** n_digits, dtype=np.int64)
    return (idx[:, None] // 3 ** np.arange(n_digits, dtype=np.int64)) % 3


def _block_scan(log_m, log_s, assoc, num_sbs, bw_m, bw_s, heads=()):
    """Exhaustive scan in blocks of 3^c rows, c = min(K, _BLOCK_UES).

    Returns (best_val, best_idx, flags): the maximum, the lowest enumeration
    index attaining it, and for each (ue, excluded_digit) pair in heads
    whether some maximizer gives that UE another digit.

    Every row adds UE 0..K-1 in order, macro term then small term, each term
    bw / load * log, as objective_chunk does, which skips the term of a tier
    that does not serve the UE. Blocks skip it too; the cached low-UE partial
    sums multiply it by 0.0 instead. Both give objective_chunk's bits: every
    partial sum is >= +0.0, a finite term times 0.0 is +0.0, and x + 0.0 == x
    for such x. The partial sums are cached per load the high digits add to
    the MBS and to each SBS a low UE uses.
    """
    k_ues = log_m.shape[0]
    c = min(k_ues, _BLOCK_UES)
    low = _digit_rows(c)
    low_assoc = assoc[:c].tolist()
    low_sbs = sorted(set(low_assoc))
    macro_served = low != 2
    small_served = low != 1
    # 1.0 where the tier serves low UE k, else 0.0
    macro_low = macro_served.T.astype(np.float64)
    small_low = small_served.T.astype(np.float64)
    # loads of the low rows per station, the MBS last; an SBS that no low UE
    # uses has load 0 on every low row
    low_loads = [0] * num_sbs + [macro_served.sum(axis=1)]
    for i in low_sbs:
        low_loads[i] = (small_served & (assoc[:c] == i)).sum(axis=1)
    bws = [bw_s] * num_sbs + [bw_m]
    inverses = {}

    def share(station, load):
        """bw / (low load + load) per low row; rows of load 0 never use it."""
        key = (station, load)
        if key not in inverses:
            inverses[key] = bws[station] / np.maximum(low_loads[station] + load, 1)
        return inverses[key]

    def partial_sums(load_m, load_s):
        vals = np.zeros(3 ** c)
        for k, i in enumerate(low_assoc):
            vals += share(num_sbs, load_m) * log_m[k] * macro_low[k]
            vals += share(i, load_s[i]) * log_s[k] * small_low[k]
        return vals

    high_assoc = assoc[c:].tolist()
    prefixes = {}
    best_val, best_idx = -1.0, -1
    flags = [False] * len(heads)
    for block, high in enumerate(_digit_rows(k_ues - c).tolist()):
        load_m = 0
        load_s = [0] * num_sbs
        for d, i in zip(high, high_assoc):
            load_m += d != 2
            load_s[i] += d != 1
        key = (load_m, *(load_s[i] for i in low_sbs))
        if key not in prefixes:
            prefixes[key] = partial_sums(load_m, load_s)
        vals = prefixes[key].copy()
        for k, d, i in zip(range(c, k_ues), high, high_assoc):
            if d != 2:
                vals += share(num_sbs, load_m) * log_m[k]
            if d != 1:
                vals += share(i, load_s[i]) * log_s[k]
        j = int(np.argmax(vals))
        top = float(vals[j])
        if top < best_val:
            continue
        if top > best_val:
            best_val, best_idx = top, block * 3 ** c + j
            flags = [False] * len(heads)
        rows = low[vals == top] if heads else None
        for h, (ue, excluded) in enumerate(heads):
            if ue >= c:
                flags[h] = flags[h] or high[ue - c] != excluded
            else:
                flags[h] = flags[h] or bool(np.any(rows[:, ue] != excluded))
    return best_val, best_idx, flags


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
    args = (log_m, log_s, assoc, table.num_sbs,
            table.params.bw_macro_hz, table.params.bw_small_hz)
    if _BACKEND == "numba":
        val, idx = _brute_scan_numba(*args, 3 ** table.num_ue)
    else:
        val, idx, _ = _block_scan(*args)
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
