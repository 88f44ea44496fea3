"""Hot numeric kernels.

The exhaustive 3^K scan enumerates in blocks of 3^c rows that share the
digits of UEs c..K-1. A row's sum adds UE 0..K-1 in order, so its first 2c
additions depend only on the low digits and on the row's loads (n_macro and
the n_small of the low UEs' SBSs). Those loads are the low digits' own plus
what the high digits add, so blocks whose high digits add equal loads share
one partial-sum vector, and each block adds only its K-c high terms to it.

The greedy's window pricing is a closed form: the least-degrading subset of
a descending window is always a prefix, so subset_degradations() prices the
w prefixes with one cumulative sum instead of enumerating 2^w subsets.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ENV_BACKEND",
    "available_backends",
    "get_backend",
    "decode_combo",
    "objective_chunk",
    "brute_force_scan",
    "subset_degradations",
]

# Read by nothing; the benchmark's environment record still reports it, so it
# stays with the two constant backend reports until the benchmark changes
ENV_BACKEND = "DCALLOC_BACKEND"

# UEs enumerated inside one block of the scan: a block holds the
# 3^_BLOCK_UES combinations that share the digits of every higher UE
_BLOCK_UES = 8


def available_backends() -> tuple:
    """Constant ("numpy",): the scan has one implementation. Kept only for
    the benchmark's environment record, until the benchmark changes."""
    return ("numpy",)


def get_backend() -> str:
    """Constant "numpy": the scan has one implementation. Kept only for the
    benchmark's environment record, until the benchmark changes."""
    return "numpy"


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
    macro term then small term, matching evaluate() and the block scan."""
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
    whether some maximizer gives that UE another digit. The maximizers are
    the rows within tol = 2*K*ulp(best_val) of the maximum: rows that tie in
    exact arithmetic, such as the swaps of two identical UEs, add the same
    2K nonnegative terms in different orders, and tol bounds the difference
    of such sums. best_val and best_idx are exact, the strict first maximum.

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
    # per head, the best value of a row read so far that gives the UE another digit
    head_vals = [-1.0] * len(heads)
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
        if top > best_val:
            best_val, best_idx = top, block * 3 ** c + j
        if not heads:
            continue
        # a maximizer ends within tol of the final maximum, whose tol is at
        # most twice the running maximum's; rows below 2*tol of it can go
        floor = best_val - 4 * k_ues * math.ulp(best_val)
        if top < floor:
            continue
        near = vals >= floor
        rows, near_vals = low[near], vals[near]
        for h, (ue, excluded) in enumerate(heads):
            if ue >= c:
                if high[ue - c] != excluded:
                    head_vals[h] = max(head_vals[h], top)
            else:
                other = near_vals[rows[:, ue] != excluded]
                head_vals[h] = max(head_vals[h], float(other.max(initial=-1.0)))
    floor = best_val - 2 * k_ues * math.ulp(best_val)
    return best_val, best_idx, [v >= floor for v in head_vals]


def _scan_args(table):
    """The table's arrays and bandwidths in the argument order of _block_scan
    and objective_chunk."""
    return (table.log_macro, table.log_small, table.assoc_sbs, table.num_sbs,
            table.params.bw_macro_hz, table.params.bw_small_hz)


def brute_force_scan(table):
    """Best sum-rate over all 3^K profile combinations.

    Returns (best_value, best_index) where best_index is the lowest
    enumeration index attaining the maximum.
    """
    return _block_scan(*_scan_args(table))[:2]


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
