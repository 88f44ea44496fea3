"""Hot numeric kernels: the exhaustive load-class scan behind
brute_force_scan, the row scorer objective_chunk, and the greedy's window
pricing subset_degradations. The argument that the scan's cut loses no
maximizer is in _block_scan's docstring.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .allocation import DIGIT_BOTH, DIGIT_MACRO_ONLY, DIGIT_SMALL_ONLY
from .topology import _small_ints

__all__ = [
    "DEFAULT_BRUTE_CAP",
    "BruteForceCapError",
    "ENV_BACKEND",
    "available_backends",
    "get_backend",
    "objective_chunk",
    "brute_force_scan",
    "subset_degradations",
]

# Read by nothing; the benchmark's environment record still reports it, so it
# stays with the two constant backend reports until the benchmark changes
ENV_BACKEND = "DCALLOC_BACKEND"

# rows of a load class summed at once; a larger class is summed in pieces
_CHUNK_ROWS = 1 << 12

# Every scan refuses a larger K: where every log term is equal the bound prunes
# almost nothing, and that worst case triples with each further UE
DEFAULT_BRUTE_CAP = 14


class BruteForceCapError(ValueError):
    """Raised when the exhaustive scan is asked for more than DEFAULT_BRUTE_CAP UEs."""


def available_backends() -> tuple:
    """Constant ("numpy",): the scan has one implementation. Kept only for
    the benchmark's environment record, until the benchmark changes."""
    return ("numpy",)


def get_backend() -> str:
    """Constant "numpy": the scan has one implementation. Kept only for the
    benchmark's environment record, until the benchmark changes."""
    return "numpy"


def objective_chunk(digits, table) -> np.ndarray:
    """Sum-rate of each digit row on the table, as evaluate() scores one
    allocation.

    Each term is flag * (bw / max(load, 1) * log): bw / load * log where
    the tier serves the UE and +0.0 where it does not. A row adds UE 0..K-1
    in order, macro term then small term, left to right (cumsum along the
    contiguous axis, not the pairwise sum), which matches evaluate() and the
    exhaustive scan bit for bit. Digits are refused by Allocation's rule,
    and an input that is not a 2-d (rows, K) array is refused.
    """
    digits = _small_ints(digits, np.uint8, 3, "profile digits must be 0, 1 or 2")
    if digits.ndim != 2 or digits.shape[1] != table.num_ue:
        raise ValueError("digits must be a 2-d (rows, num_ue) array")
    n_rows, k_ues = digits.shape
    assoc, bw_m, bw_s = table.assoc_sbs, table.params.bw_macro_hz, table.params.bw_small_hz
    macro = digits != DIGIT_SMALL_ONLY
    small = digits != DIGIT_MACRO_ONLY
    n_macro = macro.sum(axis=1)
    # an integer product counts each SBS's small-served UEs; bool @ bool is an OR
    n_small = small @ (assoc[:, None] == np.arange(table.num_sbs)).astype(np.int64)
    terms = np.empty((n_rows, k_ues, 2))
    terms[:, :, 0] = macro * (bw_m / np.maximum(n_macro, 1)[:, None] * table.log_macro)
    terms[:, :, 1] = small * (bw_s / np.maximum(n_small[:, assoc], 1) * table.log_small)
    return terms.reshape(n_rows, 2 * k_ues).cumsum(axis=1)[:, -1]


@functools.lru_cache(maxsize=None)
def _choices(n: int, r: int) -> np.ndarray:
    """Every choice of r of n items as a read-only bool table, one column
    per choice (n x C(n, r)). Built once per (n, r), shared by every scan."""
    table = np.zeros((n, math.comb(n, r)), dtype=bool)
    for col, chosen in enumerate(itertools.combinations(range(n), r)):
        table[list(chosen), col] = True
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _picks(n_small: int, n_both: int) -> np.ndarray:
    """Read-only MBS pick table read by rank: _choices(n_small, n_both), an
    all-True row for the UEs no SBS serves, then whether the SBS serves the
    UE: True for ranks 0..n_small-1, False for the last."""
    both = _choices(n_small, n_both)
    table = np.concatenate((both, np.ones((n_small + 1, both.shape[1]), dtype=bool),
                            np.zeros((1, both.shape[1]), dtype=bool)))
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _layout(sizes: tuple, loads: tuple, n_single: int):
    """Every SBS pattern of one combination of group loads, read-only, one
    column per pattern (the last group varying fastest) and one row per UE
    in layout order: the groups' members in turn, then n_single UEs of
    one-UE SBSs. Returns the ranks (2k x P): the UE's rank among the
    small-served UEs, or n_small where its SBS does not serve it, then that
    rank plus n_small + 1, its two rows of _picks."""
    served = np.ones((sum(sizes) + n_single, 1), dtype=bool)
    start = 0
    for g, n in zip(sizes, loads):
        if n < g:
            choice = _choices(g, n)
            served = np.repeat(served, choice.shape[1], axis=1)
            served[start:start + g] = np.tile(choice, served.shape[1] // choice.shape[1])
        start += g
    n_small = sum(loads) + n_single
    ranks = np.where(served, np.cumsum(served, axis=0) - 1, n_small)
    ranks = np.concatenate((ranks, ranks + n_small + 1))
    ranks.flags.writeable = False
    return ranks


def _block_scan(table):
    """Exhaustive scan of the table over load classes, best bound first.

    Returns (best_val, best_digits, macro_served, small_served). best_val is
    the maximum, exact: best_digits, a tuple of profile digits, is the first
    row the scan sums that attains it, and its evaluate() replay has
    best_val's bits. The maximizers are the rows within 2*K*ulp(best_val) of
    the maximum: rows that tie in exact arithmetic, such as the swaps of two
    identical UEs, add the same 2K nonnegative terms in other orders, and
    that tolerance bounds the difference. The two flag tuples cover every
    UE: whether some maximizer serves it at the MBS (digit !=
    DIGIT_SMALL_ONLY) and at its SBS (digit != DIGIT_MACRO_ONLY). A piece
    holds whole SBS patterns, each with every MBS pick, so rows are summed
    in one order at every _CHUNK_ROWS and no result depends on it; where one
    row attains the maximum, best_digits is that row.

    Dominance. A load class fixes the MBS load n_m and every SBS load n_i,
    hence every share bw / load. Only classes in which every station with
    UEs serves one of them are summed: n_m >= 1, and n_i >= 1 for every SBS
    with UEs. A row that leaves such a station idle is dominated: let one of
    the station's UEs take DIGIT_BOTH. One +0.0 term becomes a nonnegative
    bw / 1 * log and no share changes, so the sum cannot fall (IEEE addition
    is monotone), and the new row serves every (UE, tier) pair the old row
    served. Repeating the switch reaches a row with no idle station, so the
    maximum, a row attaining it and every served flag lie in the classes
    summed. An SBS with one UE thus has the single load 1.

    Class bound. The MBS adds at most f_m[n_m] = bw_m / n_m * top_m[n_m],
    top_m[j] being the sum of the j largest log_m, and SBS i at most
    f_i[n_i], the same over its UEs' log_small. The MBS must also cover the
    c = K - sum n_i UEs no SBS serves: group i leaves it g_i - n_i of its
    g_i UEs, whose log_m sum to at most h_i[n_i], the sum of the group's
    g_i - n_i largest, and its other n_m - c UEs sum to at most
    top_m[n_m - c]. The bound is min(f_m[n_m], bw_m / n_m * (sum h_i[n_i] +
    top_m[n_m - c])) + sum f_i[n_i]. A class with n_m < c holds no rows:
    top_m is padded with K entries of -inf, which top_m[n_m - c] reads for
    every such class (n_m - c >= 1 - K), so its bound is -inf.

    The cut. Classes are summed in descending bound, and the scan stops at
    the first whose bound is below best_val * (1 - 1e-9), best_val being
    the maximum of the rows summed so far. This loses no row within 4K ulps
    of the maximum. A term takes two roundings (the share, then the
    product), a row's sum 2K - 1 more. A bound takes at most K + I + 3 on
    the path of any one log: n - 1 for a sum of n logs, at most I adding
    the stations' parts, 1 adding h to top_m, 2 for the MBS's share and
    product and 1 adding the SBS part; the min is exact. While no nonzero
    intermediate is subnormal or overflows, each rounding is a relative
    error of at most u = 2^-53, and the exact row is at most its class's
    exact bound. So a row of a class bounded below best_val * (1 - 1e-9)
    sums to less than best_val * (1 - 1e-9) * (1 + 1.01 * (3K + I + 4) * u),
    which for K + I < 10^5 is below best_val * (1 - 8*K*u) <= best_val -
    4*K*ulp(best_val), under which no row is a maximizer; later classes
    bound lower still. The cut applies only when the smallest nonzero term
    and the largest bound lie well inside the normal range; otherwise every
    class is summed.

    Bits. Each row adds UE 0..K-1 in order, macro term then small term, each
    bw / load * log, as objective_chunk does. The term of a tier that does
    not serve the UE is +0.0 in both: objective_chunk multiplies the term by
    its False flag, the scan selects 0.0 for a macro term and computes
    bw / load * (log * 0.0) for a small one, and a finite share times 0.0
    is +0.0. A piece adds its terms by an in-place loop, vals += term:
    cumsum(axis=0) over a (2K, rows) array gives the same bits but strides
    along the slow axis, and np.add.reduce sums a contiguous column
    pairwise, which changes bits.
    """
    log_m, log_s, assoc = table.log_macro, table.log_small, table.assoc_sbs
    k_ues, bw_m, bw_s = table.num_ue, table.params.bw_macro_hz, table.params.bw_small_hz
    groups = [[] for _ in range(table.num_sbs)]
    for k, i in enumerate(assoc.tolist()):
        groups[i].append(k)
    lm, ls = log_m.tolist(), log_s.tolist()
    # an SBS with one UE serves it in every class, so only larger groups vary
    multi = [i for i, members in enumerate(groups) if len(members) > 1]
    sizes = tuple(len(groups[i]) for i in multi)
    single = [members[0] for members in groups if len(members) == 1]
    # per combination of the larger groups' loads, 1..g each, the last group
    # varying fastest: the SBSs' bound, their load, and the most the macro
    # logs of the UEs they leave to the MBS can sum to
    f_s, n_s, h_s = [sum(bw_s * ls[k] for k in single)], [len(single)], [0.0]
    for i, g in zip(multi, sizes):
        t_s = [*itertools.accumulate(sorted([ls[k] for k in groups[i]], reverse=True), initial=0.0)]
        t_m = [*itertools.accumulate(sorted([lm[k] for k in groups[i]], reverse=True), initial=0.0)]
        group_loads = range(1, g + 1)
        step = [bw_s / n * t_s[n] for n in group_loads]
        f_s = [a + b for a in f_s for b in step]
        n_s = [a + n for a in n_s for n in group_loads]
        h_s = [a + b for a in h_s for b in t_m[g - 1::-1]]
    f_s, n_s, h_s = np.array(f_s), np.array(n_s), np.array(h_s)
    # class (n_m - 1) * len(f_s) + s for n_m = 1..K, bounded as the docstring
    # says; top_m[n_s - K + n_m] is its top_m[n_m - c]
    top_m = np.array([*itertools.accumulate(sorted(lm, reverse=True), initial=0.0),
                      *[-math.inf] * k_ues])
    loads_m = np.arange(1, k_ues + 1)[:, None]
    most_m = np.minimum(top_m[1:k_ues + 1, None], h_s + top_m[n_s - k_ues + loads_m])
    bounds = (bw_m / loads_m * most_m + f_s).ravel()
    first = int(np.argmax(bounds))
    # the rounding argument for the cut needs every nonzero intermediate normal
    nonzero = [x for x in (*lm, *ls) if x > 0.0]
    prunes = (bounds[first] < 2.0 ** 1000
              and min(bw_m, bw_s) / k_ues * min(nonzero, default=1.0) >= 2.0 ** -1000)

    def by_bound():
        """The best-bounded class, then the others in descending bound,
        sorted once the first class's rows have set the cut."""
        yield first
        rest = np.flatnonzero(bounds >= best_val * (1 - 1e-9) if prunes
                              else bounds > -np.inf)
        yield from (c for c in rest[np.argsort(-bounds[rest], kind="stable")].tolist()
                    if c != first)

    best_val, best_digits = -1.0, None
    # per UE, the best value read so far of a row where the MBS serves it,
    # then the same where its SBS serves it
    near_best = np.full(2 * k_ues, -1.0)
    # the layout lists the larger groups' UEs, then the one-UE SBSs' UEs;
    # inv[k] is UE k's row there, and inv2 its two rows of ranks
    inv = [0] * k_ues
    for r, k in enumerate([k for i in multi for k in groups[i]] + single):
        inv[k] = r
    inv2 = np.array(inv + [r + k_ues for r in inv])
    # per combination of SBS loads, in UE order, one column per pattern: each
    # UE's two rows of the pick table; how many UEs the SBSs serve; each UE's
    # small term, or 0.0
    patterns = {}
    for c in by_bound():
        if prunes and bounds[c] < best_val * (1 - 1e-9):
            break
        n_m, s = divmod(c, len(f_s))
        n_m += 1
        if s not in patterns:
            loads = tuple(s // math.prod(sizes[j + 1:]) % g + 1 for j, g in enumerate(sizes))
            ranks, n_small = _layout(sizes, loads, len(single))[inv2], int(n_s[s])
            load_s = dict(zip(multi, loads))
            share = np.array([bw_s / load_s.get(i, 1) for i in assoc.tolist()])
            patterns[s] = (ranks, n_small,
                           share[:, None] * ((ranks[:k_ues] < n_small) * log_s[:, None]))
        ranks, n_small, small_terms = patterns[s]
        pick = _picks(n_small, n_m - k_ues + n_small)
        macro_terms = (bw_m / n_m * log_m)[:, None, None]
        n_cols = pick.shape[1]
        n_p = max(1, _CHUNK_ROWS // n_cols)
        for p0 in range(0, ranks.shape[1], n_p):
            # flags[k, p, q]: does the MBS serve UE k in the piece's row
            # (p, q), flat row p * n_cols + q; flags[K + k, p, q]: does its SBS
            flags = pick[ranks[:, p0:p0 + n_p]]
            macro = np.where(flags[:k_ues], macro_terms, 0.0)
            small = small_terms[:, p0:p0 + n_p, None]
            vals = macro[0] + small[0]
            for k in range(1, k_ues):
                vals += macro[k]
                vals += small[k]
            vals = vals.ravel()
            flags = flags.reshape(2 * k_ues, -1)
            j = int(vals.argmax())
            top = float(vals[j])
            if top > best_val:
                col = flags[:, j].tolist()
                best_val = top
                best_digits = tuple(DIGIT_MACRO_ONLY if not on_s else
                                    DIGIT_BOTH if on_m else DIGIT_SMALL_ONLY
                                    for on_m, on_s in zip(col[:k_ues], col[k_ues:]))
            # a maximizer ends within tol of the final maximum, whose tol is
            # at most twice the running maximum's, so rows below 2*tol go
            floor = best_val - 4 * k_ues * math.ulp(best_val)
            if top >= floor:
                near = vals >= floor
                np.maximum(near_best, np.where(flags[:, near], vals[near], -1.0).max(axis=1),
                           out=near_best)
    served = (near_best >= best_val - 2 * k_ues * math.ulp(best_val)).tolist()
    return best_val, best_digits, tuple(served[:k_ues]), tuple(served[k_ues:])


@functools.lru_cache(maxsize=1)
def _table_scan(table):
    """_block_scan of the table, memoized on the last table object scanned:
    the oracle loop scans a table in solve_brute_force and reads the same
    result in check_proposition1. Refuses a table of more than
    DEFAULT_BRUTE_CAP UEs with BruteForceCapError. A table's content is
    frozen and it compares by identity, so the object is the key; an equal
    table built anew is scanned again."""
    if table.num_ue > DEFAULT_BRUTE_CAP:
        raise BruteForceCapError(
            f"K={table.num_ue} exceeds the exhaustive-search cap of {DEFAULT_BRUTE_CAP} UEs")
    return _block_scan(table)


def brute_force_scan(table):
    """Best sum-rate over all 3^K profile combinations.

    Returns (best_value, best_digits), where best_digits is the profile
    digit row, a tuple of ints, of a maximizer, the first the scan sums; its
    evaluate() replay has best_value's bits. Refuses K above
    DEFAULT_BRUTE_CAP with BruteForceCapError.
    """
    return _table_scan(table)[:2]


def subset_degradations(window, before):
    """(degradation, rows) of a window's best prefix. window[s-1] is the
    station's rate total after adopting the first s rows, before its total
    now, and the shortest prefix of highest total degrades the least."""
    top = max(window)
    return before - top, window.index(top) + 1
