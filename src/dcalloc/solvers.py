"""Profile-allocation solvers and the optimality-condition checker.

Five strategies over one ChannelTable:

* solve_brute_force: exact maximizer by scanning all 3^K profile vectors
* solve_proposed: greedy over SINR-sorted per-station columns; each pass
  widens per-station candidate windows and commits the subset whose adoption
  degrades its station's rate total the least
* solve_3c_only / solve_1a_only / solve_stronger: one-shot baselines

Every solver takes the table alone and returns a SolverResult whose op_count
is the per-UE rate evaluations that solve charged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import (DIGIT_BOTH, DIGIT_MACRO_ONLY, DIGIT_SMALL_ONLY, Allocation,
                         RateCalcCounter, evaluate)
# the cap's two names are kernels' own, bound here for harness, cli and callers
from .kernels import (DEFAULT_BRUTE_CAP, BruteForceCapError, _table_scan, brute_force_scan,
                      objective_chunk, subset_degradations)
from .topology import ChannelTable

__all__ = [
    "SolverResult",
    "build_sorted_matrix",
    "solve_brute_force",
    "solve_proposed",
    "solve_3c_only",
    "solve_1a_only",
    "solve_stronger",
    "check_proposition1",
]

@dataclass
class SolverResult:
    """sum_rate is evaluate()'s np.float64 for alloc, op_count the rate
    evaluations this solve charged, wall_notes the solver's own tallies."""

    alloc: Allocation
    sum_rate: np.float64
    op_count: int
    wall_notes: dict = field(default_factory=dict)


def build_sorted_matrix(table: ChannelTable) -> list:
    """Per-station UE orderings: one column per SBS holding its associated
    UEs by descending SINR, then the MBS column holding every UE by
    descending SNR. Equal values keep ascending UE index: one stable sort
    by SBS, then descending SINR, split at the SBS group sizes."""
    by_sbs = np.lexsort((-table.sinr_small, table.assoc_sbs))
    ends = np.bincount(table.assoc_sbs, minlength=table.num_sbs).cumsum().tolist()
    cols = [by_sbs[start:end] for start, end in zip([0] + ends, ends)]
    cols.append(np.argsort(-table.snr_macro, kind="stable"))
    return cols


def solve_brute_force(table: ChannelTable) -> SolverResult:
    """Exact optimum over every profile combination.

    Charges K rate calculations per combination (K * 3^K total). Ties keep
    the first maximizer in enumeration order: profiles ordered (1,1), (1,0),
    (0,1) with UE 0 as the least significant digit. wall_notes holds the
    combination count 3^K. The scan refuses K above DEFAULT_BRUTE_CAP with
    BruteForceCapError.
    """
    k_ues = table.num_ue
    best_val, digits = brute_force_scan(table)
    alloc = Allocation(np.array(digits, np.uint8))
    sum_rate = evaluate(alloc, table)
    # the replay must agree with the scan kernel bit for bit
    if sum_rate != best_val:
        raise RuntimeError(f"exhaustive scan maximum {best_val!r} and the evaluate() "
                           f"replay {float(sum_rate)!r} of digits {list(digits)} disagree")
    return SolverResult(alloc, sum_rate, k_ues * 3 ** k_ues, {"combinations": 3 ** k_ues})


def _one_shot(alloc: Allocation, table: ChannelTable) -> SolverResult:
    cnt = RateCalcCounter()
    return SolverResult(alloc, evaluate(alloc, table, cnt), cnt.count)


def solve_3c_only(table: ChannelTable) -> SolverResult:
    """Every UE served by both tiers at once."""
    return _one_shot(Allocation(np.full(table.num_ue, DIGIT_BOTH, np.uint8)), table)


def solve_1a_only(table: ChannelTable) -> SolverResult:
    """Every UE served by its associated SBS only."""
    return _one_shot(Allocation(np.full(table.num_ue, DIGIT_SMALL_ONLY, np.uint8)), table)


def solve_stronger(table: ChannelTable) -> SolverResult:
    """Each UE served solely by the tier with the higher received power;
    equal powers go to the MBS."""
    digits = np.where(table.rx_macro_w >= table.rx_small_w,
                      np.uint8(DIGIT_MACRO_ONLY), np.uint8(DIGIT_SMALL_ONLY))
    return _one_shot(Allocation(digits), table)


def solve_proposed(table: ChannelTable) -> SolverResult:
    """Greedy allocation over the sorted matrix.

    Initialization commits each station's column head to that station. Each
    later pass refreshes one candidate window per station: the rows strictly
    below the station's deepest committed row, down to and including the
    first row whose UE is not yet served anywhere (a station with no such
    row is exhausted for good). The least-degrading nonempty subset of each
    window is adopted by the station whose rate total it degrades the least,
    which may re-serve already-served UEs at the second tier. Loops until
    every UE is served.

    A window lists UEs by descending SINR/SNR, so for every size s its first
    s rows degrade the station's rate total no more than any other s of its
    rows (see subset_degradations), and only the w prefixes are priced.
    Ties between prefixes go to the lexicographically smallest sorted UE
    tuple; the tied prefixes' UE tuples are compared only when the least
    degradation repeats, which is rare.

    Every adoption is thus a prefix of the rows just below the committed
    ones, so a station's committed UEs are always the first depth[bs] rows
    of its column, and its committed log sum is the running sum of the
    column's log terms at row depth[bs]-1. The running sums are kept as
    Python floats, and their slice over a window's rows holds the prefixes'
    post-adoption log sums, so a window is priced from that slice. There is
    no fallback: the MBS column holds every UE and committed UEs are served,
    so while a UE is unserved the MBS has a window; each pass then adds at
    least one row to the sum of the depths, which is at most 2K, so at most
    2K passes run.

    A pass commits rows to one station only, so most windows are the same
    as in the last pass. A window's prices depend only on its station,
    depth and width (the running sums and bandwidth are fixed for the
    solve), so each station keeps the (depth, width) it last priced with
    the chosen degradation and row count, and calls subset_degradations and
    the tie rule only when the window has changed. Depths and widths only
    grow, so no window is priced twice. A per-station pointer to the first
    unserved row only moves forward: served never reverts, and the rows
    above the depth are committed and hence served, so each pass resumes
    the scan where the last one stopped.

    Counter accounting still charges the paper's enumeration of every
    subset: per examined window of w rows at a station already serving cs
    UEs, priced afresh or not, each subset costs one rate evaluation per UE
    the station would then serve, summing to cs*2^w + w*2^(w-1) ticks.
    wall_notes likewise reports 2^w subset evaluations per examined window,
    plus pass and commit tallies. The final counted evaluate() adds one
    tick per served (UE, tier) pair.
    """
    columns = build_sorted_matrix(table)
    mbs = table.num_sbs
    bws = [table.params.bw_small_hz] * mbs + [table.params.bw_macro_hz]
    # running[bs][r] adds the log terms of rows 0..r left to right
    running = [np.cumsum(table.log_small[col]).tolist() for col in columns[:mbs]]
    running.append(np.cumsum(table.log_macro[columns[mbs]]).tolist())
    cols = [col.tolist() for col in columns]

    depth = [min(len(col), 1) for col in cols]
    served = bytearray(table.num_ue)
    for col in cols:
        if col:
            served[col[0]] = 1
    initial_commits = sum(depth)
    # end[bs]: first unserved row at or below depth[bs] as of the last pass
    end = list(depth)
    # priced[bs]: (depth, width, degradation, rows) of the last window priced
    priced = [None] * len(cols)

    passes = 0
    subset_evals = 0
    ticks = 0
    while 0 in served:
        passes += 1
        # (degradation, bs, rows adopted)
        best = None
        for bs, col in enumerate(cols):
            r = end[bs]
            while r < len(col) and served[col[r]]:
                r += 1
            end[bs] = r
            if r == len(col):
                # no unserved UE left in this column, and served never reverts
                continue
            lo = depth[bs]
            w = r - lo + 1
            subset_evals += 1 << w
            ticks += lo * (1 << w) + w * (1 << (w - 1))
            memo = priced[bs]
            if memo is None or memo[:2] != (lo, w):
                degs = subset_degradations(running[bs][lo:r + 1], running[bs][lo - 1], lo,
                                           bws[bs])
                least = min(degs)
                j = degs.index(least)
                if degs.count(least) > 1:
                    j = min((t for t, deg in enumerate(degs) if deg == least),
                            key=lambda t: sorted(col[lo:lo + t + 1]))
                memo = priced[bs] = (lo, w, degs[j], j + 1)
            if best is None or memo[2] < best[0]:
                best = (memo[2], bs, memo[3])

        _, bs, rows = best
        for ue in cols[bs][depth[bs]:depth[bs] + rows]:
            served[ue] = 1
        depth[bs] += rows

    # each UE starts at 3 (no tier) and each serving tier subtracts the code of
    # the profile lacking it; a UE no tier serves stays 3, which Allocation refuses
    digits = np.full(table.num_ue, DIGIT_MACRO_ONLY + DIGIT_SMALL_ONLY, np.uint8)
    for bs, col in enumerate(columns):
        digits[col[:depth[bs]]] -= DIGIT_SMALL_ONLY if bs == mbs else DIGIT_MACRO_ONLY
    alloc = Allocation(digits)
    cnt = RateCalcCounter()
    sum_rate = evaluate(alloc, table, cnt)
    # each pass commits exactly once
    notes = {"passes": passes, "commits": passes, "initial_commits": initial_commits,
             "subset_evaluations": subset_evals}
    return SolverResult(alloc, sum_rate, ticks + cnt.count, notes)


def check_proposition1(table: ChannelTable, optimum: Allocation):
    """Necessary optimality condition on station heads.

    For every station with a nonempty UE group (the MBS groups all UEs, SBS
    i groups its associated UEs), some exhaustive-search maximizer must
    serve that group's highest-SNR/SINR UE at that station. Returns
    (True, None) when every station passes, else (False, witness) naming
    the first failing station. Raises ValueError if the supplied allocation
    is not a maximizer, and BruteForceCapError above DEFAULT_BRUTE_CAP UEs.

    The maximum and the per-UE served flags come from the exhaustive scan
    behind brute_force_scan, read from its memo: after solve_brute_force on
    the same table object, the check scans nothing. The scan's maximizers are the
    rows within 2*K ulps of the maximum, so that the swapped optima of
    identical UEs, which sum the same terms in another order, count as
    maximizers too. The scan's own maximizer, the allocation
    solve_brute_force returns, sums to the maximum bit for bit (the solver
    replays it through evaluate), so it is not scored again. Any other
    allocation's digit row is scored by objective_chunk, in the scan's
    summation order, and is accepted by the same rule: any maximizer gets
    the same (ok, witness), not only the one solve_brute_force returns.

    The heads are found in one pass, without sorting: each SBS's head is the
    first UE of its group with the greatest SINR and the MBS's the first UE
    with the greatest SNR, so a tie goes to the lowest index, as it does in
    build_sorted_matrix, whose columns start with these same UEs. Stations
    are checked SBS 0..I-1, then the MBS.
    """
    k_ues = table.num_ue
    if optimum.num_ue != k_ues:
        raise ValueError("allocation size does not match table")
    best, digits, macro_served, small_served = _table_scan(table)
    # the scan's own maximizer sums to best bit for bit; only another row is scored
    if tuple(optimum.digits.tolist()) != digits:
        value = objective_chunk(optimum.digits[None], table)[0]
        if value < best - 2 * k_ues * math.ulp(best):
            raise ValueError("supplied allocation is not an exhaustive-search maximizer")
    # each SBS's first UE of greatest SINR, then the first UE of greatest SNR
    sinr, snr = table.sinr_small.tolist(), table.snr_macro.tolist()
    heads = [None] * table.num_sbs + [max(range(k_ues), key=snr.__getitem__)]
    for k, i in enumerate(table.assoc_sbs.tolist()):
        if heads[i] is None or sinr[k] > sinr[heads[i]]:
            heads[i] = k
    mbs = table.num_sbs
    for bs, head in enumerate(heads):
        if head is not None and not (macro_served if bs == mbs else small_served)[head]:
            return False, {"bs": bs, "head_ue": head, "max_sum_rate": best}
    return True, None
