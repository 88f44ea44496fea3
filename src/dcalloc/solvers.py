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
from itertools import accumulate

import numpy as np

from .allocation import (DIGIT_BOTH, DIGIT_MACRO_ONLY, DIGIT_SMALL_ONLY, Allocation,
                         RateCalcCounter, evaluate)
# the cap's two names are kernels' own, bound here for harness, cli and callers;
# objective_chunk is not called here, but dcbench's self-test expects its
# tracer to patch this binding
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
    """Per-station UE orderings, each a list of ints: one column per SBS
    holding its associated UEs by descending SINR, then the MBS column
    holding every UE by descending SNR. Equal values keep ascending UE
    index, since sorted() is stable with reverse=True too."""
    sinr, snr = table.sinr_small.tolist(), table.snr_macro.tolist()
    groups = [[] for _ in range(table.num_sbs)]
    for k, i in enumerate(table.assoc_sbs.tolist()):
        groups[i].append(k)
    cols = [sorted(group, key=sinr.__getitem__, reverse=True) for group in groups]
    cols.append(sorted(range(table.num_ue), key=snr.__getitem__, reverse=True))
    return cols


def solve_brute_force(table: ChannelTable) -> SolverResult:
    """Exact optimum over every profile combination.

    Charges K rate calculations per combination (K * 3^K total). Among tied
    maximizers it returns one, the first the scan sums. wall_notes holds the
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
    row is exhausted for good). The station whose window's least-degrading
    nonempty subset degrades its rate total the least, the lowest index on a
    tie, adopts that subset, the shortest of tied prefixes, and may re-serve
    already-served UEs at their second tier, until every UE is served.

    Only prefixes are priced: a window lists UEs by descending SINR/SNR, so
    for every size s the left-to-right sum of its first s log terms is at
    least the sum of any other s of them (IEEE addition is monotone), and
    its first s rows degrade the station's rate total no more than any other
    s rows. Every adoption is thus a prefix of the rows just below the
    committed ones, so a station's committed UEs are the first d = depth[bs]
    rows of its column, and its rate total is totals[bs][d] = bw / d *
    (their log terms added left to right), built once per column with
    totals[bs][0] = 0.0; subset_degradations prices a window from its slice
    of them. The MBS column holds every UE and committed UEs are served, so
    while a UE is unserved the MBS has a window; each pass adds at least one
    row to the sum of the depths, which is at most 2K, so at most 2K passes
    run. A station prices its window again only when its (depth, width)
    changed since the last pass, and its pointer to the first unserved row
    only moves forward, since served never reverts.

    op_count charges the paper's enumeration of every subset: per examined
    window of w rows at a station already serving cs UEs, priced afresh or
    not, cs*2^w + w*2^(w-1) ticks, plus one tick per served (UE, tier) pair
    of the final counted evaluate(). wall_notes reports 2^w subset
    evaluations per examined window, plus pass and commit tallies.
    """
    cols = build_sorted_matrix(table)
    mbs = table.num_sbs
    bws = [table.params.bw_small_hz] * mbs + [table.params.bw_macro_hz]
    logs = [table.log_small.tolist()] * mbs + [table.log_macro.tolist()]
    totals = [[0.0, *(bw / d * run for d, run in enumerate(accumulate(log[k] for k in col), 1))]
              for bw, log, col in zip(bws, logs, cols)]

    depth = [min(len(col), 1) for col in cols]
    served = bytearray(table.num_ue)
    for col in filter(None, cols):
        served[col[0]] = 1
    unserved = table.num_ue - sum(served)
    initial_commits = sum(depth)
    stations = [(bs, col, len(col)) for bs, col in enumerate(cols)]
    # end[bs]: first unserved row at or below depth[bs] as of the last pass
    end = list(depth)
    # priced[bs]: (depth, width, degradation, rows) of the last window priced;
    # depth -1 before the first
    priced = [(-1, 0, 0.0, 0)] * len(cols)

    passes = subset_evals = ticks = 0
    while unserved:
        passes += 1
        best_bs = -1
        for bs, col, n in stations:
            r = end[bs]
            while r < n and served[col[r]]:
                r += 1
            end[bs] = r
            if r == n:
                # no unserved UE left in this column, and served never reverts
                continue
            lo = depth[bs]
            w = r - lo + 1
            subset_evals += 1 << w
            ticks += (lo << w) + (w << (w - 1))
            memo = priced[bs]
            if memo[0] != lo or memo[1] != w:
                memo = priced[bs] = (lo, w, *subset_degradations(totals[bs][lo + 1:r + 2],
                                                                  totals[bs][lo]))
            if best_bs < 0 or memo[2] < best_deg:
                best_deg, best_bs, best_rows = memo[2], bs, memo[3]

        lo = depth[best_bs]
        for ue in cols[best_bs][lo:lo + best_rows]:
            if not served[ue]:
                served[ue] = 1
                unserved -= 1
        depth[best_bs] = lo + best_rows

    # each UE starts at 3 (no tier) and each serving tier subtracts the code of
    # the profile lacking it; a UE no tier serves stays 3, which Allocation refuses
    digits = [DIGIT_MACRO_ONLY + DIGIT_SMALL_ONLY] * table.num_ue
    for bs, col in enumerate(cols):
        code = DIGIT_SMALL_ONLY if bs == mbs else DIGIT_MACRO_ONLY
        for ue in col[:depth[bs]]:
            digits[ue] -= code
    alloc = Allocation(np.array(digits, np.uint8))
    cnt = RateCalcCounter()
    sum_rate = evaluate(alloc, table, cnt)
    # each pass commits exactly once
    notes = {"passes": passes, "commits": passes, "initial_commits": initial_commits,
             "subset_evaluations": subset_evals}
    return SolverResult(alloc, sum_rate, ticks + cnt.count, notes)


def check_proposition1(table: ChannelTable, optimum: Allocation):
    """Necessary optimality condition on station heads.

    For every station with a nonempty UE group (the MBS groups all UEs, SBS
    i its associated UEs), some exhaustive-search maximizer must serve the
    group's head, its highest-SNR/SINR UE, at that station. On a tie the
    head is the lowest-indexed such UE, the first of the station's column in
    build_sorted_matrix. Returns (True, None) when every station passes,
    else (False, witness) naming the first failing station, checking SBS
    0..I-1, then the MBS.

    The maximizers are the rows within 2*K ulps of the maximum, and optimum
    is accepted by the same rule, so every maximizer gets the same (ok,
    witness). The maximum and the served flags are read from the scan's
    memo, so after solve_brute_force on the same table object nothing is
    scanned again. Raises ValueError if optimum is not a maximizer, and
    BruteForceCapError above DEFAULT_BRUTE_CAP UEs.
    """
    k_ues = table.num_ue
    best, digits, macro_served, small_served = _table_scan(table)
    # the scan's own maximizer sums to best bit for bit; only another row is scored
    if tuple(optimum.digits.tolist()) != digits:
        if evaluate(optimum, table) < best - 2 * k_ues * math.ulp(best):
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
