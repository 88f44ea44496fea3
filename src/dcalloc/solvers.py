"""Profile-allocation solvers and the optimality-condition checker.

Five strategies over one ChannelTable:

* solve_brute_force: exact maximizer by scanning all 3^K profile vectors
* solve_proposed: greedy over SINR-sorted per-station columns; each pass
  widens per-station candidate windows and commits the subset whose adoption
  degrades its station's rate total the least
* solve_3c_only / solve_1a_only / solve_stronger: one-shot baselines

All solvers charge per-UE rate evaluations to a RateCalcCounter and return a
SolverResult whose report carries the final counter reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .allocation import Allocation, EvalReport, RateCalcCounter, evaluate
from .kernels import (_block_scan, brute_force_scan, decode_combo, objective_chunk,
                      subset_degradations)
from .topology import ChannelTable

__all__ = [
    "DEFAULT_BRUTE_CAP",
    "BruteForceCapError",
    "SortedMatrix",
    "SolverResult",
    "build_sorted_matrix",
    "solve_brute_force",
    "solve_proposed",
    "solve_3c_only",
    "solve_1a_only",
    "solve_stronger",
    "check_proposition1",
]

# 14 * 3**14 is about 6.7e7 rate calculations; the numpy block scan covers
# them in about 0.1 s on a shared 2-vCPU host, and each further UE triples that
DEFAULT_BRUTE_CAP = 14


class BruteForceCapError(ValueError):
    """Raised when exhaustive search is asked to scan more than the cap allows."""


@dataclass
class SortedMatrix:
    """Per-station UE orderings: one column per SBS holding its associated
    UEs by descending SINR, then the MBS column holding every UE by
    descending SNR. Equal values keep ascending UE index."""

    columns: list

    @property
    def num_sbs(self) -> int:
        return len(self.columns) - 1

    @property
    def mbs_column(self) -> np.ndarray:
        return self.columns[-1]

    def head(self, bs: int):
        col = self.columns[bs]
        return int(col[0]) if len(col) else None


@dataclass
class SolverResult:
    alloc: Allocation
    report: EvalReport
    wall_notes: dict = field(default_factory=dict)

    @property
    def sum_rate(self) -> float:
        return self.report.sum_rate

    @property
    def op_count(self) -> int:
        return self.report.rate_calc_count


def build_sorted_matrix(table: ChannelTable) -> SortedMatrix:
    cols = []
    for i in range(table.num_sbs):
        members = np.flatnonzero(table.assoc_sbs == i)
        order = np.argsort(-table.sinr_small[members], kind="stable")
        cols.append(members[order])
    cols.append(np.argsort(-table.snr_macro, kind="stable"))
    return SortedMatrix(columns=cols)


def solve_brute_force(table: ChannelTable, counter: RateCalcCounter | None = None,
                      cap: int = DEFAULT_BRUTE_CAP, override_cap: bool = False) -> SolverResult:
    """Exact optimum over every profile combination.

    Charges K rate calculations per combination (K * 3^K total). Ties keep
    the first maximizer in enumeration order: profiles ordered (1,1), (1,0),
    (0,1) with UE 0 as the least significant digit.
    """
    k_ues = table.num_ue
    if k_ues > cap and not override_cap:
        raise BruteForceCapError(
            f"K={k_ues} exceeds the exhaustive-search cap of {cap} UEs; "
            f"pass override_cap=True to run anyway")
    cnt = counter if counter is not None else RateCalcCounter()
    best_val, best_idx = brute_force_scan(table)
    cnt.tick(k_ues * 3 ** k_ues)
    alloc = Allocation.from_digits(decode_combo(best_idx, k_ues))
    report = evaluate(alloc, table)
    # the replay must agree with the scan kernel bit for bit
    assert report.sum_rate == best_val, "enumeration kernel and evaluate() disagree"
    report.rate_calc_count = cnt.count
    return SolverResult(alloc=alloc, report=report,
                        wall_notes={"best_index": best_idx, "combinations": 3 ** k_ues})


def _one_shot(alloc: Allocation, table: ChannelTable, counter) -> SolverResult:
    cnt = counter if counter is not None else RateCalcCounter()
    report = evaluate(alloc, table, cnt)
    return SolverResult(alloc=alloc, report=report)


def solve_3c_only(table: ChannelTable, counter: RateCalcCounter | None = None) -> SolverResult:
    """Every UE served by both tiers at once."""
    return _one_shot(Allocation.all_both(table.num_ue), table, counter)


def solve_1a_only(table: ChannelTable, counter: RateCalcCounter | None = None) -> SolverResult:
    """Every UE served by its associated SBS only."""
    return _one_shot(Allocation.all_small_only(table.num_ue), table, counter)


def solve_stronger(table: ChannelTable, counter: RateCalcCounter | None = None) -> SolverResult:
    """Each UE served solely by the tier with the higher received power;
    equal powers go to the MBS."""
    macro_wins = table.rx_macro_w >= table.rx_small_w
    alloc = Allocation(d_macro=macro_wins.astype(np.uint8),
                       d_small=(~macro_wins).astype(np.uint8))
    return _one_shot(alloc, table, counter)


def solve_proposed(table: ChannelTable, counter: RateCalcCounter | None = None) -> SolverResult:
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
    tuple.

    Counter accounting still charges the paper's enumeration of every
    subset: per examined window of w rows at a station already serving cs
    UEs, each subset costs one rate evaluation per UE the station would
    then serve, summing to cs*2^w + w*2^(w-1) ticks. wall_notes likewise
    reports 2^w subset evaluations per window, plus pass and commit
    tallies. The final counted evaluate() adds one tick per served
    (UE, tier) pair.
    """
    cnt = counter if counter is not None else RateCalcCounter()
    k_ues = table.num_ue
    mat = build_sorted_matrix(table)
    n_bs = table.num_sbs + 1
    mbs = n_bs - 1

    def log_terms(bs: int, ues) -> np.ndarray:
        return table.log_macro[ues] if bs == mbs else table.log_small[ues]

    def bandwidth(bs: int) -> float:
        return table.params.bw_macro_hz if bs == mbs else table.params.bw_small_hz

    committed_macro = np.zeros(k_ues, dtype=bool)
    committed_small = np.zeros(k_ues, dtype=bool)
    served = np.zeros(k_ues, dtype=bool)
    current = [-1] * n_bs
    exhausted = [False] * n_bs
    csize = [0] * n_bs
    logsum = [0.0] * n_bs

    initial_commits = 0
    for bs in range(n_bs):
        col = mat.columns[bs]
        if len(col) == 0:
            exhausted[bs] = True
            continue
        head = int(col[0])
        (committed_macro if bs == mbs else committed_small)[head] = True
        served[head] = True
        current[bs] = 0
        csize[bs] = 1
        logsum[bs] = float(log_terms(bs, head))
        initial_commits += 1

    passes = 0
    commits = 0
    subset_evals = 0
    fallback = False

    while not served.all():
        passes += 1
        if passes > 4 * k_ues + 8:
            raise RuntimeError("greedy allocation failed to make progress")

        # (degradation, bs, window start row, adopted logsum, pool prefix UEs)
        best = None
        for bs in range(n_bs):
            if exhausted[bs]:
                continue
            col = mat.columns[bs]
            nxt = -1
            for r in range(current[bs] + 1, len(col)):
                if not served[col[r]]:
                    nxt = r
                    break
            if nxt < 0:
                # no unserved UE left in this column, and served never reverts
                exhausted[bs] = True
                continue
            lo = current[bs] + 1
            w = nxt - lo + 1
            pool_ues = col[lo:nxt + 1]
            degs, csum = subset_degradations(
                log_terms(bs, pool_ues), logsum[bs], csize[bs], bandwidth(bs))
            subset_evals += 1 << w
            cnt.tick(csize[bs] * (1 << w) + w * (1 << (w - 1)))
            ties = np.flatnonzero(degs == degs.min())
            j = int(min(ties, key=lambda t: sorted(pool_ues[:t + 1].tolist())))
            cand = (float(degs[j]), bs, lo, float(csum[j]), pool_ues[:j + 1])
            if best is None or cand[0] < best[0]:
                best = cand

        if best is None:
            # unreachable: the MBS column holds every UE, so an unserved UE
            # always sits below the MBS cursor; kept as a terminating net
            rest = np.flatnonzero(~served)
            committed_macro[rest] = True
            served[rest] = True
            fallback = True
            break

        _, bs, lo, new_logsum, ues = best
        (committed_macro if bs == mbs else committed_small)[ues] = True
        served[ues] = True
        current[bs] = lo + len(ues) - 1
        csize[bs] += len(ues)
        logsum[bs] = new_logsum
        commits += 1

    alloc = Allocation(d_macro=committed_macro.astype(np.uint8),
                       d_small=committed_small.astype(np.uint8))
    for bs in range(n_bs):
        head = mat.head(bs)
        if head is None:
            continue
        holds = committed_macro[head] if bs == mbs else committed_small[head]
        assert holds, "a station lost its column head"

    report = evaluate(alloc, table, cnt)
    notes = {"passes": passes, "commits": commits, "initial_commits": initial_commits,
             "subset_evaluations": subset_evals, "fallback": fallback}
    return SolverResult(alloc=alloc, report=report, wall_notes=notes)


def check_proposition1(table: ChannelTable, optimum: Allocation):
    """Necessary optimality condition on station heads.

    For every station with a nonempty UE group (the MBS groups all UEs, SBS
    i groups its associated UEs), some exhaustive-search maximizer must
    serve that group's highest-SNR/SINR UE at that station. Returns
    (True, None) when every station passes, else (False, witness) naming
    the first failing station. Raises ValueError if the supplied allocation
    does not attain the enumerated maximum, and BruteForceCapError above
    DEFAULT_BRUTE_CAP UEs.

    The maximum and the per-head flags come from one pass of the numpy
    block scan behind brute_force_scan: a block that raises the maximum
    resets the flags, one that equals it ORs in whether its maximizers
    serve each head. The supplied allocation's own digit row is scored by
    objective_chunk, in the scan's summation order.
    """
    k_ues = table.num_ue
    if k_ues > DEFAULT_BRUTE_CAP:
        raise BruteForceCapError(
            f"K={k_ues} exceeds the exhaustive-search cap of {DEFAULT_BRUTE_CAP} UEs")
    if optimum.num_ue != k_ues:
        raise ValueError("allocation size does not match table")
    args = (np.ascontiguousarray(table.log_macro), np.ascontiguousarray(table.log_small),
            np.ascontiguousarray(table.assoc_sbs, dtype=np.int64), table.num_sbs,
            table.params.bw_macro_hz, table.params.bw_small_hz)
    value = objective_chunk(optimum.to_digits()[None, :], *args)[0]

    mat = build_sorted_matrix(table)
    mbs = table.num_sbs
    heads = [(bs, mat.head(bs)) for bs in range(mbs + 1) if mat.head(bs) is not None]
    # a station's head is served unless its digit excludes that tier
    best, _, satisfied = _block_scan(
        *args, [(head, 2 if bs == mbs else 1) for bs, head in heads])

    if value != best:
        raise ValueError("supplied allocation is not an exhaustive-search maximizer")
    for (bs, head), ok in zip(heads, satisfied):
        if not ok:
            return False, {"bs": bs, "head_ue": head, "max_sum_rate": best}
    return True, None
