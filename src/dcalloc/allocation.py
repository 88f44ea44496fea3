"""Connectivity profiles and the instrumented objective evaluation.

Each UE gets a flag pair (d_macro, d_small); at least one flag must be set,
and the small flag always points at the UE's associated SBS. Base stations
split bandwidth evenly across the UEs they serve, so a station serving n UEs
gives each of them bw/n at that UE's spectral efficiency.

RateCalcCounter is the complexity currency: one tick per application of the
per-UE rate formula. Solvers charge their own accounting to it; comparing
counter values across solvers is the point of the exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import ChannelTable, _small_ints

__all__ = [
    "DIGIT_BOTH",
    "DIGIT_MACRO_ONLY",
    "DIGIT_SMALL_ONLY",
    "RateCalcCounter",
    "Allocation",
    "EvalReport",
    "share_rate",
    "evaluate",
]

# Profile codes in canonical enumeration order. Brute force counts base-3
# combinations with UE 0 as the least significant digit, so ties resolve
# toward (1,1) first, then (1,0), then (0,1).
DIGIT_BOTH = 0         # (d_macro, d_small) = (1, 1)
DIGIT_MACRO_ONLY = 1   # (1, 0)
DIGIT_SMALL_ONLY = 2   # (0, 1)


class RateCalcCounter:
    """Monotone tally of per-UE rate evaluations."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def tick(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counter can only move forward")
        self.count += n

    def __repr__(self) -> str:
        return f"RateCalcCounter(count={self.count})"


@dataclass
class Allocation:
    """Per-UE serving flags. d_small refers to the UE's associated SBS."""

    d_macro: np.ndarray
    d_small: np.ndarray

    def __post_init__(self):
        self.d_macro = _small_ints(self.d_macro, np.uint8, 2, "serving flags must be 0 or 1")
        self.d_small = _small_ints(self.d_small, np.uint8, 2, "serving flags must be 0 or 1")
        if self.d_macro.shape != self.d_small.shape or self.d_macro.ndim != 1:
            raise ValueError("d_macro and d_small must be 1-d arrays of equal length")

    @property
    def num_ue(self) -> int:
        return int(self.d_macro.shape[0])

    def validate(self) -> None:
        uncovered = np.flatnonzero((self.d_macro | self.d_small) == 0)
        if uncovered.size:
            raise ValueError(f"UEs without any serving tier: {uncovered.tolist()}")

    def to_digits(self) -> np.ndarray:
        self.validate()
        digits = np.empty(self.num_ue, dtype=np.uint8)
        both = (self.d_macro == 1) & (self.d_small == 1)
        digits[both] = DIGIT_BOTH
        digits[(self.d_macro == 1) & (self.d_small == 0)] = DIGIT_MACRO_ONLY
        digits[(self.d_macro == 0) & (self.d_small == 1)] = DIGIT_SMALL_ONLY
        return digits

    @classmethod
    def from_digits(cls, digits) -> "Allocation":
        digits = _small_ints(digits, np.uint8, 3, "profile digits must be 0, 1 or 2")
        return cls(d_macro=(digits != DIGIT_SMALL_ONLY).astype(np.uint8),
                   d_small=(digits != DIGIT_MACRO_ONLY).astype(np.uint8))

    @classmethod
    def all_both(cls, num_ue: int) -> "Allocation":
        return cls(np.ones(num_ue, np.uint8), np.ones(num_ue, np.uint8))

    @classmethod
    def all_small_only(cls, num_ue: int) -> "Allocation":
        return cls(np.zeros(num_ue, np.uint8), np.ones(num_ue, np.uint8))


@dataclass
class EvalReport:
    """Outcome of evaluating one allocation."""

    sum_rate: float                 # bits/s over both tiers
    rate_macro: np.ndarray          # macro-tier rate per UE, 0 where unserved
    rate_small: np.ndarray          # small-tier rate per UE, 0 where unserved
    rate_calc_count: int            # counter reading attached to this report


def share_rate(bw_hz: float, n_served: int, log_term: float) -> float:
    """Equal-split Shannon rate: (bw / n) * log2(1 + x), log term precomputed."""
    if n_served < 1:
        raise ValueError("a serving station must serve at least one UE")
    return bw_hz / n_served * log_term


def evaluate(alloc: Allocation, table: ChannelTable, counter: RateCalcCounter | None = None) -> EvalReport:
    """Total sum-rate of an allocation, ticking the counter once per served
    (UE, tier) pair when a counter is supplied.

    Each served term is bw / load * log, as share_rate computes it, and an
    unserved one is +0.0. The total adds UE 0..K-1 in order, macro term
    then small term, left to right (cumsum, not the pairwise sum), which
    matches the enumeration kernels, so an allocation evaluated here equals
    the same allocation scored inside brute force bit for bit.
    """
    if alloc.num_ue != table.num_ue:
        raise ValueError("allocation size does not match table")
    alloc.validate()
    cnt = counter if counter is not None else RateCalcCounter()

    n_macro = int(alloc.d_macro.sum())
    n_small = np.bincount(table.assoc_sbs[alloc.d_small == 1], minlength=table.num_sbs)
    # a station that serves nobody has every flag 0; max(., 1) only avoids 0/0
    rate_m = alloc.d_macro * (table.params.bw_macro_hz / max(n_macro, 1) * table.log_macro)
    loads = np.maximum(n_small[table.assoc_sbs], 1)
    rate_s = alloc.d_small * (table.params.bw_small_hz / loads * table.log_small)
    cnt.tick(n_macro + int(alloc.d_small.sum()))
    terms = np.empty(2 * table.num_ue)
    terms[0::2] = rate_m
    terms[1::2] = rate_s
    total = terms.cumsum()[-1]
    return EvalReport(sum_rate=total, rate_macro=rate_m, rate_small=rate_s, rate_calc_count=cnt.count)
