"""Connectivity profiles and the instrumented objective evaluation.

An allocation holds one profile digit per UE, naming the tiers that serve
it: both, the macro tier only, or its associated SBS only. Every profile
serves its UE, so every allocation is valid. Base stations split bandwidth
evenly across the UEs they serve, so a station serving n UEs gives each of
them bw/n at that UE's spectral efficiency.

RateCalcCounter is the complexity currency: one tick per application of the
per-UE rate formula. Each solver charges its own accounting to a counter of
its own and reports the reading as op_count; comparing those counts across
solvers is the point of the exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import ChannelTable, _integer, _small_ints

__all__ = [
    "DIGIT_BOTH",
    "DIGIT_MACRO_ONLY",
    "DIGIT_SMALL_ONLY",
    "RateCalcCounter",
    "Allocation",
    "share_rate",
    "evaluate",
]

# Profile codes. Among tied maximizers the exhaustive scan returns one, the
# first it sums, whatever their codes.
DIGIT_BOTH = 0         # (d_macro, d_small) = (1, 1)
DIGIT_MACRO_ONLY = 1   # (1, 0)
DIGIT_SMALL_ONLY = 2   # (0, 1)


class RateCalcCounter:
    """Monotone tally of per-UE rate evaluations, kept as a Python int."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def tick(self, n: int = 1) -> None:
        n = _integer("tick count", n)  # a numpy integer would wrap past 2**63
        if n < 0:
            raise ValueError("counter can only move forward")
        self.count += n

    def __repr__(self) -> str:
        return f"RateCalcCounter(count={self.count})"


@dataclass(frozen=True, eq=False)
class Allocation:
    """Per-UE profile digits, held as a read-only uint8 copy; an instance
    checks itself when built and is frozen. Two allocations are equal when
    their digits are, and hash alike. d_small refers to the UE's associated
    SBS."""

    digits: np.ndarray

    def __post_init__(self):
        digits = _small_ints(self.digits, np.uint8, 3, "profile digits must be 0, 1 or 2").copy()
        if digits.ndim != 1:
            raise ValueError("profile digits must be a 1-d array")
        digits.flags.writeable = False
        object.__setattr__(self, "digits", digits)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.digits.tobytes() == other.digits.tobytes()

    def __hash__(self):
        return hash(self.digits.tobytes())

    def __reduce__(self):
        # pickle and deepcopy rebuild through the check, and the copy stays read-only
        return (type(self), (self.digits,))

    @property
    def num_ue(self) -> int:
        return len(self.digits)

    @property
    def d_macro(self) -> np.ndarray:
        """A new uint8 array, 1 where the macro tier serves the UE."""
        return (self.digits != DIGIT_SMALL_ONLY).astype(np.uint8)

    @property
    def d_small(self) -> np.ndarray:
        """A new uint8 array, 1 where the UE's SBS serves it."""
        return (self.digits != DIGIT_MACRO_ONLY).astype(np.uint8)


def share_rate(bw_hz: float, n_served: int, log_term: float) -> float:
    """Equal-split Shannon rate: (bw / n) * log2(1 + x), log term precomputed."""
    if n_served < 1:
        raise ValueError("a serving station must serve at least one UE")
    return bw_hz / n_served * log_term


def evaluate(alloc: Allocation, table: ChannelTable, counter: RateCalcCounter | None = None) -> np.float64:
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
    macro = alloc.digits != DIGIT_SMALL_ONLY
    small = alloc.digits != DIGIT_MACRO_ONLY
    n_macro = int(np.count_nonzero(macro))
    n_small = np.bincount(table.assoc_sbs[small], minlength=table.num_sbs)
    # a station that serves nobody has every flag 0; max(., 1) only avoids 0/0
    rate_m = macro * (table.params.bw_macro_hz / max(n_macro, 1) * table.log_macro)
    loads = np.maximum(n_small[table.assoc_sbs], 1)
    rate_s = small * (table.params.bw_small_hz / loads * table.log_small)
    if counter is not None:
        counter.tick(n_macro + int(np.count_nonzero(small)))
    terms = np.empty(2 * table.num_ue)
    terms[0::2] = rate_m
    terms[1::2] = rate_s
    return terms.cumsum()[-1]
