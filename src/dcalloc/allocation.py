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

# Profile codes: the tiers that serve a UE
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
        digits = _small_ints(self.digits, np.uint8, 3, "profile digits must be 0, 1 or 2")
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

    Each served term is bw / load * log, as share_rate computes it. The
    total is a left-to-right Python sum from 0.0 over UE 0..K-1, macro term
    then small term, skipping unserved terms (adding +0.0 would change no
    bit), which matches objective_chunk and the exhaustive scan bit for bit.
    """
    if alloc.num_ue != table.num_ue:
        raise ValueError("allocation size does not match table")
    digits, assoc = alloc.digits.tolist(), table.assoc_sbs.tolist()
    n_macro = 0
    n_small = [0] * table.num_sbs
    for d, i in zip(digits, assoc):
        if d != DIGIT_SMALL_ONLY:
            n_macro += 1
        if d != DIGIT_MACRO_ONLY:
            n_small[i] += 1
    if counter is not None:
        counter.tick(n_macro + sum(n_small))
    # a tier that serves nobody adds no term; max(., 1) only avoids 0/0
    share_m = table.params.bw_macro_hz / max(n_macro, 1)
    bw_s = table.params.bw_small_hz
    total = 0.0
    for d, i, x_m, x_s in zip(digits, assoc, table.log_macro.tolist(), table.log_small.tolist()):
        if d != DIGIT_SMALL_ONLY:
            total += share_m * x_m
        if d != DIGIT_MACRO_ONLY:
            total += bw_s / n_small[i] * x_s
    return np.float64(total)
