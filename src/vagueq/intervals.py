"""Finite unions of disjoint half-open real intervals [lo, hi)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class IntervalSet:
    """A finite union of half-open intervals, sorted by left endpoint.

    Every piece satisfies lo < hi and consecutive pieces satisfy
    hi_i <= lo_{i+1}.  The constructor only validates; use ``from_pairs``
    to canonicalize arbitrary input (it sorts, drops empty pieces, and
    merges overlapping or touching ones).
    """

    intervals: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        pieces = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", pieces)
        prev_hi = -math.inf
        for lo, hi in pieces:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"interval bounds must be finite, got [{lo}, {hi})")
            if not lo < hi:
                raise ValueError(f"interval [{lo}, {hi}) is empty or inverted")
            if lo < prev_hi:
                raise ValueError(
                    f"intervals must be sorted and pairwise disjoint; "
                    f"[{lo}, {hi}) starts before the previous piece ends at {prev_hi}"
                )
            prev_hi = hi

    @classmethod
    def interval(cls, lo: float, hi: float) -> "IntervalSet":
        """The single interval [lo, hi)."""
        return cls(((lo, hi),))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "IntervalSet":
        """Canonical union of arbitrary (lo, hi) pieces.

        Pieces with lo >= hi contribute nothing and a non-finite end is refused;
        overlapping or touching pieces merge, so [0,1) with [1,2) is [0,2).
        """
        ordered = []
        for lo, hi in pairs:
            lo, hi = float(lo), float(hi)
            if lo < hi:
                ordered.append((lo, hi))
            elif not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"interval bounds must be finite, got [{lo}, {hi})")
        ordered.sort()
        merged: list[list[float]] = []
        for lo, hi in ordered:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        return cls(tuple((lo, hi) for lo, hi in merged))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def span(self) -> tuple[float, float] | None:
        """Smallest (lo, hi) covering the whole set, or None when empty."""
        if self.is_empty:
            return None
        return (self.intervals[0][0], self.intervals[-1][1])

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        out: list[tuple[float, float]] = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(tuple(out))


def union_all(parts: Iterable[IntervalSet]) -> IntervalSet:
    return IntervalSet.from_pairs(piece for p in parts for piece in p.intervals)
