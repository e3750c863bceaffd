"""Fuzzy sets over finite label universes and sampled 1-D domains.

A fuzzy set assigns each point of its universe a membership grade in
[0, 1].  Finite universes are ordered tuples of labels; continuous
universes are uniform 1-D grids read piecewise-linearly between nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .intervals import IntervalSet

GRADE_SLACK = 1e-12


def as_grade(value: float, slack: float = GRADE_SLACK) -> float:
    """Validate a membership grade.

    Values outside [0, 1] by more than ``slack`` are rejected; values
    within the slack are clamped, so accumulated round-off never leaks
    out of the unit interval.
    """
    v = float(value)
    if math.isnan(v) or v < -slack or v > 1.0 + slack:
        raise ValueError(f"grade {value!r} lies outside [0, 1]")
    return min(max(v, 0.0), 1.0)


class TNormKind(Enum):
    """Triangular norm / conorm pairs for intersection and union."""

    MINIMUM = "minimum"
    PRODUCT = "product"
    LUKASIEWICZ = "lukasiewicz"

    def tnorm(self, a, b):
        if self is TNormKind.MINIMUM:
            return np.minimum(a, b)
        if self is TNormKind.PRODUCT:
            return a * b
        return np.maximum(0.0, a + b - 1.0)

    def tconorm(self, a, b):
        if self is TNormKind.MINIMUM:
            return np.maximum(a, b)
        if self is TNormKind.PRODUCT:
            return a + b - a * b
        return np.minimum(1.0, a + b)


@dataclass(frozen=True, eq=False)
class FiniteFuzzySet:
    """A fuzzy subset of an ordered finite universe of labels."""

    universe: tuple[str, ...]
    grades: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.universe)
        if not labels:
            raise ValueError("universe must be non-empty")
        if len(set(labels)) != len(labels):
            raise ValueError("universe labels must be unique")
        raw = np.asarray(self.grades, dtype=float)
        if raw.shape != (len(labels),):
            raise ValueError(
                f"expected {len(labels)} grades, got shape {raw.shape}"
            )
        vals = np.array([as_grade(v) for v in raw])
        object.__setattr__(self, "universe", labels)
        object.__setattr__(self, "grades", vals)
        self.grades.setflags(write=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteFuzzySet):
            return NotImplemented
        return self.universe == other.universe and np.array_equal(
            self.grades, other.grades
        )

    def grade_of(self, label: str) -> float:
        try:
            return float(self.grades[self.universe.index(label)])
        except ValueError:
            raise ValueError(f"label {label!r} not in universe") from None

    def items(self) -> Iterable[tuple[str, float]]:
        return zip(self.universe, (float(v) for v in self.grades))


def _require_same_universe(a: FiniteFuzzySet, b: FiniteFuzzySet) -> None:
    if a.universe == b.universe:
        return
    for i, (la, lb) in enumerate(zip(a.universe, b.universe)):
        if la != lb:
            raise ValueError(
                f"universes differ at position {i}: {la!r} vs {lb!r}"
            )
    raise ValueError(
        f"universes differ in length: {len(a.universe)} vs {len(b.universe)}"
    )


def fuzzy_union(
    a: FiniteFuzzySet, b: FiniteFuzzySet, kind: TNormKind = TNormKind.MINIMUM
) -> FiniteFuzzySet:
    """Pointwise t-conorm of two fuzzy sets over the same universe."""
    _require_same_universe(a, b)
    return FiniteFuzzySet(a.universe, kind.tconorm(a.grades, b.grades))


def fuzzy_intersection(
    a: FiniteFuzzySet, b: FiniteFuzzySet, kind: TNormKind = TNormKind.MINIMUM
) -> FiniteFuzzySet:
    """Pointwise t-norm of two fuzzy sets over the same universe."""
    _require_same_universe(a, b)
    return FiniteFuzzySet(a.universe, kind.tnorm(a.grades, b.grades))


def fuzzy_complement(a: FiniteFuzzySet) -> FiniteFuzzySet:
    """Standard complement 1 - A(x)."""
    return FiniteFuzzySet(a.universe, 1.0 - a.grades)


def height(a: FiniteFuzzySet) -> float:
    """Largest membership grade attained."""
    return float(a.grades.max())


def is_normalized(a: FiniteFuzzySet, tol: float = 0.0) -> bool:
    """True when some element reaches grade 1 (within ``tol``)."""
    if tol < 0.0:
        raise ValueError("tol must be non-negative")
    return height(a) >= 1.0 - tol


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A non-negative function sampled on a uniform 1-D grid.

    Between nodes the function is read by linear interpolation, and all
    geometric queries (integrals, suprema, level sets) use that same
    piecewise-linear reading, so different code paths agree about what
    the function *is*.
    """

    x_min: float
    x_max: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        lo, hi = float(self.x_min), float(self.x_max)
        if not (math.isfinite(hi - lo) and lo < hi):
            raise ValueError(f"need finite x_min < x_max, got [{lo}, {hi}]")
        raw = np.asarray(self.samples, dtype=float)
        if raw.ndim != 1 or raw.size < 2:
            raise ValueError("samples must be a 1-D array with at least 2 entries")
        if not np.all(np.isfinite(raw)):
            raise ValueError("samples must all be finite")
        if raw.min() < -GRADE_SLACK:
            raise ValueError(f"samples must be non-negative, min is {raw.min()}")
        vals = np.maximum(raw, 0.0)
        object.__setattr__(self, "x_min", lo)
        object.__setattr__(self, "x_max", hi)
        object.__setattr__(self, "samples", vals)
        self.samples.setflags(write=False)
        nodes = np.linspace(lo, hi, vals.size)
        h = (hi - lo) / (vals.size - 1)
        # cumulative trapezoid at nodes; shared by every integral query so
        # that integrals over abutting intervals telescope.  Compensated
        # (Neumaier) summation: a plain cumsum drifts by ~n ulps and
        # visibly misses round totals, so each step's rounding error,
        # exact by Knuth's TwoSum, is summed alongside and added back
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            cells = h * 0.5 * (vals[:-1] + vals[1:])
            prefix = np.concatenate(([0.0], cells)).cumsum()
            back = prefix[1:] - prefix[:-1]
            err = (prefix[:-1] - (prefix[1:] - back)) + (cells - back)
            prefix[1:] += np.cumsum(err)
        if not math.isfinite(prefix[-1]):
            raise ValueError("the integral of the samples overflows")
        nodes.setflags(write=False)
        prefix.setflags(write=False)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_h", h)
        object.__setattr__(self, "_prefix", prefix)

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def spacing(self) -> float:
        return self._h

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    def full_span(self) -> IntervalSet:
        return IntervalSet.interval(self.x_min, self.x_max)

    def _check_inside(self, x: float) -> float:
        slack = 1e-12 * max(1.0, self.x_max - self.x_min)
        if not (self.x_min - slack <= x <= self.x_max + slack):
            raise ValueError(
                f"point {x} outside grid span [{self.x_min}, {self.x_max}]"
            )
        return min(max(x, self.x_min), self.x_max)

    def _locate(self, x: float) -> int:
        k = int(np.searchsorted(self._nodes, x, side="right")) - 1
        return min(max(k, 0), self.n - 2)

    def value_at(self, x: float) -> float:
        """Piecewise-linear reading at x (must lie within the span)."""
        x = self._check_inside(x)
        k = self._locate(x)
        y0, y1 = self.samples[k], self.samples[k + 1]
        t = (x - self._nodes[k]) / self._h
        v = y0 + t * (y1 - y0)
        # interpolation between two samples can never leave their range
        lo, hi = (y0, y1) if y0 <= y1 else (y1, y0)
        return float(min(max(v, lo), hi))

    def cumulative_at(self, x: float) -> float:
        x = self._check_inside(x)
        k = self._locate(x)
        yk = float(self.samples[k])
        return float(
            self._prefix[k] + (x - self._nodes[k]) * 0.5 * (yk + self.value_at(x))
        )

    def _check_intervals(self, a: IntervalSet) -> None:
        slack = 1e-12 * max(1.0, self.x_max - self.x_min)
        for lo, hi in a.intervals:
            if lo < self.x_min - slack or hi > self.x_max + slack:
                raise ValueError(
                    f"interval [{lo}, {hi}) outside grid span "
                    f"[{self.x_min}, {self.x_max}]"
                )

    def integral_over(self, a: IntervalSet) -> float:
        """Exact integral of the piecewise-linear interpolant over ``a``.

        Computed as differences of the cumulative trapezoid, so the sum
        over disjoint pieces telescopes and additivity holds to round-off.
        """
        self._check_intervals(a)
        return math.fsum(
            self.cumulative_at(hi) - self.cumulative_at(lo)
            for lo, hi in a.intervals
        )

    def max_over(self, a: IntervalSet) -> float:
        """Supremum of the interpolant over ``a`` (0 for the empty set).

        For each piece this is the max of the samples at nodes inside it
        and the interpolated values at the two endpoints; piecewise-linear
        functions attain extrema only there.
        """
        self._check_intervals(a)
        best = 0.0
        for lo, hi in a.intervals:
            i0 = int(np.searchsorted(self._nodes, lo, side="right"))
            i1 = int(np.searchsorted(self._nodes, hi, side="left"))
            if i1 > i0:
                best = max(best, float(self.samples[i0:i1].max()))
            best = max(best, self.value_at(lo), self.value_at(hi))
        return best

    def scaled_by_max(self) -> "GridFunction":
        top = float(self.samples.max())
        if top <= 0.0:
            raise ValueError("cannot rescale an identically zero function")
        return GridFunction(self.x_min, self.x_max, self.samples / top)


# --- plain-text formats ----------------------------------------------------

def write_fuzzy_set(fs: FiniteFuzzySet, path) -> None:
    """Write ``label,grade`` lines (UTF-8, one element per line)."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, grade in fs.items():
            fh.write(f"{label},{grade!r}\n")


def read_fuzzy_set(path) -> FiniteFuzzySet:
    """Read ``label,grade`` lines; ``#`` starts a comment line."""
    labels: list[str] = []
    grades: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            label, sep, value = text.rpartition(",")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'label,grade'")
            try:
                grades.append(float(value))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: cannot parse grade {value!r}"
                ) from None
            labels.append(label.strip())
    if not labels:
        raise ValueError(f"{path}: no elements found")
    return FiniteFuzzySet(tuple(labels), np.array(grades))


def write_grid_csv(f: GridFunction, path) -> None:
    """Write an ``x,value`` CSV whose floats round-trip exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,value\n")
        for x, v in zip(f.nodes, f.samples):
            fh.write(f"{float(x)!r},{float(v)!r}\n")


def read_grid_csv(path) -> GridFunction:
    """Read an ``x,value`` CSV; spacing must be uniform within 1e-9 relative."""
    xs: list[float] = []
    vs: list[float] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "x,value":
            raise ValueError(f"{path}: expected header 'x,value', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            text = line.strip()
            if not text:
                continue
            parts = text.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'x,value'")
            try:
                x, v = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: cannot parse number in {text!r}"
                ) from None
            xs.append(x)
            vs.append(v)
    if len(xs) < 2:
        raise ValueError(f"{path}: need at least 2 rows")
    x = np.array(xs)
    step = (x[-1] - x[0]) / (len(xs) - 1)
    if step <= 0:
        raise ValueError(f"{path}: x column must be strictly increasing")
    if np.max(np.abs(np.diff(x) - step)) > 1e-9 * abs(step):
        raise ValueError(f"{path}: x column is not uniformly spaced")
    return GridFunction(float(x[0]), float(x[-1]), np.array(vs))
