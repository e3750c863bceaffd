"""Fuzzy sets over finite label universes and sampled 1-D domains.

A fuzzy set assigns each point of its universe a membership grade in
[0, 1].  Finite universes are ordered tuples of labels; continuous
universes are uniform 1-D grids read piecewise-linearly between nodes.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .intervals import IntervalSet

GRADE_SLACK = 1e-12
# up to this many points a grid is read in Python floats; past about 12-16,
# one array pass is the cheaper reading
_FEW_POINTS = 12
# cells per block of a whole-grid pass: each 64 KiB block buffer stays in cache
# and under glibc's 128 KiB mmap threshold, so it is not mapped anew per call
_BLOCK = 8192


def as_grade(value: float) -> float:
    """Validate a membership grade.

    Values outside [0, 1] by more than ``GRADE_SLACK`` are rejected; values
    within the slack are clamped, so accumulated round-off never leaks
    out of the unit interval.
    """
    v = float(value)
    if math.isnan(v) or v < -GRADE_SLACK or v > 1.0 + GRADE_SLACK:
        raise ValueError(f"grade {value!r} lies outside [0, 1]")
    return min(max(v, 0.0), 1.0)


class TNormKind(Enum):
    """Triangular norm / conorm pairs for intersection and union: each member
    is its name (its value), its t-norm ``tnorm`` and its dual t-conorm ``tconorm``."""

    MINIMUM = "minimum", np.minimum, np.maximum
    PRODUCT = "product", lambda a, b: a * b, lambda a, b: a + b - a * b
    LUKASIEWICZ = (
        "lukasiewicz",
        lambda a, b: np.maximum(0.0, a + b - 1.0),
        lambda a, b: np.minimum(1.0, a + b),
    )

    def __new__(cls, value: str, tnorm, tconorm):
        member = object.__new__(cls)
        member._value_, member.tnorm, member.tconorm = value, tnorm, tconorm
        return member


@dataclass(frozen=True, eq=False)
class FiniteFuzzySet:
    """A fuzzy subset of an ordered finite universe of labels."""

    universe: tuple[str, ...]
    grades: np.ndarray

    def __post_init__(self) -> None:
        labels = self.universe
        # a tuple of exact str is kept as given, so the sets built on one
        # labels tuple, and the algebra results among them, share it
        if type(labels) is not tuple or set(map(type, labels)) != {str}:
            labels = tuple(str(x) for x in labels)
        if not labels:
            raise ValueError("universe must be non-empty")
        if len(set(labels)) != len(labels):
            raise ValueError("universe labels must be unique")
        raw = np.asarray(self.grades, dtype=float)
        if raw.shape != (len(labels),):
            raise ValueError(
                f"expected {len(labels)} grades, got shape {raw.shape}"
            )
        ok = (raw >= -GRADE_SLACK) & (raw <= 1.0 + GRADE_SLACK)  # False for NaN
        if not ok.all():
            raise ValueError(f"grade {float(raw[~ok][0])!r} lies outside [0, 1]")
        vals = np.clip(raw, 0.0, 1.0)  # as as_grade does, -0.0 included
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


# one read-only nodes array per grid, shared by every live function on it;
# keyed by the ends' bit patterns, since -0.0 == 0.0 but the last node keeps
# its sign
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _grid_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.linspace(lo, hi, n)``, read-only and shared, once checked to be
    strictly increasing."""
    key = (lo.hex(), hi.hex(), n)
    nodes = _NODES.get(key)
    if nodes is None:
        # only the last node's k * step can overflow, and linspace sets it to hi
        with np.errstate(over="ignore"):
            nodes = np.linspace(lo, hi, n)
        if not np.all(nodes[1:] > nodes[:-1]):
            raise ValueError(f"{n} nodes are not strictly increasing floats in [{lo}, {hi}]")
        nodes.setflags(write=False)
        _NODES[key] = nodes
    return nodes


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A non-negative function sampled on a uniform 1-D grid.

    Between nodes the function is read by linear interpolation, and all
    geometric queries (integrals, suprema, level sets) use that same
    piecewise-linear reading, so different code paths agree about what
    the function *is*.  That reading runs in Python floats for up to
    ``_FEW_POINTS`` points and in one array pass beyond, bit for bit the
    same either way.  The compensated prefix sums behind every integral
    are built on the first integral read, so a function read only through
    suprema never pays for them; construction still refuses a grid whose
    integral overflows.
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
        # min and max are NaN or +-inf exactly when some sample is
        low, top = raw.min(), float(raw.max())
        if not (math.isfinite(low) and math.isfinite(top)):
            raise ValueError("samples must all be finite")
        if low < -GRADE_SLACK:
            raise ValueError(f"samples must be non-negative, min is {low}")
        # a reading adds two samples (the trapezoid's y_k + y(x)): no overflow
        if not math.isfinite(2.0 * top):
            raise ValueError(f"samples exceed half the largest float: {top}")
        vals = np.maximum(raw, 0.0)
        object.__setattr__(self, "x_min", lo)
        object.__setattr__(self, "x_max", hi)
        object.__setattr__(self, "samples", vals)
        self.samples.setflags(write=False)
        object.__setattr__(self, "nodes", _grid_nodes(lo, hi, vals.size))
        object.__setattr__(self, "spacing", (hi - lo) / (vals.size - 1))
        # the integral is at most (hi - lo) * top, up to round-off; only a
        # grid that may come near the largest float builds its prefix now,
        # to refuse an overflow at construction
        if (hi - lo) * top >= 2.0**1000 and not math.isfinite(self._prefix[-1]):
            raise ValueError("the integral of the samples overflows")

    @functools.cached_property
    def _prefix(self) -> np.ndarray:
        """The cumulative trapezoid at the nodes, built on the first integral
        read; shared by every integral query so that integrals over abutting
        intervals telescope.

        Compensated (Neumaier) summation: a plain cumsum drifts by ~n ulps
        and visibly misses round totals, so each step's rounding error,
        exact by Knuth's TwoSum, is summed alongside and added back.  The
        pass runs over blocks of ``_BLOCK`` cells, carrying both sums across,
        so it keeps the sequential loop's order with no grid-sized temporary.
        The leading 0.0 is summed like any cell, so a -0.0 cell comes out as
        the sequential loop's +0.0.
        """
        vals, half = self.samples, self.spacing * 0.5
        prefix = np.empty(vals.size)
        # c starts at -0.0, and x + -0.0 is x: the first block's compensation
        # chain starts from its first error, as one np.cumsum's does
        prefix[0], s, c = 0.0, 0.0, -0.0
        size = min(_BLOCK, vals.size - 1)
        cell_buf, back_buf, sums_buf = np.empty(size), np.empty(size), np.empty(size + 1)
        with np.errstate(over="ignore", invalid="ignore"):  # checked at construction
            for i in range(0, vals.size - 1, _BLOCK):
                m = min(_BLOCK, vals.size - 1 - i)
                cells, back, sums = cell_buf[:m], back_buf[:m], sums_buf[: m + 1]
                np.add(vals[i : i + m], vals[i + 1 : i + m + 1], out=cells)
                cells *= half
                sums[0], sums[1:] = s, cells  # from the plain sum so far
                np.cumsum(sums, out=sums)
                np.subtract(sums[1:], sums[:-1], out=back)
                cells -= back  # the cell's part lost in back
                np.subtract(sums[1:], back, out=back)
                np.subtract(sums[:-1], back, out=back)  # the sum's part lost
                back += cells
                back[0] += c
                np.cumsum(back, out=back)
                s, c = sums[m], back[m - 1]
                np.add(sums[1:], back, out=prefix[i + 1 : i + m + 1])
        prefix.setflags(write=False)
        return prefix

    def _steepest_step(self) -> float:
        """max |f_(k+1) - f_k|, the larger of the steepest rise and the steepest
        fall, taken block by block over one reused block of steps; max is exact,
        so the blocks change no bit."""
        lo, hi = self.samples[:-1], self.samples[1:]
        steep, buf = 0.0, np.empty(min(_BLOCK, lo.size))
        for i in range(0, lo.size, _BLOCK):
            d = np.subtract(hi[i : i + _BLOCK], lo[i : i + _BLOCK], out=buf[: lo.size - i])
            steep = max(steep, float(d.max()), -float(d.min()))
        return steep

    def full_span(self) -> IntervalSet:
        return IntervalSet.interval(self.x_min, self.x_max)

    def _read(self, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The piecewise-linear reading in one array pass, for many points or
        node arrays: at each point of ``xs``, the point clamped into the span, its
        cell k (nodes k to k+1) and the value, clamped to the cell's samples.
        np.where keeps a zero's sign; np.clip may not."""
        xs = np.asarray(xs, dtype=float)
        lo, hi = self.x_min, self.x_max
        if np.count_nonzero((xs >= lo) & (xs <= hi)) < xs.size:
            slack = 1e-12 * max(1.0, hi - lo)
            bad = xs[~((xs >= lo - slack) & (xs <= hi + slack))]
            if bad.size:
                raise ValueError(f"point {bad[0]} outside grid span [{lo}, {hi}]")
            xs = np.where(hi < xs, hi, np.where(lo > xs, lo, xs))
        k = self.nodes[1:-1].searchsorted(xs, side="right")  # 0..n-2
        y0, y1 = self.samples[k], self.samples[1:][k]
        v = y0 + (xs - self.nodes[k]) / self.spacing * (y1 - y0)
        # when y0 == y1 no clamp fires, so the sign of a zero bound is moot
        y_lo, y_hi = np.minimum(y0, y1), np.maximum(y0, y1)
        return xs, k, np.where(y_lo > v, y_lo, np.where(y_hi < v, y_hi, v))

    def _read_few(self, xs) -> tuple[list, list, list]:
        """``_read`` for a few points, as lists: point by point the same
        operations in the same order on Python floats, so bit for bit the same,
        without an array pass's fixed cost.  float(x) comes first, so no point
        reads in float32."""
        lo, hi = self.x_min, self.x_max
        slack = 1e-12 * max(1.0, hi - lo)
        below, above, inside = lo - slack, hi + slack, []
        for x in map(float, xs):
            if not below <= x <= above:
                raise ValueError(f"point {x} outside grid span [{lo}, {hi}]")
            inside.append(hi if hi < x else lo if lo > x else x)
        ks = self.nodes[1:-1].searchsorted(inside, side="right").tolist()
        y, node, h, values = self.samples.item, self.nodes.item, self.spacing, []
        for x, k in zip(inside, ks):
            y0, y1 = y(k), y(k + 1)
            v = y0 + (x - node(k)) / h * (y1 - y0)
            y_lo, y_hi = (y0, y1) if y0 <= y1 else (y1, y0)
            values.append(y_lo if y_lo > v else y_hi if y_hi < v else v)
        return inside, ks, values

    def _node_range(self, lo, hi, closed: bool = False):
        """Where the nodes inside each [lo, hi] start and stop, for scalar or
        array ends: ``nodes[start:stop]`` lie strictly between lo and hi, or,
        ``closed``, in [lo, hi] with both ends."""
        left, right = ("left", "right") if closed else ("right", "left")
        return self.nodes.searchsorted(lo, side=left), self.nodes.searchsorted(hi, side=right)

    def _cumulative(self, xs) -> np.ndarray:
        xs, k, v = self._read(xs)
        return self._prefix[k] + (xs - self.nodes[k]) * 0.5 * (self.samples[k] + v)

    def _cumulative_few(self, xs) -> list:
        xs, ks, values = self._read_few(xs)
        prefix, y, node = self._prefix.item, self.samples.item, self.nodes.item
        return [prefix(k) + (x - node(k)) * 0.5 * (y(k) + v) for x, k, v in zip(xs, ks, values)]

    def value_at(self, x: float) -> float:
        """Piecewise-linear reading at x (must lie within the span)."""
        return self._read_few((x,))[2][0]

    def cumulative_at(self, x: float) -> float:
        return self._cumulative_few((x,))[0]

    def integral_over(self, a: IntervalSet) -> float:
        """Exact integral of the piecewise-linear interpolant over ``a``.

        Computed as differences of the cumulative trapezoid, so the sum
        over disjoint pieces telescopes and additivity holds to round-off.
        """
        if a.is_empty:  # a sum of nothing builds no prefix
            return 0.0
        ends = [x for piece in a.intervals for x in piece]
        few = len(ends) <= _FEW_POINTS
        ends = self._cumulative_few(ends) if few else self._cumulative(ends).tolist()
        return math.fsum(map(operator.sub, ends[1::2], ends[::2]))

    def max_over(self, a: IntervalSet) -> float:
        """Supremum of the interpolant over ``a`` (0 for the empty set).

        For each piece this is the max of the samples at nodes inside it
        and the interpolated values at the two endpoints; piecewise-linear
        functions attain extrema only there.  The endpoints are read in
        Python floats up to ``_FEW_POINTS`` of them, else in one array pass.
        """
        if a.is_empty:
            return 0.0
        ends = [x for piece in a.intervals for x in piece]
        few = len(ends) <= _FEW_POINTS
        values = self._read_few(ends)[2] if few else self._read(ends)[2].tolist()
        starts, stops = self._node_range(ends[::2], ends[1::2])
        best = 0.0
        for i0, i1, v_lo, v_hi in zip(starts.tolist(), stops.tolist(), values[::2], values[1::2]):
            if i1 > i0:
                best = max(best, float(self.samples[i0:i1].max()))
            best = max(best, v_lo, v_hi)
        return best

    @functools.cached_property
    def _scaled_by_max(self) -> "GridFunction":
        top = float(self.samples.max())
        if top <= 0.0:
            raise ValueError("cannot rescale an identically zero function")
        return GridFunction(self.x_min, self.x_max, self.samples / top)

    def scaled_by_max(self) -> "GridFunction":
        """The function divided by its largest sample, built once and kept as
        long as the function is."""
        return self._scaled_by_max
