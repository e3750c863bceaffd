"""Monotone measures: additive (probability-style), possibilistic, and tabular.

A measure here is any set function with mu(empty) = 0 that is monotone
under inclusion.  Additive measures integrate a sampled density;
possibilistic measures take the supremum of a distribution whose global
sup is 1; table measures enumerate every subset of a small finite
universe explicitly.  Each kind is its own small type that owns its
behaviour, its Sugeno route included; ``measure_of`` and
``integrals.sugeno_integral`` are the public entry points to it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import integrals
from .fuzzy import FiniteFuzzySet, GridFunction, height
from .intervals import IntervalSet, union_all

MAX_TABLE_UNIVERSE = 12


def _table_value(subset: frozenset, value) -> float:
    v = float(value)
    if math.isnan(v) or v < 0.0:
        raise ValueError(f"table value for {sorted(subset)} must be >= 0")
    return v


class MeasureSpec:
    """Base of the measure types, built through the three factory methods.

    ``additive`` wraps a sampled density (an ``AdditiveMeasure``).
    ``possibilistic`` wraps a possibility distribution, grid or finite
    (a ``PossibilityMeasure``).  ``from_table`` takes an explicit, total
    map from subsets of a small finite universe to values (a
    ``TableMeasure``).

    Each type names its domain once, in ``universe``: its tuple of labels
    on a finite universe, or None on a grid, where events are interval
    sets.  ``_event`` checks an event against that domain, each type
    answers ``_measure`` (its value on an event), and ``_sugeno_finite``
    and ``_sugeno_grid`` are its Sugeno routes for ``sugeno_integral``.
    """

    @classmethod
    def additive(cls, density: GridFunction) -> "AdditiveMeasure":
        return AdditiveMeasure(density)

    @classmethod
    def possibilistic(
        cls, distribution: GridFunction | FiniteFuzzySet
    ) -> "PossibilityMeasure":
        return PossibilityMeasure(distribution)

    @classmethod
    def from_table(
        cls, universe: Iterable[str], table: Mapping[Iterable[str], float]
    ) -> "TableMeasure":
        return TableMeasure(universe, table)

    @functools.cached_property
    def _labels(self) -> frozenset:
        """The labels of a finite ``universe``, as one set built on first use."""
        return frozenset(self.universe)

    def _event(self, a) -> IntervalSet | frozenset:
        """``a`` on this domain: an IntervalSet on a grid, else its labels as a
        frozenset, all drawn from ``universe`` (None is all of it)."""
        if self.universe is None:
            if not isinstance(a, IntervalSet):
                raise ValueError("measure domain mismatch: label subsets need a finite measure")
            return a
        if a is None:
            return self._labels
        if isinstance(a, IntervalSet):
            raise ValueError("measure domain mismatch: interval sets need a grid measure")
        if isinstance(a, str):
            raise ValueError(f"a finite event is an iterable of labels, not the string {a!r}")
        subset = frozenset(str(x) for x in a)
        foreign = subset - self._labels
        if foreign:
            raise ValueError(f"subset contains labels outside the domain: {sorted(foreign)}")
        return subset

    def _sugeno_finite(self, f: FiniteFuzzySet, a) -> float:
        """The finite route, for every finite measure: the sorted-value walk,
        over the labels ``a`` (None is all of them).  A grid measure refuses
        whatever ``a`` is."""
        if self.universe is None:
            raise ValueError(
                "finite Sugeno integration needs a finite (possibilistic or table) measure"
            )
        if self._labels != set(f.universe):
            raise ValueError("domain mismatch: f and the measure use different universes")
        subset = self._event(a)
        idx = np.array([k for k, l in enumerate(f.universe) if l in subset], dtype=int)
        # sorted-value evaluation: with f's values taken downward, the top-sets
        # grow one label at a time and the integral is the best
        # min(value, mu(top-set)); a stable sort keeps ties in universe order
        order = idx[np.argsort(-f.grades[idx], kind="stable")]
        if not order.size:
            return 0.0
        return float(np.max(np.minimum(f.grades[order], self._top_sets(f, order))))

    def _top_sets(self, f: FiniteFuzzySet, order: np.ndarray):
        """mu of each top-set of the walk, the labels of f at ``order[:k + 1]``."""
        labels = [f.universe[k] for k in order]
        # each prefix is measured on its own, O(n^3) in all for a possibility
        # measure since grade_of scans the universe; the running max
        # np.maximum.accumulate(pi[order]) is the O(n) form (ROADMAP item 2)
        return [measure_of(self, labels[: k + 1]) for k in range(len(labels))]

    def _sugeno_grid(self, f: GridFunction, a: IntervalSet) -> float:
        """Grid measure types override this; a finite one's ``_event`` refuses ``a``."""
        self._event(a)
        raise NotImplementedError(f"{type(self).__name__} has no grid Sugeno route")


@dataclass(frozen=True, eq=False)
class AdditiveMeasure(MeasureSpec):
    """mu(A) = integral of a sampled density over A.

    The density's integral over its grid is recorded in ``norm`` and
    ``is_normalized`` reports whether it is 1 within 1e-6.  Unnormalized
    densities are accepted and flagged, never silently rescaled.
    """

    density: GridFunction
    norm: float = field(init=False)
    universe = None

    def __post_init__(self) -> None:
        if not isinstance(self.density, GridFunction):
            raise ValueError("density must be a GridFunction")
        object.__setattr__(
            self, "norm", self.density.integral_over(self.density.full_span())
        )

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm - 1.0) <= 1e-6

    def _measure(self, a) -> float:
        return self.density.integral_over(self._event(a))

    def _sugeno_grid(self, f: GridFunction, a: IntervalSet) -> float:
        """The grid route.  g(alpha) = mu(a intersect {f >= alpha}) is
        non-increasing, so min(alpha, g(alpha)) rises like alpha until g
        crosses the identity and falls with g afterwards: the integral is
        that crossing, or the level where g drops past it.

        The levels are f at a's piece ends and at f's nodes on the pieces
        and, when the density rho has another grid, f at rho's nodes on
        them.  Take two adjacent levels l0 < l1.  For alpha in (l0, l1], no
        node or piece end leaves or joins {f >= alpha}, so each end of the
        cut inside a is a piece end or a crossing
        x0 + (alpha - y0) h / d in one fixed cell of f: affine in alpha,
        and, since rho's nodes are levels too, inside one fixed cell of
        rho.  There rho is linear, its cumulative is quadratic in x, and g,
        a sum of differences of it, is one quadratic
        q(tau) = A tau^2 + B tau + C in alpha = l0 + tau (l1 - l0), tau in
        (0, 1].  At alpha = l0 itself g may be larger: nodes at level l0 join.

        A bisection over the sorted levels' indices, from 0 (g(0) >= 0 holds)
        to inf past the top level (g is 0 there), keeps g(lo) >= lo and
        g(hi) < hi until the two are adjacent, l0 and l1; if the top level
        holds, it is the integral.  g at tau = 1/4, 1/2 and 3/4
        fixes q; its second difference and its slope at 1/2 give
        A = 8 (y1 - 2 y2 + y3), B = -10 y1 + 16 y2 - 6 y3 and
        C = 3 y1 - 3 y2 + y3.  These points keep off the bracket's ends: a
        level read off f between nodes is rounded, so g may already have
        dropped an ulp before l1, and by much where f is nearly flat.  If
        q(0+) = C <= l0, g falls to l0 or below just past l0 (a plateau of f
        at l0 holds what g loses there), and the integral is l0.  Otherwise
        it is l0 + tau Delta, Delta = l1 - l0, tau the root in (0, 1] of
        q(tau) = l0 + tau Delta, that is of A tau^2 + b tau + c = 0 with
        b = B - Delta and c = C - l0 > 0.  Since q is non-increasing there,
        b < 0, and the root is the one smaller in magnitude,
        2 c / (sqrt(b^2 - 4 A c) - b), free of cancellation; it is clamped into
        the bracket.  A bracket too narrow to hold its quarters, or whose y
        are too noisy to give b < 0, returns l0, within Delta of the
        crossing."""
        # before any early return, so the error never depends on f: the event
        # is checked against the domain, then its ends are read on rho and on f,
        # which rejects one outside either span
        self._event(a)
        rho = self.density
        ends = np.ravel(a.intervals)
        rho._read(ends)
        parts = [[0.0, math.inf], f._read(ends)[2]]
        lo, hi = ends[::2], ends[1::2]
        ranges = f._node_range(lo, hi, True) + rho._node_range(lo, hi, True)
        for i0, i1, j0, j1 in zip(*(r.tolist() for r in ranges)):
            parts.append(f.samples[i0:i1])
            if rho.nodes is not f.nodes:
                parts.append(f._read(rho.nodes[j0:j1])[2])
        levels = np.sort(np.concatenate(parts))

        def g(alpha: float) -> float:
            # off the module and positional, so a wrapper on integrals.alpha_cut sees each cut
            return measure_of(self, integrals.alpha_cut(f, alpha, False, a).cut)

        top = float(levels[-2])
        if top <= 0.0:  # f = 0 on a, or a is empty
            return 0.0
        # g(0) >= 0 always, and g(inf) = 0: bisect between them; a level equal
        # to one already cut takes its answer without a cut
        lo, hi = 0, levels.size - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if levels[mid] != levels[hi] and (
                levels[mid] == levels[lo] or g(float(levels[mid])) >= levels[mid]
            ):
                lo = mid
            else:
                hi = mid
        if hi == levels.size - 1:
            return top
        l0, l1 = float(levels[lo]), float(levels[hi])
        delta = l1 - l0
        t1, t2, t3 = (l0 + k * delta / 4.0 for k in (1.0, 2.0, 3.0))
        if not l0 < t1 < t2 < t3 < l1:
            return l0
        y1, y2, y3 = g(t1), g(t2), g(t3)
        c = 3.0 * (y1 - y2) + y3 - l0
        b = -10.0 * y1 + 16.0 * y2 - 6.0 * y3 - delta
        if not (c > 0.0 and b < 0.0):  # q(0+) <= l0, or q rising by rounding alone
            return l0
        a2 = 8.0 * (y1 - 2.0 * y2 + y3)
        # (sqrt(b^2 - 4 A c) - b) / 2 with b^2 taken out of the root, so nothing
        # squares into an overflow; the root times delta is c delta / w, the
        # larger of the two divided first, so that no quotient underflows when
        # the measure and the levels are far apart in scale
        w = 0.5 * (-b * (1.0 + math.sqrt(max(1.0 - 4.0 * (a2 / b) * (c / b), 0.0))))
        step = max(c, delta) / w * min(c, delta)
        return min(l0 + step, l1) if step >= 0.0 else l0  # nan only if the y overflow


@dataclass(frozen=True, eq=False)
class PossibilityMeasure(MeasureSpec):
    """Pi(A) = sup of a possibility distribution over A.

    The distribution (grid or finite) must have supremum 1 within 1e-9.
    Grid samples above 1 by that slack are clamped to 1, so no event is
    ever more than fully possible.
    """

    distribution: GridFunction | FiniteFuzzySet
    universe: tuple[str, ...] | None = field(init=False)

    def __post_init__(self) -> None:
        d = self.distribution
        if isinstance(d, GridFunction):
            sup = float(d.samples.max())
            object.__setattr__(self, "universe", None)
        elif isinstance(d, FiniteFuzzySet):
            sup = height(d)
            object.__setattr__(self, "universe", d.universe)
        else:
            raise ValueError(
                "distribution must be a GridFunction or FiniteFuzzySet"
            )
        if abs(sup - 1.0) > 1e-9:
            raise ValueError(
                f"possibility distribution must have supremum 1, got {sup}"
            )
        if sup > 1.0:  # a grid: finite grades are already clamped to [0, 1]
            clamped = GridFunction(d.x_min, d.x_max, np.minimum(d.samples, 1.0))
            object.__setattr__(self, "distribution", clamped)

    def _measure(self, a) -> float:
        event = self._event(a)
        if self.universe is None:
            return self.distribution.max_over(event)
        return max((self.distribution.grade_of(l) for l in event), default=0.0)

    def _sugeno_grid(self, f: GridFunction, a: IntervalSet) -> float:
        """Sugeno integral of a grid function over ``a``: for a possibility
        measure it is sup over a of min(f, pi) (Dubois & Prade), here exact
        under the piecewise-linear reading of both.

        On each piece of ``a``, f and pi are linear between their merged nodes
        inside it, so min(f, pi) peaks at such a node, at a piece end, or where
        f = pi inside a cell.  ``a`` is checked against pi's span and f's
        before anything else, so the error never depends on f.  Against its
        own measure pi integrates to Pi(a), since min(pi, pi) = pi: that is
        one ``max_over`` of the same end reads and slice maxima, the same bits.
        """
        self._event(a)  # a finite distribution refuses interval events
        pi = self.distribution
        if f is pi:
            return pi.max_over(a)
        ends = np.ravel(a.intervals)
        p_ends, f_ends = pi._read(ends)[2], f._read(ends)[2]
        shared = f.nodes is pi.nodes
        lo, hi = ends[::2], ends[1::2]
        ranges = f._node_range(lo, hi) + pi._node_range(lo, hi)
        best = 0.0
        for i0, i1, j0, j1, f_lo, f_hi, p_lo, p_hi in zip(
            *(r.tolist() for r in ranges), f_ends[::2], f_ends[1::2], p_ends[::2], p_ends[1::2]
        ):
            if shared:  # the same nodes: read the samples as they are
                f_in, p_in = f.samples[j0:j1], pi.samples[j0:j1]
            else:
                xs = np.union1d(f.nodes[i0:i1], pi.nodes[j0:j1])
                f_in, p_in = f._read(xs)[2], pi._read(xs)[2]
            best = max(best, _sup_min(
                np.concatenate(([f_lo], f_in, [f_hi])),
                np.concatenate(([p_lo], p_in, [p_hi])),
            ))
        return best


def _sup_min(fv: np.ndarray, pv: np.ndarray) -> float:
    """Max of min(f, pi) over a chain of points between which both are linear:
    the larger of the point values and of the f = pi crossings inside a cell."""
    d = fv - pv
    up, down = d > 0.0, d < 0.0
    # a sign test: the product d_k * d_(k+1) can underflow to zero
    k = np.flatnonzero((up[:-1] & down[1:]) | (down[:-1] & up[1:]))
    best = float(np.minimum(fv, pv).max())
    if k.size:
        t = d[k] / (d[k] - d[k + 1])  # in [0, 1]: the two signs differ
        at = np.minimum(fv[k] + t * (fv[k + 1] - fv[k]), pv[k] + t * (pv[k + 1] - pv[k]))
        best = max(best, float(at.max()))
    return best


@dataclass(frozen=True, eq=False, init=False)
class TableMeasure(MeasureSpec):
    """mu given subset by subset over a small finite universe.

    ``table`` maps subsets, iterables of labels of ``universe``, to values
    at least 0.  It must be total (at most 12 labels), with mu(empty) = 0,
    mu(universe) = 1 and monotonicity, all checked exhaustively.  The
    measure keeps ``values``, a read-only float64 array of length 2^n: a
    subset's value sits at its bitmask, bit i standing for ``universe[i]``.
    Its ``table`` is the frozenset -> value map, built from ``values`` on
    each read.
    """

    universe: tuple[str, ...]
    values: np.ndarray
    _bits: dict = field(repr=False)  # label -> 1 << its index in universe

    def __init__(self, universe: Iterable[str], table: Mapping[Iterable[str], float]) -> None:
        labels = tuple(str(x) for x in universe)
        bits = {label: 1 << i for i, label in enumerate(labels)}
        given: dict[int, float] = {}  # mask -> value, in table order
        for key, value in table.items():
            try:
                mask = sum({bits[str(x)] for x in key})
            except KeyError:
                foreign = sorted(frozenset(str(x) for x in key) - frozenset(labels))
                raise ValueError(f"table subset contains foreign labels {foreign}") from None
            if mask in given:
                raise ValueError(f"duplicate table entry for {sorted(_labels_of(labels, mask))}")
            v = float(value)
            if not v >= 0.0:  # NaN too
                _table_value(_labels_of(labels, mask), v)  # raises, naming the subset
            given[mask] = v
        object.__setattr__(self, "universe", labels)
        object.__setattr__(self, "_bits", bits)
        if not labels:
            raise ValueError("table universe must be non-empty")
        if len(set(labels)) != len(labels):
            raise ValueError("table universe labels must be unique")
        if len(labels) > MAX_TABLE_UNIVERSE:
            raise ValueError(
                f"table measures support at most {MAX_TABLE_UNIVERSE} elements, "
                f"got {len(labels)}"
            )
        if len(given) != 2 ** len(labels):
            raise ValueError(
                f"table must be total: expected {2 ** len(labels)} subsets, "
                f"got {len(given)}"
            )
        values = np.empty(len(given))
        values[list(given)] = list(given.values())
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if abs(values[0]) > 1e-12:
            raise ValueError("table must assign 0 to the empty subset")
        if abs(values[-1] - 1.0) > 1e-12:
            raise ValueError("table must assign 1 to the whole universe")
        # removing one element can never increase the value; by chaining,
        # this check covers every nested pair.  For bit i, the view
        # pairs[:, 0] holds the subsets without it and pairs[:, 1] the same
        # subsets with it; bad marks each subset that loses value without i
        bad = np.zeros(values.size, dtype=bool)
        for i in range(len(labels)):
            pairs = values.reshape(-1, 2, 1 << i)
            bad.reshape(-1, 2, 1 << i)[:, 1] |= pairs[:, 0] > pairs[:, 1] + 1e-12
        if bad.any():
            # the first bad subset in table order, less its first bad label
            s = next(s for s in given if bad[s])
            smaller = next(
                s & ~b for b in bits.values() if s & b and values[s & ~b] > values[s] + 1e-12
            )
            raise ValueError(
                f"table is not monotone: mu({sorted(_labels_of(labels, smaller))}) = "
                f"{float(values[smaller])} exceeds mu({sorted(_labels_of(labels, s))}) = "
                f"{float(values[s])}"
            )

    @property
    def table(self) -> dict[frozenset, float]:
        """Each subset's value, keyed by its labels; built on each read."""
        return {_labels_of(self.universe, s): v for s, v in enumerate(self.values.tolist())}

    def _measure(self, a) -> float:
        """One read of ``values``, at the event's bitmask."""
        return float(self.values[sum(self._bits[label] for label in self._event(a))])

    def _top_sets(self, f: FiniteFuzzySet, order: np.ndarray) -> np.ndarray:
        """The top-sets' bitmasks are a running OR of their labels' bits."""
        bit = np.array([self._bits[label] for label in f.universe])
        return self.values[np.bitwise_or.accumulate(bit[order])]


def _labels_of(labels: tuple[str, ...], mask: int) -> frozenset:
    """The labels whose bits are set in ``mask``."""
    return frozenset(label for i, label in enumerate(labels) if mask >> i & 1)


def measure_of(m: MeasureSpec, a) -> float:
    """Measure of an event: an IntervalSet (grid measures) or an iterable
    of labels, None for the whole universe (finite measures)."""
    return m._measure(a)


def check_possibility_union_axiom(
    m: MeasureSpec, parts: Iterable[IntervalSet], tol: float = 1e-12
) -> bool:
    """Does mu(union of parts) equal the max of the part measures?

    Only meaningful for possibilistic measures; the union of no parts is
    empty and both sides are 0.
    """
    if not isinstance(m, PossibilityMeasure):
        raise ValueError("union axiom check applies to possibilistic measures")
    parts = list(parts)
    whole = measure_of(m, union_all(parts))
    each = max((measure_of(m, p) for p in parts), default=0.0)
    return abs(whole - each) <= tol


def check_additivity(
    m: MeasureSpec, parts: Iterable[IntervalSet], tol: float = 1e-9
) -> bool:
    """Does mu(union of parts) equal the sum over pairwise-disjoint parts?

    Overlaps are found in one sorted pass, O(p log p) in the pieces: sorted
    by left end, a piece overlaps a later one only if it overlaps the next.
    When several pairs overlap, the error names one of them, not always the
    first in part order.
    """
    if not isinstance(m, AdditiveMeasure):
        raise ValueError("additivity check applies to additive measures")
    parts = list(parts)
    pieces = sorted((lo, hi, i) for i, p in enumerate(parts) for lo, hi in p.intervals)
    for (_, hi, i), (lo, _, j) in zip(pieces, pieces[1:]):
        if lo < hi:  # two pieces of one part never overlap, so i != j
            raise ValueError(f"parts {min(i, j)} and {max(i, j)} overlap; they must be disjoint")
    whole = measure_of(m, union_all(parts))
    total = math.fsum(measure_of(m, p) for p in parts)
    return abs(whole - total) <= tol
