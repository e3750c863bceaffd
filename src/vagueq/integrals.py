"""Level sets and the Sugeno integral.

The Sugeno integral of f over a with respect to a monotone measure mu is

    sup over alpha >= 0 of  min(alpha, mu(a intersect {f >= alpha})),

a max-min counterpart of the Lebesgue integral: summation becomes sup,
multiplication becomes min.  Because the inner map g(alpha) is
non-increasing while alpha increases, the supremum sits where g crosses
the identity, which is what the grid search below exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fuzzy import FiniteFuzzySet, GridFunction
from .intervals import IntervalSet
from .measures import MeasureSpec, label_subset, measure_of

BISECTION_TOL = 1e-10


@dataclass(frozen=True)
class AlphaCut:
    """The superlevel set of a function at one threshold.

    ``cut`` is an IntervalSet for grid functions or a frozenset of labels
    for finite fuzzy sets; ``strict`` records whether the set is
    {f > alpha} rather than {f >= alpha}.
    """

    alpha: float
    cut: IntervalSet | frozenset
    strict: bool = False


def alpha_cut(f: GridFunction, alpha: float, strict: bool = False) -> AlphaCut:
    """Superlevel set of a grid function under its piecewise-linear reading.

    Crossing points between nodes are found by inverse interpolation on
    the straddling cell, so the cut and every integral agree about where
    the function sits relative to the threshold.  Plateaus exactly at
    alpha belong to the non-strict cut only.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    ys = f.samples
    xs = f.nodes
    sat = (ys > alpha) if strict else (ys >= alpha)
    if not sat.any():
        return AlphaCut(alpha, IntervalSet.empty(), strict)
    idx = np.flatnonzero(sat)
    # maximal runs of satisfied nodes
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([idx[0]], idx[breaks + 1]))
    ends = np.concatenate((idx[breaks], [idx[-1]]))

    def crossing(k: int) -> float:
        # x where the segment on cell [k, k+1] meets alpha
        y0, y1 = float(ys[k]), float(ys[k + 1])
        return float(xs[k]) + (alpha - y0) * (float(xs[k + 1]) - float(xs[k])) / (y1 - y0)

    pieces: list[tuple[float, float]] = []
    for s, e in zip(starts, ends):
        lo = float(xs[s]) if s == 0 else crossing(s - 1)
        hi = float(xs[e]) if e == ys.size - 1 else crossing(e)
        pieces.append((lo, hi))
    return AlphaCut(alpha, IntervalSet.from_pairs(pieces), strict)


def alpha_cut_finite(
    f: FiniteFuzzySet, alpha: float, strict: bool = False
) -> AlphaCut:
    """Superlevel subset of a finite fuzzy set."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if strict:
        keep = frozenset(l for l, g in f.items() if g > alpha)
    else:
        keep = frozenset(l for l, g in f.items() if g >= alpha)
    return AlphaCut(alpha, keep, strict)


def grid_tolerance(f: GridFunction) -> float:
    """Declared accuracy of level-set geometry on this grid.

    Equals max(1e-6, 2 h sup|f'|), the scale of how much the function can
    move across one cell; results derived from cuts of f are trusted to
    this resolution and no further.
    """
    steepest = float(np.max(np.abs(np.diff(f.samples)))) / f.spacing
    return max(1e-6, 2.0 * f.spacing * steepest)


def _sugeno_finite(f: FiniteFuzzySet, a, m: MeasureSpec) -> float:
    subset = label_subset(f.universe, f.universe if a is None else a)
    idx = np.array([k for k, l in enumerate(f.universe) if l in subset], dtype=int)
    # sorted-value evaluation: with f's values taken downward, the top-sets
    # grow one label at a time and the integral is the best
    # min(value, mu(top-set)); a stable sort keeps ties in universe order
    order = idx[np.argsort(-f.grades[idx], kind="stable")]
    values = m._prefix_values(f.universe, [f.universe[k] for k in order])
    if not order.size:
        return 0.0
    return float(np.max(np.minimum(f.grades[order], values)))


def _sugeno_grid(f: GridFunction, a: IntervalSet, m: MeasureSpec) -> float:
    m._event(a)  # a finite measure rejects interval events, before any early return
    f._check_intervals(a)

    def g(alpha: float) -> float:
        cut = alpha_cut(f, alpha).cut
        return measure_of(m, cut.intersection(a))

    top = float(f.samples.max())
    if top <= 0.0 or a.is_empty:
        return 0.0

    # g is non-increasing, so h(alpha) = min(alpha, g(alpha)) rises like
    # alpha until g crosses the identity and falls with g afterwards:
    # bisect [0, top] for the crossing, keeping g(lo) >= lo and g(hi) < hi.
    # The bracket stops at BISECTION_TOL or, for large levels whose ulp
    # exceeds it, once no float lies strictly between lo and hi.
    if g(top) >= top:
        return top
    lo, hi = 0.0, top
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if g(mid) >= mid:
            lo = mid
        else:
            hi = mid
    return max(lo, min(hi, g(hi)))


def sugeno_integral(f, a, m: MeasureSpec) -> float:
    """Sugeno integral of f over a with respect to a monotone measure.

    Finite fuzzy sets use the exact sorted-value evaluation; ``a`` is an
    iterable of labels or None for the whole universe.  Grid functions
    take ``a`` as an IntervalSet and bisect [0, max f] for the crossing of
    g(alpha) = mu(a intersect {f >= alpha}) with the identity, down to a
    bracket of 1e-10 or of adjacent floats, whichever is wider.
    """
    if isinstance(f, FiniteFuzzySet):
        return _sugeno_finite(f, a, m)
    if isinstance(f, GridFunction):
        if not isinstance(a, IntervalSet):
            raise ValueError("grid Sugeno integration takes an IntervalSet event")
        return _sugeno_grid(f, a, m)
    raise ValueError("f must be a FiniteFuzzySet or GridFunction")
