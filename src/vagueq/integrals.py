"""Level sets and the one Sugeno entry point.

The Sugeno integral of f over a with respect to a monotone measure mu is

    sup over alpha >= 0 of  min(alpha, mu(a intersect {f >= alpha})),

a max-min counterpart of the Lebesgue integral: summation becomes sup,
multiplication becomes min.  Each measure type in ``measures`` owns its
route: the sorted-value walk on a finite universe; on a grid, sup over a
of min(f, pi) (Dubois & Prade) for a possibility measure, and for an
additive one a bisection over f's sorted levels inside the event through
``alpha_cut``, then an exact solve on the last bracket, where
mu(a intersect {f >= alpha}) is one quadratic in alpha.  ``sugeno_integral``
checks f and the event and hands them to the measure's route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .fuzzy import FiniteFuzzySet, GridFunction
from .intervals import IntervalSet


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


def _superlevel(values: np.ndarray, alpha: float, strict: bool) -> np.ndarray:
    """The one level rule: check that ``alpha`` is a finite level >= 0, then
    mask the ``values`` above it, strictly or not."""
    if not math.isfinite(alpha) or alpha < 0.0:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    return (values > alpha) if strict else (values >= alpha)


def alpha_cut(
    f: GridFunction, alpha: float, strict: bool = False, within: IntervalSet | None = None
) -> AlphaCut:
    """Superlevel set of a grid function under its piecewise-linear reading.

    Crossing points between nodes are found by inverse interpolation on
    the straddling cell, so the cut and every integral agree about where
    the function sits relative to the threshold.  Plateaus exactly at
    alpha belong to the non-strict cut only.  In one array pass, each cell
    with its nodes on either side of alpha gives one crossing; with the end
    nodes where satisfied, they alternate run start, run end.

    With ``within``, only the cells covering its span are cut, and the cut
    is ``alpha_cut(f, alpha, strict).cut.intersection(within)``, bit for bit.
    """
    alpha = float(alpha)
    ys, xs = f.samples, f.nodes
    if within is not None:
        lo, hi = within.span() or (f.x_min, f.x_min)
        # from one cell before the cell holding lo to the first node at or past
        # hi: a crossing never falls below its cell's left node but may round a
        # few ulps past its right one, so none from outside this reaches [lo, hi)
        start, stop = f._node_range(lo, hi)
        j0, j1 = max(int(start) - 2, 0), int(stop) + 1
        ys, xs = ys[j0:j1], xs[j0:j1]
    sat = _superlevel(ys, alpha, strict)
    k = np.flatnonzero(sat[:-1] != sat[1:])
    x0, y0 = xs[k], ys[k]
    h, d = xs[k + 1] - x0, ys[k + 1] - y0
    # (alpha - y0) * h / d rounds as a per-run loop does; where the product
    # overflows, divide first, so the crossing stays finite
    with np.errstate(over="ignore"):
        step = (alpha - y0) * h / d
    big = np.isinf(step)
    step[big] = (alpha - y0[big]) / d[big] * h[big]
    ends = np.concatenate((xs[:1][sat[:1]], x0 + step, xs[-1:][sat[-1:]]))
    cut = IntervalSet.from_pairs(ends.reshape(-1, 2).tolist())
    return AlphaCut(alpha, cut if within is None else cut.intersection(within), strict)


def alpha_cut_finite(
    f: FiniteFuzzySet, alpha: float, strict: bool = False
) -> AlphaCut:
    """Superlevel subset of a finite fuzzy set."""
    alpha = float(alpha)
    keep = frozenset(compress(f.universe, _superlevel(f.grades, alpha, strict)))
    return AlphaCut(alpha, keep, strict)


def grid_tolerance(f: GridFunction) -> float:
    """Declared accuracy of level-set geometry on this grid.

    Equals max(1e-6, 2 h sup|f'|), the scale of how much the function can
    move across one cell; results derived from cuts of f are trusted to
    this resolution and no further.  The spacing h cancels against the
    slope's, so this is 2 max|f_(k+1) - f_k|, finite even on a subnormal step:
    the larger of the steepest rise and the steepest fall, with no abs pass.
    """
    d = np.diff(f.samples)
    return max(1e-6, 2.0 * float(max(d.max(), -d.min())))


def sugeno_integral(f, a, m) -> float:
    """Sugeno integral of f over a with respect to a monotone measure ``m``.

    Finite fuzzy sets use the exact sorted-value evaluation; ``a`` is an
    iterable of labels or None for the whole universe.  Grid functions
    take ``a`` as an IntervalSet.  Against a possibility measure the
    integral is sup over a of min(f, pi), exact under the piecewise-linear
    reading.  Against an additive measure it finds the crossing of
    g(alpha) = mu(a intersect {f >= alpha}) with the identity: a bisection
    over f's sorted levels on ``a`` brackets it between two adjacent levels,
    where g is one quadratic, and the crossing is that quadratic's root.
    Either way an event outside the measure's span or f's is an error,
    whatever f is.  The route is ``m``'s own method; a non-measure is refused.
    """
    if not isinstance(f, (FiniteFuzzySet, GridFunction)):
        raise ValueError("f must be a FiniteFuzzySet or GridFunction")
    grid = isinstance(f, GridFunction)
    if grid and not isinstance(a, IntervalSet):
        raise ValueError("grid Sugeno integration takes an IntervalSet event")
    route = getattr(m, "_sugeno_grid" if grid else "_sugeno_finite", None)
    if route is None:
        raise ValueError(f"m must be a measure, got {type(m).__name__}")
    return route(f, a)
