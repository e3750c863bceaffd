"""Reference implementations the tests compare the library against."""

from __future__ import annotations

import math

import numpy as np

from vagueq import (
    FiniteFuzzySet,
    GridFunction,
    IntervalSet,
    MeasureSpec,
    QubitState,
    alpha_cut,
    ket0,
    measure_of,
)
from vagueq.localize import MAX_SWEEP_STEPS, WavefunctionSpec, _density_on_window

MAX_ORACLE_UNIVERSE = 16
BISECTION_TOL = 1e-10


def sugeno_bruteforce_oracle(
    f: FiniteFuzzySet, a, m: MeasureSpec, grid: int = 100001
) -> float:
    """Direct evaluation of sup min(alpha, mu(a intersect {f >= alpha}))
    on a dense uniform alpha grid over [0, max f].

    Deliberately naive: no sorted-value walk, no crossing argument; each run
    of equal top-sets on the grid is scored once.  Off by at most one grid
    spacing from the true supremum, it exists to cross-check
    ``sugeno_integral`` on small universes (at most 16 elements).
    """
    if len(f.universe) > MAX_ORACLE_UNIVERSE:
        raise ValueError(
            f"oracle supports at most {MAX_ORACLE_UNIVERSE} elements"
        )
    if grid < 2:
        raise ValueError("grid must have at least 2 levels")
    if a is None:
        a_mask = np.ones(len(f.universe), dtype=bool)
    else:
        subset = frozenset(str(x) for x in a)
        foreign = subset - set(f.universe)
        if foreign:
            raise ValueError(
                f"subset contains labels outside the domain: {sorted(foreign)}"
            )
        a_mask = np.array([l in subset for l in f.universe])
    alphas = np.linspace(0.0, float(f.grades.max()), int(grid))
    # label k lies in the top-set {f >= alpha} at the levels alpha <= f_k,
    # the first last[k] of the grid, so the top-set changes only where a
    # label leaves it: the grid splits into runs of equal top-sets.  In a run
    # mu is constant and alpha rises, so min(alpha, mu) is largest at the
    # run's last level.
    last = np.searchsorted(alphas, f.grades, side="right")
    best = 0.0
    for end in np.unique(np.append(last[a_mask], alphas.size)).tolist():
        if end:
            top = [l for l, k, keep in zip(f.universe, last, a_mask) if keep and k >= end]
            best = max(best, min(float(alphas[end - 1]), measure_of(m, top)))
    return best


def sugeno_table_walk_oracle(f: FiniteFuzzySet, a, table) -> float:
    """The sorted-value walk over a table given as a map from frozensets of
    labels to values, one lookup per top-set.

    The labels of ``a`` (None for all of f's) are ranked by f downward, ties
    kept in f's order, and each prefix of the ranking is a top-set: the
    integral is the best min(f, mu(top-set)).  The reference for the table
    measure's walk, which reads the same values by bitmask and must match
    it bit for bit.
    """
    event = set(f.universe) if a is None else {str(x) for x in a}
    ranked = sorted((l for l in f.universe if l in event), key=f.grade_of, reverse=True)
    best, top = 0.0, frozenset()
    for label in ranked:
        top = top | {label}
        best = max(best, min(f.grade_of(label), table[top]))
    return best


def random_monotone_table(rng: np.random.Generator, labels: tuple[str, ...]) -> dict:
    """A seeded total monotone table on ``labels``, keyed by tuples in a
    shuffled order: a mix of an additive and a possibility measure, with
    values rounded to eighths in about half the tables, so that mu ties."""
    n = len(labels)
    masks = np.arange(1 << n)
    member = (masks[:, None] >> np.arange(n)) & 1
    w = rng.random(n) + 0.01
    pt = rng.random(n)
    pt[rng.integers(n)] = 1.0
    lam = rng.random()
    values = lam * (member @ (w / w.sum())) + (1.0 - lam) * (member * pt).max(axis=1)
    if rng.random() < 0.5:  # rounding is monotone, so the table stays monotone
        values = np.round(values * 8.0) / 8.0
    values[0], values[-1] = 0.0, 1.0
    return {
        tuple(labels[j] for j in np.flatnonzero(member[s])): float(values[s])
        for s in rng.permutation(masks)
    }


def sugeno_grid_bisection_oracle(f: GridFunction, a: IntervalSet, m: MeasureSpec) -> float:
    """Grid Sugeno integral by bisection on g(alpha) = mu(a intersect {f >= alpha}),
    on the public ``alpha_cut`` and ``measure_of``.

    g is non-increasing, so min(alpha, g(alpha)) rises with alpha until g
    crosses the identity: bisect [0, max f] for the crossing, down to
    ``BISECTION_TOL`` or adjacent floats.  The reference for both grid
    routes: the exact sup-min route of possibility measures, which must
    match it within 1e-10, and the additive route's exact last bracket.
    """
    # before any early return, so the error never depends on f: a must lie in
    # the measure's span and in f's (integral_over reads a's ends)
    measure_of(m, a)
    f.integral_over(a)

    def g(alpha: float) -> float:
        return measure_of(m, alpha_cut(f, alpha).cut.intersection(a))

    top = float(f.samples.max())
    if top <= 0.0 or a.is_empty:
        return 0.0
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


def neumaier_prefix_oracle(x_min: float, x_max: float, samples) -> np.ndarray:
    """Cumulative trapezoid of a grid's samples by the sequential Neumaier
    loop: a running sum and a running compensation, one cell at a time.

    The reference for ``GridFunction``'s vectorized prefix, which must
    match it bit for bit.  The cells are formed as the library forms
    them, from the samples clamped at zero.
    """
    vals = np.maximum(np.asarray(samples, dtype=float), 0.0)
    h = (float(x_max) - float(x_min)) / (vals.size - 1)
    cells = h * 0.5 * (vals[:-1] + vals[1:])
    prefix = np.empty(vals.size)
    prefix[0] = 0.0
    s = 0.0
    c = 0.0
    for i, cell in enumerate(cells.tolist()):
        t = s + cell
        if abs(s) >= abs(cell):
            c += (s - t) + cell
        else:
            c += (cell - t) + s
        s = t
        prefix[i + 1] = s + c
    return prefix


def _inside_loop(f: GridFunction, x: float) -> float:
    slack = 1e-12 * max(1.0, f.x_max - f.x_min)
    if not (f.x_min - slack <= x <= f.x_max + slack):
        raise ValueError(f"point {x} outside grid span [{f.x_min}, {f.x_max}]")
    return min(max(x, f.x_min), f.x_max)


def _cell_loop(f: GridFunction, x: float) -> int:
    k = int(np.searchsorted(f.nodes, x, side="right")) - 1
    return min(max(k, 0), f.samples.size - 2)


def value_at_loop(f: GridFunction, x: float) -> float:
    """``GridFunction.value_at`` as one scalar read: clamp x into the span,
    find its cell, interpolate, clamp to the cell's two samples.

    The reference for the array reading, which must match it bit for bit.
    """
    x = _inside_loop(f, x)
    k = _cell_loop(f, x)
    y0, y1 = f.samples[k], f.samples[k + 1]
    t = (x - f.nodes[k]) / f.spacing
    v = y0 + t * (y1 - y0)
    # interpolation between two samples can never leave their range
    lo, hi = (y0, y1) if y0 <= y1 else (y1, y0)
    return float(min(max(v, lo), hi))


def cumulative_at_loop(f: GridFunction, x: float) -> float:
    """``GridFunction.cumulative_at`` as one scalar read on top of
    ``value_at_loop``: the prefix at x's cell plus one trapezoid."""
    x = _inside_loop(f, x)
    k = _cell_loop(f, x)
    yk = float(f.samples[k])
    return float(f._prefix[k] + (x - f.nodes[k]) * 0.5 * (yk + value_at_loop(f, x)))


def integral_over_loop(f: GridFunction, a: IntervalSet) -> float:
    """``GridFunction.integral_over`` piece by piece on the scalar reads."""
    return math.fsum(
        cumulative_at_loop(f, hi) - cumulative_at_loop(f, lo) for lo, hi in a.intervals
    )


def max_over_loop(f: GridFunction, a: IntervalSet) -> float:
    """``GridFunction.max_over`` piece by piece on the scalar reads."""
    best = 0.0
    for lo, hi in a.intervals:
        i0 = int(np.searchsorted(f.nodes, lo, side="right"))
        i1 = int(np.searchsorted(f.nodes, hi, side="left"))
        if i1 > i0:
            best = max(best, float(f.samples[i0:i1].max()))
        best = max(best, value_at_loop(f, lo), value_at_loop(f, hi))
    return best


def alpha_cut_loop(f: GridFunction, alpha: float, strict: bool = False) -> IntervalSet:
    """``alpha_cut`` run by run: each maximal run of satisfied nodes is one
    piece, ended by a grid end or by the crossing on the cell past the run.

    The reference for the array cut, which must match it bit for bit
    wherever ``(alpha - y0) * h`` stays finite.
    """
    ys, xs = f.samples, f.nodes
    sat = (ys > alpha) if strict else (ys >= alpha)

    def crossing(k: int) -> float:
        y0, y1 = float(ys[k]), float(ys[k + 1])
        return float(xs[k]) + (alpha - y0) * (float(xs[k + 1]) - float(xs[k])) / (y1 - y0)

    pieces = []
    k, n = 0, ys.size
    while k < n:
        if not sat[k]:
            k += 1
            continue
        start = k
        while k + 1 < n and sat[k + 1]:
            k += 1
        lo = float(xs[0]) if start == 0 else crossing(start - 1)
        hi = float(xs[-1]) if k == n - 1 else crossing(k)
        pieces.append((lo, hi))
        k += 1
    return IntervalSet.from_pairs(pieces)


def gaussian_density_oracle(w) -> np.ndarray:
    """A Gaussian spec's samples in one expression: the reference for the
    library's in-place form, which must match it bit for bit."""
    lo, hi = map(float, w.domain)
    xs = np.linspace(lo, hi, w.grid_points)
    with np.errstate(over="ignore"):  # far tails: z * z is inf, exp gives 0
        z = (xs - w.mu) / w.sigma
        return np.exp(-0.5 * z * z) / (w.sigma * math.sqrt(2.0 * math.pi))


def box_density_oracle(w) -> np.ndarray:
    """A box eigenstate spec's samples in one expression, (2/L) sin^2(n pi x / L)."""
    xs = np.linspace(0.0, w.length, w.grid_points)
    return (2.0 / w.length) * np.sin(w.level * math.pi * xs / w.length) ** 2


def localization_sweep_loop(
    w: WavefunctionSpec, a: float, b: float, steps: int = 200
) -> list[tuple[float, float, float, float]]:
    """``localization_sweep`` as one ``integral_over`` and one ``measure_of``
    call per window [a, x): the reference for the array pass."""
    if not 1 <= steps <= MAX_SWEEP_STEPS:
        raise ValueError(f"steps must be in 1..{MAX_SWEEP_STEPS}, got {steps}")
    a, b, density, _, _ = _density_on_window(w, a, b)
    pi = density.scaled_by_max()
    pi_measure = MeasureSpec.possibilistic(pi)
    rows = []
    for x in np.linspace(a, b, steps + 1)[1:]:
        window = IntervalSet.interval(a, float(x))
        rows.append(
            (
                a,
                float(x),
                density.integral_over(window),
                measure_of(pi_measure, window),
            )
        )
    return rows


def random_qubit_state(rng: np.random.Generator) -> QubitState:
    """Haar-ish random normalized state, for tests and demos."""
    parts = rng.normal(size=4)
    z0 = complex(parts[0], parts[1])
    z1 = complex(parts[2], parts[3])
    norm = math.sqrt(abs(z0) ** 2 + abs(z1) ** 2)
    if norm == 0.0:
        return ket0()
    return QubitState(z0 / norm, z1 / norm)
