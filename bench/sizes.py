"""Layer timings at the sizes of the ROADMAP baseline table.

Grids of 1e4, 1e5 and 1e6 points (grid construction, ``localize`` of a
standard Gaussian on [-1, 1), and the possibilistic grid Sugeno integral
of the rescaled density against its own possibility measure), and
finite universes of 10 and 300 labels (set construction, the pointwise
algebra, and the possibilistic finite Sugeno integral).  Each case is
timed untraced, best of ``reps``; every output is checked.
"""

from __future__ import annotations

import math
import time

import numpy as np

from workloads import ALGEBRA, _pointwise, check_localize, close

GRID_SIZES = (10_000, 100_000, 1_000_000)
FINITE_SIZES = (10, 300)


def cases(vq, seed: int):
    """(metric name, call, check, calls per timing) for every case; inputs
    are built here, outside any timing."""
    out = []
    window = vq.IntervalSet.interval(-1.0, 1.0)
    for n in GRID_SIZES:
        spec = vq.WavefunctionSpec.gaussian(0.0, 1.0, grid_points=n)
        density = vq.realize_density(spec)
        pi = density.scaled_by_max()
        poss = vq.MeasureSpec.possibilistic(pi)
        tol_pi = (16.0 / (n - 1)) ** 2 / 2.0
        out += [
            (
                f"size.fuzzy.grid_build.n{n}_ms",
                lambda s=density.samples: vq.GridFunction(-8.0, 8.0, s),
                lambda g, s=density.samples: None
                if np.array_equal(g.samples, s)
                else "grid samples changed",
                1,
            ),
            (
                f"size.localize.localize.n{n}_ms",
                lambda spec=spec: vq.localize(spec, -1.0, 1.0),
                lambda r, n=n: check_localize(("gaussian", 0.0, 1.0, -1.0, 1.0), n, r),
                1,
            ),
            (
                f"size.integrals.sugeno_grid.n{n}_ms",
                lambda pi=pi, poss=poss: vq.sugeno_integral(pi, window, poss),
                lambda v, t=tol_pi: close(v, 1.0, t + 1e-9, "grid Sugeno"),
                1,
            ),
        ]
    rng = np.random.default_rng(seed)
    for n in FINITE_SIZES:
        labels = tuple(f"e{j}" for j in rng.permutation(n))
        f, g, pi = rng.random(n), rng.random(n), rng.random(n)
        pi[rng.integers(n)] = 1.0
        fs, gs = vq.FiniteFuzzySet(labels, f), vq.FiniteFuzzySet(labels, g)
        poss = vq.MeasureSpec.possibilistic(vq.FiniteFuzzySet(labels, pi))

        def run_algebra(fs=fs, gs=gs):
            res = []
            for name, t in ALGEBRA:
                if name == "complement":
                    res.append(vq.fuzzy_complement(fs))
                else:
                    fn = vq.fuzzy_union if name == "union" else vq.fuzzy_intersection
                    res.append(fn(fs, gs, vq.TNormKind(t)))
            return res

        def check_algebra(res, f=f, g=g):
            for got, (name, t) in zip(res, ALGEBRA):
                want = np.clip(_pointwise(name, t, f, g), 0.0, 1.0)
                if not np.array_equal(got.grades, want):
                    return f"{name}/{t} grades differ from the pointwise reference"
            return None

        want_sugeno = float(np.max(np.minimum(f, pi)))
        out += [
            (
                f"size.fuzzy.finite_build.n{n}_ms",
                lambda labels=labels, f=f: vq.FiniteFuzzySet(labels, f),
                lambda s, f=f: None if np.array_equal(s.grades, f) else "grades changed",
                1,
            ),
            (f"size.fuzzy.algebra.n{n}_ms", run_algebra, check_algebra, len(ALGEBRA)),
            (
                f"size.integrals.sugeno_finite.n{n}_ms",
                lambda fs=fs, poss=poss: vq.sugeno_integral(fs, None, poss),
                lambda v, w=want_sugeno: None
                if v == w
                else f"finite Sugeno {v!r} != {w!r}",
                1,
            ),
        ]
    return out


def best_ms(call, reps: int, per: int):
    best = math.inf
    out = None
    for _ in range(reps):
        start = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3 / per, out
