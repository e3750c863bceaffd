"""The three benchmark workloads, and the CLI commands of the traced pass.

Each workload is built from a seed (its set-up), holds a pool of
operations generated from that seed, runs one pool operation per call
and checks an output against a reference computed without vagueq.  The
pool is laid out in shuffled blocks that each carry the workload's full
operation mix, so any prefix of the pool keeps that mix: a closed loop
that stops part-way through a cycle still sees the stated proportions.

Library calls go through the ``vagueq`` package attributes at call time,
so the wrappers that ``tracing.install`` puts there are seen.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
TNORMS = ("minimum", "product", "lukasiewicz")


def shuffled_blocks(rng, block: list, count: int) -> list:
    out: list = []
    for _ in range(count):
        b = list(block)
        rng.shuffle(b)
        out += b
    return out


def window(rng, lo: float, hi: float) -> tuple[float, float]:
    """A seeded sub-window of [lo, hi] at least 2% of its length wide."""
    while True:
        a, b = sorted(float(v) for v in rng.uniform(lo, hi, 2))
        if b - a >= 0.02 * (hi - lo):
            return a, b


def disjoint_pairs(rng, lo: float, hi: float, count: int):
    """``count`` disjoint, non-touching [a, b) pieces inside [lo, hi]."""
    while True:
        pts = np.sort(rng.uniform(lo, hi, 2 * count))
        if np.all(np.diff(pts) > 1e-9 * (hi - lo)):
            return tuple(
                (float(pts[2 * j]), float(pts[2 * j + 1])) for j in range(count)
            )


def close(got: float, want: float, tol: float, what: str) -> str | None:
    if abs(got - want) <= tol:
        return None
    return f"{what}: got {got!r}, want {want!r} +- {tol:.3g}"


# --- grid-build --------------------------------------------------------------


def localize_spec(vq, op, n: int):
    if op[0] == "gaussian":
        return vq.WavefunctionSpec.gaussian(op[1], op[2], grid_points=n)
    return vq.WavefunctionSpec.box_eigenstate(op[1], op[2], grid_points=n)


def check_localize(op, n: int, report) -> str | None:
    """Check a localize report against the density's closed forms.

    The library integrates and takes suprema of the piecewise-linear
    interpolant of the samples, which differs from the density by at
    most h^2 max|rho''| / 8 pointwise; the rescaled possibility profile
    is off by at most twice that (interpolation plus the peak node's
    distance from the true peak).
    """
    kind, p1, p2, a, b = op
    if kind == "gaussian":
        mu, sigma = p1, p2
        span = 16.0 * sigma
        h = span / (n - 1)
        curvature = 1.0 / (sigma**3 * ref.SQRT2PI)
        prob = ref.gauss_prob(mu, sigma, a, b)
        norm = ref.gauss_prob(mu, sigma, mu - 8.0 * sigma, mu + 8.0 * sigma)
        sup = ref.gauss_sup(mu, sigma, a, b)
        tol_pi = h * h / (2.0 * sigma**2)
    else:
        level, length = p1, p2
        k = level * math.pi / length
        span = length
        h = span / (n - 1)
        curvature = 4.0 * k * k / length
        prob = ref.box_prob(level, length, a, b)
        norm = 1.0
        sup = ref.box_sup(level, length, a, b)
        tol_pi = (k * h) ** 2
    trap = h * h * curvature / 8.0
    if (report.a, report.b, report.time) != (a, b, 0.0):
        return f"report window {(report.a, report.b, report.time)} != {(a, b, 0.0)}"
    return (
        close(report.probability, prob, (b - a) * trap + 1e-12, "probability")
        or close(report.density_norm, norm, span * trap + 1e-12, "density_norm")
        or close(report.possibility, sup, tol_pi + 1e-12, "possibility")
        or close(report.possibility_sugeno, sup, tol_pi + 1e-9, "possibility_sugeno")
    )


class GridBuild:
    """A fresh ``localize`` per operation: realize the density, build its
    grid and the rescaled possibility grid, measure and integrate.  Half
    the operations use a Gaussian, half a box eigenstate.

    A window over the density's maximum lets the grid Sugeno integral
    stop at its top level; a window off every peak takes the full
    bisection, about as long again.  So each block of six holds, per
    kind, one window over the peaks and two off them, and box levels
    cycle through 1 to 4: every seed gets the same mix of costs, and the
    median falls inside the off-peak operations rather than between the
    two groups.

    Grids have 2e4 points, so an operation takes some 10 to 20 ms and
    each of the 18 pool operations runs over 100 times in a run: the
    best of an operation's runs is then steady (see
    ``run.best_latencies``).  At 2e5 points an operation took some
    150 ms, its few runs rarely caught an uncontended moment, and runs
    of the same code spread by up to 30%.
    """

    name = "grid-build"
    fixed_ops = 6

    def __init__(self, vq, seed: int, tiny: bool) -> None:
        rng = np.random.default_rng(seed)
        self.vq = vq
        self.n = 2_000 if tiny else 20_000
        blocks = 1 if tiny else 3
        levels = iter([1 + j % 4 for j in range(3 * blocks)])
        block = [(kind, peak) for kind in ("gaussian", "box") for peak in (1, 0, 0)]
        self.pool = []
        for kind, peak in shuffled_blocks(rng, block, blocks):
            if kind == "gaussian":
                mu = float(rng.uniform(-2.0, 2.0))
                sigma = float(rng.uniform(0.5, 2.0))
                if peak:
                    a = mu - sigma * float(rng.uniform(0.05, 4.0))
                    b = mu + sigma * float(rng.uniform(0.05, 4.0))
                else:
                    lo, hi = window(rng, 0.05 * sigma, 4.0 * sigma)
                    a, b = (mu + lo, mu + hi) if rng.random() < 0.5 else (mu - hi, mu - lo)
                self.pool.append(("gaussian", mu, sigma, a, b))
            else:
                level = next(levels)
                length = float(rng.uniform(0.5, 2.0))
                lobe = length / level  # peaks sit at (j + 1/2) lobe
                if peak:
                    a = lobe * float(rng.uniform(0.0, 0.4))
                    b = length - lobe * float(rng.uniform(0.0, 0.4))
                else:
                    start = lobe * (int(rng.integers(level)) + float(rng.choice([0.02, 0.55])))
                    a, b = window(rng, start, start + 0.43 * lobe)
                self.pool.append(("box", level, length, a, b))
        self.specs = [localize_spec(vq, op, self.n) for op in self.pool]

    def inputs(self):
        return [self.n, self.pool]

    def run(self, k: int):
        op = self.pool[k]
        return self.vq.localize(self.specs[k], op[3], op[4])

    def check(self, k: int, out) -> str | None:
        return check_localize(self.pool[k], self.n, out)


# --- grid-query --------------------------------------------------------------


class GridQuery:
    """Queries against one pre-built Gaussian density and its additive and
    possibility measures, with three Gaussian membership integrands of
    widths 0.4, 0.8 and 1.2 sigma (the cost of cuts and Sugeno integrals
    grows with the integrand's width, so every seed gets all three).

    Mix per block of 40: 24 ``measure_of`` (half additive, half
    possibility), 6 ``alpha_cut`` of an integrand, 10 ``sugeno_integral``
    of an integrand (half against the possibility measure, half against
    the additive one); events have 1 to 4 pieces.  Measure queries are
    60% so the median sits inside them; Sugeno is the top 25% so p90
    sits inside it.
    """

    name = "grid-query"
    fixed_ops = 200

    def __init__(self, vq, seed: int, tiny: bool) -> None:
        rng = np.random.default_rng(seed)
        self.vq = vq
        self.n = 2_000 if tiny else 100_000
        mu = float(rng.uniform(-1.0, 1.0))
        sigma = float(rng.uniform(0.5, 2.0))
        self.density_params = (mu, sigma)
        # integrands: (height, center, width) of shifted Gaussian memberships
        self.integrand_params = [
            (float(rng.uniform(0.6, 1.0)), mu + float(rng.uniform(-2.0, 2.0)) * sigma,
             ratio * sigma)
            for ratio in (0.4, 0.8, 1.2)
        ]

        spec = vq.WavefunctionSpec.gaussian(mu, sigma, grid_points=self.n)
        density = vq.realize_density(spec)
        self.measures = {
            "additive": vq.MeasureSpec.additive(density),
            "possibility": vq.MeasureSpec.possibilistic(density.scaled_by_max()),
        }
        xs = np.linspace(density.x_min, density.x_max, self.n)
        self.integrands = [
            vq.GridFunction(
                density.x_min,
                density.x_max,
                height * np.exp(-0.5 * ((xs - center) / width) ** 2),
            )
            for height, center, width in self.integrand_params
        ]
        self.h = (density.x_max - density.x_min) / (self.n - 1)

        # (kind, measure, number of event pieces, integrand); a query's
        # cost grows with its pieces and its integrand's width, so every
        # block has the same piece counts and integrands
        block = (
            [("measure", m, 1 + j % 4, None) for m in self.measures for j in range(12)]
            + [("alpha_cut", None, 0, j % 3) for j in range(6)]
            + [("sugeno", "possibility", 1 + j % 4, j % 3) for j in range(5)]
            + [("sugeno", "additive", 1 + (j + 2) % 4, (j + 1) % 3) for j in range(5)]
        )
        self.pool = []
        for kind, measure, count, fi in shuffled_blocks(rng, block, 1 if tiny else 10):
            if kind == "alpha_cut":
                height = self.integrand_params[fi][0]
                self.pool.append((kind, fi, height * float(rng.uniform(0.05, 0.9))))
            else:
                pairs = disjoint_pairs(rng, mu - 4.0 * sigma, mu + 4.0 * sigma, count)
                self.pool.append((kind, measure, pairs, fi))

    def inputs(self):
        return [self.n, self.density_params, self.integrand_params, self.pool]

    def run(self, k: int):
        vq = self.vq
        op = self.pool[k]
        if op[0] == "alpha_cut":
            return vq.alpha_cut(self.integrands[op[1]], op[2]).cut
        event = vq.IntervalSet.from_pairs(op[2])
        if op[0] == "measure":
            return vq.measure_of(self.measures[op[1]], event)
        return vq.sugeno_integral(self.integrands[op[3]], event, self.measures[op[1]])

    def check(self, k: int, out) -> str | None:
        mu, sigma = self.density_params
        h = self.h
        op = self.pool[k]
        # pointwise interpolation error of the density, the rescaled
        # profile and the integrand (see check_localize)
        trap = h * h / (8.0 * sigma**3 * ref.SQRT2PI)
        tol_pi = h * h / (2.0 * sigma**2)
        if op[0] == "measure":
            pairs = op[2]
            if op[1] == "additive":
                want = math.fsum(ref.gauss_prob(mu, sigma, lo, hi) for lo, hi in pairs)
                length = math.fsum(hi - lo for lo, hi in pairs)
                return close(out, want, length * trap + 1e-12, "additive measure")
            want = max(ref.gauss_sup(mu, sigma, lo, hi) for lo, hi in pairs)
            return close(out, want, tol_pi + 1e-12, "possibility measure")
        fi = op[1] if op[0] == "alpha_cut" else op[3]
        height, center, width = self.integrand_params[fi]
        tol_f = h * h * height / (8.0 * width**2)
        if op[0] == "alpha_cut":
            alpha = op[2]
            lo, hi = ref.membership_cut(height, center, width, alpha)
            z = math.sqrt(2.0 * math.log(height / alpha))
            # a value error tol_f moves the crossing by tol_f / slope
            tol_x = 2.0 * tol_f * width / (alpha * z) + 1e-12 * (1.0 + abs(center))
            if len(out.intervals) != 1:
                return f"alpha_cut({alpha!r}) has pieces {out.intervals}"
            (got_lo, got_hi), = out.intervals
            return close(got_lo, lo, tol_x, "cut lo") or close(got_hi, hi, tol_x, "cut hi")
        _, measure, pairs, _ = op
        if measure == "possibility":
            want = ref.sup_min_gaussians(pairs, height, center, width, mu, sigma)
            return close(out, want, tol_pi + 2.0 * tol_f + 1e-9, "possibilistic Sugeno")
        want = ref.sugeno_additive_gaussian(pairs, height, center, width, mu, sigma)
        # the fixed point alpha = P(event & cut(alpha)) moves by at most the
        # error of P: trapezoid error over the event, plus each cut end's
        # error (tol_f / slope) times the peak density, plus the library's
        # bisection tolerance of 1e-10
        z = math.sqrt(2.0 * math.log(height / want)) if 0.0 < want < height else 0.0
        tol_x = 2.0 * tol_f * width / (want * z) if z > 0.0 else h
        length = math.fsum(hi - lo for lo, hi in pairs)
        tol = length * trap + 2.0 * len(pairs) * tol_x / (sigma * ref.SQRT2PI) + 1e-9
        return close(out, want, tol, "additive Sugeno")


# --- finite-sugeno -----------------------------------------------------------


def bits(mask) -> int:
    return int(sum(1 << j for j in np.flatnonzero(mask)))


ALGEBRA = [("complement", "minimum")] + [
    (name, t) for name in ("union", "intersection") for t in TNORMS
]


class FiniteSugeno:
    """Finite fuzzy sets over seeded universes of 10 and 300 labels, and
    table measures over 8 to 12 labels (one of each size).

    Mix per block of 37: 7 builds, 10 algebra operations (all 7 at 300
    labels, 3 at 10), 6 ``measure_of`` and 14 ``sugeno_integral`` (8
    possibilistic at 300 labels, 3 at 10, 3 against a table); one Sugeno
    integral in each group is over the whole universe.  Sorted by cost,
    the 15 operations on small universes come first, then the 12 builds
    and algebra operations at 300 labels, which hold the median; the 8
    300-label possibilistic Sugeno integrals come last and hold p90.
    """

    name = "finite-sugeno"
    fixed_ops = 37

    def __init__(self, vq, seed: int, tiny: bool) -> None:
        rng = np.random.default_rng(seed)
        self.vq = vq
        self.labels, self.grades, self.sets, self.measures = {}, {}, {}, {}
        for key, n in (("small", 10), ("large", 30 if tiny else 300)):
            labels = tuple(f"e{j}" for j in rng.permutation(n))
            a, b, pi = rng.random(n), rng.random(n), rng.random(n)
            pi[rng.integers(n)] = 1.0
            self.labels[key] = labels
            self.grades[key] = {"A": a, "B": b, "pi": pi}
            self.sets[key] = {
                "A": vq.FiniteFuzzySet(labels, a),
                "B": vq.FiniteFuzzySet(labels, b),
            }
            self.measures[key] = vq.MeasureSpec.possibilistic(
                vq.FiniteFuzzySet(labels, pi)
            )

        # table measures: lam * additive(w) + (1 - lam) * possibility(pt),
        # monotone because both parts are, and exactly 1 on the universe
        self.tables = [f"t{t}" for t in ((8,) if tiny else range(8, 13))]
        self.table_values, self.table_params = {}, {}
        for key in self.tables:
            t = int(key[1:])
            labels = tuple(f"t{j}" for j in rng.permutation(t))
            w = rng.random(t) + 0.05
            w = w / math.fsum(w)
            pt = rng.random(t)
            pt[rng.integers(t)] = 1.0
            lam = float(rng.uniform(0.2, 0.8))
            values = [0.0] * (1 << t)
            table = {(): 0.0}
            for mask in range(1, 1 << t):
                idx = [j for j in range(t) if mask >> j & 1]
                values[mask] = lam * math.fsum(w[idx]) + (1.0 - lam) * float(max(pt[idx]))
                table[tuple(labels[j] for j in idx)] = values[mask]
            values[-1] = 1.0
            table[labels] = 1.0
            ft = rng.random(t)
            self.labels[key] = labels
            self.grades[key] = {"A": ft}
            self.sets[key] = {"A": vq.FiniteFuzzySet(labels, ft)}
            self.measures[key] = vq.MeasureSpec.from_table(labels, table)
            self.table_values[key] = values
            self.table_params[key] = [lam, w.tolist(), pt.tolist()]

        block = (
            [("build", "small")] * 2
            + [("build", "large")] * 5
            + [("algebra", "large") + op for op in ALGEBRA]
            + [("algebra", "small") + op for op in ALGEBRA[::3]]
            + [("measure", "small")] * 2
            + [("measure", "large")] * 2
            + [("measure", "table")] * 2
            + [("sugeno", "large", False)] * 7
            + [("sugeno", "large", True)]
            + [("sugeno", "small", False)] * 2
            + [("sugeno", "small", True)]
            + [("sugeno", "table", False)] * 2
            + [("sugeno", "table", True)]
        )
        self.pool = []
        for op in shuffled_blocks(rng, block, 1 if tiny else 3):
            kind, target = op[0], op[1]
            if target == "table":
                target = self.tables[int(rng.integers(len(self.tables)))]
            if kind == "build":
                n = len(self.labels[target])
                self.pool.append(("build", target, rng.random(n)))
            elif kind == "algebra":
                self.pool.append(op)
            elif kind == "measure":
                self.pool.append(("measure", target) + self._event(rng, target, False))
            else:
                f = ("A", "B")[int(rng.integers(2))] if "B" in self.sets[target] else "A"
                self.pool.append(("sugeno", target, f) + self._event(rng, target, op[2]))

    def _event(self, rng, target: str, whole: bool):
        if whole:
            return (None, None)
        labels = self.labels[target]
        mask = rng.random(len(labels)) < 0.5
        return (mask, tuple(labels[j] for j in np.flatnonzero(mask)))

    def inputs(self):
        return [
            self.labels,
            {k: {g: v.tolist() for g, v in d.items()} for k, d in self.grades.items()},
            self.table_params,
            [
                [x.tolist() if isinstance(x, np.ndarray) else x for x in op]
                for op in self.pool
            ],
        ]

    def run(self, k: int):
        vq = self.vq
        op = self.pool[k]
        kind, target = op[0], op[1]
        if kind == "build":
            return vq.FiniteFuzzySet(self.labels[target], op[2])
        if kind == "algebra":
            a, b = self.sets[target]["A"], self.sets[target]["B"]
            if op[2] == "complement":
                return vq.fuzzy_complement(a)
            fn = vq.fuzzy_union if op[2] == "union" else vq.fuzzy_intersection
            return fn(a, b, vq.TNormKind(op[3]))
        if kind == "measure":
            return vq.measure_of(self.measures[target], op[3])
        return vq.sugeno_integral(self.sets[target][op[2]], op[4], self.measures[target])

    def check(self, k: int, out) -> str | None:
        op = self.pool[k]
        kind, target = op[0], op[1]
        if kind in ("build", "algebra"):
            if kind == "build":
                want = op[2]
            else:
                a, b = self.grades[target]["A"], self.grades[target]["B"]
                want = np.clip(_pointwise(op[2], op[3], a, b), 0.0, 1.0)
            if out.universe != self.labels[target] or not np.array_equal(out.grades, want):
                return f"{kind} {op[1:]} grades differ from the pointwise reference"
            return None
        mask = op[2] if kind == "measure" else op[3]
        if mask is None:
            mask = np.ones(len(self.labels[target]), dtype=bool)
        if kind == "measure":
            if target in self.table_values:
                want = self.table_values[target][bits(mask)]
            else:
                pi = self.grades[target]["pi"]
                want = float(pi[mask].max()) if mask.any() else 0.0
        elif target in self.table_values:
            f = self.grades[target]["A"]
            want = ref.sugeno_sorted_value(
                [(j, float(f[j])) for j in np.flatnonzero(mask)],
                self.table_values[target].__getitem__,
            )
        else:
            f = self.grades[target][op[2]]
            pi = self.grades[target]["pi"]
            want = float(np.max(np.minimum(f, pi)[mask])) if mask.any() else 0.0
        if out != want:
            return f"{kind} {target}: got {out!r}, want {want!r} exactly"
        return None


def _pointwise(name: str, tnorm: str, a, b):
    if name == "complement":
        return 1.0 - a
    if name == "union":
        return {
            "minimum": lambda: np.maximum(a, b),
            "product": lambda: a + b - a * b,
            "lukasiewicz": lambda: np.minimum(1.0, a + b),
        }[tnorm]()
    return {
        "minimum": lambda: np.minimum(a, b),
        "product": lambda: a * b,
        "lukasiewicz": lambda: np.maximum(0.0, a + b - 1.0),
    }[tnorm]()


# --- CLI commands (traced pass) ---------------------------------------------


def child_env(src: str) -> dict:
    """This process's environment (thread variables already pinned to 1
    by run.py) with vagueq importable from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("VAGUEQ_SEED", None)
    return env


class CliCommands:
    """The README's documented commands, each run in a child process, one
    at a time; the measure, Sugeno and fuzzy union ones read small seeded
    files written here.

    Each child runs ``cli_child.py``, which does what ``python -m vagueq``
    does and times the interpreter start, the numpy import, the
    ``vagueq.cli`` import and ``main`` inside the child and records its
    layer spans.
    """

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        root = os.getcwd()
        self.root = root
        self.env = child_env(os.path.join(root, "src"))
        self.tmp = os.path.join(root, ".bench_tmp", f"cli-{os.getpid()}-{id(self)}")
        os.makedirs(self.tmp, exist_ok=True)
        labels = [f"s{j}" for j in range(8)]
        pi = rng.random(8)
        pi[rng.integers(8)] = 1.0
        f = rng.random(8)
        mask = rng.random(8) < 0.5
        mask[rng.integers(8)] = True
        self.files = {}
        for name, grades in (("pi", pi), ("f", f)):
            path = os.path.relpath(os.path.join(self.tmp, f"{name}.txt"), root)
            with open(os.path.join(root, path), "w", encoding="utf-8") as fh:
                for label, g in zip(labels, grades):
                    fh.write(f"{label},{float(g)!r}\n")
            self.files[name] = path
        subset = "|".join(l for l, m in zip(labels, mask) if m)

        h = 16.0 / 10000
        # the README's documented values, then closed forms: the density
        # integrates to erf(8/sqrt 2) over eight sigmas, and the steepest
        # cell of the rescaled profile rises by about h exp(-1/2)
        self.commands = [
            (
                ["localize", "--wavefunction", "gaussian:mu=0,sigma=1",
                 "--interval", "-1,1", "--grid", "10001"],
                {
                    "a": "-1.000000000",
                    "b": "1.000000000",
                    "time": "0.000000000",
                    "probability": "0.682689389",
                    "possibility": "1.000000000",
                    "possibility_sugeno": (1.0, 1e-9),
                    "density_norm": (ref.gauss_prob(0.0, 1.0, -8.0, 8.0), 1e-9),
                    "grid_tolerance": (2.0 * h * math.exp(-0.5), 2.0 * h**3 + 1e-9),
                },
            ),
            (
                ["qubit", "--init", "0", "--gate", "H", "--report", "memberships"],
                {"mu0": "0.500000000", "mu1": "0.500000000", "born_compatible": "true"},
            ),
            (["lang", "grade", "--word", "00111"], {"grade": "0.666666667"}),
            (["entangle", "--state", "bell"], {"det": "0.500000000", "entangled": "true"}),
            (
                ["measure", "eval", "--measure",
                 f"possibilistic:finite={self.files['pi']}", "--subset", subset],
                {"measure": f"{float(pi[mask].max()):.9f}"},
            ),
            (
                ["integrate", "sugeno", "--function", f"finite:{self.files['f']}",
                 "--measure", f"possibilistic:finite={self.files['pi']}",
                 "--subset", subset],
                {"sugeno": f"{float(np.max(np.minimum(f, pi)[mask])):.9f}"},
            ),
            (
                ["fuzzy", "union", "--a", self.files["f"], "--b", self.files["pi"],
                 "--tnorm", "product"],
                {
                    label: f"{float(v):.9f}"
                    for label, v in zip(labels, np.clip(f + pi - f * pi, 0.0, 1.0))
                },
            ),
        ]
        self.timings: list[dict] = []

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass

    def run_traced(self, k: int, tracer):
        """Run one command under ``cli_child.py``; merge its spans into
        ``tracer`` and keep its stage timings in ``self.timings``."""
        from tracing import Tracer

        argv = self.commands[k][0]
        report = os.path.join(self.tmp, "child.json")
        spawned = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "cli_child.py"), report, *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        code, out, err = proc.returncode, proc.stdout, proc.stderr
        if code == 0:
            with open(report, encoding="utf-8") as fh:
                data = json.load(fh)
            os.remove(report)
            stamps = data["stamps"]
            self.timings.append(
                {
                    "python_start_ms": (stamps["start"] - spawned) / 1e6,
                    "numpy_import_ms": (stamps["numpy"] - stamps["start"]) / 1e6,
                    "vagueq_import_ms": (stamps["vagueq"] - stamps["numpy"]) / 1e6,
                    "main_ms": (stamps["end"] - stamps["main"]) / 1e6,
                }
            )
            tracer.merge(Tracer.from_json(data["spans"]))
        return code, out, err

    def check(self, k: int, out) -> str | None:
        argv, expected = self.commands[k]
        code, stdout, stderr = out
        if code != 0 or stderr:
            return f"vagueq {' '.join(argv)}: exit {code}, stderr {stderr!r}"
        got = {}
        for line in stdout.splitlines():
            key, sep, value = line.partition(" = ")
            if not sep:
                return f"vagueq {' '.join(argv)}: unexpected line {line!r}"
            got[key] = value
        if list(got) != list(expected):
            return f"vagueq {' '.join(argv)}: keys {list(got)} != {list(expected)}"
        for key, want in expected.items():
            if isinstance(want, str):
                if got[key] != want:
                    return f"vagueq {' '.join(argv)}: {key} = {got[key]}, want {want}"
            else:
                bad = close(float(got[key]), want[0], want[1], key)
                if bad:
                    return f"vagueq {' '.join(argv)}: {bad}"
        return None


WORKLOADS = {w.name: w for w in (GridBuild, GridQuery, FiniteSugeno)}
