"""Where is the particle?  Two answers from one sampled density.

Given a position density |psi|^2 on an interval, the additive answer is
the usual integral over [a, b).  The possibilistic answer rescales the
density by its supremum into a possibility distribution (height
normalization: the most plausible location gets possibility 1, shape is
preserved) and takes the sup over [a, b); the Sugeno integral of that
distribution against its own possibility measure recovers the same
number exactly, since min(pi, pi) = pi, which makes the two readings directly
comparable on the same report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fuzzy import GridFunction, _grid_nodes
from .integrals import grid_tolerance, sugeno_integral
from .intervals import IntervalSet
from .measures import MeasureSpec, PossibilityMeasure, measure_of

DEFAULT_GRID_POINTS = 10001
MIN_GRID_POINTS = 101
MAX_GRID_POINTS = 10_000_001
MAX_BOX_LEVEL = 50
DEFAULT_SWEEP_STEPS = 200
MAX_SWEEP_STEPS = 100_000


def _check_grid_points(n: int) -> None:
    if not MIN_GRID_POINTS <= n <= MAX_GRID_POINTS:
        raise ValueError(
            f"grid_points must be in {MIN_GRID_POINTS}..{MAX_GRID_POINTS}, got {n}"
        )


class WavefunctionSpec:
    """Base of the position densities, built through the three factory methods.

    ``gaussian`` (a ``GaussianWavefunction``) is the normalized normal
    density centered at ``mu`` with width ``sigma``, by default on eight
    sigmas each side.  ``box_eigenstate`` (a ``BoxWavefunction``) is the
    n-th stationary density of the infinite well on [0, length],
    (2/L) sin^2(n pi x / L).  ``from_samples`` (a ``SampledWavefunction``)
    passes a GridFunction through untouched.  Each type checks its own
    fields and answers ``_density``.  The densities are stationary, so the
    ``time`` recorded on a report never changes any number.
    """

    @classmethod
    def gaussian(
        cls,
        mu: float = 0.0,
        sigma: float = 1.0,
        domain: tuple[float, float] | None = None,
        grid_points: int = DEFAULT_GRID_POINTS,
    ) -> "GaussianWavefunction":
        mu, sigma = float(mu), float(sigma)
        if domain is None:
            domain = (mu - 8.0 * sigma, mu + 8.0 * sigma)
        return GaussianWavefunction(mu, sigma, domain, int(grid_points))

    @classmethod
    def box_eigenstate(
        cls, level: int, length: float, grid_points: int = DEFAULT_GRID_POINTS
    ) -> "BoxWavefunction":
        return BoxWavefunction(int(level), float(length), int(grid_points))

    @classmethod
    def from_samples(cls, samples: GridFunction) -> "SampledWavefunction":
        return SampledWavefunction(samples)


@dataclass(frozen=True, eq=False)
class GaussianWavefunction(WavefunctionSpec):
    mu: float
    sigma: float
    domain: tuple[float, float]
    grid_points: int

    def __post_init__(self) -> None:
        _check_grid_points(self.grid_points)
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("mu and sigma must be finite")
        # 1/sigma bounds the peak density 1/(sigma sqrt(2 pi)) from above
        if not (self.sigma > 0.0 and math.isfinite(1.0 / self.sigma)):
            raise ValueError(f"sigma must be positive, 1/sigma finite, got {self.sigma}")
        lo, hi = self.domain
        if not (math.isfinite(hi - lo) and lo < hi):
            raise ValueError(f"domain [{lo}, {hi}] must be finite and non-empty")

    def _density(self) -> GridFunction:
        lo, hi = map(float, self.domain)
        xs = _grid_nodes(lo, hi, self.grid_points)  # the GridFunction below shares them
        # exp(-0.5 * z * z) / (sigma sqrt(2 pi)), z = (xs - mu) / sigma, in one buffer;
        # z * z * -0.5 and -0.5 * z * z differ only where exp maps both to 0 or 1
        with np.errstate(over="ignore"):  # far tails: z * z is inf, exp gives 0
            ys = np.subtract(xs, self.mu)
            ys /= self.sigma
            np.square(ys, out=ys)
            ys *= -0.5
            np.exp(ys, out=ys)
            ys /= self.sigma * math.sqrt(2.0 * math.pi)
        return GridFunction(lo, hi, ys)


@dataclass(frozen=True, eq=False)
class BoxWavefunction(WavefunctionSpec):
    level: int
    length: float
    grid_points: int

    def __post_init__(self) -> None:
        _check_grid_points(self.grid_points)
        if not 1 <= self.level <= MAX_BOX_LEVEL:
            raise ValueError(
                f"box level must be in 1..{MAX_BOX_LEVEL}, got {self.level}"
            )
        # positive, with a finite height 2/L and phase n pi L at x = L
        length = self.length
        if not (
            length > 0.0
            and math.isfinite(2.0 / length)
            and math.isfinite(self.level * math.pi * length)
        ):
            raise ValueError(f"box length must be positive and in range, got {length}")

    def _density(self) -> GridFunction:
        xs = _grid_nodes(0.0, self.length, self.grid_points)
        # (2 / L) sin(n pi xs / L) ** 2 in the same operations and order, in one buffer
        ys = np.multiply(self.level * math.pi, xs)
        ys /= self.length
        np.sin(ys, out=ys)
        np.square(ys, out=ys)
        ys *= 2.0 / self.length
        return GridFunction(0.0, self.length, ys)


@dataclass(frozen=True, eq=False)
class SampledWavefunction(WavefunctionSpec):
    samples: GridFunction

    def __post_init__(self) -> None:
        if not isinstance(self.samples, GridFunction):
            raise ValueError("samples spec needs a GridFunction")

    def _density(self) -> GridFunction:
        return self.samples


def realize_density(w: WavefunctionSpec) -> GridFunction:
    """Sample the density described by ``w`` onto its grid."""
    return w._density()


@dataclass(frozen=True, slots=True)
class LocalizationReport:
    """Additive and possibilistic localization numbers for one interval."""

    a: float
    b: float
    time: float
    probability: float
    possibility: float
    possibility_sugeno: float
    density_norm: float
    grid_tolerance: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.possibility <= 1.0:
            raise ValueError(f"possibility {self.possibility} outside [0, 1]")
        if self.probability < -1e-12 or self.probability > self.density_norm + 1e-9:
            raise ValueError(
                f"probability {self.probability} outside [0, {self.density_norm}]"
            )
        if abs(self.possibility_sugeno - self.possibility) > self.grid_tolerance:
            raise ValueError(
                "sup and Sugeno possibilities disagree beyond the grid tolerance: "
                f"{self.possibility} vs {self.possibility_sugeno}"
            )


def _density_on_window(
    w: WavefunctionSpec, a: float, b: float
) -> tuple[float, float, GridFunction, GridFunction, PossibilityMeasure]:
    """The window [a, b) as floats, w's density, checked to contain it, the
    density rescaled by its supremum (pi) and pi's possibility measure."""
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    density = realize_density(w)
    if a < density.x_min or b > density.x_max:
        raise ValueError(
            f"interval [{a}, {b}) outside the domain "
            f"[{density.x_min}, {density.x_max}]"
        )
    pi = density.scaled_by_max()
    return a, b, density, pi, MeasureSpec.possibilistic(pi)


def localize(
    w: WavefunctionSpec, a: float, b: float, time: float = 0.0
) -> LocalizationReport:
    """Probability and possibility of finding the particle in [a, b) at a
    finite ``time``."""
    a, b, density, pi, pi_measure = _density_on_window(w, a, b)
    time = float(time)
    if not math.isfinite(time):
        raise ValueError(f"time must be finite, got {time}")
    window = IntervalSet.interval(a, b)
    probability = density.integral_over(window)
    density_norm = density.integral_over(density.full_span())
    possibility = measure_of(pi_measure, window)
    possibility_sugeno = sugeno_integral(pi, window, pi_measure)
    return LocalizationReport(
        a=a,
        b=b,
        time=time,
        probability=probability,
        possibility=possibility,
        possibility_sugeno=possibility_sugeno,
        density_norm=density_norm,
        grid_tolerance=grid_tolerance(pi),
    )


def localization_sweep(
    w: WavefunctionSpec, a: float, b: float, steps: int = DEFAULT_SWEEP_STEPS
) -> list[tuple[float, float, float, float]]:
    """Rows (a, x, probability, possibility) for x sweeping from a to b.

    The density and its possibility rescaling are realized once and every
    window [a, x) is measured against them in passes over the window ends
    and one over the nodes between consecutive ends, with no copy of pi,
    which is what a plot of additive vs possibilistic localization wants.
    """
    if not 1 <= steps <= MAX_SWEEP_STEPS:
        raise ValueError(f"steps must be in 1..{MAX_SWEEP_STEPS}, got {steps}")
    a, b, density, pi, _ = _density_on_window(w, a, b)
    xs = np.linspace(a, b, steps + 1)[1:]
    if not a < xs[0]:
        raise ValueError(f"{steps} sweep steps are finer than the floats in [{a}, {b})")
    ends = np.append(a, xs)
    cumulative = density._cumulative(ends)
    # as max_over reads pi over [a, x): pi(a), pi at the nodes inside, pi(x)
    values = pi._read(ends)[2]
    first, stops = pi._node_range(a, xs)
    starts = np.append(first, stops[:-1])  # window k adds the nodes starts[k]:stops[k]
    runs, sup = starts < stops, np.full(steps, values[0])
    # each non-empty run ends where the next one starts, the last at stops[-1]
    sup[runs] = np.maximum(np.maximum.reduceat(pi.samples[: stops[-1]], starts[runs]), values[0])
    sup = np.maximum(np.maximum.accumulate(sup), values[1:])
    probability = (cumulative[1:] - cumulative[0]).tolist()
    possibility = np.where(sup > 0.0, sup, 0.0).tolist()  # a zero as +0.0, as max_over
    return list(zip([a] * steps, xs.tolist(), probability, possibility))
