"""Where is the particle?  Two answers from one sampled density.

Given a position density |psi|^2 on an interval, the additive answer is
the usual integral over [a, b).  The possibilistic answer rescales the
density by its supremum into a possibility distribution (height
normalization: the most plausible location gets possibility 1, shape is
preserved) and takes the sup over [a, b); the Sugeno integral of that
distribution against its own possibility measure recovers the same
number up to grid resolution, which makes the two readings directly
comparable on the same report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fuzzy import GridFunction
from .integrals import grid_tolerance, sugeno_integral
from .intervals import IntervalSet
from .measures import MeasureSpec, measure_of
from .render import format_value

DEFAULT_GRID_POINTS = 10001
MIN_GRID_POINTS = 101
MAX_BOX_LEVEL = 50


class WavefunctionKind(Enum):
    GAUSSIAN = "gaussian"
    BOX_EIGENSTATE = "box"
    SAMPLES = "samples"


@dataclass(frozen=True, eq=False)
class WavefunctionSpec:
    """Recipe for a position density on a 1-D domain.

    ``gaussian`` is the normalized normal density centered at ``mu`` with
    width ``sigma`` (default domain: eight sigmas each side).  ``box`` is
    the n-th stationary density of the infinite well on [0, length],
    (2/L) sin^2(n pi x / L).  ``samples`` passes a GridFunction through
    untouched.  ``time`` is recorded on reports; the built-in densities
    are stationary, so it never changes any number.
    """

    kind: WavefunctionKind
    mu: float = 0.0
    sigma: float = 1.0
    level: int = 1
    length: float = 1.0
    samples: GridFunction | None = None
    domain: tuple[float, float] | None = None
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self) -> None:
        if self.kind is not WavefunctionKind.SAMPLES:
            if self.grid_points < MIN_GRID_POINTS:
                raise ValueError(
                    f"grid_points must be >= {MIN_GRID_POINTS}, got {self.grid_points}"
                )
        if self.kind is WavefunctionKind.GAUSSIAN:
            if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
                raise ValueError("mu and sigma must be finite")
            if self.sigma <= 0.0:
                raise ValueError(f"sigma must be positive, got {self.sigma}")
            if self.domain is not None:
                lo, hi = self.domain
                if not lo < hi:
                    raise ValueError(f"domain [{lo}, {hi}] is empty or inverted")
        elif self.kind is WavefunctionKind.BOX_EIGENSTATE:
            if not 1 <= self.level <= MAX_BOX_LEVEL:
                raise ValueError(
                    f"box level must be in 1..{MAX_BOX_LEVEL}, got {self.level}"
                )
            if not (math.isfinite(self.length) and self.length > 0.0):
                raise ValueError(f"box length must be positive, got {self.length}")
        elif self.kind is WavefunctionKind.SAMPLES:
            if self.samples is None:
                raise ValueError("samples spec needs a GridFunction")

    @classmethod
    def gaussian(
        cls,
        mu: float = 0.0,
        sigma: float = 1.0,
        domain: tuple[float, float] | None = None,
        grid_points: int = DEFAULT_GRID_POINTS,
    ) -> "WavefunctionSpec":
        return cls(
            WavefunctionKind.GAUSSIAN,
            mu=float(mu),
            sigma=float(sigma),
            domain=domain,
            grid_points=int(grid_points),
        )

    @classmethod
    def box_eigenstate(
        cls, level: int, length: float, grid_points: int = DEFAULT_GRID_POINTS
    ) -> "WavefunctionSpec":
        return cls(
            WavefunctionKind.BOX_EIGENSTATE,
            level=int(level),
            length=float(length),
            grid_points=int(grid_points),
        )

    @classmethod
    def from_samples(cls, samples: GridFunction) -> "WavefunctionSpec":
        return cls(WavefunctionKind.SAMPLES, samples=samples)


def realize_density(w: WavefunctionSpec) -> GridFunction:
    """Sample the density described by ``w`` onto its grid."""
    if w.kind is WavefunctionKind.SAMPLES:
        return w.samples
    if w.kind is WavefunctionKind.GAUSSIAN:
        if w.domain is not None:
            lo, hi = w.domain
        else:
            lo, hi = w.mu - 8.0 * w.sigma, w.mu + 8.0 * w.sigma
        xs = np.linspace(lo, hi, w.grid_points)
        z = (xs - w.mu) / w.sigma
        ys = np.exp(-0.5 * z * z) / (w.sigma * math.sqrt(2.0 * math.pi))
        return GridFunction(lo, hi, ys)
    xs = np.linspace(0.0, w.length, w.grid_points)
    ys = (2.0 / w.length) * np.sin(w.level * math.pi * xs / w.length) ** 2
    return GridFunction(0.0, w.length, ys)


@dataclass(frozen=True)
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

    def lines(self) -> list[str]:
        keys = (
            ("a", self.a),
            ("b", self.b),
            ("time", self.time),
            ("probability", self.probability),
            ("possibility", self.possibility),
            ("possibility_sugeno", self.possibility_sugeno),
            ("density_norm", self.density_norm),
            ("grid_tolerance", self.grid_tolerance),
        )
        return [f"{k} = {format_value(v)}" for k, v in keys]


def localize(
    w: WavefunctionSpec, a: float, b: float, time: float = 0.0
) -> LocalizationReport:
    """Probability and possibility of finding the particle in [a, b)."""
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    density = realize_density(w)
    if a < density.x_min or b > density.x_max:
        raise ValueError(
            f"interval [{a}, {b}) outside the domain "
            f"[{density.x_min}, {density.x_max}]"
        )
    window = IntervalSet.interval(a, b)
    probability = density.integral_over(window)
    density_norm = density.integral_over(density.full_span())
    pi = density.scaled_by_max()
    pi_measure = MeasureSpec.possibilistic(pi)
    possibility = measure_of(pi_measure, window)
    possibility_sugeno = sugeno_integral(pi, window, pi_measure)
    return LocalizationReport(
        a=a,
        b=b,
        time=float(time),
        probability=probability,
        possibility=possibility,
        possibility_sugeno=possibility_sugeno,
        density_norm=density_norm,
        grid_tolerance=grid_tolerance(pi),
    )


def localization_sweep(
    w: WavefunctionSpec, a: float, b: float, steps: int = 200
) -> list[tuple[float, float, float, float]]:
    """Rows (a, x, probability, possibility) for x sweeping from a to b.

    The density and its possibility rescaling are realized once and every
    window [a, x) is measured against them, which is what a plot of
    additive vs possibilistic localization wants.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    density = realize_density(w)
    if a < density.x_min or b > density.x_max:
        raise ValueError(
            f"interval [{a}, {b}) outside the domain "
            f"[{density.x_min}, {density.x_max}]"
        )
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
