"""Closed-form values the benchmark checks vagueq's outputs against.

Nothing here calls vagueq: every reference comes from the formula of
the underlying function (a Gaussian or a box eigenstate density, a
Gaussian membership) or from a direct evaluation of the definition.
"""

from __future__ import annotations

import math

SQRT2 = math.sqrt(2.0)
SQRT2PI = math.sqrt(2.0 * math.pi)


def gauss_prob(mu: float, sigma: float, lo: float, hi: float) -> float:
    """Normal(mu, sigma) probability of [lo, hi)."""
    return 0.5 * (
        math.erf((hi - mu) / (sigma * SQRT2)) - math.erf((lo - mu) / (sigma * SQRT2))
    )


def gauss_sup(mu: float, sigma: float, lo: float, hi: float) -> float:
    """Supremum of exp(-(x - mu)^2 / (2 sigma^2)) over [lo, hi]."""
    if lo <= mu <= hi:
        return 1.0
    d = min(abs(lo - mu), abs(hi - mu)) / sigma
    return math.exp(-0.5 * d * d)


def box_prob(level: int, length: float, lo: float, hi: float) -> float:
    """Integral of (2/L) sin^2(n pi x / L) over [lo, hi)."""
    k = level * math.pi / length

    def antiderivative(x: float) -> float:
        return (x - math.sin(2.0 * k * x) / (2.0 * k)) / length

    return antiderivative(hi) - antiderivative(lo)


def box_sup(level: int, length: float, lo: float, hi: float) -> float:
    """Supremum of sin^2(n pi x / L) over [lo, hi]; peaks sit at
    x = (j + 1/2) L / n."""
    j = math.ceil(lo * level / length - 0.5)
    if (j + 0.5) * length / level <= hi:
        return 1.0
    k = level * math.pi / length
    return max(math.sin(k * lo) ** 2, math.sin(k * hi) ** 2)


def membership_cut(height: float, center: float, width: float, alpha: float):
    """{x : height * exp(-((x - center)/width)^2 / 2) >= alpha} as (lo, hi),
    or None when alpha exceeds the height."""
    if alpha > height:
        return None
    z = math.sqrt(2.0 * math.log(height / alpha))
    return center - width * z, center + width * z


def sup_min_gaussians(pieces, height, center, width, mu, sigma) -> float:
    """sup over the closure of ``pieces`` of min(f, pi) with
    f = height * exp(-((x-center)/width)^2/2), pi = exp(-((x-mu)/sigma)^2/2).

    min(f, pi) peaks only at a piece end, at the peak of whichever
    function is the smaller one there, or where f = pi; the crossings
    solve a quadratic in x (log f = log pi).
    """

    def f(x):
        return height * math.exp(-0.5 * ((x - center) / width) ** 2)

    def p(x):
        return math.exp(-0.5 * ((x - mu) / sigma) ** 2)

    qa = 0.5 / sigma**2 - 0.5 / width**2
    qb = -mu / sigma**2 + center / width**2
    qc = 0.5 * mu**2 / sigma**2 - 0.5 * center**2 / width**2 + math.log(height)
    roots: list[float] = []
    if abs(qa) <= 1e-14 / sigma**2:
        if qb != 0.0:
            roots.append(-qc / qb)
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc >= 0.0:
            s = math.sqrt(disc)
            roots += [(-qb - s) / (2.0 * qa), (-qb + s) / (2.0 * qa)]
    best = 0.0
    for lo, hi in pieces:
        xs = [lo, hi] + [x for x in (center, mu, *roots) if lo <= x <= hi]
        best = max(best, max(min(f(x), p(x)) for x in xs))
    return best


def sugeno_additive_gaussian(pieces, height, center, width, mu, sigma) -> float:
    """sup_alpha min(alpha, P(pieces & {f >= alpha})) for the Normal(mu,
    sigma) law and the Gaussian membership f, by bisection on the fixed
    point alpha = P(...): the probability is continuous and
    non-increasing in alpha, so the sup is that fixed point."""

    def g(alpha: float) -> float:
        cut = membership_cut(height, center, width, alpha)
        if cut is None:
            return 0.0
        return math.fsum(
            gauss_prob(mu, sigma, max(lo, cut[0]), min(hi, cut[1]))
            for lo, hi in pieces
            if max(lo, cut[0]) < min(hi, cut[1])
        )

    lo, hi = 0.0, height
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) >= mid:
            lo = mid
        else:
            hi = mid
    return lo


def sugeno_sorted_value(values, measure_of_prefix) -> float:
    """Sorted-value Sugeno integral: walk the values downward, growing the
    top set one index at a time, and keep max of min(value, mu(top)).

    ``values`` is a sequence of (index, value); ``measure_of_prefix`` maps
    a bitmask of indices to the measure of that set.
    """
    best = 0.0
    mask = 0
    for index, value in sorted(values, key=lambda iv: iv[1], reverse=True):
        mask |= 1 << index
        best = max(best, min(value, measure_of_prefix(mask)))
    return best
