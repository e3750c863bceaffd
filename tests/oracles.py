"""Reference implementations the tests compare the library against."""

from __future__ import annotations

import numpy as np

from vagueq import FiniteFuzzySet, MeasureSpec, measure_of

MAX_ORACLE_UNIVERSE = 16


def sugeno_bruteforce_oracle(
    f: FiniteFuzzySet, a, m: MeasureSpec, grid: int = 100001
) -> float:
    """Direct evaluation of sup min(alpha, mu(a intersect {f >= alpha}))
    on a dense uniform alpha grid over [0, max f].

    Deliberately naive: no sorting, no crossing argument.  Off by at most
    one grid spacing from the true supremum, it exists to cross-check
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
    ids = np.zeros(alphas.size, dtype=np.int64)
    for k in range(len(f.universe)):
        if a_mask[k]:
            ids |= (f.grades[k] >= alphas).astype(np.int64) << k
    # a label's bit turns off once as alpha rises, so ids never increase
    # and each distinct id is one contiguous run
    starts = np.concatenate(([0], np.flatnonzero(ids[1:] != ids[:-1]) + 1))
    mu_runs = np.array(
        [
            measure_of(
                m,
                [f.universe[k] for k in range(len(f.universe)) if uid & (1 << k)],
            )
            for uid in ids[starts]
        ]
    )
    mu = np.repeat(mu_runs, np.diff(np.append(starts, ids.size)))
    return float(np.max(np.minimum(alphas, mu)))


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
