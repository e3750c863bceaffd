import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vagueq import (
    FiniteFuzzySet,
    GridFunction,
    IntervalSet,
    MeasureSpec,
    alpha_cut,
    alpha_cut_finite,
    grid_tolerance,
    measure_of,
    sugeno_integral,
)
from vagueq import integrals

from oracles import sugeno_bruteforce_oracle


def triangle() -> GridFunction:
    # nodes 0, 1, 2 -> values 0, 1, 0
    return GridFunction(0.0, 2.0, [0.0, 1.0, 0.0])


def normal_density(lo=-8.0, hi=8.0, n=10001) -> GridFunction:
    xs = np.linspace(lo, hi, n)
    return GridFunction(lo, hi, np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi))


def worked_instance():
    f = FiniteFuzzySet(("x1", "x2", "x3"), [0.2, 0.5, 0.9])
    pi = FiniteFuzzySet(("x1", "x2", "x3"), [1.0, 0.6, 0.3])
    return f, MeasureSpec.possibilistic(pi)


# --- alpha cuts ---------------------------------------------------------------

def test_triangle_cut_is_interpolated_crossing():
    cut = alpha_cut(triangle(), 0.5)
    assert cut.cut.intervals == ((0.5, 1.5),)
    assert cut.alpha == 0.5
    assert not cut.strict


def test_cut_at_zero_is_full_domain():
    cut = alpha_cut(triangle(), 0.0)
    assert cut.cut.intervals == ((0.0, 2.0),)


def test_cut_above_max_is_empty():
    assert alpha_cut(triangle(), 1.5).cut.is_empty


def test_strict_cut_excludes_plateau():
    plateau = GridFunction(0.0, 3.0, [0.0, 1.0, 1.0, 0.0])
    assert alpha_cut(plateau, 1.0, strict=True).cut.is_empty
    assert alpha_cut(plateau, 1.0).cut.intervals == ((1.0, 2.0),)


def test_cut_splits_into_disjoint_pieces():
    # two bumps: 0,1,0,1,0 on [0,4]
    bumps = GridFunction(0.0, 4.0, [0.0, 1.0, 0.0, 1.0, 0.0])
    cut = alpha_cut(bumps, 0.5)
    assert cut.cut.intervals == ((0.5, 1.5), (2.5, 3.5))


def test_cut_rejects_negative_alpha():
    with pytest.raises(ValueError, match="alpha"):
        alpha_cut(triangle(), -0.1)


def test_finite_cut_thresholds_grades():
    f = FiniteFuzzySet(("x1", "x2", "x3"), [0.2, 0.5, 0.9])
    assert alpha_cut_finite(f, 0.5).cut == frozenset({"x2", "x3"})
    assert alpha_cut_finite(f, 0.5, strict=True).cut == frozenset({"x3"})
    assert alpha_cut_finite(f, 0.0).cut == frozenset({"x1", "x2", "x3"})


# --- Lebesgue quadrature ------------------------------------------------------

def test_constant_function_integrates_exactly():
    ones = GridFunction(0.0, 1.0, np.ones(101))
    assert ones.integral_over(IntervalSet.interval(0.0, 1.0)) == 1.0
    assert ones.integral_over(IntervalSet.empty()) == 0.0


def test_normal_mass_on_central_interval():
    mass = normal_density().integral_over(IntervalSet.interval(-1.0, 1.0))
    assert abs(mass - math.erf(1.0 / math.sqrt(2.0))) <= 1e-4


def test_additive_over_disjoint_interval_sets():
    f = normal_density()
    rng = np.random.default_rng(11)
    for _ in range(100):
        b = np.sort(rng.uniform(-8.0, 8.0, size=4))
        left = IntervalSet.interval(b[0], b[1])
        right = IntervalSet.interval(b[2], b[3])
        both = IntervalSet.from_pairs([(b[0], b[1]), (b[2], b[3])])
        assert abs(
            f.integral_over(both)
            - f.integral_over(left)
            - f.integral_over(right)
        ) <= 1e-12


def test_interval_outside_span_is_an_error():
    with pytest.raises(ValueError, match="span"):
        triangle().integral_over(IntervalSet.interval(1.0, 3.0))


def test_quadrature_error_shrinks_at_second_order():
    # window chosen so the h^2 error term does not cancel (f' differs at
    # the endpoints); exact mass from the error function
    exact = 0.5 * (math.erf(2.0 / math.sqrt(2.0)) + math.erf(1.0 / math.sqrt(2.0)))
    errors = []
    for n in (51, 101, 201):
        xs = np.linspace(-1.0, 2.0, n)
        f = GridFunction(-1.0, 2.0, np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi))
        errors.append(abs(f.integral_over(f.full_span()) - exact))
    for coarse, fine in zip(errors, errors[1:]):
        order = math.log2(coarse / fine)
        assert 1.8 <= order <= 2.2


# --- grid tolerance -----------------------------------------------------------

def test_grid_tolerance_tracks_slope_and_spacing():
    # triangle: h = 1, steepest discrete slope = 1 -> 2 * 1 * 1
    assert grid_tolerance(triangle()) == 2.0
    # flat function bottoms out at the floor
    assert grid_tolerance(GridFunction(0.0, 1.0, [0.3, 0.3])) == 1e-6
    dense = normal_density()
    assert 1e-6 < grid_tolerance(dense) < 2e-3


# --- Sugeno integral, finite --------------------------------------------------

def test_worked_instance_is_exactly_half():
    # candidate alphas 0.2, 0.5, 0.9 give min(alpha, Pi(F_alpha)) of
    # 0.2, 0.5, 0.3; the sup is 0.5
    f, m = worked_instance()
    assert sugeno_integral(f, None, m) == 0.5


def test_oracle_agrees_on_worked_instance():
    f, m = worked_instance()
    # 0.5 sits on the alpha grid when the spacing divides it
    assert abs(sugeno_bruteforce_oracle(f, None, m, grid=90001) - 0.5) <= 1e-9


def test_constant_function_integrates_to_its_level():
    labels = ("x1", "x2")
    f = FiniteFuzzySet(labels, [0.7, 0.7])
    m = MeasureSpec.possibilistic(FiniteFuzzySet(labels, [1.0, 0.4]))
    assert sugeno_integral(f, None, m) == 0.7


def test_restriction_to_subset():
    f, m = worked_instance()
    # over {x2, x3}: candidates min(0.9, 0.3) and min(0.5, 0.6) -> 0.5
    assert sugeno_integral(f, ["x2", "x3"], m) == 0.5
    # over {x3} alone: min(0.9, 0.3) -> 0.3
    assert sugeno_integral(f, ["x3"], m) == 0.3
    assert sugeno_integral(f, [], m) == 0.0


def test_table_measure_path():
    labels = ("a", "b")
    f = FiniteFuzzySet(labels, [0.9, 0.4])
    m = MeasureSpec.from_table(
        labels, {(): 0.0, ("a",): 0.6, ("b",): 0.2, ("a", "b"): 1.0}
    )
    # candidates: min(0.9, mu({a})=0.6) = 0.6, min(0.4, mu({a,b})=1) = 0.4
    assert sugeno_integral(f, None, m) == 0.6


def test_possibility_self_integration_is_exact_for_finite():
    rng = np.random.default_rng(5)
    labels = tuple(f"e{i}" for i in range(6))
    for _ in range(100):
        g = rng.random(6)
        g[rng.integers(6)] = 1.0
        pi = FiniteFuzzySet(labels, g)
        m = MeasureSpec.possibilistic(pi)
        a = [l for l in labels if rng.random() < 0.6]
        assert sugeno_integral(pi, a, m) == measure_of(m, a)


def test_domain_mismatches_are_errors():
    f, m = worked_instance()
    other = MeasureSpec.possibilistic(FiniteFuzzySet(("y1",), [1.0]))
    with pytest.raises(ValueError, match="universe"):
        sugeno_integral(f, None, other)
    with pytest.raises(ValueError, match="outside"):
        sugeno_integral(f, ["zz"], m)
    with pytest.raises(ValueError, match="finite"):
        sugeno_integral(f, None, MeasureSpec.additive(triangle()))
    with pytest.raises(ValueError, match="grid measure"):
        sugeno_integral(triangle(), IntervalSet.interval(0.0, 1.0), m)
    with pytest.raises(ValueError, match="IntervalSet"):
        sugeno_integral(triangle(), ["x1"], m)
    with pytest.raises(ValueError, match="FiniteFuzzySet or GridFunction"):
        sugeno_integral([0.5], None, m)


# --- Sugeno integral, oracle equivalence ---------------------------------------

def random_finite_instance(rng, n):
    labels = tuple(f"e{i}" for i in range(n))
    f = FiniteFuzzySet(labels, rng.random(n))
    pi_grades = rng.random(n)
    pi_grades[rng.integers(n)] = 1.0
    m = MeasureSpec.possibilistic(FiniteFuzzySet(labels, pi_grades))
    a = [l for l in labels if rng.random() < 0.7] or None
    return f, a, m


def test_oracle_sandwich_on_random_instances():
    # the oracle samples alpha on a uniform grid, so it can undershoot the
    # true sup by at most one spacing and can never overshoot
    rng = np.random.default_rng(2024)
    for _ in range(50):
        f, a, m = random_finite_instance(rng, int(rng.integers(1, 9)))
        exact = sugeno_integral(f, a, m)
        grid = 2001
        approx = sugeno_bruteforce_oracle(f, a, m, grid=grid)
        spacing = float(f.grades.max()) / (grid - 1)
        assert -1e-12 <= exact - approx <= spacing + 1e-12


def test_oracle_matches_tightly_at_fine_grids():
    rng = np.random.default_rng(31)
    for _ in range(10):
        f, a, m = random_finite_instance(rng, 8)
        v1 = sugeno_integral(f, a, m)
        v2 = sugeno_bruteforce_oracle(f, a, m, grid=1_000_001)
        assert abs(v1 - v2) <= 1e-6


def test_oracle_zero_function_and_guards():
    labels = ("a", "b")
    f = FiniteFuzzySet(labels, [0.0, 0.0])
    m = MeasureSpec.possibilistic(FiniteFuzzySet(labels, [1.0, 0.5]))
    assert sugeno_bruteforce_oracle(f, None, m) == 0.0
    big = tuple(f"e{i}" for i in range(17))
    fbig = FiniteFuzzySet(big, np.linspace(0.1, 0.9, 17))
    with pytest.raises(ValueError, match="at most 16"):
        sugeno_bruteforce_oracle(fbig, None, m)
    with pytest.raises(ValueError, match="at least 2"):
        sugeno_bruteforce_oracle(f, None, m, grid=1)


# --- Sugeno integral, monotonicity and bounds -----------------------------------

def test_monotone_in_the_integrand():
    rng = np.random.default_rng(77)
    labels = tuple(f"e{i}" for i in range(5))
    for _ in range(300):
        low = rng.random(5)
        high = np.minimum(1.0, low + rng.random(5) * (1.0 - low))
        pi = rng.random(5)
        pi[rng.integers(5)] = 1.0
        m = MeasureSpec.possibilistic(FiniteFuzzySet(labels, pi))
        v_low = sugeno_integral(FiniteFuzzySet(labels, low), None, m)
        v_high = sugeno_integral(FiniteFuzzySet(labels, high), None, m)
        assert v_low <= v_high + 1e-12


def test_monotone_in_the_event():
    rng = np.random.default_rng(78)
    labels = tuple(f"e{i}" for i in range(6))
    for _ in range(300):
        f, _, m = random_finite_instance(rng, 6)
        small = [l for l in labels if rng.random() < 0.4]
        extra = [l for l in labels if l not in small and rng.random() < 0.5]
        assert (
            sugeno_integral(f, small, m)
            <= sugeno_integral(f, small + extra, m) + 1e-12
        )


def test_bounded_by_sup_and_measure():
    rng = np.random.default_rng(79)
    for _ in range(200):
        f, a, m = random_finite_instance(rng, 7)
        v = sugeno_integral(f, a, m)
        cap = min(
            float(f.grades.max()),
            measure_of(m, list(f.universe) if a is None else a),
        )
        assert -1e-12 <= v <= cap + 1e-12


# --- Sugeno integral, grid path -------------------------------------------------

def test_grid_self_integration_fixed_point():
    pi = normal_density().scaled_by_max()
    m = MeasureSpec.possibilistic(pi)
    # the full span has possibility exactly 1
    full = pi.full_span()
    assert abs(sugeno_integral(pi, full, m) - 1.0) <= 1e-9
    # a tail interval: possibility is the value at the inner edge
    tail = IntervalSet.interval(2.0, 3.0)
    target = measure_of(m, tail)
    assert abs(sugeno_integral(pi, tail, m) - target) <= 1e-9


def test_grid_fixed_point_over_random_intervals():
    pi = normal_density(n=2001).scaled_by_max()
    m = MeasureSpec.possibilistic(pi)
    tol = grid_tolerance(pi)
    rng = np.random.default_rng(123)
    for _ in range(50):
        b = np.sort(rng.uniform(-8.0, 8.0, size=2))
        a = IntervalSet.interval(b[0], b[1])
        assert abs(sugeno_integral(pi, a, m) - measure_of(m, a)) <= tol


def test_grid_integral_with_additive_measure():
    # f = 1 everywhere, mu additive with total mass 1: g(alpha) = 1 for
    # alpha <= 1, so the sup of min(alpha, 1) over alpha in [0, 1] is 1
    ones = GridFunction(-8.0, 8.0, np.ones(10001))
    m = MeasureSpec.additive(normal_density())
    v = sugeno_integral(ones, ones.full_span(), m)
    assert abs(v - 1.0) <= 1e-9


def test_grid_integral_empty_event_is_zero():
    pi = normal_density(n=101).scaled_by_max()
    m = MeasureSpec.possibilistic(pi)
    assert sugeno_integral(pi, IntervalSet.empty(), m) == 0.0


def test_grid_bisection_ends_when_levels_outgrow_the_tolerance(monkeypatch):
    # g(alpha) = 1e8 - alpha / 2 crosses the identity at 2e8 / 3, where
    # adjacent floats lie ~1.5e-8 apart, wider than BISECTION_TOL; the
    # bisection must stop once no float is left between its ends
    f = GridFunction(0.0, 1.0, np.linspace(0.0, 2e8, 1001))
    m = MeasureSpec.additive(GridFunction(0.0, 1.0, np.full(1001, 1e8)))
    cuts = []
    original = integrals.alpha_cut
    monkeypatch.setattr(
        integrals, "alpha_cut", lambda *a: cuts.append(a) or original(*a)
    )
    value = sugeno_integral(f, IntervalSet.interval(0.0, 1.0), m)
    assert math.isclose(value, 2e8 / 3, rel_tol=1e-12)
    assert len(cuts) <= 66  # one cut per halving of [0, 2e8] to one ulp, plus two


@pytest.mark.parametrize("n", [5, 50, 300])
def test_finite_possibility_sugeno_is_sup_min(n):
    # for a possibility measure the Sugeno integral is sup min(f, pi)
    # over the event (Dubois & Prade), exactly, with no rounding step
    rng = np.random.default_rng(n)
    labels = tuple(f"e{i}" for i in range(n))
    for _ in range(20):
        f = rng.random(n)
        pi = rng.random(n)
        pi[rng.integers(n)] = 1.0
        mask = rng.random(n) < 0.5
        m = MeasureSpec.possibilistic(FiniteFuzzySet(labels, pi))
        event = [l for l, keep in zip(labels, mask) if keep]
        got = sugeno_integral(FiniteFuzzySet(labels, f), event, m)
        want = float(np.max(np.minimum(f, pi)[mask])) if mask.any() else 0.0
        assert got == want
