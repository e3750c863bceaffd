import math
from itertools import combinations

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

from oracles import alpha_cut_loop, sugeno_bruteforce_oracle, sugeno_grid_bisection_oracle


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


def test_cut_matches_the_per_run_loop_bit_for_bit():
    rng = np.random.default_rng(1709)
    for n in (2, 3, 7, 101, 2000):
        xs = np.linspace(-8.0, 8.0, n)
        for y in (np.exp(-0.5 * xs * xs), rng.random(n), np.zeros(n),
                  np.round(4.0 * rng.random(n)) / 4.0):
            for lo, hi in ((-8.0, 8.0), (-1e-300, 1e-300), (0.0, 1e6)):
                f = GridFunction(lo, hi, y)
                levels = [0.0, 0.25, float(y.max()), *rng.choice(y, 4), *rng.random(3)]
                for alpha in levels:
                    for strict in (False, True):
                        got = alpha_cut(f, alpha, strict).cut
                        assert got == alpha_cut_loop(f, float(alpha), strict), (n, alpha)


def test_cut_crossing_stays_finite_where_the_interpolation_product_overflows():
    # (alpha - y0) * h = 2.9e8 * 1e300 overflows; the crossing still lies
    # 29/30 of the way up the rising cell and 1/30 down the falling one
    rising = GridFunction(0.0, 1e300, [0.0, 3e8])
    assert alpha_cut(rising, 2.9e8).cut.intervals == ((9.666666666666667e299, 1e300),)
    falling = GridFunction(0.0, 1e300, [3e8, 0.0])
    assert alpha_cut(falling, 2.9e8).cut.intervals == ((0.0, 3.3333333333333335e298),)


def test_cut_within_an_event_is_the_full_cut_intersected_with_it():
    # only the cells covering the event's span are cut; the result must be
    # the full cut intersected with the event, bit for bit, on tiny, huge
    # and one-ulp-per-cell spans too
    rng = np.random.default_rng(1710)
    spans = ((-8.0, 8.0), (0.0, 5e-323), (1.0, 1.0 + 2.0 ** -46), (-1e300, 1e300), (-3.0, -0.0))
    for lo, hi in spans:
        for n in (2, 3, 7, 40):
            if n > 2 and hi == 5e-323:
                continue  # fewer floats than nodes: the grid refuses it
            # huge samples only where the span keeps their integral finite
            y = rng.random(n) * float(rng.choice([1.0, 1e300 if hi - lo < 1e3 else 1.0, 1e-300]))
            f = GridFunction(lo, hi, np.round(4.0 * y / y.max()) / 4.0 * y.max() if n % 2 else y)
            pool = np.concatenate((f.nodes, rng.uniform(lo, hi, 6)))
            for _ in range(60):
                pts = np.sort(rng.choice(pool, 2 * int(rng.integers(1, 4))))
                within = IntervalSet.from_pairs(zip(pts[::2].tolist(), pts[1::2].tolist()))
                for alpha in (0.0, float(rng.choice(f.samples)), float(rng.random() * f.samples.max())):
                    for strict in (False, True):
                        got = alpha_cut(f, alpha, strict, within)
                        want = alpha_cut(f, alpha, strict).cut.intersection(within)
                        assert got.cut == want, (lo, hi, n, alpha, within)
                        assert (got.alpha, got.strict) == (alpha, strict)
    # the crossing on the cell before the event rounds 3 ulps past its right
    # node, the event's left end: the cut must start there, not at the node
    f = GridFunction(-1.0760154925818752, 2.5726352315939045,
                     [0.2600974477372232, 0.592941018104284, 0.592941018104284])
    within = IntervalSet.interval(float(f.nodes[1]), f.x_max)
    got = alpha_cut(f, 0.592941018104284, False, within).cut
    assert got.intervals == ((0.7483098695060149, 2.5726352315939045),)
    assert got.intervals[0][0] > f.nodes[1]
    assert alpha_cut(triangle(), 0.5, False, IntervalSet.empty()).cut.is_empty
    with pytest.raises(ValueError, match="alpha"):
        alpha_cut(triangle(), -0.1, False, IntervalSet.empty())


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
    # a subnormal step: the spacing cancels, so no overflow to inf
    assert grid_tolerance(GridFunction(0.0, 5e-324, [0.0, 1.0])) == 2.0
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
    # the measure's labels must equal f's as a set: a superset is refused,
    # a permutation is the same universe
    wider = ("x1", "x2", "x3", "x4")
    with pytest.raises(ValueError, match="universe"):
        sugeno_integral(f, None, MeasureSpec.possibilistic(
            FiniteFuzzySet(wider, [1.0, 0.6, 0.3, 0.2])))
    with pytest.raises(ValueError, match="universe"):
        sugeno_integral(f, None, MeasureSpec.from_table(
            wider, {s: float(len(s) > 0) for k in range(5) for s in combinations(wider, k)}))
    permuted = MeasureSpec.possibilistic(FiniteFuzzySet(("x3", "x1", "x2"), [0.3, 1.0, 0.6]))
    assert sugeno_integral(f, None, permuted) == sugeno_integral(f, None, m) == 0.5
    with pytest.raises(ValueError, match="outside"):
        sugeno_integral(f, ["zz"], m)
    with pytest.raises(ValueError, match="finite"):
        sugeno_integral(f, None, MeasureSpec.additive(triangle()))
    # the measure's domain is checked before the event, so the error never
    # depends on the event
    for event in (None, ("x1",), ("zz",), IntervalSet.interval(0.0, 1.0)):
        with pytest.raises(ValueError, match="needs a finite"):
            sugeno_integral(f, event, MeasureSpec.additive(triangle()))
    abc = ("a", "b", "c")
    table = MeasureSpec.from_table(
        abc, {s: len(s) / 3 for k in range(4) for s in combinations(abc, k)})
    with pytest.raises(ValueError, match="different universes"):
        sugeno_integral(FiniteFuzzySet(("a", "b"), [0.5, 1.0]), ("c",), table)
    with pytest.raises(ValueError, match="grid measure"):
        sugeno_integral(triangle(), IntervalSet.interval(0.0, 1.0), m)
    with pytest.raises(ValueError, match="grid measure"):
        sugeno_integral(triangle(), IntervalSet.interval(0.0, 1.0), MeasureSpec.from_table(
            ("x1",), {(): 0.0, ("x1",): 1.0}))
    with pytest.raises(ValueError, match="finite"):
        sugeno_integral(f, None, MeasureSpec.possibilistic(triangle()))
    with pytest.raises(ValueError, match="IntervalSet"):
        sugeno_integral(triangle(), ["x1"], m)
    with pytest.raises(ValueError, match="FiniteFuzzySet or GridFunction"):
        sugeno_integral([0.5], None, m)


@pytest.mark.parametrize("grid", [False, True], ids=["finite", "grid"])
@pytest.mark.parametrize("m", [None, 0.5, {"x1": 1.0}], ids=["None", "float", "dict"])
def test_sugeno_refuses_a_non_measure(m, grid):
    f, a = (triangle(), IntervalSet.interval(0.0, 1.0)) if grid else (worked_instance()[0], None)
    with pytest.raises(ValueError, match=f"m must be a measure, got {type(m).__name__}$"):
        sugeno_integral(f, a, m)


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


def test_additive_grid_sugeno_returns_early_without_bisecting(monkeypatch):
    cuts = []
    original = integrals.alpha_cut
    monkeypatch.setattr(
        integrals, "alpha_cut", lambda *a: cuts.append(a) or original(*a)
    )
    m = MeasureSpec.additive(normal_density())
    window = IntervalSet.interval(-1.0, 1.0)
    zero, tenth = (GridFunction(-8.0, 8.0, np.full(10001, v)) for v in (0.0, 0.1))
    # nothing to cut: an empty event or f = 0 is 0
    assert sugeno_integral(tenth, IntervalSet.empty(), m) == 0.0
    assert sugeno_integral(zero, window, m) == 0.0
    assert cuts == []
    # g(max f) = mu([-1, 1)) = 0.68 >= 0.1 = max f: the top level, after one cut
    assert sugeno_integral(tenth, window, m) == 0.1
    assert len(cuts) == 1


def test_additive_grid_sugeno_checks_its_event_without_integrating_over_it(monkeypatch):
    # the event is checked by reading its ends, not by a full measure of it
    # that is thrown away: no integral inside the route is over the event itself
    f = normal_density(n=2001).scaled_by_max()
    m = MeasureSpec.additive(normal_density())
    a = IntervalSet.from_pairs([(-3.0, -1.5), (-1.0, 1.0), (2.0, 2.5)])
    want = sugeno_integral(f, a, m)
    events = []
    original = GridFunction.integral_over
    monkeypatch.setattr(
        GridFunction, "integral_over", lambda self, e: events.append(e) or original(self, e)
    )
    assert sugeno_integral(f, a, m) == want
    assert events and all(e is not a for e in events)


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
    assert 2 < len(cuts) <= 66  # one cut per halving of [0, 2e8] to one ulp, plus two


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


# --- grid Sugeno, the sup-min route of possibility measures ----------------------

def _random_pieces(rng, lo, hi, nodes=None):
    # 1-4 pieces in [lo, hi]; with ``nodes``, every piece end is a node
    k = int(rng.integers(1, 5))
    if nodes is None:
        pts = np.sort(rng.uniform(lo, hi, 2 * k))
    else:
        pts = np.sort(rng.choice(nodes, 2 * k, replace=False))
    return IntervalSet.from_pairs(
        [(float(x), float(y)) for x, y in zip(pts[::2], pts[1::2]) if x < y]
    )


def test_possibility_grid_sugeno_matches_the_bisection_oracle():
    rng = np.random.default_rng(4242)
    for trial in range(80):
        lo = float(rng.uniform(-3.0, 0.0))
        hi = lo + float(rng.uniform(0.5, 5.0))
        n = int(rng.integers(2, 400))
        xs = np.linspace(lo, hi, n)
        if trial % 2:
            ps = np.exp(-(((xs - rng.uniform(lo, hi)) / rng.uniform(0.1, 2.0)) ** 2))
            ps /= ps.max()
        else:
            ps = rng.random(n)
            ps[rng.integers(n)] = 1.0
        pi = GridFunction(lo, hi, ps)
        scale = float(rng.choice([0.5, 1.0, 3.0]))
        if trial % 3 == 0:  # the same grid
            f = GridFunction(lo, hi, rng.random(n) * scale)
        else:  # a wider span and another size
            f = GridFunction(lo - rng.uniform(0.0, 1.0), hi + rng.uniform(0.0, 1.0),
                             rng.random(int(rng.integers(2, 400))) * scale)
        m = MeasureSpec.possibilistic(pi)
        events = [
            _random_pieces(rng, lo, hi),
            _random_pieces(rng, lo, hi, nodes=pi.nodes) if n >= 8 else pi.full_span(),
            pi.full_span(),
            IntervalSet.empty(),
        ]
        for a in events:
            want = sugeno_grid_bisection_oracle(f, a, m)
            assert abs(sugeno_integral(f, a, m) - want) <= 1e-10, (trial, a)


def test_possibility_grid_sugeno_makes_no_alpha_cut(monkeypatch):
    cuts = []
    original = integrals.alpha_cut
    monkeypatch.setattr(integrals, "alpha_cut", lambda *a: cuts.append(a) or original(*a))
    pi = normal_density(n=2001).scaled_by_max()
    f = GridFunction(-8.0, 8.0, np.linspace(0.0, 1.0, 2001))
    off_peak = IntervalSet.interval(1.0, 3.0)
    sugeno_integral(f, off_peak, MeasureSpec.possibilistic(pi))
    sugeno_integral(pi, off_peak, MeasureSpec.possibilistic(pi))
    assert cuts == []
    sugeno_integral(f, off_peak, MeasureSpec.additive(normal_density(n=2001)))
    assert len(cuts) > 2  # the additive route still bisects


def test_additive_grid_sugeno_matches_the_bisection_oracle(monkeypatch):
    # seeded densities and integrands, with flat cells and plateaus at a
    # level (samples rounded to quarters), on shared and different grids
    cuts = []
    original = integrals.alpha_cut
    monkeypatch.setattr(integrals, "alpha_cut", lambda *a: cuts.append(a) or original(*a))
    rng = np.random.default_rng(4343)
    for trial in range(80):
        lo = float(rng.uniform(-3.0, 0.0))
        hi = lo + float(rng.uniform(0.5, 5.0))
        n = int(rng.integers(2, 400))
        xs = np.linspace(lo, hi, n)
        ds = np.exp(-(((xs - rng.uniform(lo, hi)) / rng.uniform(0.1, 2.0)) ** 2))
        ds *= float(rng.choice([0.3, 1.0, 5.0]))
        if trial % 4 == 0:  # flat cells
            ds = np.round(4.0 * ds) / 4.0
        rho = GridFunction(lo, hi, ds)
        scale = float(rng.choice([0.5, 1.0, 3.0]))
        if trial % 3 == 0:  # the same grid
            fs = rng.random(n) * scale
        else:  # a wider span and another size
            nf = int(rng.integers(2, 400))
            fs = rng.random(nf) * scale
            f_lo, f_hi = lo - rng.uniform(0.0, 1.0), hi + rng.uniform(0.0, 1.0)
        if trial % 2 == 0:  # plateaus exactly at a level
            fs = np.round(4.0 * fs) / 4.0
        f = GridFunction(lo, hi, fs) if trial % 3 == 0 else GridFunction(f_lo, f_hi, fs)
        m = MeasureSpec.additive(rho)
        ends = rng.choice(rho.nodes, 2 * int(rng.integers(1, 5)), replace=n < 8)
        ends[:2] = lo, hi  # piece ends at x_min and x_max
        events = [
            _random_pieces(rng, lo, hi),
            IntervalSet.from_pairs(zip(np.sort(ends)[::2].tolist(), np.sort(ends)[1::2].tolist())),
            rho.full_span(),
            IntervalSet.empty(),
        ]
        for a in events:
            cuts.clear()
            got = sugeno_integral(f, a, m)
            count = len(cuts)
            assert abs(got - sugeno_grid_bisection_oracle(f, a, m)) <= 2e-10, (trial, a)
            # at most ceil(log2(levels + 1)) + 3 cuts, the levels being at
            # most the piece ends and the nodes of both grids
            levels = 2 * len(a.intervals) + f.samples.size + rho.samples.size
            assert count <= math.ceil(math.log2(levels + 1)) + 3, (trial, count)

            def g(alpha):
                return measure_of(m, alpha_cut(f, alpha).cut.intersection(a))

            # the fixed-point sandwich, on the public cut and measure
            if got >= 1e-9:
                assert g(got - 1e-9) >= got - 1e-9, (trial, a)
            assert g(got + 1e-9) < got + 1e-9, (trial, a)


def test_additive_grid_sugeno_where_f_is_flat_to_a_few_ulps():
    # a level read off f between nodes is rounded; where f varies by a few
    # ulps, g drops by much within an ulp of such a level, so the last
    # bracket must not be solved from g at its ends
    rng = np.random.default_rng(12)
    for trial in range(60):
        base = float(rng.choice([1e-3, 0.5, 7.0]))
        ulps = rng.integers(0, 6, int(rng.integers(2, 100))) * float(rng.choice([1.0, 3.0, 1e3]))
        f = GridFunction(0.0, 1.0, base + ulps * np.spacing(base))
        ds = rng.random(int(rng.integers(2, 100))) * base * float(rng.choice([0.5, 2.0, 4.0]))
        m = MeasureSpec.additive(GridFunction(0.0, 1.0, ds))
        for a in (f.full_span(), IntervalSet.interval(0.2, 0.7)):
            want = sugeno_grid_bisection_oracle(f, a, m)
            assert abs(sugeno_integral(f, a, m) - want) <= 2e-10, (trial, a)


def test_additive_grid_sugeno_at_a_plateau_and_where_f_is_zero_on_the_event(monkeypatch):
    # f = 0.5 on [1, 3], rising to 0.9 at 4; rho = 1/4 on [0, 4].  At 0.5,
    # g = 0.75 >= 0.5; just above it only the last cell is left, g <= 0.25:
    # the integral is the plateau's level itself
    f = GridFunction(0.0, 4.0, [0.2, 0.5, 0.5, 0.5, 0.9])
    m = MeasureSpec.additive(GridFunction(0.0, 4.0, np.full(5, 0.25)))
    assert sugeno_integral(f, f.full_span(), m) == 0.5
    # f = 0 on the event but positive elsewhere: the integral is 0
    bump = GridFunction(0.0, 4.0, [0.0, 0.0, 0.0, 0.0, 0.9])
    assert sugeno_integral(bump, IntervalSet.interval(0.5, 3.0), m) == 0.0
    assert sugeno_integral(bump, IntervalSet.empty(), m) == 0.0
    # f in quarters: many nodes share each level, and no level is cut twice
    cuts = []
    original = integrals.alpha_cut
    monkeypatch.setattr(integrals, "alpha_cut", lambda *a: cuts.append(a[1]) or original(*a))
    quarters = GridFunction(0.0, 1.0, np.round(4.0 * np.random.default_rng(3).random(2001)) / 4.0)
    flat = MeasureSpec.additive(GridFunction(0.0, 1.0, np.full(2001, 0.3)))
    sugeno_integral(quarters, IntervalSet.interval(0.1, 0.9), flat)
    assert len(cuts) == len(set(cuts)) == 5


@pytest.mark.parametrize("route", ["possibilistic", "additive"])
def test_grid_sugeno_event_past_the_measure_span_raises_whatever_f(route):
    # pi lives on [-1, 1]; f on [-2, 2] is either narrow around 0 or flat, or
    # f is pi itself; the event has one piece, or more than the few-point
    # reader's 6
    pi = GridFunction(-1.0, 1.0, [0.0, 1.0, 0.0])
    m = getattr(MeasureSpec, route)(pi)
    xs = np.linspace(-2.0, 2.0, 401)
    narrow = GridFunction(-2.0, 2.0, np.exp(-(xs / 0.05) ** 2))
    flat = GridFunction(-2.0, 2.0, np.full(401, 0.8))
    many = IntervalSet.from_pairs([(-2.0, -1.5)] + [(x, x + 0.05) for x in np.linspace(-0.9, 0.9, 8)])
    for a in (IntervalSet.interval(-2.0, 2.0), many):
        for f in (narrow, flat, pi):
            with pytest.raises(ValueError, match=r"^point -2.0 outside grid span \[-1.0, 1.0\]$"):
                sugeno_integral(f, a, m)


def _events_of_up_to_ten_pieces(rng, pi):
    # 0-10 pieces, across the few-point reader's 6: ends drawn uniformly, on
    # nodes, and with the outer two inside the span slack
    lo, hi = pi.x_min, pi.x_max
    slack = 0.5e-12 * max(1.0, hi - lo)
    events = [IntervalSet.empty(), pi.full_span()]
    for pieces in range(1, 11):
        for ends in (rng.uniform(lo, hi, 2 * pieces), rng.choice(pi.nodes, 2 * pieces, replace=False),
                     np.concatenate(([lo - slack, hi + slack], rng.uniform(lo, hi, 2 * pieces - 2)))):
            ends = np.sort(ends).tolist()
            events.append(IntervalSet.from_pairs(zip(ends[::2], ends[1::2])))
    return events


def _possibility_distributions(rng):
    xs = np.linspace(-3.0, 5.0, 801)
    bump = np.exp(-(((xs - 0.7) / 0.4) ** 2))
    noisy = rng.random(257)
    noisy[rng.integers(257)] = 1.0
    return [
        normal_density(n=2001).scaled_by_max(),
        GridFunction(-3.0, 5.0, bump / bump.max()),
        GridFunction(1e10, 1e10 + 3.0, noisy),
        GridFunction(0.0, 1.0, np.where(np.arange(64) % 9 < 4, 0.0, 1.0)),
    ]


def test_pi_against_its_own_measure_is_the_sup_min_route_bit_for_bit():
    # f is pi itself: Pi(a), one max_over; a distinct copy of pi's samples
    # takes the sup-min route, and the two must agree to the bit
    rng = np.random.default_rng(2121)
    for pi in _possibility_distributions(rng):
        m = MeasureSpec.possibilistic(pi)
        copy = GridFunction(pi.x_min, pi.x_max, pi.samples)
        assert m.distribution is pi and copy is not pi
        for a in _events_of_up_to_ten_pieces(rng, pi):
            got, want = sugeno_integral(pi, a, m), sugeno_integral(copy, a, m)
            assert repr(got) == repr(want) and got == measure_of(m, a), (pi.x_min, a)


def test_a_clamped_distribution_takes_the_sup_min_route(monkeypatch):
    # a sup within 1e-9 above 1 is clamped into a new distribution, so the
    # original f is not pi and is read by the general route
    rng = np.random.default_rng(2122)
    samples = rng.random(300)
    samples[rng.integers(300)] = 1.0 + 5e-10
    f = GridFunction(0.0, 3.0, samples)
    m = MeasureSpec.possibilistic(f)
    assert m.distribution is not f and float(m.distribution.samples.max()) == 1.0
    events = _events_of_up_to_ten_pieces(rng, f)
    # min(f, min(f, 1)) is the clamped pi: both routes read Pi(a)
    want = [sugeno_integral(m.distribution, a, m) for a in events]
    reads = []
    read = GridFunction._read
    monkeypatch.setattr(GridFunction, "_read", lambda self, xs: reads.append(xs) or read(self, xs))
    for a, w in zip(events, want):
        reads.clear()
        assert repr(sugeno_integral(f, a, m)) == repr(w) == repr(measure_of(m, a)), a
        assert len(reads) >= 2, a  # the sup-min route's end reads of pi and f


def test_pi_against_its_own_measure_makes_no_array_read(monkeypatch):
    rng = np.random.default_rng(2123)
    pi = normal_density(n=2001).scaled_by_max()
    m = MeasureSpec.possibilistic(pi)
    events = [a for a in _events_of_up_to_ten_pieces(rng, pi) if len(a.intervals) <= 6]

    def refuse(self, xs):
        raise AssertionError("an array read")

    monkeypatch.setattr(GridFunction, "_read", refuse)
    for a in events:
        assert sugeno_integral(pi, a, m) == measure_of(m, a)
