import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vagueq import (
    FiniteFuzzySet,
    GridFunction,
    IntervalSet,
    TNormKind,
    as_grade,
    fuzzy_complement,
    fuzzy_intersection,
    fuzzy_union,
    height,
    is_normalized,
    read_fuzzy_set,
    read_grid_csv,
    write_fuzzy_set,
    write_grid_csv,
)

from oracles import neumaier_prefix_oracle

grades = st.floats(0.0, 1.0, allow_nan=False)


def fs(*values, labels=None):
    labels = labels or tuple(f"x{i}" for i in range(1, len(values) + 1))
    return FiniteFuzzySet(labels, np.array(values, dtype=float))


# --- grades ------------------------------------------------------------------

def test_grade_accepts_unit_interval_and_clamps_slack():
    assert as_grade(0.0) == 0.0
    assert as_grade(1.0) == 1.0
    assert as_grade(-1e-13) == 0.0
    assert as_grade(1.0 + 1e-13) == 1.0


def test_grade_rejects_out_of_range():
    with pytest.raises(ValueError):
        as_grade(1.2)
    with pytest.raises(ValueError):
        as_grade(-0.1)
    with pytest.raises(ValueError):
        as_grade(float("nan"))


# --- t-norm oracles, worked by hand before the operations existed ------------

def test_union_product_pair_is_probabilistic_sum():
    # 0.3 + 0.7 - 0.3*0.7 = 0.79
    a, b = fs(0.3), fs(0.7)
    out = fuzzy_union(a, b, TNormKind.PRODUCT)
    assert float(out.grades[0]) == pytest.approx(0.79, abs=1e-15)


def test_intersection_lukasiewicz_clips_at_zero():
    # max(0, 0.3 + 0.7 - 1) = 0
    a, b = fs(0.3), fs(0.7)
    out = fuzzy_intersection(a, b, TNormKind.LUKASIEWICZ)
    assert float(out.grades[0]) == 0.0


def test_minimum_pair_matches_pointwise_min_max():
    a = fs(0.2, 0.8, 1.0)
    b = fs(0.5, 0.4, 0.0)
    assert np.array_equal(
        fuzzy_union(a, b).grades, np.array([0.5, 0.8, 1.0])
    )
    assert np.array_equal(
        fuzzy_intersection(a, b).grades, np.array([0.2, 0.4, 0.0])
    )


def test_complement_is_one_minus():
    a = fs(0.3, 1.0, 0.0)
    assert np.array_equal(fuzzy_complement(a).grades, np.array([0.7, 0.0, 1.0]))


def test_fuzzy_midpoint_violates_excluded_middle():
    # A(x) = 0.5: min(A, 1-A) = 0.5, not 0 -- the law of contradiction fails
    a = fs(0.5)
    meet = fuzzy_intersection(a, fuzzy_complement(a))
    assert float(meet.grades[0]) == 0.5


def test_universe_mismatch_names_first_differing_label():
    a = fs(0.1, 0.2, labels=("p", "q"))
    b = fs(0.1, 0.2, labels=("p", "r"))
    with pytest.raises(ValueError, match="position 1.*'q'.*'r'"):
        fuzzy_union(a, b)


def test_universe_length_mismatch_is_reported():
    a = fs(0.1, labels=("p",))
    b = fs(0.1, 0.2, labels=("p", "q"))
    with pytest.raises(ValueError, match="length"):
        fuzzy_union(a, b)


def test_height_and_normalization():
    assert height(fs(0.2, 0.9)) == 0.9
    assert not is_normalized(fs(0.2, 0.9))
    assert is_normalized(fs(0.2, 1.0))
    assert is_normalized(fs(0.2, 0.9), tol=0.1)
    with pytest.raises(ValueError):
        is_normalized(fs(0.5), tol=-1.0)


def test_constructor_rejects_bad_grades_and_duplicates():
    with pytest.raises(ValueError):
        fs(1.5)
    with pytest.raises(ValueError):
        FiniteFuzzySet(("a", "a"), [0.1, 0.2])
    with pytest.raises(ValueError):
        FiniteFuzzySet((), [])


# --- algebraic properties ----------------------------------------------------

@given(st.lists(st.tuples(grades, grades), min_size=1, max_size=8))
def test_de_morgan_under_min_max(pairs):
    """Complement swaps union and intersection for the min/max pair."""
    a = fs(*(p[0] for p in pairs))
    b = fs(*(p[1] for p in pairs))
    lhs = fuzzy_complement(fuzzy_union(a, b))
    rhs = fuzzy_intersection(fuzzy_complement(a), fuzzy_complement(b))
    assert np.array_equal(lhs.grades, rhs.grades)


# grades from uniform RNGs are multiples of 2**-53, a set closed under
# 1 - x in double precision; only such grades can round-trip the
# complement bit-exactly (doubles with ulp below 2**-53 lose a bit)
lattice_grades = st.integers(0, 2**53).map(lambda k: k / 2**53)


@given(st.lists(lattice_grades, min_size=1, max_size=8))
def test_involution_is_exact_on_uniform_rng_grades(values):
    a = fs(*values)
    assert fuzzy_complement(fuzzy_complement(a)) == a


@given(st.lists(grades, min_size=1, max_size=8))
def test_involution_within_one_ulp_and_idempotence(values):
    a = fs(*values)
    back = fuzzy_complement(fuzzy_complement(a)).grades
    # the intermediate 1 - x lies near 1, so the round-trip error is
    # bounded by a half ulp at 1, not by an ulp of x itself
    assert np.all(np.abs(back - a.grades) <= 2.0**-53)
    assert fuzzy_union(a, a) == a
    assert fuzzy_intersection(a, a) == a


@given(
    st.lists(st.tuples(grades, grades), min_size=1, max_size=8),
    st.sampled_from(list(TNormKind)),
)
def test_tnorm_below_tconorm_pointwise(pairs, kind):
    a = fs(*(p[0] for p in pairs))
    b = fs(*(p[1] for p in pairs))
    meet = fuzzy_intersection(a, b, kind).grades
    join = fuzzy_union(a, b, kind).grades
    low = np.minimum(a.grades, b.grades)
    high = np.maximum(a.grades, b.grades)
    assert np.all(meet <= low + 1e-12)
    assert np.all(join >= high - 1e-12)
    assert np.all(meet >= -1e-12) and np.all(join <= 1.0 + 1e-12)


# --- grid functions ----------------------------------------------------------

def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(1.0, 0.0, [0.0, 1.0])
    with pytest.raises(ValueError):
        GridFunction(0.0, 1.0, [0.5])
    with pytest.raises(ValueError):
        GridFunction(0.0, 1.0, [0.5, -0.5])
    with pytest.raises(ValueError):
        GridFunction(0.0, 1.0, [0.5, float("nan")])


def test_grid_height_of_gaussian_samples_is_one():
    xs = np.linspace(-8.0, 8.0, 10001)
    f = GridFunction(-8.0, 8.0, np.exp(-0.5 * xs * xs))
    assert abs(float(f.samples.max()) - 1.0) <= 1e-12


def test_value_at_interpolates_linearly():
    f = GridFunction(0.0, 2.0, [0.0, 1.0, 0.0])
    assert f.value_at(0.5) == 0.5
    assert f.value_at(1.0) == 1.0
    assert f.value_at(1.25) == 0.75
    assert f.value_at(2.0) == 0.0
    with pytest.raises(ValueError):
        f.value_at(2.5)


def test_max_over_includes_interpolated_endpoints():
    f = GridFunction(0.0, 2.0, [0.0, 1.0, 0.0])
    assert f.max_over(IntervalSet.interval(0.0, 0.5)) == 0.5
    assert f.max_over(IntervalSet.interval(0.25, 1.75)) == 1.0
    assert f.max_over(IntervalSet.empty()) == 0.0


def test_prefix_is_bit_identical_to_the_sequential_neumaier_loop():
    rng = np.random.default_rng(2005)
    shapes = (
        lambda n: rng.random(n),
        lambda n: np.zeros(n),
        lambda n: np.full(n, -0.0),
        lambda n: np.where(rng.random(n) < 0.3, -0.0, rng.random(n)),
        lambda n: rng.random(n) * 1e-310,  # subnormal
        lambda n: np.full(n, rng.random()),
        lambda n: rng.random(n) * 1e300,
        lambda n: rng.random(n) * 1e-300,
        lambda n: np.exp(rng.normal(size=n) * 20.0),
        lambda n: rng.random(n) - 5e-13,  # slack below zero, clamped
    )
    cases = [(shape(n), n) for shape in shapes for n in (2, 3, 101, 5000)]
    cases.append((rng.random(300_000), 300_000))
    for samples, n in cases:
        lo = float(rng.normal() * 10.0 ** rng.uniform(-3, 3))
        hi = lo + float(10.0 ** rng.uniform(-3, 3))
        got = GridFunction(lo, hi, samples)._prefix
        assert got.tobytes() == neumaier_prefix_oracle(lo, hi, samples).tobytes(), n


def test_grid_rejects_an_overflowing_integral_and_span():
    with pytest.raises(ValueError, match="overflows"):
        GridFunction(0.0, 10.0, [1e308, 1.7e308, 1e308])
    with pytest.raises(ValueError, match="finite"):
        GridFunction(-1e308, 1e308, [1.0, 1.0])


# --- text formats ------------------------------------------------------------

def test_fuzzy_set_round_trip(tmp_path):
    original = fs(0.25, 1.0, 0.0, labels=("low", "mid", "häufig"))
    path = tmp_path / "set.txt"
    write_fuzzy_set(original, path)
    assert read_fuzzy_set(path) == original


def test_fuzzy_set_read_skips_comments(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("# header\nfoo,0.5\n\nbar,1\n", encoding="utf-8")
    out = read_fuzzy_set(path)
    assert out.universe == ("foo", "bar")
    assert np.array_equal(out.grades, np.array([0.5, 1.0]))


def test_fuzzy_set_read_rejects_garbage(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("foo\n", encoding="utf-8")
    with pytest.raises(ValueError, match="label,grade"):
        read_fuzzy_set(path)


def test_grid_csv_round_trip_is_exact(tmp_path):
    xs = np.linspace(-2.0, 3.0, 501)
    f = GridFunction(-2.0, 3.0, np.exp(-xs * xs))
    path = tmp_path / "grid.csv"
    write_grid_csv(f, path)
    g = read_grid_csv(path)
    assert g.x_min == f.x_min and g.x_max == f.x_max
    assert np.array_equal(g.samples, f.samples)


def test_grid_csv_rejects_nonuniform_spacing(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("x,value\n0.0,1.0\n0.5,1.0\n2.0,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="uniform"):
        read_grid_csv(path)


def test_grid_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("a,b\n0.0,1.0\n1.0,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_grid_csv(path)


def test_grid_csv_names_the_line_of_an_unparsable_number(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("x,value\n0.0,1.0\n1.0,abc\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"grid\.csv:3: cannot parse"):
        read_grid_csv(path)
