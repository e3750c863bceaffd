import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vagueq import (
    FiniteFuzzySet,
    GridFunction,
    IntervalSet,
    MeasureSpec,
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
    write_grade_table,
    write_grid_csv,
    write_table_measure,
)
from vagueq.fuzzy import _BLOCK, GRADE_SLACK, _FEW_POINTS

from oracles import (
    cumulative_at_loop,
    integral_over_loop,
    max_over_loop,
    neumaier_prefix_oracle,
    value_at_loop,
)

grades = st.floats(0.0, 1.0, allow_nan=False)
# cell counts at the seams of the blocked prefix pass
SEAM_CELLS = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK + 1)


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
    with pytest.raises(ValueError, match=r"expected 2 grades, got shape \(1,\)"):
        FiniteFuzzySet(("a", "b"), [0.1])


def test_grade_of_names_an_unknown_label():
    assert fs(0.1, 0.2).grade_of("x2") == 0.2
    with pytest.raises(ValueError, match="label 'x3' not in universe"):
        fs(0.1, 0.2).grade_of("x3")


def test_vectorized_grades_match_the_as_grade_loop_bit_for_bit():
    rng = np.random.default_rng(5)
    edges = np.array([0.0, -0.0, 1.0, 1e-300, -1e-300, -1e-12, 1.0 + 1e-12,
                      -5e-13, 1.0 + 5e-13, np.nextafter(1.0, 2.0)])
    for n in (1, 2, 7, 300):
        for _ in range(20):
            raw = rng.uniform(-1e-12, 1.0 + 1e-12, size=n)
            edge = rng.random(n) < 0.3
            raw[edge] = rng.choice(edges, size=int(edge.sum()))
            loop = np.array([as_grade(v) for v in raw])
            got = FiniteFuzzySet(tuple(f"x{i}" for i in range(n)), raw).grades
            assert got.tobytes() == loop.tobytes()
    assert np.signbit(fs(-0.0).grades[0])


def test_bad_grade_is_named_as_a_plain_float():
    for bad, shown in ((1.5, "1.5"), (-1e-11, "-1e-11"), (math.nan, "nan"),
                       (math.inf, "inf")):
        with pytest.raises(ValueError, match=rf"^grade {shown} lies outside"):
            fs(0.5, bad, 2.0)


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

    def refusal(samples) -> str:
        with pytest.raises(ValueError) as caught:
            GridFunction(0.0, 1.0, samples)
        return str(caught.value)

    below = -2.0 * GRADE_SLACK
    # a non-finite sample is named first, whatever else is wrong
    for bad in (math.nan, math.inf, -math.inf):
        for samples in ([0.5, bad], [bad, 0.5, below], [below, bad], [bad, -1e300, 1e300]):
            assert refusal(samples) == "samples must all be finite", samples
    assert refusal([math.nan, math.inf, -math.inf]) == "samples must all be finite"
    assert refusal([0.5, below, 0.25]) == f"samples must be non-negative, min is {below}"
    assert refusal([-1e308, 1e308]) == "samples must be non-negative, min is -1e+308"
    assert refusal([1e308, 1.7e308]) == "samples exceed half the largest float: 1.7e+308"
    # within the slack a negative sample is clamped; lists and float32 read as float64
    assert GridFunction(0.0, 1.0, [-0.5 * GRADE_SLACK, 0.5]).samples.tolist() == [0.0, 0.5]
    assert GridFunction(0.0, 1.0, [1, 0.25, 2]).samples.tolist() == [1.0, 0.25, 2.0]
    f32 = GridFunction(0.0, 1.0, np.array([0.1, 0.7], dtype=np.float32)).samples
    assert f32.dtype == np.float64 and f32.tolist() == [float(np.float32(0.1)), float(np.float32(0.7))]
    assert refusal(np.array([0.1, -0.5], dtype=np.float32)) == "samples must be non-negative, min is -0.5"
    assert refusal(np.array([0.1, np.nan], dtype=np.float32)) == "samples must all be finite"
    # a span of the largest float: linspace's last k * step rounds past hi,
    # and the nodes it keeps are finite, with the last one at hi
    half = sys.float_info.max / 2.0
    wide = GridFunction(-half, half, np.full(4, 1e-300))
    assert np.all(np.isfinite(wide.nodes)) and wide.nodes[-1] == half


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
    assert f.max_over(IntervalSet()) == 0.0


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
        # plateaus at zero, where a cumsum that skipped the leading 0.0 would
        # keep a -0.0 that the sequential loop turns into +0.0
        lambda n: np.where(np.arange(n) % 7 < 4, -0.0, rng.random(n)),
        lambda n: np.where(np.arange(n) % 5 < 2, 0.0, rng.random(n)),
        lambda n: np.concatenate((np.full(n // 2, -0.0), rng.random(n - n // 2))),
        lambda n: np.concatenate((rng.random(n // 2), np.full(n - n // 2, -0.0))),
    )
    sizes = (2, 3, 101, 5000, *(cells + 1 for cells in SEAM_CELLS))
    cases = [(shape(n), n) for shape in shapes for n in sizes]
    cases += [(np.array(pair), 2) for pair in
              ([-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [0.0, 0.0], [-0.0, 1.0], [1.0, -0.0])]
    cases.append((rng.random(300_000), 300_000))
    # a zero run and a single spike across each seam: cell seam - 1 ends one
    # block, cell seam starts the next, and sample seam lies in both
    n = 3 * _BLOCK + 100
    for seam in (_BLOCK, 2 * _BLOCK, 3 * _BLOCK):
        zeros = rng.random(n)
        zeros[seam - 40 : seam + 40] = np.where(np.arange(80) % 3, 0.0, -0.0)
        spike = rng.random(n) * 1e-6
        spike[seam] = 1e6
        cases += [(zeros, n), (spike, n)]
    lead = rng.random(n)
    lead[: _BLOCK + 40] = -0.0  # the plain sum is still +0.0 at the first seam
    cases.append((lead, n))
    for samples, n in cases:
        lo = float(rng.normal() * 10.0 ** rng.uniform(-3, 3))
        hi = lo + float(10.0 ** rng.uniform(-3, 3))
        f = GridFunction(lo, hi, samples)
        # built on the first read, unless the integral may come near overflow
        eager = (hi - lo) * float(np.max(samples)) >= 2.0**1000
        assert ("_prefix" in vars(f)) == eager, n
        got = f._prefix
        assert got.tobytes() == neumaier_prefix_oracle(lo, hi, samples).tobytes(), n
        assert got.flags.writeable is False and f._prefix is got


@given(
    span_exp=st.integers(-20, 1023),
    total_exp=st.integers(990, 1040),
    span_mant=st.floats(1.0, 2.0, exclude_max=True),
    top_mant=st.floats(1.0, 2.0, exclude_max=True),
    shares=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    centered=st.booleans(),
    cells=st.sampled_from((None, *SEAM_CELLS)),
)
def test_overflow_refusal_matches_the_sequential_prefix(
    span_exp, total_exp, span_mant, top_mant, shares, centered, cells
):
    # span * max straddles the 2**1000 bound below which the prefix is built
    # lazily, up to the largest float; samples at most half the largest float.
    # With a cell count, the shares repeat over that many cells.
    top_exp = min(total_exp - span_exp, 1022)
    span = math.ldexp(span_mant, span_exp)
    top = math.ldexp(top_mant, top_exp)
    lo = -span / 2.0 if centered else 0.0
    hi = lo + span
    shares = shares + [1.0]
    samples = np.resize(shares, len(shares) if cells is None else cells + 1) * top
    with np.errstate(over="ignore", invalid="ignore"):
        want = neumaier_prefix_oracle(lo, hi, samples)
    if math.isfinite(want[-1]):
        assert GridFunction(lo, hi, samples)._prefix.tobytes() == want.tobytes()
    else:
        with pytest.raises(ValueError, match="^the integral of the samples overflows$"):
            GridFunction(lo, hi, samples)


def test_grid_rejects_an_overflowing_integral_and_span():
    with pytest.raises(ValueError, match="half the largest float"):
        GridFunction(0.0, 10.0, [1e308, 1.7e308, 1e308])
    with pytest.raises(ValueError, match="half the largest float"):
        GridFunction(0.0, 1.0, [1e308, 0.0])  # its reading y_k + y(x) overflows
    with pytest.raises(ValueError, match="overflows"):
        GridFunction(0.0, 1e308, [10.0, 10.0])
    with pytest.raises(ValueError, match="finite"):
        GridFunction(-1e308, 1e308, [1.0, 1.0])


def _reading_cases(rng):
    """Seeded grids with points and interval sets to read them at: nodes,
    domain ends, points and piece ends inside the 1e-12 span slack.  Besides
    random spans, grids offset by 1e10, a few hundred ulps wide (where
    linspace rounds the nodes) and with a subnormal spacing; events of 1 up to
    twice the pieces read in Python floats, so both readings are met."""
    shapes = (
        lambda n: rng.random(n),
        lambda n: np.round(rng.random(n) * 3.0) / 3.0,  # plateaus
        lambda n: np.where(rng.random(n) < 0.4, -0.0, rng.random(n)),
        lambda n: np.where(rng.random(n) < 0.4, 0.0, rng.random(n) * 1e300),
        lambda n: rng.random(n) * 1e-310,  # subnormal
    )
    edges = (
        (1e10, 1e10 + 7.0), (-1e10, -1e10 + 1e-3),
        (1.0, 1.0 + 300 * math.ulp(1.0)), (1e10, 1e10 + 400 * math.ulp(1e10)),
        (0.0, 1e-310), (-0.0, 1e-312),  # spacing 1e-312 and 2.5e-313
    )
    for shape in shapes:
        spans = [(float(rng.choice([0.0, -0.0, -1.0, 1e-3, -123.456])),
                  float(rng.choice([1.0, 2.5, 1e-6, 1000.0])), n) for n in (2, 3, 101, 20001)]
        spans = [(lo, lo + width, n) for lo, width, n in spans]
        spans += [(lo, hi, n) for lo, hi in edges for n in (2, 101)]
        for lo, hi, n in spans:
            f = GridFunction(lo, hi, shape(n))
            slack = 1e-12 * max(1.0, hi - lo)
            points = np.concatenate((
                f.nodes[rng.integers(0, n, 6)],
                lo + (hi - lo) * rng.random(30),
                [lo, hi, -0.0, lo - 0.5 * slack, hi + 0.5 * slack],
            ))
            points = [float(x) for x in points if lo - slack <= x <= hi + slack]
            distinct = np.unique(points)
            events = [IntervalSet(), IntervalSet.interval(lo - 0.5 * slack, hi + 0.5 * slack)]
            for pieces in range(1, _FEW_POINTS + 1):
                cuts = sorted(rng.choice(points, 2 * pieces, replace=True))
                events.append(IntervalSet.from_pairs(zip(cuts[::2], cuts[1::2])))
                if 2 * pieces <= distinct.size:  # exactly that many pieces
                    cuts = np.sort(rng.choice(distinct, 2 * pieces, replace=False)).tolist()
                    events.append(IntervalSet.from_pairs(zip(cuts[::2], cuts[1::2])))
            yield f, points, events


def _same_reading(few, array) -> bool:
    """``_read_few``'s lists and ``_read``'s arrays hold the same bits."""
    return (np.array(few[0], dtype=float).tobytes() == array[0].tobytes()
            and few[1] == array[1].tolist()
            and np.array(few[2], dtype=float).tobytes() == array[2].tobytes())


def test_array_reading_matches_the_scalar_loop_bit_for_bit():
    for f, points, events in _reading_cases(np.random.default_rng(2006)):
        values = [value_at_loop(f, x) for x in points]
        cumulative = [cumulative_at_loop(f, x) for x in points]
        assert [repr(f.value_at(x)) for x in points] == [repr(v) for v in values]
        assert [repr(f.cumulative_at(x)) for x in points] == [repr(c) for c in cumulative]
        assert f._read(points)[2].tobytes() == np.array(values).tobytes()
        assert f._cumulative(points).tobytes() == np.array(cumulative).tobytes()
        assert _same_reading(f._read_few(points), f._read(points))
        for a in events:
            assert repr(f.integral_over(a)) == repr(integral_over_loop(f, a)), a
            assert repr(f.max_over(a)) == repr(max_over_loop(f, a)), a
            ends = np.ravel(a.intervals)
            assert _same_reading(f._read_few(ends), f._read(ends)), a
            few = np.array(f._cumulative_few(ends), dtype=float)
            assert few.tobytes() == f._cumulative(ends).tobytes(), a


def test_a_read_of_a_few_pieces_takes_no_array_pass(monkeypatch):
    f = GridFunction(0.0, 1.0, np.random.default_rng(5).random(101))

    def event(pieces: int) -> IntervalSet:
        ends = np.linspace(0.013, 0.987, 2 * pieces).tolist()
        return IntervalSet.from_pairs(zip(ends[::2], ends[1::2]))

    def refuse(self, xs):
        raise AssertionError(f"an array pass over {len(xs)} points")

    monkeypatch.setattr(GridFunction, "_read", refuse)
    f.value_at(0.5)
    f.cumulative_at(0.5)
    for pieces in range(1, _FEW_POINTS // 2 + 1):
        f.integral_over(event(pieces))
        f.max_over(event(pieces))
    many = event(_FEW_POINTS // 2 + 1)
    for read in (f.integral_over, f.max_over):
        with pytest.raises(AssertionError, match=f"^an array pass over {_FEW_POINTS + 2} points$"):
            read(many)


def test_a_point_reads_as_the_array_reading_reads_it():
    f = GridFunction(0.0, 2.0, [0.0, 1.0, 0.5])
    # float32 arithmetic would read np.float32(0.1) as 0.1 in float32
    assert f.value_at(np.float32(0.1)) == 0.10000000149011612
    for x in (1, True, False, np.int64(2), np.float32(0.1), np.float64(0.7), "0.25", " 1.5 "):
        for read, array in ((f.value_at, f._read(x)[2]), (f.cumulative_at, f._cumulative(x))):
            got = read(x)
            assert type(got) is float and repr(got) == repr(float(array)), (x, read)


def test_array_reading_rejects_a_point_past_the_slack():
    f = GridFunction(0.0, 2.0, [0.0, 1.0, 0.0])
    for x, shown in ((-1e-11, "-1e-11"), (2.0 + 1e-11, "2.00000000001"), (math.nan, "nan"),
                     (math.inf, "inf"), (-math.inf, "-inf"), (3, "3.0"), ("-1", "-1.0")):
        for read in (f.value_at, f.cumulative_at, lambda x: f._read([1.0, x])):
            with pytest.raises(ValueError, match=rf"^point {shown} outside grid span \[0.0, 2.0\]$"):
                read(x)


# --- text formats ------------------------------------------------------------

def test_fuzzy_set_round_trip(tmp_path):
    original = fs(0.25, 1.0, 0.0, labels=("low", "mid", "häufig"))
    path = tmp_path / "set.txt"
    write_fuzzy_set(original, path)
    assert read_fuzzy_set(path) == original


def _label_writers(label):
    """Each label writer, called on a small input keyed by ``label`` and "c"."""
    table = {(): 0.0, (label,): 0.5, ("c",): 0.5, (label, "c"): 1.0}
    return {
        "fuzzy set": lambda path: write_fuzzy_set(fs(0.5, 1.0, labels=(label, "c")), path),
        "table": lambda path: write_table_measure(
            MeasureSpec.from_table((label, "c"), table), path
        ),
        "grade table": lambda path: write_grade_table({label: 0.5, "c": 1.0}, path),
    }


def test_fuzzy_set_writer_rejects_labels_that_would_not_read_back(tmp_path):
    path = tmp_path / "set.txt"
    refused = {label: ("fuzzy set", "table", "grade table")
               for label in ("#a", " b", "b ", "\tb", "a\nb", "a\rb")}
    refused.update({"": ("table",), "{}": ("table",), "a|b": ("table",),
                    "|": ("table",), "ε": ("grade table",)})
    for label, kinds in refused.items():
        for kind, write in _label_writers(label).items():
            if kind in kinds:
                with pytest.raises(ValueError, match=re.escape(repr(label))):
                    write(path)
                assert not path.exists(), (label, kind)
            else:  # the other formats take it
                write(path)
                path.unlink()


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


def test_fuzzy_set_read_names_the_line_of_a_duplicate_or_nan(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("a,0.5\n# note\nb,1\na,0.2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"set\.txt:4: duplicate label 'a'"):
        read_fuzzy_set(path)
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"a,1\nb,{bad}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"set\.txt:2: cannot parse grade '{bad}'"):
            read_fuzzy_set(path)
    path.write_text("x1,0.5\nx2,1.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"set\.txt:2: grade 1\.5 lies outside \[0, 1\]"):
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


def test_grid_csv_takes_the_nodes_to_a_billionth_step_or_one_ulp(tmp_path):
    path = tmp_path / "grid.csv"
    # the library's own grids read back bit for bit where one ulp of x
    # exceeds a billionth of a step, which a mean-step test refused
    for mu in (100.0, 1e4, 1e8):
        f = GridFunction(mu - 8e-4, mu + 8e-4, np.linspace(0.0, 1.0, 10001))
        write_grid_csv(f, path)
        g = read_grid_csv(path)
        assert (g.x_min, g.x_max) == (f.x_min, f.x_max)
        assert g.samples.tobytes() == f.samples.tobytes()
    # grids built as x0 + k*h pass; one node moved by 10x the bound fails
    for x0, h in ((0.0, 0.01), (-3.0, 1e-7), (1e8, 1e-6)):
        xs = x0 + np.arange(101) * h
        step = (xs[-1] - xs[0]) / 100
        bound = max(1e-9 * step, float(np.spacing(max(abs(xs[0]), abs(xs[-1])))))
        path.write_text("x,value\n" + "".join(f"{x!r},1.0\n" for x in xs.tolist()),
                        encoding="utf-8")
        assert read_grid_csv(path).samples.tolist() == [1.0] * 101
        xs[50] += 10 * bound
        path.write_text("x,value\n" + "".join(f"{x!r},1.0\n" for x in xs.tolist()),
                        encoding="utf-8")
        with pytest.raises(ValueError, match="not uniformly spaced"):
            read_grid_csv(path)


def test_grid_refuses_nodes_that_are_not_increasing_floats():
    for lo, hi, n in ((0.0, 5e-324, 101), (1e10 - 8e-4, 1e10 + 8e-4, 10001)):
        message = f"{n} nodes are not strictly increasing floats in [{lo}, {hi}]"
        with pytest.raises(ValueError, match=re.escape(message)):
            GridFunction(lo, hi, np.ones(n))
    assert GridFunction(0.0, 5e-324, [1.0, 1.0]).spacing == 5e-324


def test_functions_on_one_grid_share_one_read_only_nodes_array(tmp_path):
    f = GridFunction(-1.0, 2.0, np.linspace(0.0, 1.0, 7))
    g = GridFunction(-1.0, 2.0, np.ones(7))
    assert f.nodes is g.nodes and not f.nodes.flags.writeable
    assert GridFunction(-1.0, 2.0, np.ones(8)).nodes is not f.nodes
    assert f.scaled_by_max().nodes is f.nodes
    # -0.0 == 0.0, yet each grid keeps its own last node's sign, whichever is
    # built first, and writes the CSV its np.linspace nodes write
    path = tmp_path / "grid.csv"
    for ends in ((0.0, -0.0), (-0.0, 0.0)):
        grids = [GridFunction(-1.0, end, np.ones(3)) for end in ends]
        for end, grid in zip(ends, grids):
            assert math.copysign(1.0, grid.nodes[-1]) == math.copysign(1.0, end)
            write_grid_csv(grid, path)
            rows = "".join(f"{x!r},1.0\n" for x in np.linspace(-1.0, end, 3).tolist())
            assert path.read_bytes() == ("x,value\n" + rows).encode()
    # a refused grid's nodes are not kept: while the first refusal's traceback
    # still holds them, a second try is refused again
    with pytest.raises(ValueError, match="not strictly increasing") as refused:
        GridFunction(0.0, 5e-324, np.ones(101))
    with pytest.raises(ValueError, match="not strictly increasing"):
        GridFunction(0.0, 5e-324, np.ones(101))
    assert refused.value


def test_grid_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("a,b\n0.0,1.0\n1.0,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_grid_csv(path)
    path.write_text("x,value\n0.0,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="need at least 2 rows"):
        read_grid_csv(path)


def test_grid_csv_names_the_line_of_an_unparsable_number(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("x,value\n0.0,1.0\n1.0,abc\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"grid\.csv:3: cannot parse"):
        read_grid_csv(path)


def test_grid_csv_skips_comment_lines(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("# sampled by hand\nx,value\n0.0,1.0\n# midpoint\n\n1.0,0.5\n"
                    "2.0,0.0\n", encoding="utf-8")
    g = read_grid_csv(path)
    assert (g.x_min, g.x_max) == (0.0, 2.0)
    assert g.samples.tolist() == [1.0, 0.5, 0.0]


def test_grid_csv_needs_a_finite_increasing_x_column(tmp_path):
    path = tmp_path / "grid.csv"
    for xs, line in (("0,nan,2", 3), ("0,1,inf", 4), ("-inf,0,1", 2)):
        path.write_text("x,value\n" + "".join(f"{x},1\n" for x in xs.split(",")),
                        encoding="utf-8")
        with pytest.raises(ValueError, match=rf"grid\.csv:{line}: cannot parse x"):
            read_grid_csv(path)
    path.write_text("x,value\n0,1\n1,nan\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"grid\.csv:3: cannot parse value 'nan'"):
        read_grid_csv(path)
    # a span or a neighbouring difference that overflows is rejected before
    # any arithmetic; pytest turns a RuntimeWarning into an error
    for xs in ("-1e308,0,1e308", "-1e308,1e308,0", "2,1,0", "0,0,0"):
        path.write_text("x,value\n" + "".join(f"{x},1\n" for x in xs.split(",")),
                        encoding="utf-8")
        with pytest.raises(ValueError, match="strictly increasing over a finite span"):
            read_grid_csv(path)
