import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vagueq import IntervalSet, union_all
from oracles import contains_point, issubset, total_length


def test_constructor_validates_order_and_disjointness():
    IntervalSet(((0.0, 1.0), (1.0, 2.0)))  # touching is a valid encoding
    with pytest.raises(ValueError):
        IntervalSet(((0.0, 1.0), (0.5, 2.0)))
    with pytest.raises(ValueError):
        IntervalSet(((1.0, 1.0),))
    with pytest.raises(ValueError):
        IntervalSet(((2.0, 1.0),))
    with pytest.raises(ValueError):
        IntervalSet(((0.0, float("inf")),))
    with pytest.raises(ValueError, match=r"^interval bounds must be finite, got \[nan, 1.0\)$"):
        IntervalSet(((math.nan, 1.0),))


def test_from_pairs_merges_touching_and_overlapping():
    s = IntervalSet.from_pairs([(1.0, 2.0), (0.0, 1.0)])
    assert s.intervals == ((0.0, 2.0),)
    s = IntervalSet.from_pairs([(0.0, 1.5), (1.0, 2.0), (3.0, 3.0)])
    assert s.intervals == ((0.0, 2.0),)
    assert IntervalSet.from_pairs([(2.0, 1.0), (-0.0, 0.0)]).is_empty


def test_from_pairs_refuses_a_nan_end_as_the_constructor_does():
    nan, inf = math.nan, math.inf
    # a NaN end compares false both ways: it is refused, never dropped as an
    # empty piece nor merged into its neighbour; an infinite end is refused
    # on an empty piece as on a non-empty one
    for pairs, text in (
        ([(nan, 1.0)], "[nan, 1.0)"),
        ([(0.0, 1.0), (0.5, nan)], "[0.5, nan)"),
        ([(0.0, 1.0), (nan, nan)], "[nan, nan)"),
        ([(inf, inf)], "[inf, inf)"),
        ([(0.0, 1.0), (5.0, -inf)], "[5.0, -inf)"),
        ([(-inf, -inf), (0.0, 1.0)], "[-inf, -inf)"),
        ([(-inf, -5.0)], "[-inf, -5.0)"),
    ):
        want = f"interval bounds must be finite, got {text}"
        with pytest.raises(ValueError) as caught:
            IntervalSet.from_pairs(pairs)
        assert str(caught.value) == want
        # union_all reads each part's pieces and canonicalizes them the same way
        with pytest.raises(ValueError) as caught:
            union_all([IntervalSet.interval(2.0, 3.0), SimpleNamespace(intervals=pairs)])
        assert str(caught.value) == want


def test_intersection_and_union():
    a = IntervalSet(((0.0, 2.0),))
    b = IntervalSet(((1.0, 3.0),))
    assert a.intersection(b).intervals == ((1.0, 2.0),)
    assert union_all([a, b]).intervals == ((0.0, 3.0),)
    assert a.intersection(IntervalSet()).is_empty
    assert IntervalSet(((0.0, 1.0), (2.0, 2.5))).span() == (0.0, 2.5)


bounds = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def interval_sets(draw, max_pieces=4):
    pieces = draw(
        st.lists(st.tuples(bounds, bounds), min_size=0, max_size=max_pieces)
    )
    return IntervalSet.from_pairs(
        [(min(lo, hi), max(lo, hi)) for lo, hi in pieces]
    )


@given(interval_sets(), interval_sets())
def test_union_covers_both_operands(a, b):
    u = union_all([a, b])
    assert issubset(a, u) and issubset(b, u)
    # at every piece end, where half-openness decides, x is in u iff in a or b
    for x in np.ravel(a.intervals + b.intervals).tolist():
        assert contains_point(u, x) == (contains_point(a, x) or contains_point(b, x))


@given(interval_sets(), interval_sets())
def test_intersection_is_inside_both(a, b):
    i = a.intersection(b)
    assert issubset(i, a) and issubset(i, b)
    for x in np.ravel(a.intervals + b.intervals).tolist():
        assert contains_point(i, x) == (contains_point(a, x) and contains_point(b, x))


@given(interval_sets(), interval_sets())
def test_inclusion_exclusion_of_lengths(a, b):
    lhs = total_length(union_all([a, b])) + total_length(a.intersection(b))
    rhs = total_length(a) + total_length(b)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_union_all_of_nothing_is_empty():
    assert union_all([]).is_empty
    assert IntervalSet().span() is None
