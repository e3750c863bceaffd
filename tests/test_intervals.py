import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vagueq import IntervalSet, union_all


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


def test_from_pairs_merges_touching_and_overlapping():
    s = IntervalSet.from_pairs([(1.0, 2.0), (0.0, 1.0)])
    assert s.intervals == ((0.0, 2.0),)
    s = IntervalSet.from_pairs([(0.0, 1.5), (1.0, 2.0), (3.0, 3.0)])
    assert s.intervals == ((0.0, 2.0),)


def test_intersection_and_union():
    a = IntervalSet(((0.0, 2.0),))
    b = IntervalSet(((1.0, 3.0),))
    assert a.intersection(b).intervals == ((1.0, 2.0),)
    assert a.union(b).intervals == ((0.0, 3.0),)
    assert a.intersection(IntervalSet.empty()).is_empty


def test_total_length_and_membership():
    s = IntervalSet(((0.0, 1.0), (2.0, 2.5)))
    assert s.total_length() == 1.5
    assert s.contains_point(0.0)
    assert not s.contains_point(1.0)  # half-open
    assert s.contains_point(2.25)
    assert s.span() == (0.0, 2.5)


def test_issubset():
    inner = IntervalSet(((0.25, 0.5), (0.6, 0.7)))
    outer = IntervalSet(((0.0, 1.0),))
    assert inner.issubset(outer)
    assert not outer.issubset(inner)
    assert IntervalSet.empty().issubset(inner)
    # touching pieces encode the same set as their merge
    whole = IntervalSet.interval(0.0, 2.0)
    halves = IntervalSet(((0.0, 1.0), (1.0, 2.0)))
    assert whole.issubset(halves) and halves.issubset(whole)
    assert not IntervalSet(((0.0, 1.0), (1.0, 2.5))).issubset(whole)


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
    u = a.union(b)
    assert a.issubset(u) and b.issubset(u)


@given(interval_sets(), interval_sets())
def test_intersection_is_inside_both(a, b):
    i = a.intersection(b)
    assert i.issubset(a) and i.issubset(b)


@given(interval_sets(), interval_sets())
def test_inclusion_exclusion_of_lengths(a, b):
    lhs = a.union(b).total_length() + a.intersection(b).total_length()
    rhs = a.total_length() + b.total_length()
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_union_all_of_nothing_is_empty():
    assert union_all([]).is_empty
    assert IntervalSet.empty().span() is None
