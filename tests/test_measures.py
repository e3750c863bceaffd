import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vagueq import (
    AdditiveMeasure,
    FiniteFuzzySet,
    GridFunction,
    IntervalSet,
    MeasureSpec,
    TableMeasure,
    check_additivity,
    check_possibility_union_axiom,
    fuzzy_union,
    measure_of,
    read_table_measure,
    sugeno_integral,
    union_all,
    write_table_measure,
)
from oracles import issubset, random_monotone_table, sugeno_table_walk_oracle, total_length

ERF_MASS_MINUS1_TO_1 = 0.6826894921370859  # erf(1/sqrt(2)), independent oracle


def standard_normal(lo=-8.0, hi=8.0, n=10001) -> GridFunction:
    xs = np.linspace(lo, hi, n)
    return GridFunction(
        lo, hi, np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    )


def finite_pi() -> FiniteFuzzySet:
    return FiniteFuzzySet(("x1", "x2", "x3"), [1.0, 0.6, 0.3])


# --- constructors -------------------------------------------------------------

def test_additive_records_norm_and_flag():
    m = MeasureSpec.additive(standard_normal())
    assert isinstance(m, AdditiveMeasure)
    assert abs(m.norm - 1.0) <= 1e-6
    assert m.is_normalized
    un = MeasureSpec.additive(GridFunction(0.0, 1.0, [2.0, 2.0]))
    assert not un.is_normalized
    assert un.norm == pytest.approx(2.0)
    with pytest.raises(ValueError, match="^density must be a GridFunction$"):
        MeasureSpec.additive(finite_pi())


def test_possibilistic_requires_sup_one():
    MeasureSpec.possibilistic(finite_pi())
    with pytest.raises(ValueError, match="supremum"):
        MeasureSpec.possibilistic(FiniteFuzzySet(("a", "b"), [0.4, 0.9]))
    xs = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="supremum"):
        MeasureSpec.possibilistic(GridFunction(0.0, 1.0, 0.5 * np.ones(11)))
    with pytest.raises(ValueError, match="GridFunction or FiniteFuzzySet"):
        MeasureSpec.possibilistic([0.5, 1.0])


def _table_2():
    return {
        (): 0.0,
        ("a",): 0.3,
        ("b",): 0.8,
        ("a", "b"): 1.0,
    }


def same_refusal(universe, table):
    """A direct ``TableMeasure`` refuses ``table`` as ``from_table`` does."""
    texts = []
    for build in (MeasureSpec.from_table, TableMeasure):
        with pytest.raises(ValueError) as e:
            build(universe, table)
        texts.append(str(e.value))
    assert texts[0] == texts[1], texts


def test_table_measure_accepts_monotone_total_table():
    m = MeasureSpec.from_table(("a", "b"), _table_2())
    assert measure_of(m, ["a"]) == 0.3
    assert measure_of(m, ["a", "a"]) == 0.3
    assert measure_of(m, []) == 0.0
    assert measure_of(m, ["a", "b"]) == 1.0
    # a label repeated in a key counts once
    m = MeasureSpec.from_table(("a", "b"), {(): 0.0, ("a", "a"): 0.3, ("b",): 0.8, ("b", "a"): 1.0})
    assert measure_of(m, ["a"]) == 0.3
    # monotonicity holds to within 1e-12
    m = MeasureSpec.from_table(("a", "b"), _table_2() | {("a",): 1.0 + 5e-13})
    assert measure_of(m, ["a"]) == 1.0 + 5e-13


def test_table_measure_rejects_non_monotone():
    # a 2-element table with valid boundary values is always monotone,
    # so exercise the check on 3 elements: mu({a}) > mu({a, b})
    bad = {
        (): 0.0,
        ("a",): 0.7,
        ("b",): 0.1,
        ("c",): 0.1,
        ("a", "b"): 0.2,
        ("a", "c"): 0.8,
        ("b", "c"): 0.3,
        ("a", "b", "c"): 1.0,
    }
    with pytest.raises(ValueError, match="monotone"):
        MeasureSpec.from_table(("a", "b", "c"), bad)
    same_refusal(("a", "b", "c"), bad)
    # a violation that only dropping the first label shows
    t = _table_2() | {("b",): 1.5}
    with pytest.raises(ValueError, match=r"^table is not monotone: mu\(\['b'\]\) = 1.5 exceeds"):
        MeasureSpec.from_table(("a", "b"), t)
    same_refusal(("a", "b"), t)
    # of several violations, the first bad subset in table order is named,
    # less the first of its bad labels in universe order
    rest = {(): 0.0, ("a",): 0.5, ("b",): 0.5, ("c",): 0.1, ("b", "c"): 0.6, ("a", "b", "c"): 1.0}
    for first, message in (
        ({("a", "c"): 0.4, ("a", "b"): 0.1}, r"mu\(\['a'\]\) = 0.5 exceeds mu\(\['a', 'c'\]\) = 0.4"),
        ({("a", "b"): 0.1, ("a", "c"): 0.4}, r"mu\(\['b'\]\) = 0.5 exceeds mu\(\['a', 'b'\]\) = 0.1"),
    ):
        with pytest.raises(ValueError, match=f"^table is not monotone: {message}$"):
            MeasureSpec.from_table(("a", "b", "c"), first | rest)
        same_refusal(("a", "b", "c"), first | rest)


def test_table_measure_rejects_partial_tables():
    partial = {k: v for k, v in _table_2().items() if k != ("a",)}
    with pytest.raises(ValueError, match="total"):
        MeasureSpec.from_table(("a", "b"), partial)
    same_refusal(("a", "b"), partial)


def test_table_measure_rejects_bad_boundary_values():
    t = _table_2() | {(): 0.1}
    with pytest.raises(ValueError, match="empty"):
        MeasureSpec.from_table(("a", "b"), t)
    same_refusal(("a", "b"), t)
    t = _table_2() | {("a", "b"): 0.9}
    with pytest.raises(ValueError, match="universe"):
        MeasureSpec.from_table(("a", "b"), t)
    same_refusal(("a", "b"), t)
    t = _table_2() | {("a",): math.nan}
    with pytest.raises(ValueError, match=r"^table value for \['a'\] must be >= 0$"):
        MeasureSpec.from_table(("a", "b"), t)
    same_refusal(("a", "b"), t)


def test_table_measure_rejects_foreign_duplicate_and_repeated_labels():
    with pytest.raises(ValueError, match=r"foreign labels \['c'\]"):
        MeasureSpec.from_table(("a", "b"), _table_2() | {("a", "c"): 1.0})
    same_refusal(("a", "b"), _table_2() | {("a", "c"): 1.0})
    with pytest.raises(ValueError, match=r"duplicate table entry for \['a', 'b'\]"):
        MeasureSpec.from_table(("a", "b"), _table_2() | {("b", "a"): 1.0})
    same_refusal(("a", "b"), _table_2() | {("b", "a"): 1.0})
    with pytest.raises(ValueError, match="unique"):
        MeasureSpec.from_table(("a", "a"), {(): 0.0, ("a",): 1.0})
    same_refusal(("a", "a"), {(): 0.0, ("a",): 1.0})


def test_table_measure_rejects_large_universes():
    labels = tuple(f"e{i}" for i in range(13))
    with pytest.raises(ValueError, match="at most 12"):
        MeasureSpec.from_table(labels, {})
    same_refusal(labels, {})
    # the labels of each key are checked first, as they are read
    with pytest.raises(ValueError, match=r"^table subset contains foreign labels \['zz'\]$"):
        MeasureSpec.from_table(labels, {("e0", "zz"): 0.5})
    same_refusal(labels, {("e0", "zz"): 0.5})
    # the size is refused before anything of size 2^n is allocated
    labels = tuple(f"e{i}" for i in range(40))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^table measures support at most 12 elements, got 40$"):
            MeasureSpec.from_table(labels, {(): 0.0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak
    same_refusal(labels, {(): 0.0})


def test_table_measure_keeps_one_array_and_finite_sets_share_their_labels():
    labels = tuple(f"e{i}" for i in range(12))
    table = {s: len(s) / 12 for k in range(13) for s in combinations(labels, k)}
    MeasureSpec.from_table(labels, table)  # any first-call caches fill here
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m = MeasureSpec.from_table(labels, table)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 8 * 2**12 + 4096, kept  # the values, plus a small fixed part
    assert m.values.nbytes == 8 * 2**12
    rng = np.random.default_rng(17)
    labels = tuple(f"e{i}" for i in range(300))
    a = FiniteFuzzySet(labels, rng.random(300))
    b = FiniteFuzzySet(labels, rng.random(300))
    assert a.universe is labels and b.universe is labels
    assert fuzzy_union(a, b).universe is labels


def test_table_route_matches_the_table_walk_bit_for_bit():
    rng = np.random.default_rng(20261019)
    for n in range(1, 13):
        labels = tuple(f"l{j}" for j in rng.permutation(n))
        for _ in range(2):
            table = random_monotone_table(rng, labels)
            m = TableMeasure(labels, table)
            by_set = {frozenset(k): v for k, v in table.items()}
            assert m.table == by_set
            for key in list(table)[:200]:
                assert measure_of(m, key) == table[key]
            if n == 6:  # every subset, as given and with its labels repeated
                for mask in range(1 << n):
                    event = [l for i, l in enumerate(labels) if mask >> i & 1]
                    want = m.values[mask].hex()
                    assert measure_of(m, event).hex() == want
                    assert measure_of(m, event[::-1] + event).hex() == want
            assert measure_of(m, None) == 1.0
            for k in range(40):
                levels = rng.random(3)  # f ties on every other draw
                grades = levels[rng.integers(3, size=n)] if k % 2 else rng.random(n)
                order = rng.permutation(n) if k % 3 else np.arange(n)
                f = FiniteFuzzySet(tuple(labels[j] for j in order), grades)
                a = None if k % 5 == 0 else [l for l in labels if rng.random() < 0.6]
                got = sugeno_integral(f, a, m)
                assert got.hex() == sugeno_table_walk_oracle(f, a, by_set).hex(), (n, k)


# --- evaluation ----------------------------------------------------------------

def test_possibility_of_finite_subset_is_max_grade():
    m = MeasureSpec.possibilistic(finite_pi())
    assert measure_of(m, ["x2", "x3"]) == 0.6
    assert measure_of(m, ["x1"]) == 1.0
    assert measure_of(m, []) == 0.0
    with pytest.raises(ValueError, match="outside"):
        measure_of(m, ["nope"])


def test_additive_measure_matches_error_function():
    m = MeasureSpec.additive(standard_normal())
    mass = measure_of(m, IntervalSet.interval(-1.0, 1.0))
    assert abs(mass - ERF_MASS_MINUS1_TO_1) <= 1e-4


def test_measure_kind_event_mismatches_are_errors():
    add = MeasureSpec.additive(standard_normal())
    poss = MeasureSpec.possibilistic(finite_pi())
    table = MeasureSpec.from_table(("a", "b"), _table_2())
    with pytest.raises(ValueError):
        measure_of(add, ["a"])
    with pytest.raises(ValueError):
        measure_of(poss, IntervalSet.interval(0.0, 1.0))
    with pytest.raises(ValueError):
        measure_of(table, IntervalSet.interval(0.0, 1.0))
    # both finite kinds read an event by one rule, so they refuse alike
    same = MeasureSpec.possibilistic(FiniteFuzzySet(("a", "b"), [1.0, 0.3]))
    for event in (["b", "c", "z"], "cb", IntervalSet.interval(0.0, 1.0)):
        texts = []
        for m in (same, table):
            with pytest.raises(ValueError) as caught:
                measure_of(m, event)
            texts.append(str(caught.value))
        assert texts[0] == texts[1], texts
    assert texts[0] == "measure domain mismatch: interval sets need a grid measure"


def test_a_finite_event_refuses_a_bare_string():
    # a string iterates as its characters, so "ab" would read as {a, b}
    poss = MeasureSpec.possibilistic(FiniteFuzzySet(("x1", "x2"), [1.0, 0.6]))
    table = MeasureSpec.from_table(("a", "b"), _table_2())
    for m, event in ((poss, "x1"), (table, "ab")):
        f = FiniteFuzzySet(m.universe, [0.5, 0.25])
        want = f"a finite event is an iterable of labels, not the string {event!r}"
        with pytest.raises(ValueError) as caught:
            measure_of(m, event)
        assert str(caught.value) == want
        with pytest.raises(ValueError) as caught:
            sugeno_integral(f, event, m)
        assert str(caught.value) == want
    assert measure_of(poss, ["x1"]) == 1.0 and measure_of(table, ("a", "b")) == 1.0


def test_none_event_is_the_whole_universe_on_finite_measures():
    table = MeasureSpec.from_table(("a", "b"), _table_2())
    for m in (MeasureSpec.possibilistic(finite_pi()), table):
        assert measure_of(m, None) == measure_of(m, m.universe)
        assert m._event(None) is m._event(None)  # the label set is built once
    assert measure_of(table, None) == table.values[-1]
    with pytest.raises(ValueError, match="label subsets need a finite measure"):
        measure_of(MeasureSpec.additive(standard_normal()), None)


def test_event_outside_grid_span_is_an_error():
    m = MeasureSpec.additive(standard_normal())
    with pytest.raises(ValueError, match="span"):
        measure_of(m, IntervalSet.interval(-9.0, 0.0))


def test_empty_event_measures_zero_for_every_kind():
    density = standard_normal()
    pi = density.scaled_by_max()
    assert measure_of(MeasureSpec.additive(density), IntervalSet()) == 0.0
    assert measure_of(MeasureSpec.possibilistic(pi), IntervalSet()) == 0.0
    assert measure_of(MeasureSpec.from_table(("a", "b"), _table_2()), []) == 0.0


# --- axioms ---------------------------------------------------------------------

def test_possibilistic_maxitivity_is_exact_on_shared_grids():
    pi = standard_normal(n=2001).scaled_by_max()
    m = MeasureSpec.possibilistic(pi)
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        bounds = np.sort(rng.uniform(-8.0, 8.0, size=4))
        a = IntervalSet.interval(bounds[0], bounds[2])
        b = IntervalSet.interval(bounds[1], bounds[3])
        whole = measure_of(m, union_all([a, b]))
        assert whole == max(measure_of(m, a), measure_of(m, b))
        assert check_possibility_union_axiom(m, [a, b])


def test_union_axiom_check_rejects_non_possibilistic():
    m = MeasureSpec.additive(standard_normal())
    with pytest.raises(ValueError):
        check_possibility_union_axiom(m, [IntervalSet.interval(0.0, 1.0)])


def test_additivity_over_random_three_part_splits():
    m = MeasureSpec.additive(standard_normal())
    rng = np.random.default_rng(7)
    for _ in range(100):
        cuts = np.sort(rng.uniform(-4.0, 4.0, size=2))
        parts = [
            IntervalSet.interval(-4.0, cuts[0]),
            IntervalSet.interval(cuts[0], cuts[1]),
            IntervalSet.interval(cuts[1], 4.0),
        ]
        if any(total_length(p) == 0.0 for p in parts):
            continue
        assert check_additivity(m, parts, tol=1e-6)


def test_additivity_names_overlapping_parts():
    m = MeasureSpec.additive(standard_normal())
    parts = [IntervalSet.interval(0.0, 1.0), IntervalSet.interval(0.5, 2.0)]
    with pytest.raises(ValueError, match="parts 0 and 1"):
        check_additivity(m, parts)


def test_monotonicity_on_nested_interval_sets():
    density = standard_normal(n=2001)
    measures = [
        MeasureSpec.additive(density),
        MeasureSpec.possibilistic(density.scaled_by_max()),
    ]
    rng = np.random.default_rng(99)
    for _ in range(500):
        bounds = np.sort(rng.uniform(-8.0, 8.0, size=4))
        small = IntervalSet.interval(bounds[1], bounds[2])
        big = IntervalSet.interval(bounds[0], bounds[3])
        assert issubset(small, big)
        for m in measures:
            assert measure_of(m, small) <= measure_of(m, big) + 1e-12


def test_lebesgue_additivity_over_disjoint_sets_is_tight():
    density = standard_normal()
    m = MeasureSpec.additive(density)
    rng = np.random.default_rng(3)
    for _ in range(100):
        bounds = np.sort(rng.uniform(-8.0, 8.0, size=4))
        a = IntervalSet.interval(bounds[0], bounds[1])
        b = IntervalSet.interval(bounds[2], bounds[3])
        if total_length(a) == 0.0 or total_length(b) == 0.0:
            continue
        lhs = measure_of(m, union_all([a, b]))
        rhs = measure_of(m, a) + measure_of(m, b)
        assert abs(lhs - rhs) <= 1e-12


# --- height normalization --------------------------------------------------------

def test_normalize_to_possibility_reaches_exactly_one():
    density = standard_normal()
    pi = density.scaled_by_max()
    assert float(pi.samples.max()) == 1.0
    assert density.scaled_by_max() is pi  # built once per density
    # shape preserved: ratios unchanged up to round-off
    k = 777
    expected = density.samples[k] / density.samples.max()
    assert pi.samples[k] == pytest.approx(expected, abs=1e-15)


def test_normalize_rejects_identically_zero():
    zero = GridFunction(0.0, 1.0, [0.0, 0.0])
    for _ in range(2):  # on every call: a refusal is not kept
        with pytest.raises(ValueError, match="^cannot rescale an identically zero function$"):
            zero.scaled_by_max()


# --- table text format ------------------------------------------------------------

def test_table_measure_file_round_trip(tmp_path):
    m = MeasureSpec.from_table(("a", "b"), _table_2())
    path = tmp_path / "measure.txt"
    write_table_measure(m, path)
    again = read_table_measure(path)
    assert again.universe == m.universe
    assert again.table == m.table
    with pytest.raises(ValueError, match="only table measures"):
        write_table_measure(MeasureSpec.possibilistic(finite_pi()), path)


def test_table_file_uses_braces_for_empty_subset(tmp_path):
    path = tmp_path / "measure.txt"
    path.write_text(
        "{},0.0\na,0.25\nb,0.5\na|b,1.0\n", encoding="utf-8"
    )
    m = read_table_measure(path)
    assert measure_of(m, []) == 0.0
    assert measure_of(m, ["a"]) == 0.25


def test_table_file_rejects_non_monotone(tmp_path):
    path = tmp_path / "measure.txt"
    path.write_text(
        "{},0.0\n"
        "a,0.7\nb,0.1\nc,0.1\n"
        "a|b,0.2\na|c,0.8\nb|c,0.3\n"
        "a|b|c,1.0\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="monotone"):
        read_table_measure(path)


def test_table_file_rejects_malformed_lines(tmp_path):
    path = tmp_path / "measure.txt"
    path.write_text("just-a-key-no-value\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 'subset,value'"):
        read_table_measure(path)
    path.write_text("{},0.0\na|,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"measure\.txt:2: empty label in subset"):
        read_table_measure(path)


def test_table_file_names_the_line_of_an_unparsable_value(tmp_path):
    path = tmp_path / "measure.txt"
    path.write_text("{},0.0\na,abc\nb,0.5\na|b,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"measure\.txt:2: cannot parse"):
        read_table_measure(path)


def test_table_file_names_the_line_of_a_duplicate_subset_or_nan(tmp_path):
    path = tmp_path / "measure.txt"
    path.write_text("{},0.0\na,0.25\nb,0.5\n# same subset\nb|a,1.0\na|b,1.0\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"measure\.txt:6: duplicate subset 'a\|b'"):
        read_table_measure(path)
    path.write_text("{},0.0\na,nan\nb,0.5\na|b,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"measure\.txt:2: cannot parse value 'nan'"):
        read_table_measure(path)


# --- possibility never exceeds 1 ----------------------------------------------------

def test_possibility_within_slack_above_one_is_clamped():
    pi = GridFunction(0.0, 1.0, [0.2, 1.0 + 5e-10])
    m = MeasureSpec.possibilistic(pi)
    full = pi.full_span()
    assert measure_of(m, full) == 1.0
    assert sugeno_integral(pi, full, m) <= 1.0
    # a distribution already within [0, 1] is kept as given
    exact = pi.scaled_by_max()
    assert MeasureSpec.possibilistic(exact).distribution is exact
