"""Every file vagueq writes reads back.

Fuzzy sets, table measures, grade tables and grids are drawn with keys
that the readers treat specially (comments, outer whitespace, line breaks,
``|``, ``{}``, ``ε``, a lone surrogate that UTF-8 cannot encode) and with
awkward numbers (Fractions, subnormals, grids a few ulps apart at large
|x|).  Each write either raises a ValueError naming a key the reader
would not read back, leaving no file, or writes a file that reads back
equal: floats bit for bit, grades as equal Fractions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vagueq import (
    FiniteFuzzySet,
    GridFunction,
    MeasureSpec,
    read_fuzzy_set,
    read_grade_table,
    read_grid_csv,
    read_table_measure,
    write_fuzzy_set,
    write_grade_table,
    write_grid_csv,
    write_table_measure,
)

# keys that only the table or grade-table reader refuses come thrice, so
# that their own draws meet them often
SPECIAL = ("", "#", "#a", " a", "a ", "\ta", "a\t", "a\nb", "a\rb", "\n", ",", "a,b",
           "a b", "aε", "b\ud800", "\udfff") + ("|", "a|b", "{}", "ε") * 3
plain_keys = st.text(alphabet="abxä0", min_size=1, max_size=3)
wild_keys = st.one_of(
    st.sampled_from(SPECIAL),
    st.text(alphabet="ab,|#{} \t\n\rε", max_size=4),
)
SUBNORMALS = (5e-324, 1e-310, 2.2250738585072009e-308)
float_grades = st.one_of(st.floats(0.0, 1.0), st.sampled_from(SUBNORMALS + (-0.0, 0.1, 1 / 3)))
grades = st.one_of(float_grades, st.fractions(0, 1, max_denominator=10**6))


def key_lists(draw, max_size):
    """Unique plain keys, mostly with one wild key among them, so that the
    wild key alone decides whether the write succeeds."""
    labels = draw(st.lists(plain_keys, max_size=max_size - 1, unique=True))
    wild = draw(wild_keys)
    if wild not in labels and draw(st.integers(0, 3)):
        labels.insert(draw(st.integers(0, len(labels))), wild)
    return labels or [wild]


def reads_back(key: str, kind: str) -> bool:
    """The readers' view of a key, spelled out independently of the writers."""
    plain = not key.startswith("#") and key == key.strip() and not set("\n\r") & set(key)
    plain = plain and not any("\ud800" <= c <= "\udfff" for c in key)
    if kind == "table":
        return plain and key not in ("", "{}") and "|" not in key
    if kind == "grade table":
        return plain and key != "ε"
    return plain


@st.composite
def fuzzy_sets(draw):
    labels = key_lists(draw, 6)
    values = draw(st.lists(float_grades, min_size=len(labels), max_size=len(labels)))
    return labels, FiniteFuzzySet(tuple(labels), values)


@st.composite
def table_measures(draw):
    labels = key_lists(draw, 5)
    top = draw(st.integers(0, len(labels) - 1))
    pi = [1.0 if i == top else float(draw(grades)) for i in range(len(labels))]
    subsets = itertools.chain(*(itertools.combinations(range(len(labels)), k)
                                for k in range(len(labels) + 1)))
    if draw(st.booleans()):  # a possibility measure, else counting over its size
        table = {tuple(labels[i] for i in s): max((pi[i] for i in s), default=0.0)
                 for s in subsets}
    else:
        table = {tuple(labels[i] for i in s): len(s) / len(labels) for s in subsets}
    return labels, MeasureSpec.from_table(labels, table)


@st.composite
def grade_tables(draw):
    words = key_lists(draw, 6)
    return words, {w: draw(grades) for w in words}


@st.composite
def grids(draw):
    x0 = draw(st.sampled_from((1.0, -1.0))) * 10.0 ** draw(st.floats(-3.0, 8.0))
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        step = abs(x0) * 10.0 ** draw(st.floats(-9.0, 0.0))
    else:  # from a few ulps of x0 up, where a mean-step test refused linspace grids
        step = draw(st.floats(3.0, 1e4)) * float(np.spacing(abs(x0)))
    samples = draw(st.lists(
        st.one_of(st.floats(0.0, 1e3), st.sampled_from(SUBNORMALS)), min_size=n, max_size=n
    ))
    return GridFunction(x0, x0 + (n - 1) * step, samples)


def _check_fuzzy_set(path, drawn):
    _, fs = drawn
    write_fuzzy_set(fs, path)
    back = read_fuzzy_set(path)
    assert back.universe == fs.universe
    assert back.grades.tobytes() == fs.grades.tobytes()


def _check_table(path, drawn):
    _, m = drawn
    write_table_measure(m, path)
    back = read_table_measure(path)
    assert set(back.universe) == set(m.universe)
    assert back.table.keys() == m.table.keys()
    for subset, value in m.table.items():
        assert np.float64(back.table[subset]).tobytes() == np.float64(value).tobytes()


def _check_grade_table(path, drawn):
    words, table = drawn
    write_grade_table(table, path)
    alphabet = "".join(sorted({c for w in words for c in w})) or "a"
    back = read_grade_table(path, alphabet=alphabet)
    for word, grade in table.items():
        exact = grade if isinstance(grade, Fraction) else Fraction(str(grade))
        assert back.grade_exact(word) == exact, word


KINDS = {
    "fuzzy set": (fuzzy_sets(), _check_fuzzy_set),
    "table": (table_measures(), _check_table),
    "grade table": (grade_tables(), _check_grade_table),
}


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_written_file_reads_back_or_names_the_key(tmp_path, data):
    path = tmp_path / "out.txt"
    path.unlink(missing_ok=True)
    kind = data.draw(st.sampled_from(sorted(KINDS) + ["grid"]), label="kind")
    if kind == "grid":
        f = data.draw(grids(), label="grid")
        write_grid_csv(f, path)
        back = read_grid_csv(path)
        assert np.float64(back.x_min).tobytes() == np.float64(f.x_min).tobytes()
        assert np.float64(back.x_max).tobytes() == np.float64(f.x_max).tobytes()
        assert back.samples.tobytes() == f.samples.tobytes()
        return
    strategy, check = KINDS[kind]
    drawn = data.draw(strategy, label=kind)
    refused = [k for k in drawn[0] if not reads_back(k, kind)]
    if not refused:
        check(path, drawn)
        return
    try:
        check(path, drawn)
    except ValueError as exc:
        assert any(repr(k) in str(exc) for k in refused), (refused, str(exc))
        assert not path.exists()
    else:
        raise AssertionError(f"{kind} with keys {refused!r} was written")
