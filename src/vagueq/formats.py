"""The plain-text file formats: every file vagueq reads or writes.

Every format is ``key,value`` lines, read by ``_rows``: blank lines and
``#`` lines are skipped, numbers must be finite, and each per-line error
names ``path:line``.  The three map formats (fuzzy set, table measure,
grade table) share one loop, ``_read_map``.  ``_write_rows`` writes every
format, and each writer first refuses what its reader would not read back.
"""

from __future__ import annotations

import math

import numpy as np

from .fuzzy import FiniteFuzzySet, GridFunction, as_grade
from .language import FuzzyLanguage, _table_grade, language_from_table
from .measures import MeasureSpec, TableMeasure, _table_value

EMPTY_WORD_MARK = "ε"  # lowercase epsilon


def _rows(path, shape: str):
    """Yield ``(lineno, key, value)`` for each line, split at its last comma."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            key, sep, value = text.rpartition(",")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected {shape!r}")
            yield lineno, key.strip(), value.strip()


def _number(what: str, text: str) -> float:
    """``text`` as a finite float."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise ValueError(f"cannot parse {what} {text!r}")
    return v


def _on_line(path, lineno: int, check, *args):
    """``check(*args)``, its ValueError prefixed with ``path:line``."""
    try:
        return check(*args)
    except ValueError as e:
        raise ValueError(f"{path}:{lineno}: {e}") from None


def _read_map(path, shape: str, what: str, key_of, value_of) -> dict:
    """Each line's ``key_of(key text)`` mapped to ``value_of(key, value text)``.
    A key seen before is refused as a duplicate ``what``, named by the key, or
    by its text when the key is not a string; every error names ``path:line``."""
    out: dict = {}
    for lineno, text, value in _rows(path, shape):
        key = _on_line(path, lineno, key_of, text)
        if key in out:
            shown = key if isinstance(key, str) else text
            raise ValueError(f"{path}:{lineno}: duplicate {what} {shown!r}")
        out[key] = _on_line(path, lineno, value_of, key, value)
    return out


def _write_rows(path, rows, header: str | None = None) -> None:
    """The one writer: ``header`` if given, then each row's cells joined by
    commas, a string as it is and a number as its ``repr`` float, which
    reads back exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in rows:
            cells = (c if isinstance(c, str) else repr(float(c)) for c in row)
            fh.write(",".join(cells) + "\n")


def _readable(label: str) -> str:
    """``label`` if ``_rows`` reads it back as written: UTF-8 encodable, no
    leading ``#``, no outer whitespace, no line break.  Writers call it
    before the file is opened, so a refused label leaves no file behind."""
    if (
        label.encode("utf-8", "replace").decode("utf-8") != label  # a lone surrogate
        or label.startswith("#") or label != label.strip() or set("\n\r") & set(label)
    ):
        raise ValueError(f"label {label!r} would not read back")
    return label


def write_fuzzy_set(fs: FiniteFuzzySet, path) -> None:
    """Write ``label,grade`` lines (UTF-8, one element per line); a label the
    reader would not read back is rejected."""
    _write_rows(path, [(_readable(label), grade) for label, grade in fs.items()])


def read_fuzzy_set(path) -> FiniteFuzzySet:
    """Read ``label,grade`` lines; labels must be unique."""
    grades = _read_map(path, "label,grade", "label", str,
                       lambda _, v: as_grade(_number("grade", v)))
    if not grades:
        raise ValueError(f"{path}: no elements found")
    return FiniteFuzzySet(tuple(grades), np.array(list(grades.values())))


def write_grid_csv(f: GridFunction, path) -> None:
    """Write an ``x,value`` CSV whose floats round-trip exactly."""
    _write_rows(path, zip(f.nodes, f.samples), "x,value")


def read_grid_csv(path) -> GridFunction:
    """Read an ``x,value`` CSV whose x column is the grid's own nodes,
    ``np.linspace(x0, xn, n)``, to within 1e-9 of a step or one ulp of the
    largest |x|, whichever is coarser (``x0 + k*h`` passes too)."""
    rows = _rows(path, "x,value")
    header = next(rows, None)
    if header is None or header[1:] != ("x", "value"):
        got = "" if header is None else ",".join(header[1:])
        raise ValueError(f"{path}: expected header 'x,value', got {got!r}")
    xs: list[float] = []
    vs: list[float] = []
    for lineno, x, v in rows:
        xs.append(_on_line(path, lineno, _number, "x", x))
        vs.append(_on_line(path, lineno, _number, "value", v))
    if len(xs) < 2:
        raise ValueError(f"{path}: need at least 2 rows")
    x = np.array(xs)
    # comparisons first and a Python-float span, so no arithmetic overflows
    if not (np.all(x[1:] > x[:-1]) and math.isfinite(xs[-1] - xs[0])):
        raise ValueError(
            f"{path}: x column must be strictly increasing over a finite span"
        )
    f = GridFunction(xs[0], xs[-1], np.array(vs))
    bound = max(1e-9 * f.spacing, float(np.spacing(max(abs(xs[0]), abs(xs[-1])))))
    if np.max(np.abs(x - f.nodes)) > bound:
        raise ValueError(f"{path}: x column is not uniformly spaced")
    return f


def write_sweep_csv(rows, path) -> None:
    """Write the ``a,b,probability,possibility`` rows of a localization sweep."""
    _write_rows(path, rows, "a,b,probability,possibility")


def _table_label(label: str) -> str:
    """``label`` if a table line reads it back: ``_readable``, and neither
    empty, ``{}`` nor holding a ``|``."""
    if not label or label == "{}" or "|" in label:
        raise ValueError(f"table label {label!r} would not read back")
    return _readable(label)


def write_table_measure(m: MeasureSpec, path) -> None:
    """Write ``e1|e2|...,value`` lines, one subset per line; {} is empty.  A
    label the reader would not read back is rejected."""
    if not isinstance(m, TableMeasure):
        raise ValueError("only table measures have a table text form")
    order = {_table_label(label): i for i, label in enumerate(m.universe)}
    table = m.table  # built on each read, so read once
    subsets = sorted(table, key=lambda s: (len(s), sorted(order[x] for x in s)))
    _write_rows(path, [
        ("|".join(sorted(s, key=order.__getitem__)) or "{}", table[s])
        for s in subsets
    ])


def _subset(key: str) -> frozenset:
    """A table line's key as its subset: ``{}`` or labels joined by ``|``."""
    subset = frozenset() if key == "{}" else frozenset(x.strip() for x in key.split("|"))
    if "" in subset:
        raise ValueError("empty label in subset")
    return subset


def read_table_measure(path) -> MeasureSpec:
    """Read ``e1|e2|...,value`` lines; the universe is the union of all
    labels mentioned (so the full-universe line must be present)."""
    table = _read_map(path, "subset,value", "subset", _subset,
                      lambda s, v: _table_value(s, _number("value", v)))
    labels = frozenset().union(*table)
    return MeasureSpec.from_table(tuple(sorted(labels)), table)


def read_grade_table(path, alphabet: str | None = None) -> FuzzyLanguage:
    """Read ``word,grade`` lines; the empty word is spelled as an epsilon
    or left as an empty field.  Without an explicit alphabet the sorted
    set of symbols appearing in the words is used; a given one is checked
    before the file is read, and a word outside it is refused on its line."""
    if alphabet is not None:  # the alphabet's own rules, before any line
        language_from_table(alphabet, {})

    def word_of(text: str) -> str:
        word = "" if text == EMPTY_WORD_MARK else text
        if alphabet is not None:  # the word rule of language_from_table, on the word's line
            language_from_table(alphabet, {word: 0})
        return word

    table = _read_map(path, "word,grade", "word", word_of, _table_grade)
    symbols = tuple(sorted({c for w in table for c in w})) if alphabet is None else tuple(alphabet)
    if not symbols:
        raise ValueError(f"{path}: cannot infer an alphabet; none given")
    return language_from_table(symbols, table)


def write_grade_table(language_table: dict[str, float], path) -> None:
    """Write ``word,grade`` lines; the empty word is written as an epsilon.
    A word the reader would not read back (a literal epsilon among them) or
    a grade outside the grade rule is rejected."""
    rows = []
    for word, grade in sorted(language_table.items()):
        if word == EMPTY_WORD_MARK:
            raise ValueError(f"word {word!r} would not read back: it marks the empty word")
        _table_grade(word, grade)
        rows.append((_readable(word) or EMPTY_WORD_MARK, str(grade)))
    _write_rows(path, rows)
