"""Fuzzy formal languages: fuzzy subsets of the words over an alphabet.

A fuzzy language assigns every word a membership grade.  Grades are kept
as exact ``fractions.Fraction`` values wherever the defining rule is
rational, so words that should score 2/3 score 2/3, not a rounded float;
conversion to float happens only at the reporting boundary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .fuzzy import as_grade

Grade = Fraction | float


@dataclass(frozen=True, eq=False)
class FuzzyLanguage:
    """A fuzzy subset of all words over a finite alphabet.

    The grade function must be total on valid words; words using symbols
    outside the alphabet are rejected with the offending position.
    Combinators evaluate lazily, per queried word.
    """

    alphabet: tuple[str, ...]
    grade_fn: Callable[[str], Grade] = field(repr=False)

    def __post_init__(self) -> None:
        symbols = tuple(str(s) for s in self.alphabet)
        if not symbols:
            raise ValueError("alphabet must be non-empty")
        if any(len(s) != 1 for s in symbols):
            raise ValueError("alphabet symbols must be single characters")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be unique")
        object.__setattr__(self, "alphabet", symbols)

    def _check_word(self, word: str) -> str:
        allowed = set(self.alphabet)
        for pos, symbol in enumerate(str(word)):
            if symbol not in allowed:
                raise ValueError(
                    f"symbol {symbol!r} at position {pos} is not in the "
                    f"alphabet {''.join(self.alphabet)!r}"
                )
        return str(word)

    def grade_exact(self, word: str) -> Grade:
        """Grade with whatever exact arithmetic the language carries: a
        Fraction by the exact rule of grade tables, any other by ``as_grade``."""
        value = self.grade_fn(self._check_word(word))
        return _table_grade(word, value) if isinstance(value, Fraction) else as_grade(value)

    def grade(self, word: str) -> float:
        """Grade as a float in [0, 1]."""
        return float(self.grade_exact(word))


def _require_same_alphabet(a: FuzzyLanguage, b: FuzzyLanguage) -> None:
    if a.alphabet != b.alphabet:
        raise ValueError(
            f"alphabet mismatch: {''.join(a.alphabet)!r} vs {''.join(b.alphabet)!r}"
        )


def language_union(a: FuzzyLanguage, b: FuzzyLanguage) -> FuzzyLanguage:
    """Pointwise max of two languages over the same alphabet."""
    _require_same_alphabet(a, b)
    return FuzzyLanguage(a.alphabet, lambda w: max(a.grade_fn(w), b.grade_fn(w)))


def language_intersection(a: FuzzyLanguage, b: FuzzyLanguage) -> FuzzyLanguage:
    """Pointwise min of two languages over the same alphabet."""
    _require_same_alphabet(a, b)
    return FuzzyLanguage(a.alphabet, lambda w: min(a.grade_fn(w), b.grade_fn(w)))


def language_complement(a: FuzzyLanguage) -> FuzzyLanguage:
    """Pointwise 1 - grade: exact for a Fraction, ``1.0 - v`` for a float."""
    return FuzzyLanguage(a.alphabet, lambda w: 1 - a.grade_fn(w))


def zeros_then_ones_grade(word: str) -> Fraction:
    """Exact grade of a word in the built-in zeros-then-ones language.

    Words of the shape 0^i 1^j with i, j >= 1 and i != j belong to the
    language with grade min(i, j) / max(i, j); every other word (balanced
    blocks included, since they fall outside the language) grades 0.
    """
    blocks = re.fullmatch("(0+)(1+)", word)
    if blocks is None:
        return Fraction(0)
    i, j = (len(block) for block in blocks.groups())
    return Fraction(min(i, j), max(i, j)) if i != j else Fraction(0)


def zeros_then_ones_language() -> FuzzyLanguage:
    """The built-in fuzzy language over {0, 1} (see ``zeros_then_ones_grade``)."""
    return FuzzyLanguage(("0", "1"), zeros_then_ones_grade)


def _table_grade(word: str, value) -> Fraction:
    """The one exact grade rule, of grade tables and Fraction grades alike:
    ``value`` as an exact Fraction in [0, 1], parsed from its ``str`` (a
    Fraction's ``str`` reads back to the same Fraction)."""
    try:
        v = Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse grade {value!r} for word {word!r}") from None
    if not 0 <= v <= 1:
        raise ValueError(f"grade {value} for word {word!r} outside [0, 1]")
    return v


def language_from_table(
    alphabet: tuple[str, ...] | str, table: dict[str, float]
) -> FuzzyLanguage:
    """Finite-support language: listed words keep their grades, the rest 0.

    Exact decimal inputs stay exact: grades are parsed into Fractions.
    """
    frozen: dict[str, Fraction] = {}
    language = FuzzyLanguage(tuple(alphabet), lambda w: frozen.get(w, Fraction(0)))
    for word, value in table.items():
        try:
            w = language._check_word(word)
        except ValueError as e:
            raise ValueError(f"word {str(word)!r}: {e}") from None
        frozen[w] = _table_grade(w, value)
    return language
