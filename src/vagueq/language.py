"""Fuzzy formal languages: fuzzy subsets of the words over an alphabet.

A fuzzy language assigns every word a membership grade.  Grades are kept
as exact ``fractions.Fraction`` values wherever the defining rule is
rational, so words that should score 2/3 score 2/3, not a rounded float;
conversion to float happens only at the reporting boundary.
"""

from __future__ import annotations

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
        """Grade with whatever exact arithmetic the language carries."""
        value = self.grade_fn(self._check_word(word))
        if isinstance(value, Fraction):
            if not 0 <= value <= 1:
                raise ValueError(f"grade {value} for {word!r} outside [0, 1]")
            return value
        return as_grade(value)

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
    """Pointwise 1 - grade."""
    def complement(w: str) -> Grade:
        v = a.grade_fn(w)
        return (Fraction(1) - v) if isinstance(v, Fraction) else (1.0 - v)

    return FuzzyLanguage(a.alphabet, complement)


def zeros_then_ones_grade(word: str) -> Fraction:
    """Exact grade of a word in the built-in zeros-then-ones language.

    Words of the shape 0^i 1^j with i, j >= 1 and i != j belong to the
    language with grade min(i, j) / max(i, j); every other word (balanced
    blocks included, since they fall outside the language) grades 0.
    """
    i = 0
    while i < len(word) and word[i] == "0":
        i += 1
    j = len(word) - i
    if i == 0 or j == 0 or any(c != "1" for c in word[i:]):
        return Fraction(0)
    if i == j:
        return Fraction(0)
    return Fraction(j, i) if i > j else Fraction(i, j)


def zeros_then_ones_language() -> FuzzyLanguage:
    """The built-in fuzzy language over {0, 1} (see ``zeros_then_ones_grade``)."""
    return FuzzyLanguage(("0", "1"), zeros_then_ones_grade)


def language_from_table(
    alphabet: tuple[str, ...] | str, table: dict[str, float]
) -> FuzzyLanguage:
    """Finite-support language: listed words keep their grades, the rest 0.

    Exact decimal inputs stay exact: grades are parsed into Fractions.
    """
    symbols = tuple(alphabet)
    allowed = set(symbols)
    frozen: dict[str, Fraction] = {}
    for word, value in table.items():
        w = str(word)
        for pos, symbol in enumerate(w):
            if symbol not in allowed:
                raise ValueError(
                    f"word {w!r} uses symbol {symbol!r} at position {pos}, "
                    f"not in the alphabet {''.join(symbols)!r}"
                )
        v = Fraction(str(value)) if not isinstance(value, Fraction) else value
        if not 0 <= v <= 1:
            raise ValueError(f"grade {value} for word {w!r} outside [0, 1]")
        frozen[w] = v
    return FuzzyLanguage(symbols, lambda w: frozen.get(w, Fraction(0)))


EMPTY_WORD_MARK = "ε"  # lowercase epsilon


def read_grade_table(path, alphabet: str | None = None) -> FuzzyLanguage:
    """Read ``word,grade`` lines; the empty word is spelled as an epsilon
    or left as an empty field.  Without an explicit alphabet the sorted
    set of symbols appearing in the words is used."""
    table: dict[str, Fraction] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            word, sep, value = text.rpartition(",")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'word,grade'")
            word = word.strip()
            if word == EMPTY_WORD_MARK:
                word = ""
            if word in table:
                raise ValueError(f"{path}:{lineno}: duplicate word {word!r}")
            try:
                grade = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise ValueError(
                    f"{path}:{lineno}: cannot parse grade {value!r}"
                ) from None
            if not 0 <= grade <= 1:
                raise ValueError(
                    f"{path}:{lineno}: grade {grade} for word {word!r} outside [0, 1]"
                )
            table[word] = grade
    symbols = (
        tuple(alphabet)
        if alphabet is not None
        else tuple(sorted({c for w in table for c in w}))
    )
    if not symbols:
        raise ValueError(f"{path}: cannot infer an alphabet; none given")
    return language_from_table(symbols, table)


def write_grade_table(language_table: dict[str, float], path) -> None:
    """Write ``word,grade`` lines; the empty word is written as an epsilon."""
    with open(path, "w", encoding="utf-8") as fh:
        for word in sorted(language_table):
            shown = word if word else EMPTY_WORD_MARK
            fh.write(f"{shown},{language_table[word]}\n")
