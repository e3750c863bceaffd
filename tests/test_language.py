from fractions import Fraction

import numpy as np
import pytest

from vagueq import (
    FuzzyLanguage,
    language_complement,
    language_from_table,
    language_intersection,
    language_union,
    read_grade_table,
    write_grade_table,
    zeros_then_ones_grade,
    zeros_then_ones_language,
)


# --- the built-in zeros-then-ones language -----------------------------------

def test_hand_graded_words():
    lang = zeros_then_ones_language()
    assert lang.grade_exact("00111") == Fraction(2, 3)
    assert lang.grade_exact("0001") == Fraction(1, 3)
    assert lang.grade_exact("01") == 0  # i == j is outside the language
    assert lang.grade_exact("0011") == 0
    assert lang.grade("00111") == float(Fraction(2, 3))


def test_words_off_the_pattern_grade_zero():
    lang = zeros_then_ones_language()
    for word in ("", "0", "1", "10", "010", "0110", "111", "000"):
        assert lang.grade_exact(word) == 0


def test_closed_form_over_all_small_blocks():
    lang = zeros_then_ones_language()
    for i in range(1, 31):
        for j in range(1, 31):
            if i == j:
                continue
            word = "0" * i + "1" * j
            assert lang.grade_exact(word) == Fraction(min(i, j), max(i, j))


def test_grades_are_exact_rationals():
    assert zeros_then_ones_grade("0" * 7 + "1" * 13) == Fraction(7, 13)
    assert isinstance(zeros_then_ones_grade("01"), Fraction)


def test_foreign_symbols_are_rejected_with_position():
    lang = zeros_then_ones_language()
    with pytest.raises(ValueError, match="symbol '2' at position 2"):
        lang.grade("0021")


# --- combinators ----------------------------------------------------------------

def test_union_with_complement_by_hand():
    lang = zeros_then_ones_language()
    comp = language_complement(lang)
    # grade("0001") = 1/3, complement = 2/3; union takes the max
    assert comp.grade_exact("0001") == Fraction(2, 3)
    assert language_union(lang, comp).grade_exact("0001") == Fraction(2, 3)
    assert language_intersection(lang, comp).grade_exact("0001") == Fraction(1, 3)


def test_union_picks_the_larger_grade():
    a = language_from_table("01", {"0": 0.25})
    b = language_from_table("01", {"0": 0.6})
    assert language_union(a, b).grade("0") == 0.6
    assert language_intersection(a, b).grade("0") == 0.25


def test_intersection_with_itself_is_identity():
    lang = zeros_then_ones_language()
    same = language_intersection(lang, lang)
    for word in ("00111", "0001", "0011", "", "000111111"):
        assert same.grade_exact(word) == lang.grade_exact(word)


def test_alphabet_mismatch_is_an_error():
    a = zeros_then_ones_language()
    b = language_from_table("ab", {"a": 0.5})
    with pytest.raises(ValueError, match="alphabet mismatch"):
        language_union(a, b)


def test_combinator_grades_are_ordered():
    lang = zeros_then_ones_language()
    comp = language_complement(lang)
    both = language_intersection(lang, comp)
    either = language_union(lang, comp)
    rng = np.random.default_rng(55)
    for _ in range(1000):
        word = "".join(rng.choice(["0", "1"], size=rng.integers(0, 12)))
        g1, g2 = lang.grade_exact(word), comp.grade_exact(word)
        assert min(g1, g2) == both.grade_exact(word)
        assert max(g1, g2) == either.grade_exact(word)
        assert 0 <= both.grade_exact(word) <= either.grade_exact(word) <= 1


def test_double_complement_is_exact_in_rationals():
    lang = zeros_then_ones_language()
    back = language_complement(language_complement(lang))
    for word in ("00111", "0001", "011", "0000011"):
        assert back.grade_exact(word) == lang.grade_exact(word)


# --- construction guards -----------------------------------------------------------

def test_alphabet_validation():
    with pytest.raises(ValueError, match="non-empty"):
        FuzzyLanguage((), lambda w: 0)
    with pytest.raises(ValueError, match="single characters"):
        FuzzyLanguage(("ab",), lambda w: 0)
    with pytest.raises(ValueError, match="unique"):
        FuzzyLanguage(("a", "a"), lambda w: 0)


def test_grades_from_custom_rules_are_validated():
    bad_float = FuzzyLanguage(("0",), lambda w: 1.5)
    with pytest.raises(ValueError):
        bad_float.grade("0")
    bad_fraction = FuzzyLanguage(("0",), lambda w: Fraction(3, 2))
    with pytest.raises(ValueError, match="outside"):
        bad_fraction.grade("0")


def test_table_language_defaults_to_zero():
    lang = language_from_table("01", {"01": 0.5, "": 0.25})
    assert lang.grade_exact("01") == Fraction(1, 2)
    assert lang.grade_exact("") == Fraction(1, 4)
    assert lang.grade_exact("0011") == 0


def test_table_language_keeps_decimal_inputs_exact():
    lang = language_from_table("01", {"0": 0.1})
    assert lang.grade_exact("0") == Fraction(1, 10)


def test_table_language_guards():
    with pytest.raises(ValueError, match="position 1"):
        language_from_table("01", {"0x": 0.5})
    with pytest.raises(ValueError, match="outside"):
        language_from_table("01", {"0": 1.5})


def test_grade_tables_share_one_grade_rule(tmp_path):
    path = tmp_path / "lang.txt"
    for value, message in ((1.5, r"grade 1\.5 for word '0' outside \[0, 1\]"),
                           (Fraction(-1, 3), r"grade -1/3 for word '0' outside"),
                           (float("nan"), r"cannot parse grade '?nan'? for word '0'"),
                           ("1/0", r"cannot parse grade '1/0' for word '0'")):
        with pytest.raises(ValueError, match=message):
            language_from_table("01", {"0": value})
        with pytest.raises(ValueError, match=message):
            write_grade_table({"0": value}, path)
        assert not path.exists()
        path.write_text(f"0,{value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"lang\.txt:1: " + message):
            read_grade_table(path)
        path.unlink()


# --- grade-table files -----------------------------------------------------------

def test_grade_table_round_trip(tmp_path):
    path = tmp_path / "lang.txt"
    write_grade_table({"": Fraction(1, 4), "01": Fraction(2, 3), "0": 0.5}, path)
    text = path.read_text(encoding="utf-8")
    assert "ε,1/4\n" in text
    lang = read_grade_table(path)
    assert lang.alphabet == ("0", "1")
    assert lang.grade_exact("") == Fraction(1, 4)
    assert lang.grade_exact("01") == Fraction(2, 3)
    assert lang.grade_exact("0") == Fraction(1, 2)
    assert lang.grade_exact("11") == 0


def test_grade_table_with_explicit_alphabet(tmp_path):
    path = tmp_path / "lang.txt"
    path.write_text("0,0.5\n", encoding="utf-8")
    lang = read_grade_table(path, alphabet="01")
    assert lang.alphabet == ("0", "1")
    assert lang.grade("1") == 0.0


def test_grade_table_file_errors(tmp_path):
    path = tmp_path / "lang.txt"
    path.write_text("0,0.5\n0,0.6\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        read_grade_table(path)
    path.write_text("word-without-grade\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 'word,grade'"):
        read_grade_table(path)
    path.write_text("ε,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="alphabet"):
        read_grade_table(path)
    # a word outside a given alphabet is refused on its line; the alphabet's
    # own rules come first, without a line
    path.write_text("ab,0.5\nzz,0.1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=(
        r"^.*lang\.txt:2: word 'zz': symbol 'z' at position 0 is not in the alphabet 'ab'$"
    )):
        read_grade_table(path, alphabet="ab")
    with pytest.raises(ValueError, match="^alphabet symbols must be unique$"):
        read_grade_table(path, alphabet="aab")
    with pytest.raises(ValueError, match="^alphabet must be non-empty$"):
        read_grade_table(path, alphabet="")


def test_grade_table_zero_denominator_names_the_line(tmp_path):
    path = tmp_path / "lang.txt"
    path.write_text("0,0.5\nab,1/0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"lang\.txt:2: cannot parse grade '1/0'"):
        read_grade_table(path)


def test_grade_table_garbage_grade_names_the_line(tmp_path):
    path = tmp_path / "lang.txt"
    path.write_text("# comment\nab,abc\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"lang\.txt:2: cannot parse grade 'abc'"):
        read_grade_table(path)


def test_grade_table_out_of_range_grade_names_the_line(tmp_path):
    path = tmp_path / "lang.txt"
    path.write_text("0,1/2\nab,2\n", encoding="utf-8")
    with pytest.raises(
        ValueError, match=r"lang\.txt:2: grade 2 for word 'ab' outside \[0, 1\]"
    ):
        read_grade_table(path)
    path.write_text("ab,-1/3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"lang\.txt:1: grade -1/3 for word 'ab'"):
        read_grade_table(path)

