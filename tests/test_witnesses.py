from itertools import product

import pytest

from suffixfree.automata import Dfa, Transformation
from suffixfree.langops import PartialPermutation, apply_dialect
from suffixfree.witnesses import (
    _d6_roles,
    binary_product_pair,
    d5,
    d6,
    pred_word,
    verify_pred_word,
)


# ---------------------------------------------------------------------------
# d5

def test_d5_golden_transitions_at_n_6():
    d = d5(6)
    assert d.alphabet == ("a", "b", "c")
    assert d.delta["a"] == Transformation((5, 2, 3, 1, 4, 5))
    assert d.delta["b"] == Transformation((1, 2, 5, 4, 3, 5))
    assert d.delta["c"] == Transformation((5, 2, 3, 4, 1, 5))
    assert d.initial == 0
    assert d.finals == frozenset({1})


def test_d5_long_cycle_at_n_8():
    d = d5(8)
    # a: (0 -> 7)(1,2,3)(4,5,6)
    assert d.delta["a"] == Transformation((7, 2, 3, 1, 5, 6, 4, 7))


def test_d5_rejects_small_n():
    with pytest.raises(ValueError):
        d5(5)


def test_d5_rejects_non_int_n():
    # d5(6.0) escaped as a TypeError while d6(6.0) raised ValueError.
    for n in (6.0, True):
        with pytest.raises(ValueError, match="int n >= 6"):
            d5(n)


@pytest.mark.parametrize("n", range(6, 10))
def test_d5_dialect_matches_apply_dialect(n):
    for entries in product("abc-", repeat=3):
        dialect = ",".join(entries)
        try:
            expected = apply_dialect(d5(n), PartialPermutation.parse(dialect, "abc"))
        except ValueError:
            with pytest.raises(ValueError):
                d5(n, dialect)
            continue
        assert d5(n, dialect).to_dict() == expected.to_dict()


def test_d5_dialects():
    assert d5(6, "a,b,-").alphabet == ("a", "b")
    swapped = d5(6, "b,c,a")
    assert swapped.alphabet == ("b", "c", "a")
    assert swapped.delta["b"] == d5(6).delta["a"]
    with pytest.raises(ValueError):
        d5(6, "a,b")
    with pytest.raises(ValueError):
        d5(6, "a,a,-")


# ---------------------------------------------------------------------------
# d6

def test_d6_golden_transitions_at_n_5():
    d = d6(5)
    assert d.alphabet == ("a", "b", "c", "d", "e")
    assert d.delta["a"] == Transformation((4, 2, 3, 1, 4))
    assert d.delta["b"] == Transformation((4, 2, 1, 3, 4))
    assert d.delta["c"] == Transformation((4, 1, 2, 1, 4))
    assert d.delta["d"] == Transformation((4, 4, 2, 3, 4))
    assert d.delta["e"] == Transformation((1, 4, 4, 4, 4))
    assert d.finals == frozenset({1, 3})


def test_d6_final_states_are_odd_middles():
    assert d6(7).finals == frozenset({1, 3, 5})
    assert d6(4).finals == frozenset({1})


def test_d6_n_4_drops_letter_a():
    d = d6(4)
    assert d.alphabet == ("b", "c", "d", "e")
    # roles a and b coincide at n = 4; a dialect may still name role a
    aliased = d6(4, "a,b,-,d,e")
    assert aliased.delta["a"] == d.delta["b"]


@pytest.mark.parametrize("dialect", [
    "a,b,c,d,e", "a,b,-,d,e", "a,-,c,-,e", "-,-,-,-,a", "e,d,c,b,a",
    "b,c,a,-,-",
])
def test_d6_dialect_matches_apply_dialect(dialect):
    for n in range(4, 9):
        base = Dfa(n, "abcde", _d6_roles(n), 0, d6(n).finals)
        pi = PartialPermutation.parse(dialect, "abcde")
        assert d6(n, dialect).to_dict() == apply_dialect(base, pi).to_dict()


def test_d6_rejects_bad_input():
    with pytest.raises(ValueError):
        d6(3)
    with pytest.raises(ValueError):
        d6(6.0)
    with pytest.raises(ValueError, match="int n >= 4"):
        d6("7")
    with pytest.raises(ValueError, match="int n >= 4"):
        d6(True)
    with pytest.raises(ValueError):
        d6(5, "a,b,c,d")
    with pytest.raises(ValueError):
        d6(5, "a,a,-,d,e")
    with pytest.raises(ValueError):
        d6(5, "a,b,x,d,e")


# ---------------------------------------------------------------------------
# binary product pair

def test_binary_pair_golden_at_6_7():
    left, right = binary_product_pair(6, 7)
    assert left.alphabet == right.alphabet == ("a", "b")
    assert left.delta["a"] == Transformation((5, 2, 3, 4, 1, 5))
    assert left.delta["b"] == Transformation((1, 5, 2, 5, 5, 5))
    assert left.finals == frozenset({2, 4})
    assert right.delta["a"] == Transformation((6, 2, 3, 4, 5, 1, 6))
    assert right.delta["b"] == Transformation((1, 6, 2, 3, 4, 5, 6))
    assert right.finals == frozenset({1})


def test_binary_pair_range_errors():
    with pytest.raises(ValueError):
        binary_product_pair(5, 7)
    with pytest.raises(ValueError):
        binary_product_pair(6, 2)
    for m, n in ((6.0, 7), ("6", 7), (6, 7.0), (6, "7")):
        with pytest.raises(ValueError, match="needs int"):
            binary_product_pair(m, n)


# ---------------------------------------------------------------------------
# predecessor words

def test_pred_word_strings():
    assert pred_word(1, 6) == "cabb"
    assert pred_word(2, 6) == "ca"
    assert pred_word(3, 6) == "cabbbb"
    assert pred_word(4, 8) == "cabbaaa"
    assert pred_word(6, 8) == "cabbaaabb"
    assert pred_word(5, 8) == "caaaa"


def test_pred_word_range_errors():
    with pytest.raises(ValueError):
        pred_word(0, 6)
    with pytest.raises(ValueError):
        pred_word(5, 6)
    with pytest.raises(ValueError):
        pred_word(1, 5)


def test_pred_word_rejects_non_int_arguments():
    # 1.0 and True once passed as q = 1, 7.0 as n = 7, and "3" escaped
    # as a TypeError.
    for q, n in ((1.0, 7), (True, 7), (2, 7.0), ("3", 7), (3, "7")):
        with pytest.raises(ValueError, match="int"):
            pred_word(q, n)


def test_verify_pred_word_all_middles():
    for n in (6, 7, 8):
        for q in range(1, n - 1):
            check = verify_pred_word(q, n)
            assert check.ok, (q, n, check)
