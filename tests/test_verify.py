from itertools import combinations

import pytest

from suffixfree.atoms import atoms
from suffixfree.automata import BudgetError
from suffixfree.langops import BooleanOp
from suffixfree.verify import (
    ATOM_TABLE,
    ComplexityReport,
    atom_count_bound,
    difference_bound,
    intersection_bound,
    max_atom_table_bound,
    product_bound,
    reversal_bound,
    search_subsemigroups,
    star_bound,
    syntactic_bound,
    union_bound,
    verify,
    verify_all,
    verify_atom_table,
    verify_boolean,
    verify_product_binary,
    verify_semigroup_classes,
    verify_star,
)
from suffixfree.witnesses import d6


# ---------------------------------------------------------------------------
# bound formulas

def test_bound_formulas():
    assert star_bound(6) == reversal_bound(6) == atom_count_bound(6) == 17
    assert product_bound(7, 8) == 385
    assert union_bound(6, 6) == 26
    assert intersection_bound(6, 6) == 18
    assert difference_bound(6, 6) == 22
    assert syntactic_bound(6) == 629


# ---------------------------------------------------------------------------
# report objects

def test_report_met_and_serialization():
    r = ComplexityReport("star", {"n": 6}, 17, 17, True, 3)
    assert r.met
    doc = r.to_dict()
    assert doc["measure"] == "star"
    assert doc["met"] is True
    assert doc["asserted"] is True
    miss = ComplexityReport("star", {"n": 6}, 16, 17, True, 3)
    assert not miss.met


def test_verify_star_spot_check():
    r = verify_star(7)
    assert r.met and r.asserted
    assert r.computed == 33
    assert r.runtime_ms >= 0


def test_verify_product_binary_non_coprime_is_informational():
    r = verify_product_binary(6, 8)
    assert not r.asserted
    assert not r.met  # gcd(4, 6) > 1: the bound is out of reach
    assert r.params["coprime"] is False


def test_verify_boolean_4_4_is_informational():
    for op in BooleanOp:
        r = verify_boolean(4, 4, op, family="d6")
        assert not r.asserted
    # the two dialects coincide at n = 4, so the results degenerate
    assert verify_boolean(4, 4, BooleanOp.UNION).computed == 4
    assert verify_boolean(4, 4, BooleanOp.INTERSECTION).computed == 4
    assert verify_boolean(4, 4, BooleanOp.DIFFERENCE).computed == 1
    assert verify_boolean(4, 4, BooleanOp.SYMMETRIC_DIFFERENCE).computed == 1


def test_verify_boolean_rejects_unknown_family():
    with pytest.raises(ValueError):
        verify_boolean(6, 6, BooleanOp.UNION, family="d9")


# ---------------------------------------------------------------------------
# atom tables

def test_atom_table_by_construction():
    for r in verify_atom_table(5):
        assert r.met and r.asserted
        assert r.measure == "atom-table"


def test_atom_table_by_construction_at_n8():
    reports = verify_atom_table(8, construct=True)
    assert all(r.met and r.asserted for r in reports)
    assert all(r.measure == "atom-table" for r in reports)
    assert tuple(r.computed for r in reports) == ATOM_TABLE[8]


def test_atom_table_by_formula_for_large_n():
    for n in (8, 9):
        reports = verify_atom_table(n)
        assert all(r.met for r in reports)
        assert all(r.measure == "atom-table-formula" for r in reports)
        assert tuple(r.computed for r in reports) == ATOM_TABLE[n]


def _bases_of_size(n: int, size: int):
    """The bases that the atom table's rows range over: the empty set,
    {0}, and the sets of middle states 1..n-2 of the given size."""
    if size == 0:
        yield frozenset()
        return
    if size == 1:
        yield frozenset({0})
    for combo in combinations(range(1, n - 1), size):
        yield frozenset(combo)


def test_atom_table_reads_the_atoms_of_d6_by_size():
    # verify_atom_table groups the atoms of d6(n) by basis size; these
    # are exactly the bases the table's rows range over.
    for n in range(4, 10):
        by_size = {}
        for basis in atoms(d6(n)):
            by_size.setdefault(len(basis), set()).add(basis)
        assert by_size == {size: set(_bases_of_size(n, size)) for size in range(n - 1)}


def test_max_atom_table_bound_matches_table():
    for n, column in ATOM_TABLE.items():
        for size, expected in enumerate(column):
            assert max_atom_table_bound(n, size) == expected


def test_atom_table_rejects_unknown_column():
    with pytest.raises(ValueError):
        verify_atom_table(12)


# ---------------------------------------------------------------------------
# semigroup class checks

def test_semigroup_classes_hold_for_small_n():
    for n in (4, 5, 6):
        for r in verify_semigroup_classes(n):
            assert r.met and r.asserted, (n, r.measure)


# ---------------------------------------------------------------------------
# search

def test_search_degree_2():
    r = search_subsemigroups(2)
    assert r.semigroups_found == 1
    assert r.max_cardinality == 1
    assert not r.any_colliding_and_focused
    assert r.complete


def test_search_degree_4():
    r = search_subsemigroups(4)
    assert r.max_cardinality == 13  # vsf(4) is the largest
    assert r.semigroups_found == 479
    assert not r.any_colliding_and_focused
    assert r.to_dict()["degree"] == 4


def test_search_reports_are_unchanged():
    assert search_subsemigroups(4, 3).to_dict() == {
        "degree": 4, "generator_cap": 3, "semigroups_found": 479,
        "max_cardinality": 13, "any_colliding_and_focused": False,
        "complete": True}
    assert search_subsemigroups(5, 2).to_dict() == {
        "degree": 5, "generator_cap": 2, "semigroups_found": 5308,
        "max_cardinality": 49, "any_colliding_and_focused": False,
        "complete": True}


def test_search_budgets():
    with pytest.raises(BudgetError):
        search_subsemigroups(6)
    with pytest.raises(BudgetError):
        search_subsemigroups(4, cap=4)


# ---------------------------------------------------------------------------
# dispatcher and sweep

def test_verify_dispatcher():
    assert verify("star", n=6)[0].met
    assert verify("union", m=6, n=6, family="d5")[0].met
    assert verify("UNION", m=6, n=6)[0].params["family"] == "d6"
    assert verify("atoms", n=5)[0].measure == "atom-count"
    assert len(verify("classes", n=5)) == 4
    with pytest.raises(ValueError):
        verify("squaring", n=6)
    with pytest.raises(ValueError, match="takes parameters n, not none"):
        verify("star")


def test_verify_all_order():
    # The parent's hand-written sweep: the n = 4..7 measures run side
    # by side for each n, every other measure over its whole sweep.
    expected = [("star", n) for n in (6, 7)]
    expected += [("product", m, n) for m in (6, 7) for n in (6, 7)]
    expected += [("product-binary", m, n, True)  # every pair is coprime
                 for m, n in ((6, 7), (7, 8), (8, 9))]
    for op in BooleanOp:
        expected += [(f"boolean-{op.value}", m, n, "d5")
                     for m in (6, 7) for n in (6, 7)]
        expected += [(f"boolean-{op.value}", m, n, "d6")
                     for m in range(4, 8) for n in range(4, 8)]
    for n in range(4, 8):
        expected += [("reversal", n), ("atom-count", n), ("syntactic", n),
                     ("wsf-size", n)]
        expected += [(f"classes.{fact}", n) for fact in (
            "star-in-vsf-not-wsf", "reversal-in-wsf", "atoms-in-wsf-not-vsf",
            "incompatible")]
        expected += [("atom-table", n, size) for size in range(n - 1)]
    assert [(r.measure, *r.params.values()) for r in verify_all()] == expected


def test_verify_all_has_no_asserted_failures():
    reports = verify_all()
    assert len(reports) > 100
    failures = [r for r in reports if r.asserted and not r.met]
    assert failures == []
    informational = {(r.measure, r.params["m"], r.params["n"])
                     for r in reports if not r.asserted}
    assert informational == {
        (f"boolean-{op.value}", 4, 4) for op in BooleanOp
    }
