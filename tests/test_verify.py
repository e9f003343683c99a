import importlib
import math
from itertools import combinations, permutations

import pytest

from suffixfree import semigroups
from suffixfree.atoms import _atom_complexities, atoms
from suffixfree.automata import BudgetError
from suffixfree.langops import BooleanOp
from suffixfree.semigroups import (
    BSF, enumerate_class, wsf_cardinality)
from suffixfree.verify import (
    ATOM_TABLE,
    ComplexityReport,
    _conjugations,
    _pair_masks,
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
    verify_syntactic,
    verify_wsf_size,
)
from suffixfree.witnesses import d6

from helpers import (
    conjugate, kept_closures, reference_colliding_pairs, reference_focused_pairs,
    reference_search)

# The package exports the function verify under the module's name.
verify_module = importlib.import_module("suffixfree.verify")


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


def test_verify_boolean_rejects_an_op_that_is_not_a_boolean_op():
    # The value string once escaped as an AttributeError on op.value.
    for op in ("union", "intersection", None):
        with pytest.raises(ValueError, match="BooleanOp"):
            verify_boolean(5, 5, op)


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
        reports = verify_atom_table(n, construct=False)
        assert all(r.met for r in reports)
        assert all(r.measure == "atom-table-formula" for r in reports)
        assert tuple(r.computed for r in reports) == ATOM_TABLE[n]


def test_atom_table_constructs_by_default_up_to_n9():
    for n in (8, 9):
        reports = verify_atom_table(n)
        assert all(r.met and r.asserted for r in reports)
        assert all(r.measure == "atom-table" for r in reports)
        assert tuple(r.computed for r in reports) == ATOM_TABLE[n]


def test_atom_table_maxima_meet_the_bound_at_n10_and_n11():
    # No ATOM_TABLE column: one read off this code would check nothing.
    # The maxima over the bases of each size must still meet the bound
    # formula; about 0.1 s and 0.3 s on one shared pair graph.
    for n in (10, 11):
        bases, complexities = _atom_complexities(d6(n))
        maxima = [0] * (n - 1)
        for b, c in complexities(bases).items():
            maxima[b.bit_count()] = max(maxima[b.bit_count()], c)
        assert maxima == [max_atom_table_bound(n, size) for size in range(n - 1)]


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
    for size in (-1, 5, 1.0):
        with pytest.raises(ValueError):
            max_atom_table_bound(6, size)


def test_atom_table_rejects_unknown_column():
    with pytest.raises(ValueError):
        verify_atom_table(12)
    # 5.0 == 5 once found column 5; "5" was reported as a missing column.
    for n in (5.0, "5", True):
        with pytest.raises(ValueError, match="int n"):
            verify_atom_table(n)


# ---------------------------------------------------------------------------
# semigroup sizes and class checks

def test_syntactic_and_wsf_size_meet_their_bounds_at_n9():
    # Counted by R-classes, about 0.1 s each; listing the 2,097,159
    # elements took 3.5 s and 320 MB.
    for r in (verify_syntactic(9), verify_wsf_size(9)):
        assert r.met and r.asserted, r.measure
        assert r.computed == syntactic_bound(9) == 2097159


def _count_closures(monkeypatch) -> list:
    """Patch semigroups._close to record (degree, size) of each closure."""
    close = semigroups._close
    closed = []

    def counted(degree, gens, **kw):
        elements, escape = close(degree, gens, **kw)
        closed.append((degree, len(elements)))
        return elements, escape

    monkeypatch.setattr(semigroups, "_close", counted)
    return closed


def test_verify_all_lists_no_copy_of_wsf_n(monkeypatch):
    # No measure lists wsf(n): syntactic and wsf-size count it, and the
    # class checks read generators.  A closure of degree >= 4 the size of
    # wsf(n) is a copy of wsf(n): no Schützenberger group that
    # semigroup_size closes has that order.
    closed = _count_closures(monkeypatch)
    verify_all()
    assert sorted(n for n, size in closed
                  if n >= 4 and size == wsf_cardinality(n)) == []


def test_semigroup_classes_close_no_semigroup(monkeypatch):
    closed = _count_closures(monkeypatch)
    for n in range(4, 9):
        assert all(r.met and r.asserted for r in verify_semigroup_classes(n))
    assert closed == []


def test_semigroup_classes_hold_for_small_n():
    for n in (4, 5, 6):
        for r in verify_semigroup_classes(n):
            assert r.met and r.asserted, (n, r.measure)


def test_semigroup_classes_reach_past_the_closure_budget():
    # |wsf(10)| = 43,046,729 is over MAX_CLOSURE_ELEMENTS, so listing the
    # witnesses' semigroups raised BudgetError from n = 10 on.
    assert wsf_cardinality(10) > semigroups.MAX_CLOSURE_ELEMENTS
    for n in range(9, 13):
        reports = verify("classes", n=n)
        assert len(reports) == 4
        assert all(r.met and r.asserted for r in reports), n


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


@pytest.mark.parametrize("n, cap", [(n, cap) for n in (2, 3, 4) for cap in (1, 2, 3)]
                         + [(5, 1), (5, 2)])
def test_search_matches_reference(n, cap):
    assert search_subsemigroups(n, cap).to_dict() == reference_search(n, cap).to_dict()


def test_search_at_n5_cap3():
    # 140,048 of the 253,575 closures stay inside bsf(5); |vsf(5)| = 73
    # needs more than three generators.
    assert search_subsemigroups(5, 3).to_dict() == {
        "degree": 5, "generator_cap": 3, "semigroups_found": 140048,
        "max_cardinality": 61, "any_colliding_and_focused": False,
        "complete": True}


@pytest.mark.parametrize("n", range(2, 7))
def test_conjugation_maps_bsf_onto_itself(n):
    members = enumerate_class(n, BSF)
    for middle in permutations(range(1, n - 1)):
        pi = (0, *middle, n - 1)
        assert {conjugate(t, pi) for t in members} == members
    if n <= 5:
        ordered = sorted(members)
        maps = _conjugations(n, [bytes(t) for t in ordered])
        assert len(maps) == math.factorial(n - 2)
        for middle, m in zip(permutations(range(1, n - 1)), maps):
            pi = (0, *middle, n - 1)
            assert [ordered[i] for i in m] == [conjugate(t, pi) for t in ordered]


def test_pair_masks_or_to_the_pairs_of_each_closure():
    # No closure of the search meets the pair condition, so this is what
    # exercises the masks: their OR over a kept closure's elements gives
    # its colliding pairs in the low bits and its focused pairs above,
    # as the element-scanning oracles find them.
    # n = 4 has one middle pair, {1, 2}, so only n = 5 tells the pairs'
    # bits apart.
    for n, cap in ((4, 3), (5, 2)):
        pairs = list(combinations(range(1, n - 1), 2))
        bsf = [bytes(t) for t in sorted(enumerate_class(n, BSF))]
        mask = dict(zip(bsf, _pair_masks(n, bsf)))
        kinds = set()
        for closure in kept_closures(n, cap):
            got = 0
            for t in closure._raw:
                got |= mask[t]
            colliding = reference_colliding_pairs(closure)
            focused = reference_focused_pairs(closure)
            kinds.add((bool(colliding), bool(focused)))
            assert got == (sum(1 << pairs.index(p) for p in colliding)
                           | sum(1 << pairs.index(p) for p in focused) << len(pairs))
        assert {(True, False), (False, True)} <= kinds, n


@pytest.mark.parametrize("n, cap", [(4, 3), (5, 2)])
def test_search_closes_each_least_subset_once_after_its_prefix(monkeypatch, n, cap):
    close = verify_module._close
    closed = []
    inside = {}

    def spy(degree, gens, **kw):
        elements, escape = close(degree, gens, **kw)
        closed.append(tuple(gens))
        inside[tuple(gens)] = escape is None
        return elements, escape

    monkeypatch.setattr(verify_module, "_close", spy)
    report = search_subsemigroups(n, cap)
    assert len(set(closed)) == len(closed)
    # Each element of bsf(n) by its rank, and the ranks of its conjugates,
    # one row per permutation of the middle states.
    bsf = sorted(enumerate_class(n, BSF))
    raw = [bytes(t) for t in bsf]
    rank = {t: i for i, t in enumerate(raw)}
    rows = [[bsf.index(conjugate(t, (0, *middle, n - 1))) for t in bsf]
            for middle in permutations(range(1, n - 1))]

    def orbit(subset):
        return {tuple(sorted(row[i] for i in subset)) for row in rows}

    found = 0
    for gens in closed:
        subset = tuple(map(rank.get, gens))
        assert list(subset) == sorted(set(subset)) and len(subset) <= cap
        assert min(orbit(subset)) == subset
        for k in range(1, len(gens)):
            assert inside[gens[:k]], (gens, k)
        if inside[gens]:
            found += len(orbit(subset))
    assert found == report.semigroups_found
    # Every least subset whose proper prefixes stayed inside is closed.
    expected = {
        subset for size in range(1, cap + 1)
        for subset in combinations(range(len(bsf)), size)
        if (size == 1 or inside.get(tuple(raw[i] for i in subset[:-1])))
        and min(orbit(subset)) == subset}
    assert {tuple(map(rank.get, gens)) for gens in closed} == expected


def test_search_rejects_arguments_that_are_not_ints():
    # A float escaped as a TypeError from range, and cap=True ran as cap 1
    # with generator_cap reported as True.
    for n, cap, name in ((4.0, 1, "n"), (True, 1, "n"), (5, 2.5, "cap"),
                         (4, True, "cap"), (4, "2", "cap")):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            search_subsemigroups(n, cap)


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


def test_verify_rejects_an_n_or_m_that_is_not_an_int():
    # These escaped as TypeError, or as a missing atom-table column.
    for measure, params, key in (("star", {"n": "6"}, "n"),
                                 ("syntactic", {"n": None}, "n"),
                                 ("atom-table", {"n": "5"}, "n"),
                                 ("reversal", {"n": 6.0}, "n"),
                                 ("product", {"m": True, "n": 6}, "m"),
                                 ("union", {"m": 6, "n": "6"}, "n")):
        with pytest.raises(ValueError, match=f"parameter {key} must be an int"):
            verify(measure, **params)


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
