"""Verification harness: reproduces every desk-scale complexity bound,
semigroup cardinality and atom-complexity table entry by exact
computation on the witness families.

Each check yields a ComplexityReport.  Reports whose parameters fall
outside the range where the bound is known to be attainable are
informational (asserted=False) and never count as failures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations

from .atoms import atom_complexity, atoms, middle_basis_bound, syntactic_complexity
from .automata import BudgetError, quotient_complexity
from .langops import BooleanOp, boolean, concat, reverse, star
from .semigroups import (
    BSF,
    VSF,
    WSF,
    TransitionSemigroup,
    _close,
    _colliding_pairs,
    _focused_pairs,
    enumerate_class,
    generate,
    is_subsemigroup_of,
    transition_semigroup,
    vsf_generators,
    wsf_cardinality,
    wsf_generators,
)
from .witnesses import binary_product_pair, d5, d6

# ---------------------------------------------------------------------------
# Bound formulas (exact integer arithmetic).

def star_bound(n: int) -> int:
    return 2 ** (n - 2) + 1


def product_bound(m: int, n: int) -> int:
    return (m - 1) * 2 ** (n - 2) + 1


def union_bound(m: int, n: int) -> int:
    return m * n - (m + n - 2)


def intersection_bound(m: int, n: int) -> int:
    return m * n - 2 * (m + n - 3)


def difference_bound(m: int, n: int) -> int:
    return m * n - (m + 2 * n - 4)


reversal_bound = star_bound
atom_count_bound = star_bound
syntactic_bound = wsf_cardinality

BOOLEAN_BOUNDS = {
    BooleanOp.UNION: union_bound,
    BooleanOp.SYMMETRIC_DIFFERENCE: union_bound,
    BooleanOp.INTERSECTION: intersection_bound,
    BooleanOp.DIFFERENCE: difference_bound,
}

#: Reference atom-complexity values for the quinary witness family,
#: indexed by basis size 0..n-2.
ATOM_TABLE = {
    4: (5, 5, 4),
    5: (9, 13, 16, 8),
    6: (17, 33, 53, 43, 16),
    7: (33, 81, 156, 166, 106, 32),
    8: (65, 193, 427, 542, 462, 249, 64),
    9: (129, 449, 1114, 1611, 1646, 1205, 568, 128),
}


@dataclass(frozen=True)
class ComplexityReport:
    measure: str
    params: dict
    computed: int
    bound: int
    asserted: bool
    runtime_ms: int

    @property
    def met(self) -> bool:
        return self.computed == self.bound

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "params": dict(self.params),
            "computed": self.computed,
            "bound": self.bound,
            "met": self.met,
            "asserted": self.asserted,
            "runtime_ms": self.runtime_ms,
        }


def _report(measure, params, asserted, compute, bound):
    t0 = time.perf_counter()
    computed = compute()
    ms = int((time.perf_counter() - t0) * 1000)
    return ComplexityReport(
        measure=measure,
        params=params,
        computed=computed,
        bound=bound,
        asserted=asserted,
        runtime_ms=ms,
    )


# ---------------------------------------------------------------------------
# Individual measures.

def verify_star(n: int) -> ComplexityReport:
    return _report(
        "star", {"n": n}, asserted=n >= 6,
        compute=lambda: quotient_complexity(star(d5(n, "a,b,-"))),
        bound=star_bound(n),
    )


def verify_product(m: int, n: int) -> ComplexityReport:
    return _report(
        "product", {"m": m, "n": n}, asserted=m >= 6 and n >= 6,
        compute=lambda: quotient_complexity(concat(d5(m), d5(n, "b,c,a"))),
        bound=product_bound(m, n),
    )


def verify_product_binary(m: int, n: int) -> ComplexityReport:
    coprime = math.gcd(m - 2, n - 2) == 1
    left, right = binary_product_pair(m, n)
    return _report(
        "product-binary", {"m": m, "n": n, "coprime": coprime},
        asserted=m >= 6 and n >= 6 and coprime,
        compute=lambda: quotient_complexity(concat(left, right)),
        bound=product_bound(m, n),
    )


def _boolean_witnesses(family: str, m: int, n: int):
    if family == "d5":
        return d5(m, "a,b,-"), d5(n, "-,b,a"), m >= 6 and n >= 6
    if family == "d6":
        # At m = n = 4 the roles a and b coincide, so the two dialects
        # are the same automaton and the bounds are unreachable; that
        # pair is reported informationally only.
        in_range = m >= 4 and n >= 4 and (m, n) != (4, 4)
        return d6(m, "a,b,-,d,e"), d6(n, "b,a,-,d,e"), in_range
    raise ValueError(f"unknown witness family {family!r}")


def verify_boolean(m: int, n: int, op: BooleanOp, family: str = "d6") -> ComplexityReport:
    w1, w2, in_range = _boolean_witnesses(family, m, n)
    return _report(
        f"boolean-{op.value}", {"m": m, "n": n, "family": family},
        asserted=in_range,
        compute=lambda: quotient_complexity(boolean(w1, w2, op)),
        bound=BOOLEAN_BOUNDS[op](m, n),
    )


def verify_reversal(n: int) -> ComplexityReport:
    return _report(
        "reversal", {"n": n}, asserted=n >= 4,
        compute=lambda: quotient_complexity(reverse(d6(n, "a,-,c,-,e"))),
        bound=reversal_bound(n),
    )


def verify_atom_count(n: int) -> ComplexityReport:
    return _report(
        "atom-count", {"n": n}, asserted=n >= 4,
        compute=lambda: len(atoms(d6(n))),
        bound=atom_count_bound(n),
    )


def verify_syntactic(n: int) -> ComplexityReport:
    return _report(
        "syntactic", {"n": n}, asserted=n >= 4,
        compute=lambda: syntactic_complexity(d6(n)),
        bound=syntactic_bound(n),
    )


def verify_wsf_size(n: int) -> ComplexityReport:
    return _report(
        "wsf-size", {"n": n}, asserted=n >= 4,
        compute=lambda: len(generate(n, [t for _, t in wsf_generators(n)])),
        bound=wsf_cardinality(n),
    )


def max_atom_table_bound(n: int, size: int) -> int:
    """Largest atom-complexity bound over bases of the given size."""
    if size == 0:
        return 2 ** (n - 2) + 1
    if size == 1:
        return max(n, middle_basis_bound(n, 1))
    return middle_basis_bound(n, size)


def _bases_of_size(n: int, size: int):
    if size == 0:
        yield frozenset()
        return
    if size == 1:
        yield frozenset({0})
    for combo in combinations(range(1, n - 1), size):
        yield frozenset(combo)


def verify_atom_table(n: int, construct: bool = None) -> list:
    """Per-basis-size maxima of atom complexity for the quinary witness,
    checked against the reference table.

    For n <= 7 the maxima are computed by building the atom DFAs; for
    larger n only the bound formula is evaluated unless construct=True.
    """
    if n not in ATOM_TABLE:
        raise ValueError(f"no reference table column for n={n}")
    if construct is None:
        construct = n <= 7
    witness = d6(n) if construct else None
    reports = []
    for size in range(n - 1):
        expected = ATOM_TABLE[n][size]

        def compute(size=size):
            if construct:
                return max(
                    atom_complexity(witness, b) for b in _bases_of_size(n, size)
                )
            return max_atom_table_bound(n, size)

        reports.append(
            _report(
                "atom-table" if construct else "atom-table-formula",
                {"n": n, "size": size},
                asserted=True,
                compute=compute,
                bound=expected,
            )
        )
    return reports


def verify_tables() -> list:
    """All reference-table columns: construction for n = 4..7, formula
    checks for n = 8..9."""
    reports = []
    for n in sorted(ATOM_TABLE):
        reports.extend(verify_atom_table(n))
    return reports


def star_side_semigroup(n: int) -> TransitionSemigroup:
    """Transition semigroup of a star-bound witness.  The ternary
    witness family starts at n = 6; at n = 4, 5 the canonical automaton
    whose semigroup is all of vsf(n) stands in."""
    if n >= 6:
        return transition_semigroup(d5(n, "a,b,-"))
    return generate(n, [t for _, t in vsf_generators(n)],
                    names=[name for name, _ in vsf_generators(n)])


def verify_semigroup_classes(n: int) -> list:
    """The semigroup-side facts behind the non-existence of a single
    most complex suffix-free witness:

    * star-side semigroup is inside vsf(n) but not inside wsf(n);
    * reversal-witness semigroup is inside wsf(n);
    * atom-witness semigroup is inside wsf(n) but not inside vsf(n);
    * hence no transition semigroup fits both roles (incompatibility).
    """
    reports = []
    t0 = time.perf_counter()
    star_sg = star_side_semigroup(n)
    star_ok = is_subsemigroup_of(star_sg, VSF) and not is_subsemigroup_of(star_sg, WSF)
    ms = int((time.perf_counter() - t0) * 1000)
    reports.append(ComplexityReport(
        "classes.star-in-vsf-not-wsf", {"n": n}, int(star_ok), 1, n >= 4, ms))

    t0 = time.perf_counter()
    rev_sg = transition_semigroup(d6(n, "a,-,c,-,e"))
    rev_ok = is_subsemigroup_of(rev_sg, WSF)
    ms = int((time.perf_counter() - t0) * 1000)
    reports.append(ComplexityReport(
        "classes.reversal-in-wsf", {"n": n}, int(rev_ok), 1, n >= 4, ms))

    t0 = time.perf_counter()
    atom_sg = transition_semigroup(d6(n))
    atom_ok = is_subsemigroup_of(atom_sg, WSF) and not is_subsemigroup_of(atom_sg, VSF)
    ms = int((time.perf_counter() - t0) * 1000)
    reports.append(ComplexityReport(
        "classes.atoms-in-wsf-not-vsf", {"n": n}, int(atom_ok), 1, n >= 4, ms))

    reports.append(ComplexityReport(
        "classes.incompatible", {"n": n}, int(star_ok and rev_ok), 1, n >= 4, 0))
    return reports


@dataclass(frozen=True)
class SearchReport:
    """Exhaustive closure search over small generator subsets of bsf(n)."""

    degree: int
    generator_cap: int
    semigroups_found: int
    max_cardinality: int
    #: Whether any closure has every middle pair both colliding and
    #: focused (expected: none, ever).
    any_colliding_and_focused: bool
    complete: bool

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "generator_cap": self.generator_cap,
            "semigroups_found": self.semigroups_found,
            "max_cardinality": self.max_cardinality,
            "any_colliding_and_focused": self.any_colliding_and_focused,
            "complete": self.complete,
        }


def search_subsemigroups(n: int, cap: int = 3) -> SearchReport:
    """Closures of every generator subset of bsf(n) up to the size cap.

    Records the largest suffix-free semigroup found and whether any
    closure has all middle pairs simultaneously colliding and focused.
    """
    if cap < 1:
        raise ValueError(f"generator-set size cap must be >= 1, not {cap}")
    if n > 5:
        raise BudgetError("subsemigroup search is budgeted for n <= 5")
    if cap > 3:
        raise BudgetError("generator-set size cap is 3")
    bsf = [bytes(t) for t in sorted(enumerate_class(n, BSF))]
    bsf_set = set(bsf)
    all_middle_pairs = frozenset(
        (p, q) for p in range(1, n - 1) for q in range(p + 1, n - 1)
    )
    found = 0
    best = 0
    any_both = False
    for size in range(1, cap + 1):
        for gens in combinations(bsf, size):
            elements, escape = _close(n, gens, guard=bsf_set)
            if escape is not None:
                continue
            found += 1
            best = max(best, len(elements))
            if (all_middle_pairs
                    and _colliding_pairs(n, elements) == all_middle_pairs
                    and _focused_pairs(n, elements) == all_middle_pairs):
                any_both = True
    return SearchReport(
        degree=n,
        generator_cap=cap,
        semigroups_found=found,
        max_cardinality=best,
        any_colliding_and_focused=any_both,
        complete=True,
    )


# ---------------------------------------------------------------------------
# Dispatch and sweeps.

def verify(measure: str, **params) -> list:
    """Run one measure by name; returns a list of reports."""
    m = measure.lower()
    if m == "star":
        return [verify_star(params["n"])]
    if m == "product":
        return [verify_product(params["m"], params["n"])]
    if m in ("product-binary", "product_binary"):
        return [verify_product_binary(params["m"], params["n"])]
    if m in ("union", "intersection", "difference", "symmetric-difference"):
        op = BooleanOp(m)
        return [verify_boolean(params["m"], params["n"], op,
                               family=params.get("family", "d6"))]
    if m == "reversal":
        return [verify_reversal(params["n"])]
    if m in ("atom-count", "atoms"):
        return [verify_atom_count(params["n"])]
    if m == "syntactic":
        return [verify_syntactic(params["n"])]
    if m == "wsf-size":
        return [verify_wsf_size(params["n"])]
    if m in ("atom-table", "table"):
        return verify_atom_table(params["n"])
    if m == "tables":
        return verify_tables()
    if m == "classes":
        return verify_semigroup_classes(params["n"])
    raise ValueError(f"unknown measure {measure!r}")


def verify_all() -> list:
    """Default sweep: every measure at n, m in 4..7 where the family is
    defined, plus the coprime binary product pairs."""
    reports = []
    for n in (6, 7):
        reports.append(verify_star(n))
    for m in (6, 7):
        for n in (6, 7):
            reports.append(verify_product(m, n))
    for m, n in ((6, 7), (7, 8), (8, 9)):
        reports.append(verify_product_binary(m, n))
    for op in BooleanOp:
        for m in (6, 7):
            for n in (6, 7):
                reports.append(verify_boolean(m, n, op, family="d5"))
        for m in range(4, 8):
            for n in range(4, 8):
                reports.append(verify_boolean(m, n, op, family="d6"))
    for n in range(4, 8):
        reports.append(verify_reversal(n))
        reports.append(verify_atom_count(n))
        reports.append(verify_syntactic(n))
        reports.append(verify_wsf_size(n))
        reports.extend(verify_semigroup_classes(n))
        reports.extend(verify_atom_table(n))
    return reports
