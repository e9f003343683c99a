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
from dataclasses import asdict, dataclass
from itertools import combinations, groupby
from typing import Callable

from .atoms import _atom_complexities, atoms, middle_basis_bound, syntactic_complexity
from .automata import BudgetError
from .langops import BooleanOp, boolean, concat, reverse, star
from .semigroups import (
    BSF,
    VSF,
    WSF,
    TransitionSemigroup,
    _close,
    colliding_pairs,
    enumerate_class,
    focused_pairs,
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
        compute=lambda: star(d5(n, "a,b,-")).state_count,
        bound=star_bound(n),
    )


def verify_product(m: int, n: int) -> ComplexityReport:
    return _report(
        "product", {"m": m, "n": n}, asserted=m >= 6 and n >= 6,
        compute=lambda: concat(d5(m), d5(n, "b,c,a")).state_count,
        bound=product_bound(m, n),
    )


def verify_product_binary(m: int, n: int) -> ComplexityReport:
    coprime = math.gcd(m - 2, n - 2) == 1
    left, right = binary_product_pair(m, n)
    return _report(
        "product-binary", {"m": m, "n": n, "coprime": coprime},
        asserted=m >= 6 and n >= 6 and coprime,
        compute=lambda: concat(left, right).state_count,
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
        compute=lambda: boolean(w1, w2, op).state_count,
        bound=BOOLEAN_BOUNDS[op](m, n),
    )


def verify_reversal(n: int) -> ComplexityReport:
    return _report(
        "reversal", {"n": n}, asserted=n >= 4,
        compute=lambda: reverse(d6(n, "a,-,c,-,e")).state_count,
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
    bases, complexity = _atom_complexities(d6(n)) if construct else ([], None)
    reports = []
    for size in range(n - 1):
        expected = ATOM_TABLE[n][size]

        def compute(size=size):
            if construct:
                return max(complexity(b) for b in bases if b.bit_count() == size)
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
    def inside(sg, cls, not_cls=None):
        return int(is_subsemigroup_of(sg, cls)
                   and not (not_cls and is_subsemigroup_of(sg, not_cls)))

    reports = [
        _report("classes.star-in-vsf-not-wsf", {"n": n}, n >= 4,
                lambda: inside(star_side_semigroup(n), VSF, WSF), 1),
        _report("classes.reversal-in-wsf", {"n": n}, n >= 4,
                lambda: inside(transition_semigroup(d6(n, "a,-,c,-,e")), WSF), 1),
        _report("classes.atoms-in-wsf-not-vsf", {"n": n}, n >= 4,
                lambda: inside(transition_semigroup(d6(n)), WSF, VSF), 1),
    ]
    reports.append(_report(
        "classes.incompatible", {"n": n}, n >= 4,
        lambda: int(reports[0].computed and reports[1].computed), 1))
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
        return asdict(self)


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
    all_middle_pairs = frozenset(combinations(range(1, n - 1), 2))
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
            closure = TransitionSemigroup._of_bytes(n, elements)
            if (all_middle_pairs
                    and colliding_pairs(closure) == all_middle_pairs
                    and focused_pairs(closure) == all_middle_pairs):
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
# The measure table.

def _boolean(op: BooleanOp) -> Callable:
    return lambda m, n, family: verify_boolean(m, n, op, family)


#: Shared by the measures verify_all() runs side by side, one n at a time.
_SMALL_N = tuple((n,) for n in range(4, 8))

#: Measure name -> (run, parameter names, default sweep): run(*args)
#: returns a report or a list of reports, and the sweep holds the
#: argument tuples verify_all() passes.
MEASURES = {
    "star": (verify_star, ("n",), ((6,), (7,))),
    "product": (verify_product, ("m", "n"), ((6, 6), (6, 7), (7, 6), (7, 7))),
    "product-binary": (verify_product_binary, ("m", "n"),
                       ((6, 7), (7, 8), (8, 9))),
    **{op.value: (_boolean(op), ("m", "n", "family"),
                  tuple([(m, n, "d5") for m in (6, 7) for n in (6, 7)]
                        + [(m, n, "d6") for m in range(4, 8) for n in range(4, 8)]))
       for op in BooleanOp},
    "reversal": (verify_reversal, ("n",), _SMALL_N),
    "atom-count": (verify_atom_count, ("n",), _SMALL_N),
    "syntactic": (verify_syntactic, ("n",), _SMALL_N),
    "wsf-size": (verify_wsf_size, ("n",), _SMALL_N),
    "classes": (verify_semigroup_classes, ("n",), _SMALL_N),
    "atom-table": (verify_atom_table, ("n",), _SMALL_N),
}

ALIASES = {"product_binary": "product-binary", "atoms": "atom-count",
           "table": "atom-table"}


def _listed(result) -> list:
    return result if isinstance(result, list) else [result]


def verify(measure: str, **params) -> list:
    """Run one measure by name or alias at the given parameters (a
    boolean measure's family defaults to d6); returns a list of reports.
    A missing parameter, or one the measure does not take, raises
    ValueError."""
    name = ALIASES.get(measure.lower(), measure.lower())
    if name not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    run, names, _ = MEASURES[name]
    if "family" in names:
        params.setdefault("family", "d6")
    if set(params) != set(names):
        raise ValueError(f"measure {name!r} takes parameters {', '.join(names)}, "
                         f"not {', '.join(sorted(params)) or 'none'}")
    return _listed(run(**params))


def verify_all() -> list:
    """Every measure over its default sweep, in table order.  Measures
    next to each other that share one sweep object run side by side:
    each argument tuple goes to all of them before the next one."""
    reports = []
    for _, group in groupby(MEASURES.values(), key=lambda e: id(e[2])):
        group = list(group)
        for args in group[0][2]:
            for run, _, _ in group:
                reports += _listed(run(*args))
    return reports
