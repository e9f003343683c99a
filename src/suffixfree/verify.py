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
from functools import reduce
from itertools import combinations, groupby, permutations
from operator import or_
from typing import Callable

from .atoms import _atom_complexities, atoms, suffix_free_atom_bound, syntactic_complexity
from .automata import BudgetError
from .langops import BooleanOp, _check_op, boolean, concat, reverse, star
from .semigroups import (
    BSF,
    VSF,
    WSF,
    _close,
    _generated_in,
    _letter_maps,
    enumerate_class,
    semigroup_size,
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
    _check_op(op)
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
        compute=lambda: semigroup_size(n, [t for _, t in wsf_generators(n)]),
        bound=wsf_cardinality(n),
    )


def max_atom_table_bound(n: int, size: int) -> int:
    """Largest atom-complexity bound over bases of the given size: the
    middle basis {1,...,size} and, at size 1, the basis {0}."""
    if type(size) is not int or size < 0:
        raise ValueError(f"basis size must be an int >= 0, not {size!r}")
    bases = [range(1, size + 1)] + [{0}] * (size == 1)
    return max(suffix_free_atom_bound(n, b) for b in bases)


def verify_atom_table(n: int, construct: bool = True) -> list:
    """Per-basis-size maxima of atom complexity for the quinary witness,
    checked against the reference table, which has a column for each n
    in 4..9.

    The maxima are counted on the atoms' shared pair graph (see
    atoms._atom_complexities), charged to the size-0 report.  With
    construct=False only the bound formula is evaluated and compared
    with the table, as measure atom-table-formula.
    """
    if type(n) is not int or n not in ATOM_TABLE:
        raise ValueError(f"no reference table column for n = {n!r}; "
                         f"the columns are int n = {min(ATOM_TABLE)}..{max(ATOM_TABLE)}")
    maxima = {}

    def compute(size):
        if not construct:
            return max_atom_table_bound(n, size)
        if not maxima:
            bases, complexities = _atom_complexities(d6(n))
            for b, c in complexities(bases).items():
                maxima[b.bit_count()] = max(maxima.get(b.bit_count(), 0), c)
        return maxima[size]

    return [
        _report(
            "atom-table" if construct else "atom-table-formula",
            {"n": n, "size": size},
            asserted=True,
            compute=lambda size=size: compute(size),
            bound=ATOM_TABLE[n][size],
        )
        for size in range(n - 1)
    ]


def _star_side_generators(n: int) -> list:
    """Generators of the transition semigroup of a star-bound witness.
    The ternary witness family starts at n = 6; at n = 4, 5 the
    generators of vsf(n), the semigroup of a canonical automaton, stand
    in."""
    if n >= 6:
        return _letter_maps(d5(n, "a,b,-"))[1]
    return [t for _, t in vsf_generators(n)]


def verify_semigroup_classes(n: int) -> list:
    """The semigroup-side facts behind the non-existence of a single
    most complex suffix-free witness:

    * star-side semigroup is inside vsf(n) but not inside wsf(n);
    * reversal-witness semigroup is inside wsf(n);
    * atom-witness semigroup is inside wsf(n) but not inside vsf(n);
    * hence no transition semigroup fits both roles (incompatibility).

    Each semigroup is judged on its generators (see
    semigroups._generated_in), so none is listed and every n is in reach.
    """
    def inside(gens, cls, not_cls=None):
        return int(_generated_in(gens, cls)
                   and not (not_cls and _generated_in(gens, not_cls)))

    reports = [
        _report("classes.star-in-vsf-not-wsf", {"n": n}, n >= 4,
                lambda: inside(_star_side_generators(n), VSF, WSF), 1),
        _report("classes.reversal-in-wsf", {"n": n}, n >= 4,
                lambda: inside(_letter_maps(d6(n, "a,-,c,-,e"))[1], WSF), 1),
        _report("classes.atoms-in-wsf-not-vsf", {"n": n}, n >= 4,
                lambda: inside(_letter_maps(d6(n))[1], WSF, VSF), 1),
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


def _conjugations(n: int, elements: list) -> list:
    """For each permutation pi of the middle states 1..n-2 (0 and the
    sink fixed), the conjugation t -> u, u[pi[q]] = pi[t[q]], as a map
    of indices into elements, which it must permute."""
    index = {t: i for i, t in enumerate(elements)}
    maps = []
    for middle in permutations(range(1, n - 1)):
        pi = (0, *middle, n - 1)
        back = sorted(range(n), key=pi.__getitem__)
        maps.append([index[bytes([pi[t[q]] for q in back])] for t in elements])
    return maps


def _pair_masks(n: int, elements: list) -> list:
    """Per element, its colliding middle pairs in the low bits and its
    focused middle pairs in the bits above them, pair j of
    combinations(range(1, n - 1), 2) at bit j of each half.  Both kinds
    of pair are unions over elements, so a set of elements has every
    middle pair colliding and focused iff the OR of its masks is all
    ones.  Both are read off the element's bytes t: {p, q} collides when
    t sends 0 to one of p and q and a middle state to the other, and is
    focused when t[p] == t[q] is a middle state."""
    middle = range(1, n - 1)
    pairs = list(combinations(middle, 2))

    def mask(t):
        images = t[1:-1]
        return sum([1 << j for j, (p, q) in enumerate(pairs)
                    if t[0] == p and q in images or t[0] == q and p in images]
                   + [1 << len(pairs) + j for j, (p, q) in enumerate(pairs)
                      if t[p] == t[q] in middle])

    return [mask(t) for t in elements]


def search_subsemigroups(n: int, cap: int = 3) -> SearchReport:
    """Closures of every generator subset of bsf(n) up to the size cap.

    Records the largest suffix-free semigroup found and whether any
    closure has all middle pairs simultaneously colliding and focused.

    Conjugating by a permutation of the middle states maps bsf(n) onto
    itself and keeps a closure's escape from bsf(n), its size and the
    pair condition, so one subset per orbit of that group is closed: the
    least in its orbit, its generators taken in the sorted order of
    bsf(n).  semigroups_found still counts generator subsets, each orbit
    by its size, not distinct semigroups: subsets that generate the same
    semigroup each count.

    Subsets grow by orderly generation, one element past their largest
    at a time.  The least subset of an orbit, without its largest
    element, is the least of its own orbit, and a closure that leaves
    bsf(n) leaves it for every larger subset, so only least subsets
    whose closure stayed inside are grown, each closure seeded with the
    closure of the subset it grew from.  Element i of bsf(n) is bit
    N-1-i of a subset's mask, so of two subsets of one size the larger
    mask is the lexicographically smaller subset; a subset is least in
    its orbit iff no conjugate's mask is larger, and its orbit has as
    many subsets as there are distinct masks.
    """
    for name, value in (("n", n), ("cap", cap)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    if cap < 1:
        raise ValueError(f"generator-set size cap must be >= 1, not {cap}")
    if n > 5:
        raise BudgetError("subsemigroup search is budgeted for n <= 5")
    if cap > 3:
        raise BudgetError("generator-set size cap is 3")
    bsf = [bytes(t) for t in sorted(enumerate_class(n, BSF))]
    bsf_set = set(bsf)
    maps = _conjugations(n, bsf)
    # bits[i][k]: the mask bit of element i's image under conjugation k,
    # maps[0] being the identity.
    bits = [[1 << len(bsf) - 1 - m[i] for m in maps] for i in range(len(bsf))]
    mask = dict(zip(bsf, _pair_masks(n, bsf)))
    every_pair = (1 << 2 * math.comb(n - 2, 2)) - 1
    found = best = 0
    any_both = False
    # A subset: (its largest element + 1, its generators, each
    # conjugate's mask, its closure, the OR of the closure's pair masks).
    stack = [(0, [], [0] * len(maps), [], 0)]
    while stack:
        start, gens, images, elements, pairs = stack.pop()
        for i in range(start, len(bsf)):
            grown = list(map(or_, images, bits[i]))
            if max(grown) != grown[0]:
                continue
            grown_gens = gens + [bsf[i]]
            closed, escape = _close(n, grown_gens, guard=bsf_set, seed=elements)
            if escape is not None:
                continue
            found += len(set(grown))
            best = max(best, len(closed))
            grown_pairs = reduce(or_, map(mask.get, closed[len(elements):]), pairs)
            if every_pair and grown_pairs == every_pair:
                any_both = True
            if len(gens) + 1 < cap:
                stack.append((i + 1, grown_gens, grown, closed, grown_pairs))
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
    A missing parameter, one the measure does not take, or an n or m
    that is not an int raises ValueError."""
    name = ALIASES.get(measure.lower(), measure.lower())
    if name not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    run, names, _ = MEASURES[name]
    if "family" in names:
        params.setdefault("family", "d6")
    if set(params) != set(names):
        raise ValueError(f"measure {name!r} takes parameters {', '.join(names)}, "
                         f"not {', '.join(sorted(params)) or 'none'}")
    for key in ("m", "n"):
        if key in params and type(params[key]) is not int:
            raise ValueError(f"parameter {key} must be an int, not {params[key]!r}")
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
