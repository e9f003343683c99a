"""Atoms of a regular language: the atom DFA over disjoint subset
pairs, atom enumeration, atom quotient complexities, and the exact
upper-bound formula for atoms of suffix-free languages.

An atom is a non-empty intersection of some quotients (indexed by the
basis S) with the complements of all the others.  Atoms partition
sigma* and every quotient is a union of atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .automata import BudgetError, Dfa, Transformation, minimize, quotient_complexity
from .semigroups import transition_semigroup

#: Sink of the atom DFA, entered when the tracked subset pair collides.
BOTTOM = "bottom"

#: Budget on the exhaustive 2**n basis sweep.
MAX_ATOM_DEGREE = 20


def _atom_reachable(d: Dfa, basis: frozenset):
    """BFS over the disjoint-pair construction.

    Returns (order, rows, finals_idx): reachable states in discovery
    order (pairs (X, Y) plus possibly BOTTOM), transition rows per
    letter, and the set of final state indices.
    """
    n = d.state_count
    full = frozenset(range(n))
    start = (basis, full - basis)
    index = {start: 0}
    order = [start]
    rows = {a: [] for a in d.alphabet}
    i = 0
    while i < len(order):
        state = order[i]
        i += 1
        for a in d.alphabet:
            if state == BOTTOM:
                nxt = BOTTOM
            else:
                x, y = state
                t = d.delta[a]
                xa = frozenset(t[q] for q in x)
                ya = frozenset(t[q] for q in y)
                nxt = BOTTOM if xa & ya else (xa, ya)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            rows[a].append(index[nxt])
    finals = frozenset(
        idx
        for state, idx in index.items()
        if state != BOTTOM and state[0] <= d.finals and not (state[1] & d.finals)
    )
    return order, rows, finals


def atom_dfa(d: Dfa, basis) -> Dfa:
    """Minimal DFA of the atomic intersection with the given basis.

    d must be minimal; states (X, Y) track the images of the basis and
    of its complement, collapsing to a sink as soon as they collide.
    """
    basis = frozenset(basis)
    if any(not 0 <= q < d.state_count for q in basis):
        raise ValueError("basis must be a subset of the state set")
    order, rows, finals = _atom_reachable(d, basis)
    raw = Dfa(
        len(order),
        d.alphabet,
        {a: Transformation(rows[a]) for a in d.alphabet},
        0,
        finals,
    )
    return minimize(raw)


def is_atom(d: Dfa, basis) -> bool:
    """Non-emptiness of the atomic intersection, by reachability of a
    final state in the raw construction."""
    _, _, finals = _atom_reachable(d, frozenset(basis))
    return bool(finals)


def atoms(d: Dfa, suffix_free: bool = False) -> frozenset:
    """All bases of non-empty atomic intersections of a minimal DFA.

    Exhaustive sweep over the 2**n subsets; with suffix_free=True,
    bases containing the empty state (non-final, every letter a
    self-loop), or containing d.initial alongside other states, are
    skipped up front (they are never atoms of a suffix-free language).
    """
    n = d.state_count
    if n > MAX_ATOM_DEGREE:
        raise BudgetError(
            f"atom sweep needs 2**{n} bases; max state count is {MAX_ATOM_DEGREE}")
    empty = frozenset(d.empty_states())
    found = []
    for bits in range(1 << n):
        basis = frozenset(q for q in range(n) if bits >> q & 1)
        if suffix_free:
            if basis & empty:
                continue
            if d.initial in basis and len(basis) > 1:
                continue
        if is_atom(d, basis):
            found.append(basis)
    return frozenset(found)


def atom_complexity(d: Dfa, basis) -> int:
    """Quotient complexity of the atom with the given basis."""
    basis = frozenset(basis)
    if not is_atom(d, basis):
        raise ValueError(f"{sorted(basis)} is not an atom basis: "
                         "the atomic intersection is empty")
    return quotient_complexity(atom_dfa(d, basis))


def middle_basis_bound(n: int, size: int) -> int:
    """Bound for a basis of the given size inside the middle states
    {1,...,n-2}: 1 + sum over x in 1..size, y in 0..n-2-size of
    C(n-2,x) * C(n-2-x,y).  Exact integer arithmetic."""
    if not 1 <= size <= n - 2:
        raise ValueError(f"middle basis size must be in 1..{n - 2}")
    total = 1
    for x in range(1, size + 1):
        lead = math.comb(n - 2, x)
        total += lead * sum(math.comb(n - 2 - x, y) for y in range(n - 1 - size))
    return total


def suffix_free_atom_bound(n: int, basis) -> int:
    """Atom complexity bound for a suffix-free language with n quotients.

    Valid bases are the empty set (bound 2**(n-2) + 1), {0} (bound n),
    and non-empty subsets of the middle states; anything else is not an
    atom basis of a suffix-free language.
    """
    basis = frozenset(basis)
    if n < 4:
        raise ValueError("bounds apply for n >= 4")
    if not basis:
        return 2 ** (n - 2) + 1
    if basis == {0}:
        return n
    if n - 1 in basis or 0 in basis:
        raise ValueError(
            f"{sorted(basis)} is not an atom basis of a suffix-free language")
    return middle_basis_bound(n, len(basis))


def left_ideal_atom_bound(n: int, size: int) -> int:
    """Atom bound for left ideals, middle case: 1 + sum over x in
    1..size, y in 1..n-size of C(n-1,x) * C(n-1-x,y-1).

    Its value at n-1 coincides with middle_basis_bound(n, size); kept
    only as a cross-check of that identity.
    """
    if not 1 <= size <= n - 1:
        raise ValueError(f"size must be in 1..{n - 1}")
    total = 1
    for x in range(1, size + 1):
        lead = math.comb(n - 1, x)
        total += lead * sum(math.comb(n - 1 - x, y - 1) for y in range(1, n - size + 1))
    return total


def syntactic_complexity(d: Dfa, allow_large: bool = False) -> int:
    """Cardinality of the syntactic (= transition) semigroup of the
    minimal DFA of d's language."""
    return len(transition_semigroup(d, allow_large=allow_large))


@dataclass(frozen=True)
class AtomRow:
    """One row of an atom report."""

    basis: tuple
    complexity: int
    bound: int

    @property
    def met(self) -> bool:
        return self.complexity == self.bound


def atom_report(d: Dfa, suffix_free: bool = True) -> list:
    """Per-basis complexities vs suffix-free bounds for a minimal DFA,
    sorted by (basis size, basis) for determinism."""
    rows = []
    for basis in atoms(d, suffix_free=suffix_free):
        rows.append(
            AtomRow(
                basis=tuple(sorted(basis)),
                complexity=atom_complexity(d, basis),
                bound=suffix_free_atom_bound(d.state_count, basis),
            )
        )
    rows.sort(key=lambda r: (len(r.basis), r.basis))
    return rows
