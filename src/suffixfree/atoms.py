"""Atoms of a regular language: the atom DFA over disjoint subset
pairs, atom enumeration by one reversed subset construction, atom
quotient complexities, and the exact upper-bound formula for atoms of
suffix-free languages.

An atom is a non-empty intersection of some quotients (indexed by the
basis S) with the complements of all the others.  Atoms partition
sigma* and every quotient is a union of atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .automata import Dfa, minimize, quotient_complexity
from .semigroups import transition_semigroup

#: Sink of the atom DFA, entered when the tracked subset pair collides;
#: no packed pair is negative.
_BOTTOM = -1


def _mask(states) -> int:
    return sum(1 << q for q in states)


def _union(rows: list, mask: int) -> int:
    """OR of rows[q] over the states q in mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _raw_atom_dfa(d: Dfa, basis) -> Dfa:
    """Atom DFA before minimization, over disjoint subset pairs (X, Y).

    X tracks the images of the basis and Y those of its complement,
    both as int bitmasks packed into one key Y << n | X; the pair
    collapses to a sink as soon as they collide.  (X, Y) is final when
    X lies inside d.finals and Y misses it.  States are numbered in BFS
    discovery order with letters in alphabet order.
    """
    basis = frozenset(basis)
    n = d.state_count
    if any(not 0 <= q < n for q in basis):
        raise ValueError("basis must be a subset of the state set")
    full = (1 << n) - 1
    images = [[1 << r for r in d.delta[a]] for a in d.alphabet]
    # Per-letter images of subsets: the same X or Y recurs in many pairs.
    memos = [{} for _ in d.alphabet]
    b = _mask(basis)
    index = {(full ^ b) << n | b: 0}
    order = list(index)
    rows = [[] for _ in d.alphabet]
    for state in order:
        for image, memo, row in zip(images, memos, rows):
            nxt = _BOTTOM
            if state != _BOTTOM:
                x = state & full
                xa = memo.get(x)
                if xa is None:
                    xa = memo[x] = _union(image, x)
                y = state >> n
                ya = memo.get(y)
                if ya is None:
                    ya = memo[y] = _union(image, y)
                if not xa & ya:
                    nxt = ya << n | xa
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
    f = _mask(d.finals)
    finals = [i for i, state in enumerate(order)
              if state != _BOTTOM and not state & full & ~f and not state >> n & f]
    return Dfa(len(order), d.alphabet, dict(zip(d.alphabet, rows)), 0, finals)


def atom_dfa(d: Dfa, basis) -> Dfa:
    """Minimal DFA of the atomic intersection with the given basis."""
    return minimize(_raw_atom_dfa(d, basis))


def is_atom(d: Dfa, basis) -> bool:
    """Non-emptiness of the atomic intersection, by reachability of a
    final state in the raw construction."""
    return bool(_raw_atom_dfa(d, basis).finals)


def atoms(d: Dfa) -> frozenset:
    """Bases of all atoms of d's language, for any DFA d.

    The basis of the atom that contains w is {q : q.w in F}, which is
    the subset the reversed automaton reaches from F on the reverse of
    w.  So the bases are the subsets that one reversed subset
    construction reaches from F, stepping through per-letter preimage
    tables (Brzozowski and Tamm, "Theory of atomata", TCS 539, 2014).
    """
    n = d.state_count
    preimages = []
    for a in d.alphabet:
        pre = [0] * n
        for q, r in enumerate(d.delta[a]):
            pre[r] |= 1 << q
        preimages.append(pre)
    start = _mask(d.finals)
    seen = {start}
    order = [start]
    for s in order:
        for pre in preimages:
            t = _union(pre, s)
            if t not in seen:
                seen.add(t)
                order.append(t)
    return frozenset(frozenset(q for q in range(n) if s >> q & 1) for s in order)


def atom_complexity(d: Dfa, basis) -> int:
    """Quotient complexity of the atom with the given basis."""
    basis = frozenset(basis)
    raw = _raw_atom_dfa(d, basis)
    if not raw.finals:
        raise ValueError(f"{sorted(basis)} is not an atom basis: "
                         "the atomic intersection is empty")
    return quotient_complexity(raw)


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


def atom_report(d: Dfa) -> list:
    """Per-basis complexities vs suffix-free bounds, sorted by (basis
    size, basis) for determinism.

    The bounds read d's numbering as the witnesses' numbering: d is
    minimal, with initial state 0 and empty state n-1.
    """
    rows = []
    for basis in atoms(d):
        rows.append(
            AtomRow(
                basis=tuple(sorted(basis)),
                complexity=atom_complexity(d, basis),
                bound=suffix_free_atom_bound(d.state_count, basis),
            )
        )
    rows.sort(key=lambda r: (len(r.basis), r.basis))
    return rows
