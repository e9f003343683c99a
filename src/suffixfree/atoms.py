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

from .automata import (
    Dfa, _chunk_tables, _mask, _preimages, _quotient, _subsets, _transpose,
    quotient_complexity)
from .semigroups import transition_semigroup


def _basis_mask(d: Dfa, basis) -> int:
    basis = frozenset(basis)
    if any(not 0 <= q < d.state_count for q in basis):
        raise ValueError("basis must be a subset of the state set")
    return _mask(basis)


def _atom_bases(d: Dfa) -> list:
    """The atom bases of d as masks, in the order one reversed subset
    construction from the finals reaches them (see atoms)."""
    return _subsets(_mask(d.finals), _preimages(d))[0]


def _atom_pairs(d: Dfa, basis) -> tuple:
    """Atom DFA before minimization, over disjoint subset pairs (X, Y).

    X tracks the images of the basis and Y those of its complement,
    both as int bitmasks packed into one key Y << n | X.  A pair whose
    parts collide goes to the sink, kept as the pair (Q, Q), which every
    letter maps to itself.  (X, Y) is final when X lies inside d.finals
    and Y misses it.  States are numbered in BFS discovery order with
    letters in alphabet order.  Returns one successor row per letter and
    a finality flag per state.
    """
    n = d.state_count
    full = (1 << n) - 1
    sink = full << n | full
    # X and Y step through the subset kernel's tables: one lookup per
    # chunk gives a part's images under every letter, n bits apart.
    low, chunks = _chunk_tables([[1 << r for r in d.delta[a]] for a in d.alphabet])
    b = _basis_mask(d, basis)
    index = {(full ^ b) << n | b: 0}
    order = list(index)
    rows = [[] for _ in d.alphabet]
    for state in order:
        x, y = state & full, state >> n
        xs = ys = 0
        for shift, chunk in chunks:
            xs |= chunk[x >> shift & low]
            ys |= chunk[y >> shift & low]
        for row in rows:
            xa, ya = xs & full, ys & full
            xs >>= n
            ys >>= n
            nxt = sink if xa & ya else ya << n | xa
            i = index.get(nxt)
            if i is None:
                i = index[nxt] = len(order)
                order.append(nxt)
            row.append(i)
    f = _mask(d.finals)
    return rows, [not s & full & ~f and not s >> n & f for s in order]


def atom_dfa(d: Dfa, basis) -> Dfa:
    """Minimal DFA of the atomic intersection with the given basis."""
    rows, final = _atom_pairs(d, basis)
    return _quotient(d.alphabet, rows, final, final)


def is_atom(d: Dfa, basis) -> bool:
    """Non-emptiness of the atomic intersection, by reachability of a
    final state in the raw construction."""
    return any(_atom_pairs(d, basis)[1])


def atoms(d: Dfa) -> frozenset:
    """Bases of all atoms of d's language, for any DFA d.

    The basis of the atom that contains w is {q : q.w in F}, which is
    the subset the reversed automaton reaches from F on the reverse of
    w.  So the bases are the subsets that one reversed subset
    construction reaches from F, stepping through per-letter preimage
    tables (Brzozowski and Tamm, "Theory of atomata", TCS 539, 2014).
    """
    return frozenset(frozenset(q for q in range(d.state_count) if s >> q & 1)
                     for s in _atom_bases(d))


def _atom_complexities(d: Dfa) -> tuple:
    """The masks of d's atom bases (see _atom_bases) and the function
    mask -> complexity of its atom, the work that depends on d done once.

    The pair (X, Y) of the atom DFA (see _atom_pairs) accepts the union
    of the atoms whose basis holds X and misses Y.  Atoms are non-empty
    and disjoint, so two pairs are equivalent exactly when they admit
    the same atoms, and the quotient complexity is the number of
    distinct admitted sets over the reachable pairs: neither transition
    rows nor refinement are needed.  The sink admits no atom.
    """
    # This count walk and atom_dfa's row walk stay two loops.  One walk
    # that also built rows cut the atoms benchmark from 440 to 400 jobs/s,
    # and building atom_dfa from this walk's classes made atom_dfa of a
    # small atom 2-3x slower (basis {0} of d6(6..9): 91-124 us to 212-436
    # us), both measured on a shared 2-vCPU VM.
    n = d.state_count
    bases = _atom_bases(d)
    full = (1 << n) - 1
    sink = full << n | full
    k = 2 * n
    top = len(d.alphabet) * k
    # Column q of X (of Y) holds, in the low (high) half of one 2n-bit
    # field per letter, q's image; above the fields, the atoms that miss
    # q (that hold q).  The OR of one lookup per chunk of X and of Y is
    # then the pair's successor under every letter and the atoms it bars.
    holds = _transpose(bases, n)
    every = (1 << len(bases)) - 1
    xcols = [(every ^ h) << top for h in holds]
    ycols = [h << top for h in holds]
    for j, a in enumerate(d.alphabet):
        for q, r in enumerate(d.delta[a]):
            xcols[q] |= 1 << j * k + r
            ycols[q] |= 1 << j * k + n + r
    xlow, xchunks = _chunk_tables([xcols])
    ylow, ychunks = _chunk_tables([ycols])
    letters = range(len(d.alphabet))

    def complexity(b: int) -> int:
        start = (full ^ b) << n | b
        seen = {start}
        order = [start]
        barred = set()
        for state in order:
            x, y = state & full, state >> n
            packed = 0
            for shift, chunk in xchunks:
                packed |= chunk[x >> shift & xlow]
            for shift, chunk in ychunks:
                packed |= chunk[y >> shift & ylow]
            for _ in letters:
                nxt = packed & sink
                packed >>= k
                if nxt & nxt >> n:  # X and Y collide
                    nxt = sink
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
            barred.add(packed)
        return len(barred)

    return bases, complexity


def atom_complexity(d: Dfa, basis) -> int:
    """Quotient complexity of the atom with the given basis."""
    basis = frozenset(basis)
    b = _basis_mask(d, basis)
    bases, complexity = _atom_complexities(d)
    if b not in bases:
        raise ValueError(f"{sorted(basis)} is not an atom basis: "
                         "the atomic intersection is empty")
    return complexity(b)


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
    if type(n) is not int or n < 4:
        raise ValueError(f"bounds apply for int n >= 4, not n = {n!r}")
    outside = sorted(q for q in basis if not 0 <= q < n)
    if outside:
        raise ValueError(f"basis states {outside} lie outside 0..{n - 1}")
    if not basis:
        return 2 ** (n - 2) + 1
    if basis == {0}:
        return n
    if n - 1 in basis or 0 in basis:
        raise ValueError(
            f"{sorted(basis)} is not an atom basis of a suffix-free language")
    return middle_basis_bound(n, len(basis))


def syntactic_complexity(d: Dfa) -> int:
    """Cardinality of the syntactic (= transition) semigroup of the
    minimal DFA of d's language."""
    return len(transition_semigroup(d))


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

    The bounds number the states as the witnesses do, so d's initial
    state is read as 0 and its one empty state as n-1, and they hold for
    minimal DFAs.  A DFA without exactly one empty state, or that is not
    minimal, raises ValueError.
    """
    n = d.state_count
    empty = d.empty_states()
    if len(empty) != 1:
        raise ValueError(f"atom_report needs exactly one empty state, "
                         f"found {len(empty)}: {empty}")
    minimal = quotient_complexity(d)
    if minimal != n:
        raise ValueError(f"atom_report needs a minimal DFA: {n} states, "
                         f"quotient complexity {minimal}")
    middles = [q for q in range(n) if q not in (d.initial, empty[0])]
    label = {q: i for i, q in enumerate(middles, 1)}
    label.update({d.initial: 0, empty[0]: n - 1})
    bases, complexity = _atom_complexities(d)
    rows = []
    for b in bases:
        basis = tuple(q for q in range(n) if b >> q & 1)
        rows.append(AtomRow(basis=basis, complexity=complexity(b),
                            bound=suffix_free_atom_bound(n, {label[q] for q in basis})))
    rows.sort(key=lambda r: (len(r.basis), r.basis))
    return rows
