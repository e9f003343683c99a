"""Atoms of a regular language: atom enumeration by one reversed subset
construction, the quotient complexities of any set of atoms counted on
one shared graph of disjoint subset pairs, and the exact upper-bound
formula for atoms of suffix-free languages.

An atom is a non-empty intersection of some quotients (indexed by the
basis S) with the complements of all the others.  Atoms partition
sigma* and every quotient is a union of atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .automata import (
    Dfa, _chunk_tables, _mask, _preimages, _subsets, _transpose,
    quotient_complexity)
from .semigroups import _components, _letter_maps, semigroup_size


def _atom_bases(d: Dfa) -> list:
    """The atom bases of d as masks, in the order one reversed subset
    construction from the finals reaches them (see atoms)."""
    return _subsets(_mask(d.finals), _preimages(d))[0]


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
    from an iterable of basis masks to a dict mask -> complexity of its
    atom, the work that depends on d done once.

    The atom DFA of basis S runs on disjoint subset pairs (X, Y), X the
    images of S and Y those of its complement, packed into one key
    Y << n | X; a pair whose parts collide goes to the sink, kept as
    (Q, Q).  The pair (X, Y) accepts the union of the atoms whose basis
    holds X and misses Y.  Atoms are non-empty and disjoint, so the
    complexity is the number of distinct admitted sets, or barred sets
    (their complements), over the pairs reachable from S's start pair.

    A pair's successors and barred set do not depend on the basis that
    reached it (Brzozowski and Tamm, "Theory of atomata", TCS 539,
    2014), so all the bases share one BFS from their start pairs.  It
    numbers the pairs and keeps each one's successor numbers and the
    number of its barred set.  Each strongly connected component's
    bitset holds the barred sets of its pairs and of the components it
    enters, which _components completes first; a basis's complexity is
    the popcount of its start pair's.  A single basis reaches every pair
    the BFS numbers, so its complexity is the number of distinct barred
    sets, read with no component pass.
    """
    n = d.state_count
    bases = _atom_bases(d)
    full = (1 << n) - 1
    sink = full << n | full
    k, top = 2 * n, 2 * n * len(d.alphabet)
    # Column q of X (of Y) holds, in the low (high) half of one 2n-bit
    # field per letter, q's image; above the fields, the atoms that miss
    # q (that hold q).  The OR of one lookup per chunk of the key is the
    # pair's successor under every letter and the atoms it bars.  X's last
    # chunk, if narrower than the others, repeats its table to skip Y's bits.
    holds = _transpose(bases, n)
    every = (1 << len(bases)) - 1
    xcols, ycols = [(every ^ h) << top for h in holds], [h << top for h in holds]
    for at, a in zip(range(0, top, k), d.alphabet):
        for q, r in enumerate(d.delta[a]):
            xcols[q] |= 1 << at + r
            ycols[q] |= 1 << at + n + r
    low, xchunks = _chunk_tables([xcols])
    chunks = [(shift, chunk * ((low + 1) // len(chunk))) for shift, chunk in xchunks]
    chunks += [(n + shift, chunk) for shift, chunk in _chunk_tables([ycols])[1]]

    def complexities(masks) -> dict:
        starts = {b: (full ^ b) << n | b for b in masks}
        index = {s: i for i, s in enumerate(starts.values())}
        order, succ, own, ids = list(index), [], [], {}
        for state in order:
            packed = 0
            for shift, chunk in chunks:
                packed |= chunk[state >> shift & low]
            row = []
            for _ in d.alphabet:
                nxt = packed & sink
                packed >>= k
                if nxt & nxt >> n:  # X and Y collide
                    nxt = sink
                i = index.get(nxt)
                if i is None:
                    i = index[nxt] = len(order)
                    order.append(nxt)
                row.append(i)
            succ.append(row)
            own.append(ids.setdefault(packed, len(ids)))
        if len(starts) == 1:  # one start reaches every numbered pair
            return dict.fromkeys(starts, len(ids))
        label = _components(range(len(starts)), succ)
        reach, bits, into = {}, bytearray(len(ids) + 7 >> 3), set()
        for v, root in label.items():
            bits[own[v] >> 3] |= 1 << (own[v] & 7)
            into.update(map(label.__getitem__, succ[v]))
            if v == root:  # a component's root completes it
                total = int.from_bytes(bits, "little")
                for r in into - {root}:
                    total |= reach[r]
                reach[root] = total
                bits, into = bytearray(len(bits)), set()
        return {b: reach[label[index[s]]].bit_count() for b, s in starts.items()}

    return bases, complexities


def atom_complexity(d: Dfa, basis) -> int:
    """Quotient complexity of the atom with the given basis."""
    basis = frozenset(basis)
    if not ({int}.issuperset(map(type, basis))
            and all(0 <= q < d.state_count for q in basis)):
        raise ValueError(f"basis must be a set of int states in "
                         f"0..{d.state_count - 1}: {set(basis)!r}")
    b = _mask(basis)
    bases, complexities = _atom_complexities(d)
    if b not in bases:
        raise ValueError(f"{sorted(basis)} is not an atom basis: "
                         "the atomic intersection is empty")
    return complexities([b])[b]


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
    if not {int}.issuperset(map(type, basis)):
        raise ValueError(f"basis states must be ints: {set(basis)!r}")
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
    minimal DFA of d's language, counted by semigroup_size over its
    letter maps."""
    return semigroup_size(*_letter_maps(d))


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
    bases, complexities = _atom_complexities(d)
    rows = []
    for b, complexity in complexities(bases).items():
        basis = tuple(q for q in range(n) if b >> q & 1)
        rows.append(AtomRow(basis=basis, complexity=complexity,
                            bound=suffix_free_atom_bound(n, {label[q] for q in basis})))
    rows.sort(key=lambda r: (len(r.basis), r.basis))
    return rows
