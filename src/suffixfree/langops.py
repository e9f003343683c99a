"""Regularity-preserving operations: star, product (concatenation),
reversal, the four boolean operations, dialect substitution and the
suffix-freeness decision procedure.

Every operation returns a minimized, canonically numbered DFA, the
quotient of its construction's BFS rows (automata._quotient); no raw DFA
is built.  The *_full variants additionally report the construction's
state count, which is useful when tracing subset-construction
reachability.  Star, concatenation and reversal refine from the Nerode
partition of their subset construction, which a second, reversed one
gives (automata._nerode_seed), so Moore refinement only confirms it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .automata import (
    Dfa, _mask, _minimal_subset_dfa, _preimages, _quotient, _rows, _subsets)
from .semigroups import BSF, is_subsemigroup_of, transition_semigroup


class BooleanOp(Enum):
    UNION = "union"
    INTERSECTION = "intersection"
    DIFFERENCE = "difference"
    SYMMETRIC_DIFFERENCE = "symmetric-difference"


@dataclass(frozen=True)
class PartialPermutation:
    """A partial injective letter substitution over a source alphabet.

    mapping[a] is the letter that plays the role of a, or None when the
    role is dropped (the "-" marker in dialect strings).
    """

    source: tuple
    mapping: dict

    def __init__(self, source, mapping):
        source = tuple(source)
        mapping = dict(mapping)
        if set(mapping) != set(source):
            raise ValueError("mapping must cover exactly the source alphabet")
        defined = [v for v in mapping.values() if v is not None]
        if len(set(defined)) != len(defined):
            raise ValueError("defined part of a dialect must be injective")
        if not set(defined) <= set(source):
            raise ValueError("dialect images must come from the source alphabet")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "mapping", mapping)

    @classmethod
    def parse(cls, text: str, source) -> "PartialPermutation":
        """Parse a comma-separated dialect like "a,b,-,d,e"."""
        source = tuple(source)
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != len(source):
            raise ValueError(
                f"dialect {text!r} has {len(parts)} entries for "
                f"{len(source)} letters")
        mapping = {a: (None if p == "-" else p) for a, p in zip(source, parts)}
        return cls(source, mapping)

    def __str__(self) -> str:
        return ",".join(self.mapping[a] or "-" for a in self.source)


def apply_dialect(d: Dfa, pi: PartialPermutation) -> Dfa:
    """Reassign letter roles: pi(a) carries the transformation of a;
    dropped roles lose their transformations.  Structure-preserving --
    no minimization is applied."""
    if pi.source != d.alphabet:
        raise ValueError(
            f"dialect source {pi.source} != automaton alphabet {d.alphabet}")
    alphabet = []
    delta = {}
    for a in d.alphabet:
        letter = pi.mapping[a]
        if letter is None:
            continue
        alphabet.append(letter)
        delta[letter] = d.delta[a]
    return Dfa(d.state_count, alphabet, delta, d.initial, d.finals)


@dataclass(frozen=True)
class OpResult:
    dfa: Dfa
    raw_states: int


def star_full(d: Dfa) -> OpResult:
    """Kleene star by the subset construction over d's states and a
    fresh accepting initial state n.  Entering a final state also enters
    d's initial state (the empty-word move back to it), so each table
    entry is already closed under that move."""
    n = d.state_count
    back = 1 << d.initial
    tables = [[1 << r | (back if r in d.finals else 0) for r in d.delta[a]] + [0]
              for a in d.alphabet]
    return OpResult(*_minimal_subset_dfa(d.alphabet, 1 << n | back, tables,
                                         _mask(d.finals) | 1 << n))


def star(d: Dfa) -> Dfa:
    return star_full(d).dfa


def concat_full(d1: Dfa, d2: Dfa) -> OpResult:
    """Concatenation by the subset construction over d1's states and
    d2's, shifted past them.  Entering a final state of d1 also enters
    d2's initial state (the empty-word move to it), so each table entry
    is already closed under that move."""
    if set(d1.alphabet) != set(d2.alphabet):
        raise ValueError(
            f"alphabet mismatch: {d1.alphabet} vs {d2.alphabet}")
    off = d1.state_count
    hand = 1 << (off + d2.initial)
    tables = [[1 << r | (hand if r in d1.finals else 0) for r in d1.delta[a]]
              + [1 << (off + r) for r in d2.delta[a]] for a in d1.alphabet]
    start = 1 << d1.initial | (hand if d1.initial in d1.finals else 0)
    return OpResult(*_minimal_subset_dfa(d1.alphabet, start, tables,
                                         _mask(d2.finals) << off))


def concat(d1: Dfa, d2: Dfa) -> Dfa:
    return concat_full(d1, d2).dfa


def reverse_full(d: Dfa) -> OpResult:
    """Reversal: the subset construction from the final states through
    each letter's preimages; a subset is final when it holds d's initial
    state."""
    return OpResult(*_minimal_subset_dfa(d.alphabet, _mask(d.finals), _preimages(d),
                                         1 << d.initial))


def reverse(d: Dfa) -> Dfa:
    return reverse_full(d).dfa


def _final_rule(op: BooleanOp):
    return {
        BooleanOp.UNION: lambda x, y: x or y,
        BooleanOp.INTERSECTION: lambda x, y: x and y,
        BooleanOp.DIFFERENCE: lambda x, y: x and not y,
        BooleanOp.SYMMETRIC_DIFFERENCE: lambda x, y: x != y,
    }[op]


def boolean_full(d1: Dfa, d2: Dfa, op: BooleanOp) -> OpResult:
    """Boolean operation via the reachable direct product."""
    if set(d1.alphabet) != set(d2.alphabet):
        raise ValueError(
            f"alphabet mismatch: {d1.alphabet} vs {d2.alphabet}")
    alphabet = d1.alphabet
    rule = _final_rule(op)
    start = (d1.initial, d2.initial)
    index = {start: 0}
    order = [start]
    rows = [[] for _ in alphabet]
    for p, q in order:
        for a, row in zip(alphabet, rows):
            nxt = (d1.delta[a][p], d2.delta[a][q])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
    final = [rule(p in d1.finals, q in d2.finals) for p, q in order]
    return OpResult(_quotient(alphabet, rows, final, final), len(order))


def boolean(d1: Dfa, d2: Dfa, op: BooleanOp) -> Dfa:
    return boolean_full(d1, d2, op).dfa


def complement(d: Dfa) -> Dfa:
    """Complement of a complete DFA: the quotient of its reachable part
    with finality flipped."""
    rows, final = _rows(d)
    flipped = [not f for f in final]
    return _quotient(d.alphabet, rows, flipped, flipped)


def is_suffix_free(d: Dfa) -> bool:
    """True iff no proper suffix of a word of L(d) is itself in L(d),
    decided exactly as emptiness of L intersected with sigma+ L, by one
    subset construction over 2n + 1 bits: d's state on the word read so
    far, d's states on its proper suffixes (shifted by n), and a start
    bit 2n that every letter keeps and that hands each new suffix to d's
    initial state."""
    n = d.state_count
    loop = 1 << 2 * n
    hand = loop | 1 << (n + d.initial)
    tables = [[1 << r for r in d.delta[a]] + [1 << (n + r) for r in d.delta[a]] + [hand]
              for a in d.alphabet]
    order, _ = _subsets(loop | 1 << d.initial, tables)
    f = _mask(d.finals)
    return not any(s & f and s >> n & f for s in order)


@dataclass(frozen=True)
class SuffixFreeReport:
    suffix_free: bool
    #: Necessary-condition diagnostic: is the transition semigroup of the
    #: minimal DFA contained in bsf?  Implied by suffix_free; the converse
    #: needs a unique final quotient, so this is reported separately.
    semigroup_in_bsf: bool


def suffix_free_report(d: Dfa) -> SuffixFreeReport:
    sf = is_suffix_free(d)
    ts = transition_semigroup(d)
    # bsf is defined only for degree >= 2; a one-state language fails it.
    in_b = ts.degree >= 2 and is_subsemigroup_of(ts, BSF)
    return SuffixFreeReport(suffix_free=sf, semigroup_in_bsf=in_b)
