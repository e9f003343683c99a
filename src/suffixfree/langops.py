"""Regularity-preserving operations: star, product (concatenation),
reversal, the four boolean operations, dialect substitution and the
suffix-freeness decision procedure.

Every operation returns a minimized, canonically numbered DFA.  The
*_full variants additionally report the pre-minimization state count,
which is useful when tracing subset-construction reachability.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .automata import (
    EPSILON,
    Dfa,
    Nfa,
    determinize,
    minimize,
)
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


def _finish(n: Nfa) -> OpResult:
    det = determinize(n)
    return OpResult(minimize(det), det.state_count)


def star_full(d: Dfa) -> OpResult:
    """Kleene star via an epsilon-NFA: a fresh accepting initial state
    and empty-word transitions from every final state back to d's
    initial state."""
    fresh = d.state_count
    triples = [(q, a, d.delta[a][q]) for a in d.alphabet for q in range(d.state_count)]
    triples.append((fresh, EPSILON, d.initial))
    triples += [(f, EPSILON, d.initial) for f in d.finals]
    nfa = Nfa(d.state_count + 1, d.alphabet, triples, {fresh}, d.finals | {fresh})
    return _finish(nfa)


def star(d: Dfa) -> Dfa:
    return star_full(d).dfa


def concat_full(d1: Dfa, d2: Dfa) -> OpResult:
    """Concatenation via the standard epsilon-NFA: the first automaton's
    final states become non-final and get empty-word transitions to the
    second automaton's initial state."""
    if set(d1.alphabet) != set(d2.alphabet):
        raise ValueError(
            f"alphabet mismatch: {d1.alphabet} vs {d2.alphabet}")
    off = d1.state_count
    triples = [(q, a, d1.delta[a][q]) for a in d1.alphabet for q in range(off)]
    triples += [
        (off + q, a, off + d2.delta[a][q])
        for a in d2.alphabet
        for q in range(d2.state_count)
    ]
    triples += [(f, EPSILON, off + d2.initial) for f in d1.finals]
    nfa = Nfa(
        off + d2.state_count,
        d1.alphabet,
        triples,
        {d1.initial},
        frozenset(off + f for f in d2.finals),
    )
    return _finish(nfa)


def concat(d1: Dfa, d2: Dfa) -> Dfa:
    return concat_full(d1, d2).dfa


def reverse_full(d: Dfa) -> OpResult:
    """Reversal: reverse all transitions and swap initial/final roles."""
    triples = [(d.delta[a][q], a, q) for a in d.alphabet for q in range(d.state_count)]
    nfa = Nfa(d.state_count, d.alphabet, triples, d.finals, {d.initial})
    return _finish(nfa)


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
    rows = {a: [] for a in alphabet}
    for p, q in order:
        for a in alphabet:
            nxt = (d1.delta[a][p], d2.delta[a][q])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            rows[a].append(index[nxt])
    finals = [i for (p, q), i in index.items() if rule(p in d1.finals, q in d2.finals)]
    raw = Dfa(len(order), alphabet, rows, 0, finals)
    return OpResult(minimize(raw), raw.state_count)


def boolean(d1: Dfa, d2: Dfa, op: BooleanOp) -> Dfa:
    return boolean_full(d1, d2, op).dfa


def complement(d: Dfa) -> Dfa:
    """Complement of a complete DFA (finals flipped, then minimized)."""
    flipped = Dfa(
        d.state_count,
        d.alphabet,
        d.delta,
        d.initial,
        frozenset(range(d.state_count)) - d.finals,
    )
    return minimize(flipped)


def _proper_suffix_language_nfa(d: Dfa) -> Nfa:
    """NFA for sigma+ . L(d): loop on a fresh state reading any prefix of
    length >= 1, nondeterministically handing over to d."""
    u = d.state_count
    triples = [(q, a, d.delta[a][q]) for a in d.alphabet for q in range(d.state_count)]
    for a in d.alphabet:
        triples.append((u, a, u))
        triples.append((u, a, d.initial))
    return Nfa(d.state_count + 1, d.alphabet, triples, {u}, d.finals)


def is_suffix_free(d: Dfa) -> bool:
    """True iff no proper suffix of a word of L(d) is itself in L(d),
    decided exactly as emptiness of L intersected with sigma+ L."""
    shifted = determinize(_proper_suffix_language_nfa(d))
    inter = boolean(d, shifted, BooleanOp.INTERSECTION)
    return not inter.finals


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
