"""Core automata values: transformations, DFAs, NFAs and the generic
algorithms (determinization, minimization, canonical form) everything
else builds on.

States are always 0..n-1.  All values are immutable after construction
and every operation is a pure function.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

#: Marker for empty-word transitions in an Nfa.
EPSILON = ""

#: A subset of 0..n-1.  Plain frozensets: capacity is unbounded, which
#: comfortably covers the documented minimum of 64 states per automaton
#: and 2**n subset states for n <= 20.
StateSet = frozenset


class BudgetError(ValueError):
    """Raised when a computation would exceed its stated size budget."""


def _check_letters(alphabet: tuple) -> None:
    """Letters are non-empty strings; "" is reserved for EPSILON."""
    for a in alphabet:
        if not isinstance(a, str) or a == EPSILON:
            raise ValueError(f"alphabet letters must be non-empty strings: {a!r}")


class Transformation(tuple):
    """A total self-map of {0,...,n-1}; entry q is the image of state q.

    Composition is in diagrammatic order: q(s * t) = (qs)t.
    """

    __slots__ = ()

    def __new__(cls, image: Iterable[int]) -> "Transformation":
        image = tuple(image)
        n = len(image)
        if n < 1:
            raise ValueError("transformation degree must be >= 1")
        if min(image) < 0 or max(image) >= n:
            raise ValueError(f"images must lie in 0..{n - 1}: {image}")
        return tuple.__new__(cls, image)

    @property
    def degree(self) -> int:
        return len(self)

    @property
    def range(self) -> frozenset:
        return frozenset(self)

    @classmethod
    def identity(cls, n: int) -> "Transformation":
        return cls(range(n))

    def __mul__(self, other: "Transformation") -> "Transformation":
        return compose(self, other)

    def __repr__(self) -> str:
        return f"Transformation({list(self)})"


def compose(s: Transformation, t: Transformation) -> Transformation:
    """Apply s first, then t: result[q] = t[s[q]]."""
    if len(s) != len(t):
        raise ValueError(f"degree mismatch: {len(s)} vs {len(t)}")
    return Transformation(t[q] for q in s)


@dataclass(frozen=True)
class Dfa:
    """A complete deterministic automaton over integer states 0..n-1."""

    state_count: int
    alphabet: tuple
    delta: Mapping[str, Transformation]
    initial: int
    finals: frozenset

    def __init__(self, state_count, alphabet, delta, initial, finals):
        alphabet = tuple(alphabet)
        _check_letters(alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet letters must be distinct")
        if set(delta) != set(alphabet):
            raise ValueError("delta must be defined for exactly the alphabet")
        delta = {a: Transformation(delta[a]) for a in alphabet}
        if state_count < 1:
            raise ValueError("state_count must be >= 1")
        for a, t in delta.items():
            if t.degree != state_count:
                raise ValueError(f"letter {a!r} has degree {t.degree}, want {state_count}")
        finals = frozenset(finals)
        if not 0 <= initial < state_count:
            raise ValueError("initial state out of range")
        if any(not 0 <= f < state_count for f in finals):
            raise ValueError("final state out of range")
        object.__setattr__(self, "state_count", state_count)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "finals", finals)

    def step(self, q: int, letter: str) -> int:
        return self.delta[letter][q]

    def run(self, word: Sequence[str]) -> int:
        q = self.initial
        for a in word:
            q = self.delta[a][q]
        return q

    def accepts(self, word: Sequence[str]) -> bool:
        return self.run(word) in self.finals

    def empty_states(self) -> list:
        """Non-final states that every letter fixes (the sink of a
        suffix-free DFA), in increasing order."""
        return [q for q in range(self.state_count)
                if q not in self.finals
                and all(self.delta[a][q] == q for a in self.alphabet)]

    def to_dict(self) -> dict:
        """Interchange form; round-trips bit-exactly for canonical DFAs."""
        return {
            "states": self.state_count,
            "alphabet": list(self.alphabet),
            "transitions": {a: list(self.delta[a]) for a in self.alphabet},
            "initial": self.initial,
            "finals": sorted(self.finals),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Dfa":
        """Parse the interchange form.  A malformed document raises
        ValueError naming the offending field."""
        if not isinstance(d, dict):
            raise ValueError("interchange document must be a JSON object")
        for key, kind in (("states", int), ("alphabet", list),
                          ("transitions", dict), ("initial", int),
                          ("finals", list)):
            if key not in d:
                raise ValueError(f"interchange field {key!r} is missing")
            if not isinstance(d[key], kind) or isinstance(d[key], bool):
                raise ValueError(f"interchange field {key!r} must be a JSON "
                                 f"{kind.__name__}, got {d[key]!r}")
        _check_letters(tuple(d["alphabet"]))
        for key, values in [("finals", d["finals"])] + [
                (f"transitions.{a}", d["transitions"].get(a))
                for a in d["alphabet"]]:
            if not isinstance(values, list) or any(
                    type(v) is not int for v in values):
                raise ValueError(f"interchange field {key!r} must be a list "
                                 f"of state numbers, got {values!r}")
        return cls(
            state_count=d["states"],
            alphabet=d["alphabet"],
            delta={a: d["transitions"][a] for a in d["alphabet"]},
            initial=d["initial"],
            finals=d["finals"],
        )

    def to_dot(self, name: str = "dfa") -> str:
        lines = [f"digraph {name} {{", "  rankdir=LR;", '  __start [shape=none,label=""];']
        for q in range(self.state_count):
            shape = "doublecircle" if q in self.finals else "circle"
            lines.append(f"  {q} [shape={shape}];")
        lines.append(f"  __start -> {self.initial};")
        for a in self.alphabet:
            for q in range(self.state_count):
                lines.append(f'  {q} -> {self.delta[a][q]} [label="{a}"];')
        lines.append("}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Nfa:
    """A nondeterministic automaton; EPSILON transitions are allowed."""

    state_count: int
    alphabet: tuple
    transitions: frozenset
    initials: frozenset
    finals: frozenset

    def __init__(self, state_count, alphabet, transitions, initials, finals):
        alphabet = tuple(alphabet)
        _check_letters(alphabet)
        transitions = frozenset(tuple(t) for t in transitions)
        initials = frozenset(initials)
        finals = frozenset(finals)
        letters = set(alphabet) | {EPSILON}
        for src, a, dst in transitions:
            if not (0 <= src < state_count and 0 <= dst < state_count):
                raise ValueError(f"transition state out of range: {(src, a, dst)}")
            if a not in letters:
                raise ValueError(f"unknown letter in transition: {a!r}")
        if any(not 0 <= q < state_count for q in initials | finals):
            raise ValueError("initial/final state out of range")
        object.__setattr__(self, "state_count", state_count)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "initials", initials)
        object.__setattr__(self, "finals", finals)

    @classmethod
    def from_dfa(cls, d: Dfa) -> "Nfa":
        triples = [
            (q, a, d.delta[a][q]) for a in d.alphabet for q in range(d.state_count)
        ]
        return cls(d.state_count, d.alphabet, triples, {d.initial}, d.finals)


def word_transformation(d: Dfa, word: Sequence[str]) -> Transformation:
    """The transformation induced by a non-empty word of d's alphabet."""
    if len(word) == 0:
        raise ValueError("the empty word induces no semigroup element")
    t = None
    for a in word:
        if a not in d.delta:
            raise ValueError(f"letter {a!r} not in alphabet {d.alphabet}")
        t = d.delta[a] if t is None else compose(t, d.delta[a])
    return t


def _edge_map(n: Nfa) -> dict:
    by_src: dict = {}
    for src, a, dst in n.transitions:
        by_src.setdefault((src, a), set()).add(dst)
    return by_src


def _eps_closure(states: frozenset, by_src: dict) -> frozenset:
    stack = list(states)
    seen = set(states)
    while stack:
        q = stack.pop()
        for r in by_src.get((q, EPSILON), ()):
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return frozenset(seen)


def determinize(n: Nfa) -> Dfa:
    """Reachable-subset construction with epsilon closure.

    The empty subset, if reachable, is kept as an explicit non-final
    sink so the result is complete.  Result states are numbered in BFS
    discovery order with letters scanned in alphabet order.
    """
    by_src = _edge_map(n)
    start = _eps_closure(n.initials, by_src)
    index = {start: 0}
    order = [start]
    queue = deque([start])
    rows: dict = {a: [] for a in n.alphabet}
    while queue:
        s = queue.popleft()
        for a in n.alphabet:
            nxt = set()
            for q in s:
                nxt |= by_src.get((q, a), set())
            nxt = _eps_closure(frozenset(nxt), by_src)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            rows[a].append(index[nxt])
    delta = {a: Transformation(rows[a]) for a in n.alphabet}
    finals = frozenset(i for s, i in index.items() if s & n.finals)
    return Dfa(len(order), n.alphabet, delta, 0, finals)


def _reachable(d: Dfa) -> list:
    seen = {d.initial}
    order = [d.initial]
    queue = deque(order)
    while queue:
        q = queue.popleft()
        for a in d.alphabet:
            r = d.delta[a][q]
            if r not in seen:
                seen.add(r)
                order.append(r)
                queue.append(r)
    return order


def canonicalize(d: Dfa) -> Dfa:
    """Renumber states in BFS order from the initial state, letters in
    alphabet order.  Requires every state to be reachable."""
    order = _reachable(d)
    if len(order) != d.state_count:
        raise ValueError("canonicalize requires all states reachable")
    new_of_old = {q: i for i, q in enumerate(order)}
    delta = {
        a: Transformation(new_of_old[d.delta[a][q]] for q in order) for a in d.alphabet
    }
    finals = frozenset(new_of_old[q] for q in d.finals)
    return Dfa(d.state_count, d.alphabet, delta, 0, finals)


def minimize(d: Dfa) -> Dfa:
    """Minimal DFA of the same language, in canonical (BFS) numbering.

    Moore partition refinement on the reachable part.
    """
    order = _reachable(d)
    states = order
    block = {q: (1 if q in d.finals else 0) for q in states}
    n_blocks = len(set(block.values()))
    while True:
        sigs = {}
        new_block = {}
        for q in states:
            sig = (block[q],) + tuple(block[d.delta[a][q]] for a in d.alphabet)
            if sig not in sigs:
                sigs[sig] = len(sigs)
            new_block[q] = sigs[sig]
        if len(sigs) == n_blocks:
            break
        block = new_block
        n_blocks = len(sigs)
    reps: dict = {}
    for q in states:
        reps.setdefault(block[q], q)
    m = n_blocks
    ids = {b: i for i, b in enumerate(sorted(reps))}
    delta = {}
    for a in d.alphabet:
        row = [0] * m
        for b, q in reps.items():
            row[ids[b]] = ids[block[d.delta[a][q]]]
        delta[a] = Transformation(row)
    finals = frozenset(ids[b] for b, q in reps.items() if q in d.finals)
    quotient = Dfa(m, d.alphabet, delta, ids[block[d.initial]], finals)
    return canonicalize(quotient)


def quotient_complexity(d: Dfa) -> int:
    """Number of states of the minimal DFA (= number of left quotients)."""
    return minimize(d).state_count


def _canonical_key(d: Dfa, letter_order: tuple) -> tuple:
    reordered = Dfa(d.state_count, letter_order, d.delta, d.initial, d.finals)
    c = canonicalize(reordered)
    return (
        c.state_count,
        c.alphabet,
        tuple(tuple(c.delta[a]) for a in c.alphabet),
        c.finals,
    )


def is_isomorphic(d1: Dfa, d2: Dfa) -> bool:
    """True iff the minimal DFAs are identical up to state renumbering.

    An alphabet mismatch (as a set) yields False, not an error.
    """
    if set(d1.alphabet) != set(d2.alphabet):
        return False
    order = d1.alphabet
    m1 = minimize(d1)
    m2 = minimize(Dfa(d2.state_count, order, d2.delta, d2.initial, d2.finals))
    return _canonical_key(m1, order) == _canonical_key(m2, order)
