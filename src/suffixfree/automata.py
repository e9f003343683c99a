"""Core automata values: transformations, DFAs, NFAs and the generic
algorithms (determinization, minimization, canonical form) everything
else builds on.

States are always 0..n-1.  All values are immutable after construction
and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Mapping, Sequence

#: Marker for empty-word transitions in an Nfa.
EPSILON = ""


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
        if type(image) is cls:
            return image  # validated when it was built, and immutable
        # Hot callers pass lists: tuple() of a generator allocates a
        # guessed size and shrinks it, so each temporary adds an entry to
        # the free list of its final size.  Those entries pile up and pin
        # memory until a full garbage collection.
        image = tuple(image)
        n = len(image)
        if n < 1:
            raise ValueError("transformation degree must be >= 1")
        if not {int}.issuperset(map(type, image)):
            raise ValueError(f"images must be int state numbers: {image}")
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
    return Transformation([t[q] for q in s])


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
        if type(state_count) is not int or state_count < 1:
            raise ValueError(f"state_count must be an int >= 1, got {state_count!r}")
        for a, t in delta.items():
            if t.degree != state_count:
                raise ValueError(f"letter {a!r} has degree {t.degree}, want {state_count}")
        finals = frozenset(finals)
        if type(initial) is not int or not 0 <= initial < state_count:
            raise ValueError(f"initial state must be an int in range, got {initial!r}")
        if any(type(f) is not int or not 0 <= f < state_count for f in finals):
            raise ValueError(f"final states must be ints in range: {finals!r}")
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
        extra = set(d["transitions"]) - set(d["alphabet"])
        if extra:
            raise ValueError(f"interchange field 'transitions' has letters "
                             f"outside the alphabet: {sorted(extra, key=str)}")
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
        if type(state_count) is not int or state_count < 0:
            raise ValueError(f"state_count must be an int >= 0, got {state_count!r}")
        alphabet = tuple(alphabet)
        _check_letters(alphabet)
        transitions = frozenset(tuple(t) for t in transitions)
        initials = frozenset(initials)
        finals = frozenset(finals)
        letters = set(alphabet) | {EPSILON}

        def state(q) -> bool:
            return type(q) is int and 0 <= q < state_count

        for src, a, dst in transitions:
            if not (state(src) and state(dst)):
                raise ValueError("transition states must be ints in range: "
                                 f"{(src, a, dst)}")
            if a not in letters:
                raise ValueError(f"unknown letter in transition: {a!r}")
        if not all(map(state, initials | finals)):
            raise ValueError("initial/final states must be ints in range")
        object.__setattr__(self, "state_count", state_count)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "initials", initials)
        object.__setattr__(self, "finals", finals)


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


#: Subset bits looked up at once.  k states are cut into c >= ceil(k/12)
#: chunks of w = ceil(k/c) bits, adding chunks until the c * 2**w table
#: entries fit max(2**13, 16k): none added up to 24 states, entries linear
#: in k beyond.  Each entry packs k * |alphabet| bits, so bytes grow as k**2.
_CHUNK_BITS = 12


def _chunk_tables(tables: list) -> tuple:
    """The subset kernel's lookup tables, for one table per letter.

    State q's images under all tables are packed into one int, k bits
    apart (k = len(t)), and each chunk of w state bits has a table of
    the packed images of its 2**w subsets: the OR of one lookup per chunk
    is a subset's image under every table at once.  Returns the chunk
    mask 2**w - 1 and each chunk's (shift, table)."""
    k = len(tables[0]) if tables else 0
    packed = [0] * k
    for j, table in enumerate(tables):
        for q, bits in enumerate(table):
            packed[q] |= bits << j * k
    c = -(-k // _CHUNK_BITS) or 1
    while c * 2 ** -(-k // c) > max(2 << _CHUNK_BITS, 16 * k):
        c += 1
    w = -(-k // c) or 1
    chunks = []
    for i in range(0, k, w):
        table = [0]
        for bits in packed[i:i + w]:
            table += [t | bits for t in table]
        chunks.append((i, table))
    return (1 << w) - 1, chunks


def _subsets(start: int, tables: list, limit: int = None) -> tuple:
    """Reachable-subset BFS over int bitmasks, the one subset
    construction of the package.

    One step through table t maps a subset S to the OR of t[q] over
    the q in S; tables are scanned in the given order.  Returns the
    subsets in discovery order and, per table, the row of successor
    indices.  With a limit, only the first limit subsets are expanded:
    the rows cover those, and every subset found is returned.
    """
    k = len(tables[0]) if tables else 0
    low, chunks = _chunk_tables(tables)
    full = (1 << k) - 1
    index = {start: 0}
    order = [start]
    rows = [[] for _ in tables]
    for s in islice(order, limit):
        image = 0
        for shift, chunk in chunks:
            image |= chunk[s >> shift & low]
        for row in rows:
            nxt = image & full
            image >>= k
            i = index.get(nxt)
            if i is None:
                i = index[nxt] = len(order)
                order.append(nxt)
            row.append(i)
    return order, rows


def _transpose(masks: list, k: int) -> list:
    """k masks, the one of q holding bit i when masks[i] holds q.  Of a
    table of images, it is the table of each state's preimages."""
    out = [0] * k
    for i, bits in enumerate(masks):
        bit = 1 << i
        while bits:
            low = bits & -bits
            out[low.bit_length() - 1] |= bit
            bits ^= low
    return out


def _preimages(d: Dfa) -> list:
    """Per letter, the mask of each state's preimages: the tables of
    d's reversed subset construction."""
    return [_transpose([1 << r for r in d.delta[a]], d.state_count)
            for a in d.alphabet]


#: Subsets that the reversed construction of a Nerode seed expands at
#: most; _refine finishes whatever a cut-off seed leaves open.
_SEED_SUBSETS = 64


def _nerode_seed(order: list, tables: list, finals: int) -> list:
    """The Nerode class of each subset of a _subsets run over these
    tables, numbered by first appearance: a start for _refine.

    A subset S accepts w exactly when it meets P_w, the states from
    which a w-path enters finals.  The P_w are the subsets that the
    construction through the transposed tables reaches from finals
    (Brzozowski and Tamm, "Theory of atomata", TCS 539, 2014), so the
    set of P_w that S meets is its class.  With bit i of column q set
    when q lies in the i-th P_w, the column tables read that set in one
    lookup per chunk.  A reversed construction cut off at _SEED_SUBSETS
    still gives a partition between finality (P_0 is finals) and
    Nerode's, and _refine completes it.
    """
    if not tables:
        return [0]  # no letters: the start is the only subset
    k = len(tables[0])
    found, _ = _subsets(finals, [_transpose(t, k) for t in tables], _SEED_SUBSETS)
    low, chunks = _chunk_tables([_transpose(found, k)])
    classes: dict = {}
    seed = []
    for s in order:
        sig = 0
        for shift, chunk in chunks:
            sig |= chunk[s >> shift & low]
        seed.append(classes.setdefault(sig, len(classes)))
    return seed


def _minimal_subset_dfa(alphabet: tuple, start: int, tables: list,
                        finals: int) -> tuple:
    """The minimal DFA of the _subsets run from start with one table
    per letter, a subset final when it meets the finals mask, with
    refinement started from the Nerode seed; and the run's state count."""
    order, rows = _subsets(start, tables)
    final = [s & finals != 0 for s in order]
    seed = _nerode_seed(order, tables, finals)
    del order  # freed before refinement and quotient, where memory peaks
    return _quotient(alphabet, rows, final, seed), len(final)


def determinize(n: Nfa) -> Dfa:
    """Reachable-subset construction with epsilon closure.

    The empty subset, if reachable, is kept as an explicit non-final
    sink so the result is complete.  Result states are numbered in BFS
    discovery order with letters scanned in alphabet order.
    """
    k = n.state_count
    succ = {a: [0] * k for a in (EPSILON,) + n.alphabet}
    for src, a, dst in n.transitions:
        succ[a][src] |= 1 << dst
    closure = []
    for q in range(k):
        reach = frontier = 1 << q
        while frontier:
            frontier = _union(succ[EPSILON], frontier) & ~reach
            reach |= frontier
        closure.append(reach)
    # Closure distributes over union, so stepping a closed subset
    # through the closed successors of its states keeps it closed.
    tables = [[_union(closure, m) for m in succ[a]] for a in n.alphabet]
    order, rows = _subsets(_union(closure, _mask(n.initials)), tables)
    f = _mask(n.finals)
    return Dfa(len(order), n.alphabet, dict(zip(n.alphabet, rows)), 0,
               [i for i, s in enumerate(order) if s & f])


def canonicalize(d: Dfa) -> Dfa:
    """Renumber states in BFS order from the initial state, letters in
    alphabet order.  Requires every state to be reachable."""
    rows, final = _rows(d)
    if len(final) != d.state_count:
        raise ValueError("canonicalize requires all states reachable")
    return Dfa(len(final), d.alphabet, dict(zip(d.alphabet, rows)), 0,
               [i for i, f in enumerate(final) if f])


def _refine(succ: list, block: list) -> tuple:
    """Moore partition refinement over states 0..m-1.

    succ holds one successor row per letter and block the class of
    each state in the starting partition.  Returns the coarsest stable
    refinement, classes numbered by first appearance, and the number
    of classes.
    """
    count = len(set(block))
    while True:
        sigs: dict = {}
        block = [sigs.setdefault(sig, len(sigs))
                 for sig in zip(block, *[map(block.__getitem__, s) for s in succ])]
        if len(sigs) == count:
            return block, count
        count = len(sigs)


def _rows(d: Dfa) -> tuple:
    """The reachable part of d renumbered in BFS order from the initial
    state, letters in alphabet order, the one BFS numbering of a DFA:
    one successor row per letter and a finality flag per state."""
    deltas = [d.delta[a] for a in d.alphabet]
    pos = {d.initial: 0}
    order = [d.initial]
    rows = [[] for _ in deltas]
    for q in order:
        for delta, row in zip(deltas, rows):
            r = delta[q]
            i = pos.get(r)
            if i is None:
                i = pos[r] = len(order)
                order.append(r)
            row.append(i)
    return rows, [q in d.finals for q in order]


def _quotient(alphabet: tuple, rows: list, final: list, block: list) -> Dfa:
    """The minimal DFA of states 0..N-1, numbered in BFS order from the
    initial state 0 with letters in alphabet order: one successor row
    per letter, a finality flag per state, and block, the class of each
    state in a starting partition that separates no two equivalent
    states but every final state from every non-final one.

    Moore refinement numbers each class by its first state.  BFS with
    letters in alphabet order meets states in shortlex order of their
    least access words, so that numbering is the quotient's own BFS
    order, the initial class at 0: the result is canonical.
    """
    block, m = _refine(rows, block)
    rep = {b: i for i, b in enumerate(block)}  # one state per class
    delta = {a: [block[row[rep[b]]] for b in range(m)] for a, row in zip(alphabet, rows)}
    return Dfa(m, alphabet, delta, 0, [b for b in range(m) if final[rep[b]]])


def minimize(d: Dfa) -> Dfa:
    """Minimal DFA of the same language, in canonical (BFS) numbering:
    the quotient of d's reachable part, refined from finality."""
    rows, final = _rows(d)
    return _quotient(d.alphabet, rows, final, final)


def quotient_complexity(d: Dfa) -> int:
    """Number of states of the minimal DFA (= number of left quotients)."""
    return _refine(*_rows(d))[1]


def is_isomorphic(d1: Dfa, d2: Dfa) -> bool:
    """True iff the minimal DFAs are identical up to state renumbering.

    An alphabet mismatch (as a set) yields False, not an error.
    """
    if set(d1.alphabet) != set(d2.alphabet):
        return False
    reordered = Dfa(d2.state_count, d1.alphabet, d2.delta, d2.initial, d2.finals)
    return minimize(d1) == minimize(reordered)
