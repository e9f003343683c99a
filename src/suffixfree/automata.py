"""Core automata values: transformations and DFAs, and the kernels
everything else builds on: the one subset construction (_subsets),
which can read each subset's Nerode class in its own pass, and
minimization, whose quotient comes out canonically (BFS) numbered.

States are always 0..n-1.  All values are immutable after construction
and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from typing import Iterable, Mapping, Sequence


class BudgetError(ValueError):
    """Raised when a computation would exceed its stated size budget."""


def _check_letters(alphabet: tuple) -> None:
    """Letters are non-empty strings: spelled out, a word holding the
    letter "" would read as a shorter word."""
    for a in alphabet:
        if not isinstance(a, str) or a == "":
            raise ValueError(f"alphabet letters must be non-empty strings: {a!r}")


class Transformation(tuple):
    """A total self-map of {0,...,n-1}; entry q is the image of state q.
    Two compose by compose(s, t), in diagrammatic order."""

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

    @classmethod
    def identity(cls, n: int) -> "Transformation":
        return cls(range(n))

    def __repr__(self) -> str:
        return f"Transformation({list(self)})"


def compose(s: Transformation, t: Transformation) -> Transformation:
    """Apply s first, then t: result[q] = t[s[q]], the diagrammatic
    order q(st) = (qs)t.  The one spelling of composition."""
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
        if finals and not ({int}.issuperset(map(type, finals))
                           and 0 <= min(finals) and max(finals) < state_count):
            raise ValueError(f"final states must be ints in range: {finals!r}")
        object.__setattr__(self, "state_count", state_count)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "finals", finals)

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


def _subsets(start: int, tables: list, limit: int = None, column: list = None) -> tuple:
    """Reachable-subset BFS over int bitmasks, the one subset
    construction of the package.

    One step through table t maps a subset S to the OR of t[q] over
    the q in S; tables are scanned in the given order.  Returns the
    subsets in discovery order and, per table, the row of successor
    indices.  With a limit, only the first limit subsets are expanded:
    the rows cover those, and every subset found is returned.

    A column (one mask per state, of any width) is packed above the
    tables, so what is left of S's lookup once every successor is
    shifted out is the OR of column[q] over the q in S.  Numbered by
    first appearance, that is S's label; then the labels of the expanded
    subsets and their count are returned too.
    """
    k = len(tables[0]) if tables else 0
    low, chunks = _chunk_tables(tables if column is None else tables + [column])
    full = (1 << k) - 1
    index = {start: 0}
    order = [start]
    rows = [[] for _ in tables]
    labels, signatures = [], {}
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
        if column is not None:
            labels.append(signatures.setdefault(image, len(signatures)))
    if column is None:
        return order, rows
    return order, rows, labels, len(signatures)


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


#: Subsets that the reversed construction behind the Nerode labels
#: expands at most; _refine finishes what a cut-off run leaves open.
_SEED_SUBSETS = 64


def _minimal_subset_dfa(alphabet: tuple, start: int, tables: list, finals: int) -> tuple:
    """The minimal DFA of the _subsets run from start with one table
    per letter, a subset final when it meets the finals mask; and the
    run's state count.

    A subset S accepts w exactly when it meets P_w, the states from
    which a w-path enters finals.  The P_w are the subsets that the
    construction through the transposed tables reaches from finals
    (Brzozowski and Tamm, "Theory of atomata", TCS 539, 2014), so the
    set of P_w that S meets, S's label under the column that sets bit i
    of q when q lies in the i-th P_w, is its Nerode class.  A reversed
    run cut off at _SEED_SUBSETS leaves labels between finality (P_0
    is finals) and Nerode's, and _refine completes them.
    """
    if not tables:  # no letters: the start is the only subset, class 0
        return _quotient(alphabet, [], [start & finals != 0], [0], 1), 1
    k = len(tables[0])
    found, _ = _subsets(finals, [_transpose(t, k) for t in tables], _SEED_SUBSETS)
    order, rows, block, m = _subsets(start, tables, column=_transpose(found, k))
    final = [s & finals != 0 for s in order]
    del order  # freed before the quotient, where memory peaks
    if len(found) > _SEED_SUBSETS:
        block, m = _refine(rows, block)
    return _quotient(alphabet, rows, final, block, m), len(final)


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


def _quotient(alphabet: tuple, rows: list, final: list, block: list, m: int) -> Dfa:
    """The minimal DFA of states 0..N-1, numbered in BFS order from the
    initial state 0 with letters in alphabet order: one successor row
    per letter, a finality flag per state, and block, the Nerode class
    of each state, its m classes numbered by first state (as _refine
    returns them).

    BFS with letters in alphabet order meets states in shortlex order
    of their least access words, so that numbering is the quotient's
    own BFS order, the initial class at 0: the result is canonical.
    """
    # One state per class, in class order; images < m need no check.  A
    # tuple grown from an iterator would pin free-list memory, so list it.
    rep = dict(zip(block, range(len(block)))).values()
    image = block.__getitem__
    delta = {a: tuple.__new__(Transformation, [*map(image, map(row.__getitem__, rep))])
             for a, row in zip(alphabet, rows)}
    return Dfa(m, alphabet, delta, 0, compress(range(m), map(final.__getitem__, rep)))


def minimize(d: Dfa) -> Dfa:
    """Minimal DFA of the same language, in canonical (BFS) numbering:
    the quotient of d's reachable part, refined from finality."""
    rows, final = _rows(d)
    return _quotient(d.alphabet, rows, final, *_refine(rows, final))


def quotient_complexity(d: Dfa) -> int:
    """Number of states of the minimal DFA (= number of left quotients)."""
    return _refine(*_rows(d))[1]
