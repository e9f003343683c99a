"""Transformation-semigroup machinery for suffix-free languages.

Three families of transformations of {0,...,n-1} matter here, all with
a distinguished sink n-1:

* bsf(n): the necessary conditions satisfied by every element of the
  transition semigroup of a minimal suffix-free DFA.  Not closed under
  composition for n >= 4.
* vsf(n): bsf elements injective except into the sink.
* wsf(n): bsf elements that either kill state 0 or kill every middle
  state; |wsf(n)| = (n-1)**(n-2) + (n-2).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product

from .automata import BudgetError, Dfa, Transformation, minimize

BSF = "bsf"
VSF = "vsf"
WSF = "wsf"

#: Default cap on closure size: 2**22 admits |wsf(9)| = 8**7 + 7.  A
#: closure holds each element as a bytes object in a list and a set,
#: about 140 bytes an element at its peak (wsf(9) peaks near 320 MB),
#: so a closure that reaches the cap takes some 600 MB.
MAX_CLOSURE_ELEMENTS = 2 ** 22
#: Default cap on exhaustive n**n enumeration.
MAX_ENUMERATION_DEGREE = 8


class TransitionSemigroup:
    """A finite set of transformations closed under composition.

    The elements are held as distinct bytes of length degree (entry q is
    q's image), the closure kernel's encoding: len, membership, the class
    predicates and the pair scans read them directly.  The frozenset of
    Transformation in elements is built on first read and kept.  Two
    semigroups are equal when their degrees and element sets are.
    """

    __slots__ = ("degree", "generators", "_raw", "_set", "_elements")

    def __init__(self, degree: int, elements, generators: tuple = None):
        if type(degree) is not int or degree < 1:
            raise ValueError(f"degree must be an int >= 1, got {degree!r}")
        if degree > 256:
            raise ValueError(f"degree {degree} exceeds the byte encoding's "
                             "limit (max 256)")
        elements = frozenset(map(Transformation, elements))
        for t in elements:
            if t.degree != degree:
                raise ValueError(f"element {t} has degree {t.degree}, want {degree}")
        self._fill(degree, generators, [bytes(t) for t in elements], elements)

    @classmethod
    def _of_bytes(cls, degree: int, raw: list, generators: tuple = None):
        """The semigroup of the distinct bytes elements raw, kept as given."""
        s = cls.__new__(cls)
        s._fill(degree, generators, raw, None)
        return s

    def _fill(self, degree, generators, raw, elements):
        put = object.__setattr__
        put(self, "degree", degree)
        put(self, "generators", generators)
        put(self, "_raw", raw)
        put(self, "_set", None)
        put(self, "_elements", elements)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"TransitionSemigroup is immutable: cannot set {name!r}")

    def _members(self) -> frozenset:
        if self._set is None:
            object.__setattr__(self, "_set", frozenset(self._raw))
        return self._set

    @property
    def elements(self) -> frozenset:
        if self._elements is None:
            object.__setattr__(self, "_elements", frozenset(
                [tuple.__new__(Transformation, t) for t in self._raw]))
        return self._elements

    def __len__(self) -> int:
        return len(self._raw)

    def __contains__(self, t) -> bool:
        t = tuple(t)  # bytes(5) would be five zero bytes
        try:
            return bytes(t) in self._members()
        except (TypeError, ValueError):
            return False

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransitionSemigroup):
            return NotImplemented
        return (self.degree == other.degree
                and self._members() == other._members())

    def __hash__(self) -> int:
        return hash((self.degree, self._members()))

    def __repr__(self) -> str:
        return f"TransitionSemigroup(degree={self.degree}, size={len(self)})"

    def sorted_elements(self) -> list:
        """Elements in lexicographic image order (deterministic reports)."""
        return sorted(self.elements)


@dataclass(frozen=True)
class ZeroPath:
    """The orbit 0, 0t, 0t**2, ... of a transformation, up to the first
    repetition."""

    states: tuple
    period: int

    @property
    def aperiodic(self) -> bool:
        return self.period == 1

    @property
    def end(self) -> int:
        return self.states[-1]


def zero_path(t: Transformation) -> ZeroPath:
    seen = {0: 0}
    path = [0]
    q = 0
    while True:
        q = t[q]
        if q in seen:
            return ZeroPath(tuple(path), len(path) - seen[q])
        seen[q] = len(path)
        path.append(q)


def in_bsf(t) -> bool:
    """Necessary suffix-free conditions: 0 not in the range, the sink is
    fixed, and at no power j does the 0-path meet the image of a middle
    state (unless it has already reached the sink).

    The quantifier over j >= 1 is evaluated for j = 1..n: the 0-path
    either reaches n-1 within n steps (after which every j passes), or
    a violation occurs at or before its stabilization.
    """
    n = len(t)
    if n < 2:
        raise ValueError("degree must be >= 2")
    if t[n - 1] != n - 1 or 0 in t:
        return False
    sink = n - 1
    cur = t
    for _ in range(n):
        x = cur[0]
        if x == sink:
            return True
        if x in cur[1:sink]:
            return False
        cur = [t[c] for c in cur]
    return True


def in_vsf(t) -> bool:
    """bsf membership plus injectivity away from the sink."""
    n = len(t)
    if not in_bsf(t):
        return False
    seen = set()
    for q in range(n):
        x = t[q]
        if x != n - 1:
            if x in seen:
                return False
            seen.add(x)
    return True


def in_wsf(t) -> bool:
    """bsf membership plus: 0 goes to the sink, or every middle state does."""
    n = len(t)
    if not in_bsf(t):
        return False
    if t[0] == n - 1:
        return True
    return all(t[q] == n - 1 for q in range(1, n - 1))


_PREDICATE = {BSF: in_bsf, VSF: in_vsf, WSF: in_wsf}


def _close(degree: int, gens, guard=None, max_elements: int = MAX_CLOSURE_ELEMENTS):
    """Closure of bytes-encoded transformations (entry q is q's image).

    t * g (t first) is t.translate(g + bytes(range(degree, 256))), found
    in BFS order with generators in the given order, as Froidure and Pin
    (1997) enumerate the right Cayley graph.  Returns (elements, escape):
    the elements in discovery order, and the first (t, g) with t * g
    outside guard (a set holding the generators), else None.  More than
    max_elements elements raise BudgetError.
    """
    tail = bytes(range(degree, 256))
    tables = [g + tail for g in gens]
    queue = list(dict.fromkeys(gens))
    seen = set(queue)
    for t in queue:
        if len(queue) > max_elements:
            raise BudgetError(f"closure exceeded max_elements={max_elements}")
        for table in tables:
            u = t.translate(table)
            if u not in seen:
                if guard is not None and u not in guard:
                    return queue, (t, table[:degree])
                seen.add(u)
                queue.append(u)
    return queue, None


def generate(degree: int, generators, names=None,
             max_elements: int = MAX_CLOSURE_ELEMENTS) -> TransitionSemigroup:
    """Smallest composition-closed set containing the generators.

    BFS closure by right-composition, generators in the given order, on
    bytes elements: each composition is one bytes.translate, run in C.
    The semigroup keeps those bytes; one C pass checks that every image
    lies in 0..degree-1.  The byte encoding caps the degree at 256.  More
    than max_elements elements raise BudgetError.
    """
    if type(degree) is not int or degree < 1:
        raise ValueError(f"degree must be an int >= 1, got {degree!r}")
    gens = [Transformation(g) for g in generators]
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    if names is not None:
        names = list(names)
        if len(names) != len(gens):
            raise ValueError(f"{len(names)} names for {len(gens)} generators")
    if degree > 256:
        raise BudgetError(f"closure at degree {degree} exceeds the byte "
                          "encoding's limit (max 256)")
    elements, _ = _close(degree, [bytes(g) for g in gens],
                         max_elements=max_elements)
    if b"".join(elements).translate(None, bytes(range(degree))):
        raise ValueError(f"closure produced an image outside 0..{degree - 1}")
    named = None
    if names is not None:
        named = tuple([(name, g) for name, g in zip(names, gens)])
    elif gens:
        named = tuple([(f"g{i}", g) for i, g in enumerate(gens)])
    return TransitionSemigroup._of_bytes(degree, elements, named)


def _sink_last(d: Dfa) -> Dfa:
    """Renumber so the empty (rejecting sink) state, if any, is n-1.

    Minimization numbers states in BFS order, which typically places
    the sink early; the class predicates expect the suffix-free
    convention with the sink last.  Middle states keep their BFS order,
    so the transformations change only by a conjugation fixing 0."""
    n = d.state_count
    sinks = d.empty_states()
    if len(sinks) != 1 or sinks[0] == n - 1:
        return d
    order = [q for q in range(n) if q != sinks[0]] + sinks
    new_of = {q: i for i, q in enumerate(order)}
    delta = {a: [new_of[d.delta[a][q]] for q in order] for a in d.alphabet}
    return Dfa(n, d.alphabet, delta, new_of[d.initial], [new_of[q] for q in d.finals])


def transition_semigroup(d: Dfa, max_elements: int = MAX_CLOSURE_ELEMENTS
                         ) -> TransitionSemigroup:
    """Transition semigroup of the minimal DFA of d's language, with the
    empty state (if present) numbered last."""
    m = _sink_last(minimize(d))
    return generate(
        m.state_count,
        [m.delta[a] for a in m.alphabet],
        names=list(m.alphabet),
        max_elements=max_elements,
    )


def enumerate_class(n: int, cls: str, check_closed: bool = None) -> frozenset:
    """All degree-n transformations passing the class predicate.

    For VSF/WSF the result can be verified closed under composition
    (automatic for n <= 5; for larger n the quadratic check is opt-in).
    BSF is never checked: it is not a semigroup for n >= 4.
    """
    if cls not in _PREDICATE:
        raise ValueError(f"unknown class {cls!r}")
    if n > MAX_ENUMERATION_DEGREE:
        raise BudgetError(
            f"enumeration at degree {n} means {n}**{n} candidates; "
            f"max degree is {MAX_ENUMERATION_DEGREE}")
    pred = _PREDICATE[cls]
    hits = [t for t in product(range(n), repeat=n) if pred(t)]
    if check_closed is None:
        check_closed = cls != BSF and n <= 5
    if check_closed:
        if cls == BSF:
            raise ValueError("bsf is not closed under composition; "
                             "closure cannot be asserted")
        raw = [bytes(t) for t in hits]
        _, escape = _close(n, raw, guard=set(raw))
        if escape is not None:
            s, t = (tuple(x) for x in escape)
            raise AssertionError(f"{cls} not closed: {s} * {t} escapes")
    return frozenset(Transformation(t) for t in hits)


def _columns(degree: int, raw: list) -> list:
    """Byte columns of the bytes elements raw: column q holds q's image
    under every element, in element order."""
    joined = b"".join(raw)
    return [joined[q::degree] for q in range(degree)]


def _lanes(column: bytes, table: bytes) -> int:
    """column.translate(table) read as one int, byte i for element i."""
    return int.from_bytes(column.translate(table), "little")


def _all_in_class(degree: int, raw: list, cls: str) -> bool:
    """Whether every element of raw is in vsf or wsf (cls), read off the
    byte columns; see is_subsemigroup_of."""
    sink = degree - 1
    cols = _columns(degree, raw)
    if cols[sink] != bytes([sink]) * len(raw) or any(0 in c for c in cols):
        return False
    if cls == WSF:
        live = bytearray(b"\x01" * 256)
        live[sink] = 0
        middle_live = reduce(operator.or_,
                             [_lanes(cols[q], live) for q in range(1, sink)], 0)
        return not (_lanes(cols[0], live) & middle_live)
    # Middle value v is bit (v - low) of a lane, for eight values at a
    # time: a lane's sum over the non-sink columns exceeds its OR iff two
    # of them hold the same value.
    for low in range(1, sink, 8):
        bit = bytearray(256)
        for v in range(low, min(low + 8, sink)):
            bit[v] = 1 << (v - low)
        lanes = [_lanes(cols[q], bit) for q in range(sink)]
        if sum(lanes) != reduce(operator.or_, lanes):
            return False
    return True


def is_subsemigroup_of(s: TransitionSemigroup, cls: str) -> bool:
    """True iff every element passes the class membership predicate.

    vsf and wsf are checked for all elements at once on byte columns.
    Let t fix the sink s = n-1 and miss 0.  If t is injective off the
    sink, so is every power t**j, so t**j(0) = t**j(q) != s forces
    q = 0; if t(0) = s, or t sends every middle state to s, then
    t**2(0) = s.  Either way bsf's power condition holds, hence

    * in_vsf(t) iff s is fixed, 0 is not an image and t is injective
      off the sink;
    * in_wsf(t) iff s is fixed, 0 is not an image and t(0) = s or
      every middle state maps to s.

    A semigroup outside the class mostly shows it among its first
    elements (a closure lists its generators first), so the first 64
    are checked before all of them.  bsf needs each element's powers
    and keeps the per-element predicate.
    """
    if cls not in _PREDICATE:
        raise ValueError(f"unknown class {cls!r}")
    raw = s._raw
    if cls == BSF or not raw:
        return all(map(in_bsf, raw))
    if s.degree < 2:
        raise ValueError("degree must be >= 2")
    return (_all_in_class(s.degree, raw[:64], cls)
            and _all_in_class(s.degree, raw, cls))


def colliding_pairs(s: TransitionSemigroup) -> frozenset:
    """Unordered middle-state pairs {p,q} such that some element sends 0
    to p while sending another middle state to q."""
    n = s.degree
    pairs = set()
    for t in s._raw:
        p = t[0]
        if p == n - 1 or p == 0:
            continue
        for r in range(1, n - 1):
            q = t[r]
            if q not in (n - 1, 0) and q != p:
                pairs.add((min(p, q), max(p, q)))
    return frozenset(pairs)


def focused_pairs(s: TransitionSemigroup) -> frozenset:
    """Unordered middle-state pairs merged by some element into a common
    middle (non-sink, non-initial) state.

    Scans byte columns: column q holds q's image under every element.
    The left copy of each column marks 0 and n-1 as n-1, the right copy
    marks them as 0, so a merge into 0 or n-1 never matches; {p, q} is
    focused iff the left column of p and the right column of q agree at
    some element.
    """
    n = s.degree
    cols = _columns(n, s._raw)
    left, right = bytearray(range(256)), bytearray(range(256))
    left[0] = n - 1
    right[n - 1] = 0
    lefts = [c.translate(left) for c in cols]
    rights = [c.translate(right) for c in cols]
    return frozenset(
        (p, q) for p, q in combinations(range(1, n - 1), 2)
        if any(map(operator.eq, lefts[p], rights[q])))


def _cycle(image: list, states) -> None:
    states = list(states)
    if len(states) >= 2:
        for i, q in enumerate(states):
            image[q] = states[(i + 1) % len(states)]


def _middle_cycle(n: int) -> Transformation:
    """(0 -> n-1)(1,...,n-2), a role of every witness family."""
    a = list(range(n))
    a[0] = n - 1
    _cycle(a, range(1, n - 1))
    return Transformation(a)


def _cycles(n: int) -> list:
    """The named middle cycle a and, for n >= 5, the transposition
    b = (0 -> n-1)(1,2); at n = 4 b would equal a."""
    named = [("a", _middle_cycle(n))]
    if n >= 5:
        b = list(range(n))
        b[0] = n - 1
        _cycle(b, (1, 2))
        named.append(("b", Transformation(b)))
    return named


def vsf_generators(n: int) -> tuple:
    """The named generating set of vsf(n): the middle-cycle a, the
    transposition b and the n-2 maps c_p = (p -> n-1)(0 -> p).

    For n = 4, a and b coincide and b is dropped; the small cases n = 2
    and n = 3 degenerate further.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n == 2:
        # c1 degenerates to the single map 0 -> sink.
        return (("c1", Transformation((1, 1))),)
    cs = []
    for p in range(1, n - 1):
        c = list(range(n))
        c[p] = n - 1
        c[0] = p
        cs.append((f"c{p}", Transformation(c)))
    return tuple(_cycles(n) + cs)


def wsf_generators(n: int) -> tuple:
    """The named generating set of wsf(n): a, b as for vsf plus
    c = (0 -> n-1)(n-2 -> 1), d = ({0,1} -> n-1) and
    e = (Q \\ {0} -> n-1)(0 -> 1).

    For n = 4, a and b coincide and b is dropped; n = 2 and n = 3
    degenerate to {e} and {a, e}.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    e = [n - 1] * n
    e[0] = 1
    if n == 2:
        return (("e", Transformation(e)),)
    if n == 3:
        return tuple(_cycles(n) + [("e", Transformation(e))])
    c = list(range(n))
    c[0] = n - 1
    c[n - 2] = 1
    d = list(range(n))
    d[0] = d[1] = n - 1
    return tuple(_cycles(n) + [("c", Transformation(c)), ("d", Transformation(d)),
                               ("e", Transformation(e))])


def wsf_cardinality(n: int) -> int:
    """(n-1)**(n-2) + (n-2), the size of wsf(n) for n >= 2."""
    if n < 2:
        raise ValueError(f"wsf(n) is defined for n >= 2, not n = {n}")
    return (n - 1) ** (n - 2) + (n - 2)
