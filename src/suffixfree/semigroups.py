"""Transformation-semigroup machinery for suffix-free languages.

Three families of transformations of {0,...,n-1} matter here, all with
a distinguished sink n-1:

* bsf(n): the necessary conditions satisfied by every element of the
  transition semigroup of a minimal suffix-free DFA.  Not closed under
  composition for n >= 4.
* vsf(n): bsf elements injective except into the sink.
* wsf(n): bsf elements that either kill state 0 or kill every middle
  state; |wsf(n)| = (n-1)**(n-2) + (n-2).

vsf(n) and wsf(n) are semigroups (the tests check their closure), so
a generated semigroup lies in one of them iff every generator does: its
class is read off the generators and no element is listed.  bsf(n) is
not closed, so its membership is checked element by element.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import chain, combinations, count, islice, product
from math import factorial

from .automata import BudgetError, Dfa, Transformation, minimize

BSF = "bsf"
VSF = "vsf"
WSF = "wsf"

#: Default cap on the bytes elements a closure or count holds: 2**22
#: admits |wsf(9)| = 8**7 + 7.  A closure holds each element in a list
#: and a set, about 140 bytes an element at its peak (wsf(9) peaks near
#: 320 MB), so a closure that reaches the cap takes some 600 MB.
#: semigroup_size charges its orbit of images, its Schützenberger groups
#: and the variants of one element per R-class against the same cap:
#: 114,377 elements for wsf(9) and 1,234,469 for wsf(10) (|wsf(10)| =
#: 9**8 + 8).
MAX_CLOSURE_ELEMENTS = 2 ** 22
#: Default cap on exhaustive (n-1)**(n-1) enumeration.
MAX_ENUMERATION_DEGREE = 8
#: What semigroup_size holds, in elements of a closure (about 90 bytes
#: of objects each at its peak, by tracemalloc): an orbit point, its
#: image as bytes and as a frozenset, a 256-byte table and its edges,
#: about 1.4 KB; an element of a Schützenberger group, a 256-byte table.
_ORBIT_POINT_WEIGHT = 16
_GROUP_WEIGHT = 3
#: Byte q is q: slices give the identity tails of translate tables.
_POINTS = bytes(range(256))


def _check_degree(degree) -> None:
    """ValueError unless degree is an int >= 1; BudgetError past the
    byte encoding's limit of 256."""
    if type(degree) is not int or degree < 1:
        raise ValueError(f"degree must be an int >= 1, got {degree!r}")
    if degree > 256:
        raise BudgetError(f"degree {degree} exceeds the byte encoding's "
                          "limit (max 256)")


class TransitionSemigroup:
    """A finite set of transformations closed under composition.

    The elements are held as distinct bytes of length degree (entry q is
    q's image), the closure kernel's encoding: len, membership, the class
    predicates and the pair scans read them directly.  The frozenset of
    Transformation in elements is built on first read and kept.  Two
    semigroups are equal when their degrees and element sets are.
    generators holds the named generators when generate built the
    semigroup, and None otherwise.
    """

    __slots__ = ("degree", "generators", "_raw", "_set", "_elements")

    def __init__(self, degree: int, elements):
        _check_degree(degree)
        elements = frozenset(map(Transformation, elements))
        for t in elements:
            if t.degree != degree:
                raise ValueError(f"element {t} has degree {t.degree}, want {degree}")
        self._fill(degree, None, [bytes(t) for t in elements], elements)

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


def _sink_fixed_zero_free(t) -> bool:
    """The condition all three classes start from: the sink n-1 is fixed
    and 0 is not an image.  Raises ValueError for degree < 2, an image
    that is not an int, or one outside 0..n-1."""
    n = len(t)
    if n < 2:
        raise ValueError("degree must be >= 2")
    if not {int}.issuperset(map(type, t)):
        raise ValueError(f"images must be int state numbers: {tuple(t)}")
    if min(t) < 0 or max(t) >= n:
        raise ValueError(f"{tuple(t)} has an image outside 0..{n - 1}")
    return t[n - 1] == n - 1 and 0 not in t


def in_bsf(t) -> bool:
    """Necessary suffix-free conditions: 0 not in the range, the sink is
    fixed, and at no power j does the 0-path meet the image of a middle
    state (unless it has already reached the sink).

    The quantifier over j >= 1 is evaluated for j = 1..n: the 0-path
    either reaches n-1 within n steps (after which every j passes), or
    a violation occurs at or before its stabilization.
    """
    if not _sink_fixed_zero_free(t):
        return False
    n = len(t)
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


# Lemma: vsf and wsf need no power loop.  Let t fix the sink s = n-1
# and miss 0.  If t is injective off the sink, so is every power t**j,
# so t**j(0) = t**j(q) != s forces q = 0.  If t(0) = s, or t sends every
# middle state to s, then t**2(0) = s, and t(0) is s or no middle
# state's image.  Either way bsf's power condition holds, so in_vsf and
# in_wsf below are bsf membership plus their class condition.

def in_vsf(t) -> bool:
    """Sink fixed, 0 not an image, and injective off the sink."""
    live = [x for x in t if x != len(t) - 1]
    return _sink_fixed_zero_free(t) and len(set(live)) == len(live)


def in_wsf(t) -> bool:
    """Sink fixed, 0 not an image, and 0 or every middle state sent to
    the sink."""
    sink = len(t) - 1
    return _sink_fixed_zero_free(t) and (
        t[0] == sink or t[1:sink].count(sink) == sink - 1)


_PREDICATE = {BSF: in_bsf, VSF: in_vsf, WSF: in_wsf}


def _close(degree: int, gens, guard=None, max_elements: int = MAX_CLOSURE_ELEMENTS,
           seed=()):
    """Closure of bytes-encoded transformations (entry q is q's image).

    t * g (t first) is t.translate(g + _POINTS[degree:]), found
    in BFS order with generators in the given order, as Froidure and Pin
    (1997) enumerate the right Cayley graph.  Returns (elements, escape):
    the elements in discovery order, and the first (t, g) with t * g
    outside guard (a set holding the generators), else None.  More than
    max_elements elements raise BudgetError.

    A seed, the closure of gens[:-1] as a list, grows as Froidure and
    Pin add a generator: closed under gens[:-1] already, it is multiplied
    by the last generator only, and what that finds by every generator.
    The elements then start with the seed.
    """
    tail = _POINTS[degree:]
    tables = [g + tail for g in gens]
    queue = list(seed)
    seen = set(queue)
    for g in gens[-1:] if seed else gens:
        if g not in seen:
            seen.add(g)
            queue.append(g)
    # Unseeded, the loop runs over the list itself, as fast as before.
    rest = islice(queue, len(seed), None) if seed else queue
    for found, by in ((seed, tables[-1:]), (rest, tables)):
        for t in found:
            if len(queue) > max_elements:
                raise BudgetError(f"closure exceeded max_elements={max_elements}")
            for table in by:
                u = t.translate(table)
                if u not in seen:
                    if guard is not None and u not in guard:
                        return queue, (t, table[:degree])
                    seen.add(u)
                    queue.append(u)
    return queue, None


def _generator_bytes(degree: int, generators) -> tuple:
    """The generators as Transformations of the given degree and as bytes.

    Raises ValueError unless every generator has the degree, which
    _check_degree admits.
    """
    _check_degree(degree)
    gens = [Transformation(g) for g in generators]
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    return gens, [bytes(g) for g in gens]


def generate(degree: int, generators, names=None,
             max_elements: int = MAX_CLOSURE_ELEMENTS) -> TransitionSemigroup:
    """Smallest composition-closed set containing the generators.

    BFS closure by right-composition, generators in the given order, on
    bytes elements: each composition is one bytes.translate, run in C.
    The semigroup keeps those bytes; one C pass checks that every image
    lies in 0..degree-1.  The byte encoding caps the degree at 256.  More
    than max_elements elements raise BudgetError.
    """
    gens, raw = _generator_bytes(degree, generators)
    if names is not None:
        names = list(names)
        if len(names) != len(gens):
            raise ValueError(f"{len(names)} names for {len(gens)} generators")
    elements, _ = _close(degree, raw, max_elements=max_elements)
    if b"".join(elements).translate(None, _POINTS[:degree]):
        raise ValueError(f"closure produced an image outside 0..{degree - 1}")
    named = None
    if names is not None:
        named = tuple([(name, g) for name, g in zip(names, gens)])
    elif gens:
        named = tuple([(f"g{i}", g) for i, g in enumerate(gens)])
    return TransitionSemigroup._of_bytes(degree, elements, named)


def _components(nodes, succ) -> dict:
    """Strongly connected components by Tarjan's algorithm, without
    recursion, of the graph on 0..len(succ)-1 with edges v -> w for w in
    succ[v].  Returns a dict from each node reachable from nodes to its
    component's root, filled as components complete: each after every
    one it reaches, its root last."""
    # low[v] is 0 until v is met, and done once its component completes.
    low, done, numbers = [0] * len(succ), len(succ) + 1, count(1)
    label, stack = {}, []
    for start in nodes:
        if low[start]:
            continue
        low[start] = number = next(numbers)
        stack.append(start)
        path = [(start, iter(succ[start]), number)]
        while path:
            v, out, number = path[-1]
            for w in out:
                if not low[w]:
                    low[w] = number = next(numbers)
                    stack.append(w)
                    path.append((w, iter(succ[w]), number))
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == number:
                    w = None
                    while w != v:
                        w = stack.pop()
                        low[w] = done
                        label[w] = v
    return label


def _group_exceeds(gens, bound: int) -> bool:
    """Whether the permutation group that gens generate has more than
    bound elements, by the Schreier-Sims algorithm (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005, 4.4.2).  Each
    permutation is a 256-byte translate table, as in _close.  The
    product of the orbit sizes found so far never exceeds the order, so
    the search stops once it passes bound."""
    base, strong, orbits = [], [], []

    def strip(g):
        for i, b in enumerate(base):
            u = orbits[i].get(g[b])
            if u is None:
                return g, i
            g = g.translate(bytes.maketrans(u, _POINTS))
        return g, len(base)

    def add(h, first, last):
        # h, which fixes base[:last], joins the strong generators of
        # levels first..last; each level's orbit is found again, each
        # point with a product of generators that takes the base point
        # to it.
        if last == len(base):
            base.append(next(p for p, q in enumerate(h) if p != q))
            strong.append([])
            orbits.append(None)
        for i in range(first, last + 1):
            strong[i].append(h)
            orbits[i] = found = {base[i]: _POINTS}
            queue = [base[i]]
            for p in queue:
                for s in strong[i]:
                    if s[p] not in found:
                        found[s[p]] = found[p].translate(s)
                        queue.append(s[p])
        return reduce(operator.mul, map(len, orbits), 1) > bound

    def residue(i):
        # A Schreier generator of level i that does not strip to the
        # identity, stripped, with the level it stopped at.
        for p, u in orbits[i].items():
            for s in strong[i]:
                back = bytes.maketrans(orbits[i][s[p]], _POINTS)
                h, j = strip(u.translate(s).translate(back))
                if h != _POINTS:
                    return h, j
        return None

    for g in gens:
        h, j = strip(g)
        if h != _POINTS and add(h, 0, j):
            return True
    i = len(base) - 1
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
        elif add(found[0], i + 1, found[1]):
            return True
        else:
            i = found[1]
    return reduce(operator.mul, map(len, orbits), 1) > bound


def semigroup_size(degree: int, generators) -> int:
    """The number of elements of the semigroup the generators generate,
    counted by R-classes without listing the elements.

    Elements are bytes, as in _close, and t * g (t first) maps the image
    X of t to Xg.  The images form the orbit of the generators' images
    under X -> Xg.  Each strongly connected component of the orbit has a
    root X, and the elements s with Xs = X permute X as its
    Schützenberger group G(X), which the component's Schreier generators
    generate (Linton, Pfeiffer, Robertson and Ruškuc, Math. Z. 228,
    1998).  An R-class whose image lies in X's component holds
    |component| * |G(X)| elements.  R is a left congruence, so
    multiplying one element of each R-class on the left by every
    generator reaches every R-class.  Composing a candidate with a
    bijection from its image onto X that the semigroup, with an identity
    adjoined, induces keeps it in its R-class; it lies in a known R-class
    iff the result is one of the G(X)-variants stored for that class.

    What the count holds is charged, in elements, against
    MAX_CLOSURE_ELEMENTS before it is built: _ORBIT_POINT_WEIGHT for
    each orbit point, and for each element of each G(X) _GROUP_WEIGHT
    for its table and one for the variants of each R-class that stores
    them.  Every component holds the image of some element, so each
    G(X) is stored at least once and is charged that with its tables.
    The orbit is met rank by rank from the highest, and each rank's
    groups are charged before a lower rank is met, so a count past the
    limit raises BudgetError early.
    """
    _, gens = _generator_bytes(degree, generators)
    budget = MAX_CLOSURE_ELEMENTS
    over = BudgetError(f"semigroup_size would hold more than "
                       f"MAX_CLOSURE_ELEMENTS={budget} elements")
    held = 0
    tail = _POINTS[degree:]
    tables = [g + tail for g in gens]
    # The images, each as the bytes of its points, and the edges
    # X -> Xg that keep the rank: no other edge stays inside a
    # component.  An image's rank is its size, and no edge raises it,
    # so a rank's images are all met once the higher ranks are done.
    points, node = [], {}
    ranks = [[] for _ in range(degree + 1)]
    for y in map(frozenset, gens):
        if y not in node:
            node[y] = len(points)
            ranks[len(y)].append(len(points))
            points.append(bytes(y))
    # A member's image maps onto its root X = x[0], x[1], ... as the
    # indices 0, 1, ..., so G(X) acts on them as permutations of
    # 0..|X|-1 and composes by translate, as elements do.  back[j]:
    # (table from image j onto the indices, component size, G(X) as
    # translate tables, the variants stored for X).
    back = {}
    for level in reversed(ranks):
        edges = {}
        for i in level:
            held += _ORBIT_POINT_WEIGHT
            if held > budget:
                raise over
            x = points[i]
            out = []
            for table in tables:
                y = frozenset(x.translate(table))
                if y not in node:
                    node[y] = len(points)
                    ranks[len(y)].append(len(points))
                    points.append(bytes(y))
                if len(y) == len(x):
                    out.append((table, node[y]))
            edges[i] = out
        succ = [()] * len(points)
        for i in level:
            succ[i] = [j for _, j in edges[i]]
        label = _components(level, succ)
        for r in level:
            if r in back:
                continue
            x = points[r]
            index, rest = _POINTS[:len(x)], _POINTS[len(x):]
            # onto[j] lists the images of x[0], x[1], ... in member j's
            # image.
            onto, inverse = {r: x}, {r: bytes.maketrans(x, index)}
            members = [r]
            sigmas = {index}
            for i in members:
                for table, j in edges[i]:
                    if label[j] == label[r]:
                        w = onto[i].translate(table)
                        if j in onto:
                            sigmas.add(w.translate(inverse[j]))
                        else:
                            onto[j], inverse[j] = w, bytes.maketrans(w, index)
                            members.append(j)
            # |G(X)| <= |X|!, and the listing is checked first where
            # that does not keep it in the budget.
            room = (budget - held) // (_GROUP_WEIGHT + 1)
            if factorial(len(x)) > room and _group_exceeds(
                    [s + rest for s in sigmas], room):
                raise over
            group = [s + rest for s in _close(len(x), sigmas)[0]]
            held += (_GROUP_WEIGHT + 1) * len(group)
            root = (len(members), group, set())
            for j in members:
                back[j] = (inverse[j],) + root
    reps, size = [], 0
    for z in chain(gens, (a.translate(y) for y in reps for a in gens)):
        inverse, members, group, variants = back[node[frozenset(z)]]
        key = z.translate(inverse)
        if key in variants:
            continue
        if variants:  # the first R-class's variants came with G(X)
            held += len(group)
            if held > budget:
                raise over
        variants.update([key.translate(s) for s in group])
        reps.append(z + tail)
        size += members * len(group)
    return size


def _letter_maps(d: Dfa) -> tuple:
    """The state count and letter maps of the minimal DFA of d's
    language, its one empty state numbered last: the degree and
    generators of its transition semigroup.

    Minimization numbers states in BFS order, which typically places
    the empty state early; the class predicates expect it last.  The
    other states keep their order, so each map changes only by the
    conjugation that moves the empty state to n-1 and fixes 0."""
    m = minimize(d)
    n = m.state_count
    maps = [m.delta[a] for a in m.alphabet]
    sinks = m.empty_states()
    if len(sinks) != 1 or sinks[0] == n - 1:
        return n, maps
    order = [q for q in range(n) if q != sinks[0]] + sinks
    new_of = {q: i for i, q in enumerate(order)}
    return n, [Transformation([new_of[t[q]] for q in order]) for t in maps]


def transition_semigroup(d: Dfa, max_elements: int = MAX_CLOSURE_ELEMENTS
                         ) -> TransitionSemigroup:
    """Transition semigroup of the minimal DFA of d's language, with the
    empty state (if present) numbered last."""
    degree, maps = _letter_maps(d)
    return generate(degree, maps, names=list(d.alphabet),
                    max_elements=max_elements)


def enumerate_class(n: int, cls: str) -> frozenset:
    """All degree-n transformations passing the class predicate.

    Every class fixes the sink and misses 0, so the candidates are the
    (n-1)**(n-1) maps of 0..n-2 into 1..n-1, the sink fixed.
    """
    if cls not in _PREDICATE:
        raise ValueError(f"unknown class {cls!r}")
    if type(n) is not int or n < 2:
        raise ValueError(f"n must be an int >= 2, got {n!r}")
    if n > MAX_ENUMERATION_DEGREE:
        raise BudgetError(
            f"enumeration at degree {n} means {n - 1}**{n - 1} candidates; "
            f"max degree is {MAX_ENUMERATION_DEGREE}")
    pred = _PREDICATE[cls]
    sink = (n - 1,)
    candidates = (head + sink for head in product(range(1, n), repeat=n - 1))
    return frozenset([Transformation(t) for t in candidates if pred(t)])


def _generated_in(generators, cls: str) -> bool:
    """Whether the semigroup that the generators generate lies in vsf or
    wsf (cls).  Both are closed under composition and hold what they
    generate, so it does exactly when every generator does."""
    return all(map(_PREDICATE[cls], generators))


def is_subsemigroup_of(s: TransitionSemigroup, cls: str) -> bool:
    """True iff every element passes the class membership predicate.

    For vsf and wsf a semigroup that generate built is judged on its
    generators (see _generated_in).  bsf is not closed under
    composition, so it, like a semigroup given by its elements, is
    checked element by element.
    """
    if cls not in _PREDICATE:
        raise ValueError(f"unknown class {cls!r}")
    if cls != BSF and s.generators is not None:
        return _generated_in([g for _, g in s.generators], cls)
    return all(map(_PREDICATE[cls], s._raw))


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
    joined = b"".join(s._raw)
    cols = [joined[q::n] for q in range(n)]
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
    if type(n) is not int or n < 2:
        raise ValueError(f"need an int n >= 2, got {n!r}")
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
    if type(n) is not int or n < 2:
        raise ValueError(f"need an int n >= 2, got {n!r}")
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
    if type(n) is not int or n < 2:
        raise ValueError(f"wsf(n) is defined for int n >= 2, not n = {n!r}")
    return (n - 1) ** (n - 2) + (n - 2)
