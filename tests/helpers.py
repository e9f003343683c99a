"""Shared helpers for the test suite: random automata and brute-force
reference implementations used as oracles."""

import random
from collections import deque
from dataclasses import dataclass
from itertools import combinations, product
from typing import NamedTuple

from suffixfree import automata
from suffixfree.atoms import _atom_bases
from suffixfree.automata import (
    Dfa, Transformation, _chunk_tables, _mask, _quotient, _refine, _subsets, _transpose,
    minimize)
from suffixfree.langops import BooleanOp, boolean
from suffixfree.semigroups import (
    BSF, VSF, WSF, TransitionSemigroup, _close, enumerate_class, generate, in_bsf,
    transition_semigroup, vsf_generators)
from suffixfree.verify import SearchReport
from suffixfree.witnesses import d5

#: The letter of empty-word transitions in an Nfa.
EPSILON = ""


def random_transformation(rng: random.Random, n: int) -> Transformation:
    return Transformation(tuple(rng.randrange(n) for _ in range(n)))


def reference_closure_order(generators) -> list:
    """Closure under composition by a plain tuple worklist, independent
    of the byte kernel behind semigroups.generate: the elements in BFS
    order, each multiplied on the right by the generators in turn."""
    gens = [tuple(g) for g in generators]
    queue = list(dict.fromkeys(gens))
    seen = set(queue)
    i = 0
    while i < len(queue):
        t = queue[i]
        i += 1
        for g in gens:
            u = tuple(g[x] for x in t)
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return queue


def reference_closure(generators) -> frozenset:
    return frozenset(reference_closure_order(generators))


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


def reference_in_vsf(t) -> bool:
    """vsf by its definition: bsf membership, power loop included, plus
    injectivity away from the sink; independent of the lemma behind
    semigroups.in_vsf."""
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


def reference_in_wsf(t) -> bool:
    """wsf by its definition: bsf membership, power loop included, plus
    0 or every middle state sent to the sink; independent of the lemma
    behind semigroups.in_wsf."""
    n = len(t)
    if not in_bsf(t):
        return False
    if t[0] == n - 1:
        return True
    return all(t[q] == n - 1 for q in range(1, n - 1))


def reference_is_subsemigroup_of(s, cls: str) -> bool:
    """Class membership by one definition call per element, independent
    of the generator rule behind semigroups.is_subsemigroup_of and of the
    lemma behind semigroups.in_vsf and in_wsf."""
    pred = {BSF: in_bsf, VSF: reference_in_vsf, WSF: reference_in_wsf}[cls]
    return all(map(pred, s._raw))


def star_side_semigroup(n: int) -> TransitionSemigroup:
    """Transition semigroup of a star-bound witness.  The ternary
    witness family starts at n = 6; at n = 4, 5 the canonical automaton
    whose semigroup is all of vsf(n) stands in."""
    if n >= 6:
        return transition_semigroup(d5(n, "a,b,-"))
    return generate(n, [t for _, t in vsf_generators(n)],
                    names=[name for name, _ in vsf_generators(n)])


def reference_colliding_pairs(s) -> frozenset:
    """Colliding pairs by scanning every element for 0 and another middle
    state sent to two distinct middle states, independent of the pair
    automaton behind semigroups.colliding_pairs."""
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


def reference_focused_pairs(s) -> frozenset:
    """Focused pairs by their definition, some element sending both to
    one middle state, checked pair by pair over the elements;
    independent of the pair automaton behind semigroups.focused_pairs."""
    n = s.degree
    return frozenset((p, q) for p, q in combinations(range(1, n - 1), 2)
                     if any(t[p] == t[q] not in (0, n - 1) for t in s._raw))


def kept_closures(n: int, cap: int):
    """The closure of every generator subset of bsf(n) with at most cap
    elements that stays inside bsf(n), as a TransitionSemigroup: one
    closure per subset, none skipped by symmetry."""
    bsf = [bytes(t) for t in sorted(enumerate_class(n, BSF))]
    bsf_set = set(bsf)
    for size in range(1, cap + 1):
        for gens in combinations(bsf, size):
            elements, escape = _close(n, gens, guard=bsf_set)
            if escape is None:
                yield TransitionSemigroup._of_bytes(n, elements)


def reference_search(n: int, cap: int) -> SearchReport:
    """search_subsemigroups by closing every subset, with the pair sets
    of each kept closure from the element-scanning oracles, independent
    of the orbit count, the per-element pair masks and the pair
    automaton."""
    all_middle_pairs = frozenset(combinations(range(1, n - 1), 2))
    found = best = 0
    any_both = False
    for closure in kept_closures(n, cap):
        found += 1
        best = max(best, len(closure))
        if (all_middle_pairs
                and reference_colliding_pairs(closure) == all_middle_pairs
                and reference_focused_pairs(closure) == all_middle_pairs):
            any_both = True
    return SearchReport(degree=n, generator_cap=cap, semigroups_found=found,
                        max_cardinality=best, any_colliding_and_focused=any_both,
                        complete=True)


def conjugate(t, pi) -> Transformation:
    """The u with u[pi[q]] = pi[t[q]] for every state q."""
    u = [None] * len(t)
    for q, r in enumerate(t):
        u[pi[q]] = pi[r]
    return Transformation(u)


class Nfa(NamedTuple):
    """A nondeterministic automaton over states 0..state_count-1, for the
    textbook constructions the oracles determinize: (src, letter, dst)
    transitions, EPSILON ones allowed, and sets of initial and final
    states.  Not validated."""

    state_count: int
    alphabet: tuple
    transitions: list
    initials: set
    finals: set


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


def reference_subsets(n: Nfa) -> tuple:
    """Subset construction on frozensets, with an epsilon closure
    recomputed at every step; independent of the bitmask kernel
    automata._subsets.  Returns the subsets in BFS order, letters
    scanned in alphabet order, and one successor row per letter."""
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
    return order, [rows[a] for a in n.alphabet]


def reference_determinize(n: Nfa) -> Dfa:
    """The DFA of reference_subsets: a subset is final when it meets
    n's finals."""
    order, rows = reference_subsets(n)
    return Dfa(len(order), n.alphabet, dict(zip(n.alphabet, rows)), 0,
               [i for i, s in enumerate(order) if s & n.finals])


def reference_nerode_seed(order: list, tables: list, finals: int) -> list:
    """The labels that automata._minimal_subset_dfa reads in its forward
    _subsets pass, read instead by a second pass over the subsets of
    that run: for each subset, the set of P_w it meets, numbered by
    first appearance, where the P_w are the subsets that the reversed
    run through the transposed tables reaches from finals within
    automata._SEED_SUBSETS expansions.  Their own column tables read
    that set in one lookup per chunk."""
    if not tables:
        return [0]  # no letters: the start is the only subset
    k = len(tables[0])
    found, _ = _subsets(finals, [_transpose(t, k) for t in tables],
                        automata._SEED_SUBSETS)
    low, chunks = _chunk_tables([_transpose(found, k)])
    classes: dict = {}
    seed = []
    for s in order:
        sig = 0
        for shift, chunk in chunks:
            sig |= chunk[s >> shift & low]
        seed.append(classes.setdefault(sig, len(classes)))
    return seed


def _dfa_triples(d: Dfa, off: int = 0) -> list:
    return [(off + q, a, off + d.delta[a][q])
            for a in d.alphabet for q in range(d.state_count)]


def reference_star_nfa(d: Dfa) -> Nfa:
    """Kleene star as the textbook epsilon-NFA: a fresh accepting
    initial state and empty-word transitions from it and from every
    final state to d's initial state."""
    fresh = d.state_count
    triples = _dfa_triples(d) + [(q, EPSILON, d.initial) for q in d.finals | {fresh}]
    return Nfa(fresh + 1, d.alphabet, triples, {fresh}, d.finals | {fresh})


def reference_concat_nfa(d1: Dfa, d2: Dfa) -> Nfa:
    """Concatenation as the textbook epsilon-NFA: d1's final states
    become non-final and move on the empty word to d2's initial state."""
    off = d1.state_count
    triples = _dfa_triples(d1) + _dfa_triples(d2, off)
    triples += [(f, EPSILON, off + d2.initial) for f in d1.finals]
    return Nfa(off + d2.state_count, d1.alphabet, triples, {d1.initial},
               {off + f for f in d2.finals})


def reference_reverse_nfa(d: Dfa) -> Nfa:
    """Reversal: every transition reversed, initial and final roles
    swapped."""
    triples = [(r, a, q) for q, a, r in _dfa_triples(d)]
    return Nfa(d.state_count, d.alphabet, triples, d.finals, {d.initial})


def reference_suffix_nfa(d: Dfa) -> Nfa:
    """NFA for sigma+ . L(d): a fresh state loops on every letter and
    hands over to d's initial state on every letter."""
    u = d.state_count
    triples = _dfa_triples(d)
    triples += [(u, a, r) for a in d.alphabet for r in (u, d.initial)]
    return Nfa(u + 1, d.alphabet, triples, {u}, d.finals)


def reference_is_suffix_free(d: Dfa) -> bool:
    """Suffix-freeness as emptiness of L intersected with sigma+ L: the
    frozenset subset construction of reference_suffix_nfa, then the
    product with d; independent of the subset kernel behind
    langops.is_suffix_free."""
    shifted = reference_determinize(reference_suffix_nfa(d))
    return not boolean(d, shifted, BooleanOp.INTERSECTION).finals


def random_nfa(rng: random.Random, n: int, letters: int) -> Nfa:
    """An NFA without EPSILON transitions on n states (n may be 0);
    initials and finals may be empty."""
    alphabet = tuple("abcdefgh"[:letters])
    triples = [(p, a, q) for p in range(n) for a in alphabet
               for q in range(n) if rng.random() < 0.8 / n]
    initials = rng.sample(range(n), min(n, rng.choice((0, 1, 1, 2, 3))))
    finals = {q for q in range(n) if rng.random() < 0.4}
    return Nfa(n, alphabet, triples, set(initials), finals)


def _reference_atom_reachable(d: Dfa, basis: frozenset):
    """BFS over the disjoint-pair construction on frozensets: reachable
    states in discovery order (pairs (X, Y) plus possibly "bottom"),
    transition rows per letter, and the final state indices."""
    full = frozenset(range(d.state_count))
    start = (basis, full - basis)
    index = {start: 0}
    order = [start]
    rows = {a: [] for a in d.alphabet}
    i = 0
    while i < len(order):
        state = order[i]
        i += 1
        for a in d.alphabet:
            if state == "bottom":
                nxt = "bottom"
            else:
                x, y = state
                t = d.delta[a]
                xa = frozenset(t[q] for q in x)
                ya = frozenset(t[q] for q in y)
                nxt = "bottom" if xa & ya else (xa, ya)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            rows[a].append(index[nxt])
    finals = frozenset(
        idx
        for state, idx in index.items()
        if state != "bottom" and state[0] <= d.finals and not (state[1] & d.finals)
    )
    return order, rows, finals


def _basis_mask(d: Dfa, basis) -> int:
    """The mask of basis, checked as atom_complexity checks it."""
    basis = frozenset(basis)
    if any(not 0 <= q < d.state_count for q in basis):
        raise ValueError("basis must be a subset of the state set")
    return _mask(basis)


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
    """Minimal DFA of the atomic intersection with the given basis, by
    the bitmask pair construction; the oracle that atoms.atom_complexity
    counts the states of without building it."""
    rows, final = _atom_pairs(d, basis)
    return _quotient(d.alphabet, rows, final, *_refine(rows, final))


def is_atom(d: Dfa, basis) -> bool:
    """Non-emptiness of the atomic intersection, by reachability of a
    final state in the raw construction."""
    return any(_atom_pairs(d, basis)[1])


def complement(d: Dfa) -> Dfa:
    """Minimal DFA of the complement of a complete DFA's language: d
    with finality flipped, minimized."""
    flipped = [q for q in range(d.state_count) if q not in d.finals]
    return minimize(Dfa(d.state_count, d.alphabet, d.delta, d.initial, flipped))


def is_isomorphic(d1: Dfa, d2: Dfa) -> bool:
    """True iff the minimal DFAs are identical up to state renumbering.

    An alphabet mismatch (as a set) yields False, not an error.
    """
    if set(d1.alphabet) != set(d2.alphabet):
        return False
    reordered = Dfa(d2.state_count, d1.alphabet, d2.delta, d2.initial, d2.finals)
    return minimize(d1) == minimize(reordered)


def reference_atom_dfa(d: Dfa, basis) -> Dfa:
    """Minimal atom DFA by the frozenset pair construction, independent
    of the bitmask kernel behind atom_dfa."""
    order, rows, finals = _reference_atom_reachable(d, frozenset(basis))
    return minimize(Dfa(len(order), d.alphabet, rows, 0, finals))


def reference_atoms(d: Dfa) -> frozenset:
    """Atom bases by the exhaustive sweep: every one of the 2**n subsets
    whose pair construction reaches a final state."""
    n = d.state_count
    found = []
    for bits in range(1 << n):
        basis = frozenset(q for q in range(n) if bits >> q & 1)
        if _reference_atom_reachable(d, basis)[2]:
            found.append(basis)
    return frozenset(found)


def reference_atom_complexity(d: Dfa, mask: int) -> int:
    """Quotient complexity of the atom with basis mask by its own pair
    BFS: the number of distinct sets of barred atoms over the pairs its
    start pair reaches, one BFS per basis, independent of the shared
    pair graph and its components behind atoms.atom_complexity."""
    n = d.state_count
    bases = _atom_bases(d)
    full = (1 << n) - 1
    sink = full << n | full
    k = 2 * n
    top = len(d.alphabet) * k
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
    start = (full ^ mask) << n | mask
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
        for _ in d.alphabet:
            nxt = packed & sink
            packed >>= k
            if nxt & nxt >> n:  # X and Y collide
                nxt = sink
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
        barred.add(packed)
    return len(barred)


def random_dfa(rng: random.Random, n: int, letters: int) -> Dfa:
    alphabet = tuple("abcdefgh"[:letters])
    delta = {a: random_transformation(rng, n) for a in alphabet}
    finals = frozenset(q for q in range(n) if rng.random() < 0.5)
    return Dfa(n, alphabet, delta, 0, finals)


def reference_canonicalize(d: Dfa) -> Dfa:
    """d renumbered by a BFS from its initial state, letters in alphabet
    order, independent of the BFS behind automata._rows.  Every state of
    d must be reachable."""
    number = {d.initial: 0}
    queue = deque([d.initial])
    while queue:
        q = queue.popleft()
        for a in d.alphabet:
            r = d.delta[a][q]
            if r not in number:
                number[r] = len(number)
                queue.append(r)
    assert len(number) == d.state_count, "unreachable states"
    delta = {a: [0] * d.state_count for a in d.alphabet}
    for q, i in number.items():
        for a in d.alphabet:
            delta[a][i] = number[d.delta[a][q]]
    return Dfa(d.state_count, d.alphabet, delta, 0,
               [number[q] for q in d.finals])


def reference_minimize(d: Dfa) -> Dfa:
    """Moore refinement on tuple signatures over dicts, independent of
    the list-based refinement behind automata.minimize; the quotient is
    renumbered by reference_canonicalize, so the result is the canonical
    one."""
    order = [d.initial]
    for q in order:
        for a in d.alphabet:
            if d.delta[a][q] not in order:
                order.append(d.delta[a][q])
    block = {q: (1 if q in d.finals else 0) for q in order}
    n_blocks = len(set(block.values()))
    while True:
        sigs = {}
        new_block = {}
        for q in order:
            sig = (block[q],) + tuple(block[d.delta[a][q]] for a in d.alphabet)
            if sig not in sigs:
                sigs[sig] = len(sigs)
            new_block[q] = sigs[sig]
        if len(sigs) == n_blocks:
            break
        block = new_block
        n_blocks = len(sigs)
    reps: dict = {}
    for q in order:
        reps.setdefault(block[q], q)
    ids = {b: i for i, b in enumerate(sorted(reps))}
    delta = {}
    for a in d.alphabet:
        row = [0] * n_blocks
        for b, q in reps.items():
            row[ids[b]] = ids[block[d.delta[a][q]]]
        delta[a] = row
    finals = frozenset(ids[b] for b, q in reps.items() if q in d.finals)
    return reference_canonicalize(Dfa(n_blocks, d.alphabet, delta,
                                      ids[block[d.initial]], finals))


def reference_raw_atom_dfa(d: Dfa, basis) -> Dfa:
    """The frozenset pair construction before minimization."""
    order, rows, finals = _reference_atom_reachable(d, frozenset(basis))
    return Dfa(len(order), d.alphabet, rows, 0, finals)


def brute_force_state_count(d: Dfa) -> int:
    """Number of states of the minimal DFA, computed independently of
    partition refinement: breadth-first search for a distinguishing word
    over every reachable state pair."""
    n = d.state_count
    reachable = {d.initial}
    frontier = [d.initial]
    while frontier:
        q = frontier.pop()
        for a in d.alphabet:
            r = d.delta[a][q]
            if r not in reachable:
                reachable.add(r)
                frontier.append(r)

    def distinguishable(p, q):
        seen = {(p, q)}
        queue = [(p, q)]
        while queue:
            x, y = queue.pop(0)
            if (x in d.finals) != (y in d.finals):
                return True
            for a in d.alphabet:
                nxt = (d.delta[a][x], d.delta[a][y])
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False

    states = sorted(reachable)
    classes = []
    for q in states:
        for cls in classes:
            if not distinguishable(q, cls[0]):
                cls.append(q)
                break
        else:
            classes.append([q])
    return len(classes)


def accepted_words(d: Dfa, max_len: int):
    """All accepted words of length <= max_len (empty word included)."""
    words = set()
    for length in range(max_len + 1):
        for letters in product(d.alphabet, repeat=length):
            if d.accepts("".join(letters)):
                words.add("".join(letters))
    return words


def has_suffix_violation(d: Dfa, max_len: int) -> bool:
    """Brute-force word check: some accepted word is a proper suffix of
    another accepted word, looking only at words up to max_len."""
    words = accepted_words(d, max_len)
    for w in words:
        for k in range(1, len(w) + 1):
            if w[k:] in words:
                return True
    return False
