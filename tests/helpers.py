"""Shared helpers for the test suite: random automata and brute-force
reference implementations used as oracles."""

import random
from collections import deque
from itertools import combinations, product
from typing import NamedTuple

from suffixfree.automata import Dfa, Transformation, minimize
from suffixfree.langops import BooleanOp, boolean
from suffixfree.semigroups import BSF, VSF, WSF, in_bsf

#: The letter of empty-word transitions in an Nfa.
EPSILON = ""


def random_transformation(rng: random.Random, n: int) -> Transformation:
    return Transformation(tuple(rng.randrange(n) for _ in range(n)))


def reference_closure(generators) -> frozenset:
    """Closure under composition by a plain tuple worklist, independent
    of the byte kernel behind semigroups.generate."""
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
    return frozenset(seen)


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
    of the column scan behind semigroups.is_subsemigroup_of and of the
    lemma behind semigroups.in_vsf and in_wsf."""
    pred = {BSF: in_bsf, VSF: reference_in_vsf, WSF: reference_in_wsf}[cls]
    return all(map(pred, s._raw))


def reference_focused_pairs(s) -> frozenset:
    """Focused pairs by grouping each element's middle states by their
    image, independent of the column scan behind
    semigroups.focused_pairs."""
    n = s.degree
    pairs = set()
    for t in s.elements:
        targets: dict = {}
        for q in range(1, n - 1):
            targets.setdefault(t[q], []).append(q)
        for r, qs in targets.items():
            if r in (0, n - 1):
                continue
            pairs.update(combinations(qs, 2))
    return frozenset(pairs)


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


def reference_atom_dfa(d: Dfa, basis) -> Dfa:
    """Minimal atom DFA by the frozenset pair construction, independent
    of the bitmask kernel behind atoms.atom_dfa."""
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
