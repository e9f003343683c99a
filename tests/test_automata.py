import json
import random
import time
import tracemalloc

import pytest

from suffixfree import automata, langops
from suffixfree.automata import (
    Dfa,
    Transformation,
    _mask,
    _rows,
    _subsets,
    _transpose,
    compose,
    minimize,
    quotient_complexity,
    word_transformation,
)
from suffixfree.witnesses import d5, d6

from helpers import (
    brute_force_state_count,
    is_isomorphic,
    random_dfa,
    random_nfa,
    random_transformation,
    reference_canonicalize,
    reference_concat_nfa,
    reference_determinize,
    reference_is_suffix_free,
    reference_minimize,
    reference_nerode_seed,
    reference_reverse_nfa,
    reference_star_nfa,
    reference_subsets,
)


# ---------------------------------------------------------------------------
# Transformation and compose

def test_transformation_validates_entries():
    with pytest.raises(ValueError):
        Transformation((0, 5, 1))
    with pytest.raises(ValueError):
        Transformation(())


def test_transformation_rejects_non_int_images():
    # 1.0 passes a range check, so without a type check to_dict would
    # emit 1.0 and star would fail deep in the subset kernel.
    with pytest.raises(ValueError, match=r"\(1\.0, 0\)"):
        Dfa(2, ["a"], {"a": [1.0, 0]}, 0, [1])
    with pytest.raises(ValueError, match="True"):
        Transformation((True, 0))


def test_identity_composes_neutrally():
    t = Transformation((1, 4, 2, 3, 4))
    ident = Transformation.identity(5)
    assert compose(ident, t) == t
    assert compose(t, ident) == t


def test_compose_c1_c1_is_d():
    c1 = Transformation((1, 4, 2, 3, 4))
    assert compose(c1, c1) == Transformation((4, 4, 2, 3, 4))


def test_compose_c1_c2_c3_is_e():
    c1 = Transformation((1, 4, 2, 3, 4))
    c2 = Transformation((2, 1, 4, 3, 4))
    c3 = Transformation((3, 1, 2, 4, 4))
    assert compose(compose(c1, c2), c3) == Transformation((1, 4, 4, 4, 4))


def test_compose_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        compose(Transformation((0,)), Transformation((0, 1)))


def test_compose_associative_on_random_triples():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 9)
        r, s, t = (random_transformation(rng, n) for _ in range(3))
        assert compose(compose(r, s), t) == compose(r, compose(s, t))


# ---------------------------------------------------------------------------
# word_transformation

def test_word_transformation_single_letter():
    d = d6(5)
    assert word_transformation(d, "a") == d.delta["a"]


def test_word_transformation_ed_kills_everything():
    t = word_transformation(d6(5), "ed")
    assert t == Transformation((4, 4, 4, 4, 4))


def test_word_transformation_ba_on_d5():
    # 0b = 1, then 1a = 2.
    assert word_transformation(d5(6), "ba")[0] == 2


def test_word_transformation_rejects_bad_input():
    with pytest.raises(ValueError):
        word_transformation(d6(5), "")
    with pytest.raises(ValueError):
        word_transformation(d6(5), "axe")


# ---------------------------------------------------------------------------
# Dfa basics and interchange format

def test_dfa_validates_shape():
    with pytest.raises(ValueError):
        Dfa(2, ("a",), {"a": (0, 1), "b": (0, 1)}, 0, set())
    with pytest.raises(ValueError):
        Dfa(2, ("a",), {"a": (0, 1)}, 5, set())
    with pytest.raises(ValueError):
        Dfa(2, ("a",), {"a": (0, 1)}, 0, {7})


def test_dfa_state_numbers_must_be_ints():
    # A float state count used to construct, then fail inside star.
    for count in (2.0, True, "2"):
        with pytest.raises(ValueError, match="state_count"):
            Dfa(count, ["a"], {"a": [1, 0]}, 0, [1])
    for initial in (0.0, False):
        with pytest.raises(ValueError, match="initial"):
            Dfa(2, ["a"], {"a": [1, 0]}, initial, [1])
    for finals in ([1.0], [True], [1, "0"], [-1], [0, 2]):
        with pytest.raises(ValueError, match="final states must be ints in range"):
            Dfa(2, ["a"], {"a": [1, 0]}, 0, finals)
    assert Dfa(2, ["a"], {"a": [1, 0]}, 0, []).finals == frozenset()


def test_alphabet_letters_must_be_non_empty_strings():
    # Spelled out, a word holding the letter "" reads as a shorter word.
    with pytest.raises(ValueError, match="non-empty strings"):
        Dfa(2, ("", "a"), {"": (1, 1), "a": (1, 1)}, 0, {1})
    with pytest.raises(ValueError, match="non-empty strings"):
        Dfa(1, (1,), {1: (0,)}, 0, set())


def test_from_dict_names_the_malformed_field():
    doc = d6(4).to_dict()
    cases = {
        "transitions": {k: v for k, v in doc.items() if k != "transitions"},
        "transitions.b": dict(doc, transitions=dict(doc["transitions"],
                                                    b=[3, "2", 1, 3])),
        "states": dict(doc, states="4"),
        "finals": dict(doc, finals=[1.0]),
        "initial": dict(doc, initial=None),
    }
    for field, bad in cases.items():
        with pytest.raises(ValueError, match=f"'{field}'"):
            Dfa.from_dict(bad)
    with pytest.raises(ValueError, match="non-empty strings"):
        Dfa.from_dict(dict(doc, alphabet=["", "b"]))
    with pytest.raises(ValueError, match="JSON object"):
        Dfa.from_dict([doc])
    # A letter outside the alphabet was dropped, so a different automaton
    # was computed on.
    with pytest.raises(ValueError, match=r"outside the alphabet: \['z'\]"):
        Dfa.from_dict(dict(doc, transitions=dict(doc["transitions"],
                                                 z=[0, 0, 0, 0])))


def test_dfa_accepts():
    d = d6(5)
    assert d.accepts("e")
    assert not d.accepts("")
    assert not d.accepts("ee")


def test_interchange_round_trip():
    d = minimize(d5(7))
    doc = d.to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert Dfa.from_dict(doc) == d
    assert doc["finals"] == sorted(doc["finals"])


def test_to_dot_mentions_all_states():
    dot = d6(4).to_dot()
    assert dot.startswith("digraph")
    for q in range(4):
        assert str(q) in dot


# ---------------------------------------------------------------------------
# The subset kernel _subsets, against the frozenset subset construction

def _tables(n) -> list:
    """The kernel's tables of an NFA without EPSILON transitions: per
    letter, the mask of each state's successors."""
    tables = [[0] * n.state_count for _ in n.alphabet]
    for src, a, dst in n.transitions:
        tables[n.alphabet.index(a)][src] |= 1 << dst
    return tables


def _assert_subsets_match_reference(n) -> None:
    # Without a column, the kernel returns the subsets and rows alone.
    reference_order, reference_rows = reference_subsets(n)
    assert _subsets(_mask(n.initials), _tables(n)) == (
        [_mask(s) for s in reference_order], reference_rows)


def _singleton_run(d: Dfa) -> Dfa:
    """The kernel run over d's own transitions from {initial}, as a DFA:
    every subset is a singleton, so it is d renumbered in BFS order."""
    order, rows = _subsets(1 << d.initial, [[1 << r for r in d.delta[a]]
                                            for a in d.alphabet])
    finals = _mask(d.finals)
    return Dfa(len(order), d.alphabet, dict(zip(d.alphabet, rows)), 0,
               [i for i, s in enumerate(order) if s & finals])


def test_determinize_deterministic_input_is_isomorphic():
    d = d6(5)
    assert is_isomorphic(_singleton_run(d), d)


def test_determinize_keeps_empty_subset_as_sink():
    # single letter, no transition out of state 0
    order, rows = _subsets(0b01, [[0b00, 0b10]])
    assert order == [0b01, 0b00]
    assert rows == [[1, 1]]


def test_determinize_matches_reference_on_random_nfas():
    rng = random.Random(4)
    for _ in range(400):
        _assert_subsets_match_reference(
            random_nfa(rng, rng.randrange(9), rng.randrange(1, 4)))


def test_determinize_matches_reference_across_chunk_boundaries():
    # The subset kernel looks subsets up in chunks of at most 12 states:
    # one chunk up to 12 states, two up to 24, three beyond; from 64
    # states on, the cap on table entries narrows the chunks.
    rng = random.Random(12)
    for size in (0, 1, 11, 12, 13, 24, 25, 30, 40, 64, 100):
        for letters in range(4):
            for _ in range(10):
                _assert_subsets_match_reference(random_nfa(rng, size, letters))


def _fused_labels(start: int, tables: list, finals: int) -> tuple:
    """The subsets of the kernel run from start and the labels it reads
    under the column of the P_w that the reversed run from finals finds
    within automata._SEED_SUBSETS expansions, and how many it found.
    The column changes neither the subsets nor the rows."""
    k = len(tables[0])
    found, _ = _subsets(finals, [_transpose(t, k) for t in tables],
                        automata._SEED_SUBSETS)
    order, rows, labels, count = _subsets(start, tables, column=_transpose(found, k))
    assert (order, rows) == _subsets(start, tables)
    assert count == len(set(labels))
    return order, labels, len(found)


def test_fused_labels_match_the_two_pass_reference(monkeypatch):
    # Sizes on both sides of the 12- and 24-state chunk boundaries, and
    # reversed runs cut off after 1, 2 and 64 subsets.
    rng = random.Random(20)
    cut_off = []
    for cut in (1, 2, 64):
        monkeypatch.setattr(automata, "_SEED_SUBSETS", cut)
        for size in (12, 13, 24, 25):
            for letters in (1, 2, 3):
                for _ in range(8):
                    n = random_nfa(rng, size, letters)
                    tables, finals = _tables(n), _mask(n.finals)
                    order, labels, count = _fused_labels(_mask(n.initials), tables, finals)
                    assert labels == reference_nerode_seed(order, tables, finals)
                    cut_off.append(count > cut)
    assert any(cut_off) and not all(cut_off)


def _cycle_dfa(n: int) -> Dfa:
    """n states, all reachable: a cycle on a and a random map on b."""
    rng = random.Random(n)
    cycle = [(q + 1) % n for q in range(n)]
    return Dfa(n, "ab", {"a": cycle, "b": random_transformation(rng, n)}, 0,
               [q for q in range(n) if rng.random() < 0.5])


def test_determinize_of_a_large_dfa_keeps_its_tables_small():
    # Half tables would need 2 * 2**100 entries at 200 states.
    d = _cycle_dfa(200)
    start = time.perf_counter()
    out = _singleton_run(d)
    assert time.perf_counter() - start < 1.0
    assert out == reference_canonicalize(d)


def test_determinize_of_a_1000_state_dfa_keeps_its_tables_small():
    # Chunks of 12 states would take 92 MB of tables here.
    d = _cycle_dfa(1000)
    tracemalloc.start()
    try:
        out = _singleton_run(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == reference_canonicalize(d)
    assert peak <= 10 * 2 ** 20


def test_determinize_matches_reference_on_witness_nfas():
    # The ops run the subset kernel on tables built from DFA rows; each
    # must match determinizing the textbook epsilon-NFA of the op.
    ops = []
    for n in range(6, 11):
        d, d1, d2, r = d5(n, "a,b,-"), d5(n), d5(6, "b,c,a"), d6(n)
        ops += [(reference_star_nfa(d), langops.star_full(d), langops.star(d)),
                (reference_concat_nfa(d1, d2), langops.concat_full(d1, d2),
                 langops.concat(d1, d2)),
                (reference_reverse_nfa(r), langops.reverse_full(r), langops.reverse(r))]
        assert langops.is_suffix_free(r) and reference_is_suffix_free(r)
    assert len(ops) == 15
    for nfa, full, dfa in ops:
        reference = reference_determinize(nfa)
        assert full.raw_states == reference.state_count
        assert full.dfa.to_dict() == dfa.to_dict() == minimize(reference).to_dict()


# ---------------------------------------------------------------------------
# minimize / quotient_complexity / canonical numbering

def test_minimize_already_minimal():
    d = d6(5)
    assert is_isomorphic(minimize(d), d)
    assert quotient_complexity(d) == 5


def test_minimize_collapses_equivalent_states():
    d = Dfa(2, ("a",), {"a": (1, 0)}, 0, {0, 1})
    assert minimize(d).state_count == 1


def test_minimize_is_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        d = random_dfa(rng, rng.randrange(2, 8), 2)
        m = minimize(d)
        assert is_isomorphic(minimize(m), m)


def test_minimize_matches_brute_force_on_random_dfas():
    rng = random.Random(3)
    for _ in range(100):
        d = random_dfa(rng, rng.randrange(1, 9), rng.randrange(2, 4))
        assert quotient_complexity(d) == brute_force_state_count(d)


def test_minimize_matches_reference_on_random_dfas():
    # Random initial states leave unreachable states in some of them.
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randrange(1, 12)
        d = random_dfa(rng, n, rng.randrange(1, 4))
        d = Dfa(n, d.alphabet, d.delta, rng.randrange(n), d.finals)
        m = minimize(d)
        assert m.to_dict() == reference_minimize(d).to_dict()
        assert quotient_complexity(d) == m.state_count


def test_quotient_complexity_of_empty_language():
    d = Dfa(1, ("a",), {"a": (0,)}, 0, set())
    assert quotient_complexity(d) == 1


def test_quotient_complexity_invariant_under_renumbering():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randrange(2, 8)
        d = random_dfa(rng, n, 2)
        perm = list(range(n))
        rng.shuffle(perm)
        delta = {
            a: Transformation(tuple(
                perm[d.delta[a][old]]
                for old in sorted(range(n), key=lambda q: perm[q])))
            for a in d.alphabet
        }
        renamed = Dfa(n, d.alphabet, delta, perm[d.initial],
                      frozenset(perm[q] for q in d.finals))
        assert quotient_complexity(renamed) == quotient_complexity(d)


def test_canonicalize_is_bfs_in_alphabet_order():
    # states discovered as 0, then via a, then via b
    d = Dfa(3, ("a", "b"), {"a": (2, 2, 2), "b": (1, 1, 1)}, 0, {1})
    # canonical: 0 -> 0, a-successor 2 -> 1, b-successor 1 -> 2
    assert _rows(d) == ([[1, 1, 1], [2, 2, 2]], [False, False, True])
    assert _singleton_run(d) == reference_canonicalize(d)


# ---------------------------------------------------------------------------
# is_isomorphic

def test_is_isomorphic_self_and_renumbered():
    d = d6(5)
    perm = [3, 0, 2, 4, 1]
    delta = {
        a: Transformation(tuple(
            perm[d.delta[a][old]]
            for old in sorted(range(5), key=lambda q: perm[q])))
        for a in d.alphabet
    }
    renamed = Dfa(5, d.alphabet, delta, perm[0],
                  frozenset(perm[q] for q in d.finals))
    assert is_isomorphic(d, d)
    assert is_isomorphic(d, renamed)


def test_is_isomorphic_distinguishes_families():
    first = d5(6, "a,b,-")
    second = d6(6, "a,b,-,-,-")
    assert not is_isomorphic(first, second)


def test_is_isomorphic_alphabet_mismatch_is_false():
    d = Dfa(1, ("a",), {"a": (0,)}, 0, {0})
    e = Dfa(1, ("b",), {"b": (0,)}, 0, {0})
    assert not is_isomorphic(d, e)


def _renamed(d: Dfa, perm: list, alphabet: tuple) -> Dfa:
    """d with state q renamed perm[q] and its letters listed in the
    given order."""
    delta = {}
    for a in alphabet:
        row = [0] * d.state_count
        for q in range(d.state_count):
            row[perm[q]] = perm[d.delta[a][q]]
        delta[a] = row
    return Dfa(d.state_count, alphabet, delta, perm[d.initial],
               [perm[q] for q in d.finals])


def _random_initial(rng: random.Random, n: int, letters: int) -> Dfa:
    d = random_dfa(rng, n, letters)
    return Dfa(n, d.alphabet, d.delta, rng.randrange(n), d.finals)


def test_is_isomorphic_under_permuted_states_and_shuffled_letters():
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randrange(1, 10)
        d = _random_initial(rng, n, rng.randrange(1, 4))
        perm = list(range(n))
        rng.shuffle(perm)
        letters = list(d.alphabet)
        rng.shuffle(letters)
        e = _renamed(d, perm, tuple(letters))
        assert is_isomorphic(d, e) and is_isomorphic(e, d)


def test_is_isomorphic_agrees_with_reference_minimize():
    rng = random.Random(59)
    outcomes = set()
    for _ in range(400):
        letters = rng.randrange(1, 3)
        d1 = _random_initial(rng, rng.randrange(1, 5), letters)
        d2 = _random_initial(rng, rng.randrange(1, 5), letters)
        shuffled = list(d2.alphabet)
        rng.shuffle(shuffled)
        d2 = _renamed(d2, list(range(d2.state_count)), tuple(shuffled))
        r1 = reference_minimize(d1)
        r2 = reference_minimize(_renamed(d2, list(range(d2.state_count)),
                                         d1.alphabet))
        same = r1.to_dict() == r2.to_dict()
        assert is_isomorphic(d1, d2) == same
        outcomes.add((same, r1.state_count == r2.state_count))
    # Both answers occur, and some pairs of equal minimal size differ.
    assert outcomes >= {(True, True), (False, True), (False, False)}
