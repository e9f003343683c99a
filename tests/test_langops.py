import math
import random

import pytest

from suffixfree import automata, langops
from suffixfree.atoms import syntactic_complexity
from suffixfree.automata import (
    Dfa,
    Transformation,
    _rows,
    _subsets,
    _transpose,
    minimize,
    quotient_complexity,
)
from suffixfree.langops import (
    BooleanOp,
    PartialPermutation,
    apply_dialect,
    boolean,
    boolean_full,
    concat,
    concat_full,
    is_suffix_free,
    reverse,
    reverse_full,
    star,
    star_full,
)
from suffixfree.semigroups import BSF, is_subsemigroup_of, transition_semigroup
from suffixfree.verify import MEASURES
from suffixfree.witnesses import binary_product_pair, d5, d6

from helpers import (
    complement,
    has_suffix_violation,
    is_isomorphic,
    random_dfa,
    reference_concat_nfa,
    reference_determinize,
    reference_is_suffix_free,
    reference_minimize,
    reference_nerode_seed,
    reference_reverse_nfa,
    reference_star_nfa,
)


def empty_language(alphabet=("a",)) -> Dfa:
    return Dfa(1, alphabet, {a: (0,) for a in alphabet}, 0, set())


def epsilon_language(alphabet=("a",)) -> Dfa:
    return Dfa(2, alphabet, {a: (1, 1) for a in alphabet}, 0, {0})


def word_language(word: str, alphabet) -> Dfa:
    """Minimal-enough DFA accepting exactly the given word."""
    n = len(word)
    sink = n + 1
    delta = {}
    for a in alphabet:
        row = [sink] * (n + 2)
        for i, w in enumerate(word):
            if w == a:
                row[i] = i + 1
        delta[a] = tuple(row)
    return Dfa(n + 2, tuple(alphabet), delta, 0, {n})


# ---------------------------------------------------------------------------
# PartialPermutation / apply_dialect

def test_parse_dialect_round_trip():
    pi = PartialPermutation.parse("a,b,-", ("a", "b", "c"))
    assert pi.mapping == {"a": "a", "b": "b", "c": None}
    assert str(pi) == "a,b,-"


def test_parse_dialect_errors():
    with pytest.raises(ValueError):
        PartialPermutation.parse("a,b", ("a", "b", "c"))
    with pytest.raises(ValueError):
        PartialPermutation.parse("a,a,-", ("a", "b", "c"))
    with pytest.raises(ValueError):
        PartialPermutation.parse("a,b,x", ("a", "b", "c"))
    with pytest.raises(ValueError):
        PartialPermutation(("a", "b"), {"a": "b"})


def test_identity_dialect_is_same_dfa():
    d = d5(6)
    pi = PartialPermutation.parse("a,b,c", d.alphabet)
    assert apply_dialect(d, pi) == d


def test_dialect_drops_letters():
    d = d5(8)
    pi = PartialPermutation.parse("a,b,-", d.alphabet)
    binary = apply_dialect(d, pi)
    assert binary.alphabet == ("a", "b")
    assert binary.delta["a"] == d.delta["a"]
    assert binary == d5(8, "a,b,-")


def test_dialect_reassigns_roles():
    # role c (the long middle cycle) is played by letter a
    d = d5(8, "-,b,a")
    expect = list(range(8))
    expect[0] = 7
    for q in range(1, 6):
        expect[q] = q + 1
    expect[6] = 1
    assert d.delta["a"] == Transformation(expect)
    assert d.alphabet == ("b", "a")


def test_full_permutation_preserves_complexities():
    d = d5(6)
    swapped = apply_dialect(
        d, PartialPermutation.parse("b,c,a", d.alphabet))
    assert quotient_complexity(swapped) == quotient_complexity(d)
    assert syntactic_complexity(swapped) == syntactic_complexity(d)


def test_dialect_source_must_match_alphabet():
    pi = PartialPermutation.parse("a,b", ("a", "b"))
    with pytest.raises(ValueError):
        apply_dialect(d5(6), pi)


# ---------------------------------------------------------------------------
# star

def test_star_of_empty_language_is_epsilon():
    out = star(empty_language())
    assert out.state_count == 2
    assert out.accepts("")
    assert not out.accepts("a")


def test_star_of_d5_binary_restriction():
    result = star_full(d5(6, "a,b,-"))
    assert result.dfa.state_count == 2 ** 4 + 1 == 17
    assert result.raw_states >= result.dfa.state_count
    assert quotient_complexity(star(d5(8, "a,b,-"))) == 2 ** 6 + 1 == 65


def test_star_language_membership():
    s = star(d5(6, "a,b,-"))
    assert s.accepts("")
    base = d5(6, "a,b,-")
    for w in ("b", "bb", "babb"):
        if base.accepts(w):
            assert s.accepts(w) and s.accepts(w + w)


# ---------------------------------------------------------------------------
# concat

def test_concat_left_identity():
    d = d6(5)
    out = concat(epsilon_language(d.alphabet), d)
    assert is_isomorphic(out, d)


def test_concat_ternary_witness_pair():
    out = concat_full(d5(6), d5(6, "b,c,a"))
    assert out.dfa.state_count == 5 * 2 ** 4 + 1 == 81


def test_concat_binary_witness_pair():
    left, right = binary_product_pair(7, 8)
    assert quotient_complexity(concat(left, right)) == 6 * 2 ** 6 + 1 == 385


def test_concat_rejects_alphabet_mismatch():
    with pytest.raises(ValueError):
        concat(d5(6), d5(6, "a,b,-"))


# ---------------------------------------------------------------------------
# reverse

def test_reverse_single_word():
    ab = word_language("ab", ("a", "b"))
    ba = word_language("ba", ("a", "b"))
    assert is_isomorphic(reverse(ab), ba)


def test_double_reverse_preserves_complexity():
    rng = random.Random(5)
    for _ in range(20):
        d = random_dfa(rng, rng.randrange(2, 7), 2)
        assert quotient_complexity(reverse(reverse(d))) == quotient_complexity(d)


def test_reverse_of_d6_dialect():
    assert quotient_complexity(reverse(d6(6, "a,-,c,-,e"))) == 2 ** 4 + 1 == 17


# ---------------------------------------------------------------------------
# star, product and reversal against the textbook constructions

def _reference_cases():
    """Seeded random DFAs, each with a partner over the same alphabet:
    1-state DFAs, an empty alphabet, empty finals and unreachable states
    among them."""
    rng = random.Random(10)
    dfas = [random_dfa(rng, n, letters) for n in (1, 2, 3, 4, 6)
            for letters in range(4) for _ in range(5)]
    dfas += [Dfa(d.state_count, d.alphabet, d.delta, d.initial, ()) for d in dfas[::6]]
    dfas.append(Dfa(3, "ab", {"a": [1, 0, 2], "b": [0, 1, 2]}, 0, [2]))
    return [(d, random_dfa(rng, rng.randrange(1, 5), len(d.alphabet))) for d in dfas]


def _check_against_reference():
    cases = _reference_cases()
    assert any(not d.alphabet for d, _ in cases)
    assert any(len(_rows(d)[1]) < d.state_count for d, _ in cases)
    for d, e in cases:
        for result, nfa in ((star_full(d), reference_star_nfa(d)),
                            (reverse_full(d), reference_reverse_nfa(d)),
                            (concat_full(d, e), reference_concat_nfa(d, e))):
            raw = reference_determinize(nfa)
            assert result.raw_states == raw.state_count
            assert result.dfa.to_dict() == reference_minimize(raw).to_dict()


def test_ops_match_the_minimized_reference_construction():
    _check_against_reference()


def test_quotients_pass_the_validating_constructor():
    # _quotient hands Dfa its rows as Transformations unchecked; every
    # DFA it builds must come back unchanged through from_dict.
    for d, e in _reference_cases():
        for m in (minimize(d), star(d), reverse(d), concat(d, e),
                  *(boolean(d, e, op) for op in BooleanOp)):
            assert all(type(t) is Transformation for t in m.delta.values())
            assert Dfa.from_dict(m.to_dict()) == m


def _constructions(monkeypatch, run) -> list:
    """Calls run() and returns, for each _minimal_subset_dfa call it
    makes, the call's arguments and, for each _refine run in it, how
    many classes that run added to the labels it started from."""
    calls, current = [], []
    real, refine = langops._minimal_subset_dfa, automata._refine

    def spy(*args):
        calls.append((args, []))
        current.append(calls[-1][1])
        try:
            return real(*args)
        finally:
            current.pop()

    def refine_spy(succ, block):
        out = refine(succ, block)
        if current:
            current[-1].append(out[1] - len(set(block)))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(langops, "_minimal_subset_dfa", spy)
        patch.setattr(automata, "_refine", refine_spy)
        run()
    return calls


def test_ops_match_the_reference_when_the_seed_is_cut_off(monkeypatch):
    # With one reversed subset expanded, the labels tell subsets apart by
    # words of length at most 1, and Moore refinement finishes the rest.
    monkeypatch.setattr(automata, "_SEED_SUBSETS", 1)
    calls = _constructions(monkeypatch, _check_against_reference)
    assert max(max(added, default=0) for _, added in calls) > 0


def _seeded_runs(monkeypatch) -> list:
    """Star of d5(12), the binary product (9, 10) and reversal of
    d6(11), each with the arguments of its _minimal_subset_dfa call, the
    raw subset DFA, subsets and rows of that run, the partition its
    quotient was built from, and the result."""
    blocks, results = [], []
    quotient = automata._quotient

    def quotient_spy(alphabet, rows, final, block, m):
        blocks.append(block)
        return quotient(alphabet, rows, final, block, m)

    def run():
        results.extend([star_full(d5(12)), concat_full(*binary_product_pair(9, 10)),
                        reverse_full(d6(11))])

    with monkeypatch.context() as patch:
        patch.setattr(automata, "_quotient", quotient_spy)
        calls = _constructions(monkeypatch, run)
    runs = []
    for (args, _), block, result in zip(calls, blocks, results):
        alphabet, start, tables, finals = args
        order, rows = _subsets(start, tables)
        raw = Dfa(len(order), alphabet, dict(zip(alphabet, rows)), 0,
                  [i for i, s in enumerate(order) if s & finals])
        runs.append((args, raw, order, rows, block, result))
    return runs


def test_a_finished_reversed_construction_seeds_the_nerode_partition(monkeypatch):
    for args, raw, order, rows, block, result in _seeded_runs(monkeypatch):
        _, _, tables, finals = args
        k = len(tables[0])
        found, _ = _subsets(finals, [_transpose(t, k) for t in tables],
                            automata._SEED_SUBSETS)
        assert len(found) <= automata._SEED_SUBSETS
        seed = reference_nerode_seed(order, tables, finals)
        assert len(set(seed)) == quotient_complexity(raw) == result.dfa.state_count
        assert block == seed
        # Moore leaves it as it is, so skipping refinement changes nothing.
        assert automata._refine(rows, seed) == (seed, len(set(seed)))


def test_a_coarser_seed_gives_the_same_minimal_dfa(monkeypatch):
    # Merging two seed classes of the same finality leaves a partition
    # between finality and Nerode's, which refinement splits again.
    for args, _, order, rows, _, result in _seeded_runs(monkeypatch):
        alphabet, _, tables, finals = args
        seed = reference_nerode_seed(order, tables, finals)
        final = dict(zip(seed, (bool(s & finals) for s in order)))
        keep, drop = [c for c in final if final[c] == final[seed[-1]]][-2:]
        merged = [keep if c == drop else c for c in seed]
        assert len(set(merged)) == len(set(seed)) - 1
        flags = [bool(s & finals) for s in order]
        again = automata._quotient(alphabet, rows, flags, *automata._refine(rows, merged))
        assert (again, len(order)) == (result.dfa, result.raw_states)


def test_fused_labels_match_the_reference_where_the_column_is_wider_than_k(monkeypatch):
    # On the binary product the reversed run finds more sets P_w than
    # the construction has states, so the column is the widest field.
    for m, n in ((9, 10), (10, 11)):
        [(args, _)] = _constructions(
            monkeypatch, lambda: concat_full(*binary_product_pair(m, n)))
        _, start, tables, finals = args
        k = len(tables[0])
        found, _ = _subsets(finals, [_transpose(t, k) for t in tables],
                            automata._SEED_SUBSETS)
        assert k < len(found) <= automata._SEED_SUBSETS
        order, _, labels, count = _subsets(start, tables, column=_transpose(found, k))
        assert labels == reference_nerode_seed(order, tables, finals)
        assert count == len(set(labels))


def _grid():
    """Star, product and reversal on constructions of 10^3-10^4
    subsets: the calls of the benchmark's subset workload."""
    for n in (12, 13, 14):
        star_full(d5(n, "a,b,-"))
    for m in (8, 9, 10):
        for n in (8, 9, 10):
            concat_full(d5(m), d5(n, "b,c,a"))
    for m in (9, 10, 11):
        for n in (9, 10, 11):
            if math.gcd(m - 2, n - 2) == 1:
                concat_full(*binary_product_pair(m, n))
    for n in (11, 12, 13):
        reverse_full(d6(n, "a,-,c,-,e"))


def _sweeps():
    for name in ("star", "product", "product-binary", "reversal"):
        run, _, sweep = MEASURES[name]
        for args in sweep:
            run(*args)


def test_refinement_runs_only_when_the_reversed_run_is_cut_off(monkeypatch):
    grid = _constructions(monkeypatch, _grid)
    sweeps = _constructions(monkeypatch, _sweeps)
    assert len(grid) == 21 and len(sweeps) == 13
    assert [added for _, added in grid + sweeps] == [[]] * 34
    # Cut off after one subset, each reversed run leaves classes that
    # one refinement must split.
    monkeypatch.setattr(automata, "_SEED_SUBSETS", 1)
    cut = [added for _, added in _constructions(monkeypatch, _sweeps)]
    assert len(cut) == 13 and all(len(added) == 1 and added[0] > 0 for added in cut)


# ---------------------------------------------------------------------------
# boolean operations

def test_difference_with_self_is_empty():
    d = d6(5)
    out = boolean(d, d, BooleanOp.DIFFERENCE)
    assert out.state_count == 1
    assert not out.finals


def test_union_of_d5_dialects():
    first = d5(6, "a,b,-")
    second = d5(6, "-,b,a")
    out = boolean_full(first, second, BooleanOp.UNION)
    assert out.dfa.state_count == 6 * 6 - (6 + 6 - 2) == 26


def test_intersection_of_d6_dialects():
    first = d6(6, "a,b,-,d,e")
    second = d6(6, "b,a,-,d,e")
    out = boolean(first, second, BooleanOp.INTERSECTION)
    assert out.state_count == 6 * 6 - 2 * (6 + 6 - 3) == 18


def test_boolean_matches_the_minimized_reference_product():
    rules = {
        BooleanOp.UNION: lambda x, y: x or y,
        BooleanOp.INTERSECTION: lambda x, y: x and y,
        BooleanOp.DIFFERENCE: lambda x, y: x and not y,
        BooleanOp.SYMMETRIC_DIFFERENCE: lambda x, y: x != y,
    }
    for d, e in _reference_cases():
        m, n = d.state_count, e.state_count
        # The full product: pair (p, q) is state p * n + q.
        delta = {a: [d.delta[a][p] * n + e.delta[a][q]
                     for p in range(m) for q in range(n)] for a in d.alphabet}
        start = d.initial * n + e.initial
        reachable = [start]
        for s in reachable:
            for a in d.alphabet:
                if delta[a][s] not in reachable:
                    reachable.append(delta[a][s])
        for op, rule in rules.items():
            finals = [p * n + q for p in range(m) for q in range(n)
                      if rule(p in d.finals, q in e.finals)]
            product = Dfa(m * n, d.alphabet, delta, start, finals)
            result = boolean_full(d, e, op)
            assert result.raw_states == len(reachable)
            assert result.dfa.to_dict() == reference_minimize(product).to_dict()


def test_boolean_symmetry():
    first = d5(6, "a,b,-")
    second = d5(7, "-,b,a")
    for op in (BooleanOp.UNION, BooleanOp.INTERSECTION,
               BooleanOp.SYMMETRIC_DIFFERENCE):
        assert is_isomorphic(boolean(first, second, op),
                             boolean(second, first, op))


def test_de_morgan_on_random_pairs():
    rng = random.Random(41)
    for _ in range(15):
        d1 = random_dfa(rng, rng.randrange(2, 7), 2)
        d2 = random_dfa(rng, rng.randrange(2, 7), 2)
        union = boolean(d1, d2, BooleanOp.UNION)
        other = complement(
            boolean(complement(d1), complement(d2), BooleanOp.INTERSECTION))
        assert is_isomorphic(union, other)


def test_boolean_rejects_alphabet_mismatch():
    with pytest.raises(ValueError):
        boolean(d5(6), d5(6, "a,b,-"), BooleanOp.UNION)


def test_boolean_rejects_an_op_that_is_not_a_boolean_op():
    # The value string once escaped as a KeyError from the final rule.
    for op in ("union", None, 1):
        with pytest.raises(ValueError, match="BooleanOp"):
            boolean_full(d6(5), d6(5, "b,a,c,d,e"), op)


def test_complement_involution():
    rng = random.Random(13)
    for _ in range(10):
        d = random_dfa(rng, rng.randrange(2, 6), 2)
        assert is_isomorphic(complement(complement(d)), minimize(d))


# ---------------------------------------------------------------------------
# suffix-freeness

def test_a_star_is_not_suffix_free():
    d = Dfa(1, ("a",), {"a": (0,)}, 0, {0})
    assert not is_suffix_free(d)
    # bsf is defined only for degree >= 2; a one-state language fails it.
    ts = transition_semigroup(d)
    assert not (ts.degree >= 2 and is_subsemigroup_of(ts, BSF))


def test_witnesses_are_suffix_free():
    for n in range(4, 8):
        assert is_suffix_free(d6(n))
    for m in range(6, 9):
        left, _ = binary_product_pair(m, 7)
        assert is_suffix_free(left)
    assert is_suffix_free(d6(5))
    assert is_subsemigroup_of(transition_semigroup(d6(5)), BSF)


def test_suffix_free_decision_agrees_with_word_check():
    rng = random.Random(29)
    for _ in range(40):
        d = random_dfa(rng, rng.randrange(2, 6), 2)
        if has_suffix_violation(d, 2 * d.state_count):
            assert not is_suffix_free(d)
    # The product of d with the determinized NFA for sigma+ L(d) decides
    # both ways; sparse finals make some of these DFAs suffix-free.
    verdicts = set()
    for _ in range(200):
        n = rng.randrange(1, 9)
        alphabet = "ab"[:rng.randrange(1, 3)]
        d = Dfa(n, alphabet, {a: [rng.randrange(n) for _ in range(n)] for a in alphabet},
                0, [q for q in range(n) if rng.random() < 0.2])
        verdicts.add(is_suffix_free(d))
        assert is_suffix_free(d) == reference_is_suffix_free(d)
    assert verdicts == {True, False}


def test_no_witness_word_fixes_initial_state():
    # minimal suffix-free DFAs admit no non-trivial word with 0w = 0
    for d in (d5(6), d6(5), binary_product_pair(6, 7)[0]):
        s = transition_semigroup(d)
        assert all(t[0] != 0 for t in s.elements)
