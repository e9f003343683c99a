import random
import time
import tracemalloc
from itertools import combinations, product

import pytest

from suffixfree import semigroups
from suffixfree.automata import BudgetError, Dfa, Transformation, minimize
from suffixfree.semigroups import (
    BSF,
    VSF,
    WSF,
    TransitionSemigroup,
    _letter_maps,
    colliding_pairs,
    enumerate_class,
    focused_pairs,
    generate,
    in_bsf,
    in_vsf,
    in_wsf,
    is_subsemigroup_of,
    semigroup_size,
    transition_semigroup,
    vsf_generators,
    wsf_cardinality,
    wsf_generators,
)
from suffixfree.witnesses import d5, d6

from helpers import (
    random_dfa,
    random_transformation,
    reference_closure,
    reference_closure_order,
    reference_focused_pairs,
    reference_in_vsf,
    reference_in_wsf,
    reference_is_subsemigroup_of,
    star_side_semigroup,
    zero_path,
)


# ---------------------------------------------------------------------------
# membership predicates

def test_predicate_counterexamples():
    assert not in_bsf((1, 2, 2, 3))       # 0 collides with a middle state
    assert in_bsf((3, 1, 1, 3))
    assert not in_vsf((3, 1, 1, 3))       # 1 and 2 both map to 1
    assert in_bsf((1, 2, 3, 3))
    assert not in_wsf((1, 2, 3, 3))       # 0 survives, yet 1 -> 2 survives too
    assert in_bsf((1, 1))                 # n=2: only 0 -> 1 qualifies
    assert in_vsf((1, 1))
    assert in_wsf((1, 1))


def test_predicates_reject_degree_one():
    with pytest.raises(ValueError):
        in_bsf((0,))


def test_predicates_reject_an_image_out_of_range():
    # An image past n-1 would send in_bsf's power loop past the end of t.
    for pred in (in_bsf, in_vsf, in_wsf):
        for t in ((1, 7, 2), b"\x01\x07\x02", (1, -1, 2)):
            with pytest.raises(ValueError, match="outside 0..2"):
                pred(t)


def test_predicates_reject_non_int_images():
    # in_vsf((1.0, 1)) and in_wsf((2.5, 2, 2)) returned True.
    for pred in (in_bsf, in_vsf, in_wsf):
        for t in ((1.0, 1), (2.5, 2, 2), (1, True, 2)):
            with pytest.raises(ValueError, match="int state numbers"):
                pred(t)


def test_class_conditions_alone_do_not_accept_an_image_out_of_range():
    # (5, 1, 2) fixes the sink, misses 0 and is injective off the sink,
    # so the lemma's conditions alone would put it in vsf.
    for pred in (in_bsf, in_vsf, in_wsf):
        with pytest.raises(ValueError, match="outside 0..2"):
            pred((5, 1, 2))


def test_bsf_requires_fixed_sink_and_no_zero_image():
    assert not in_bsf((1, 2, 3, 2))       # sink not fixed
    assert not in_bsf((1, 0, 3, 3))       # 0 in the image


def test_vsf_wsf_within_bsf():
    for n in (3, 4, 5):
        for t in enumerate_class(n, VSF):
            assert in_bsf(t)
        for t in enumerate_class(n, WSF):
            assert in_bsf(t)


def test_in_bsf_quantifier_stabilizes_within_n_steps():
    # Evaluating the power condition for j = 1..2n must agree with the
    # implementation's j = 1..n window.
    def slow_in_bsf(t):
        n = len(t)
        if t[n - 1] != n - 1 or 0 in t:
            return False
        cur = tuple(t)
        for _ in range(2 * n):
            if cur[0] != n - 1 and cur[0] in cur[1:n - 1]:
                return False
            cur = tuple(t[c] for c in cur)
        return True

    rng = random.Random(23)
    for _ in range(500):
        n = rng.randrange(2, 7)
        t = tuple(rng.randrange(n) for _ in range(n))
        assert in_bsf(t) == slow_in_bsf(t)


def _in_bsf_unbounded(t):
    """bsf by its definition: the condition is checked at every distinct
    power t**j, j >= 1, walking the powers until one repeats."""
    n = len(t)
    sink = n - 1
    if t[sink] != sink or 0 in t:
        return False
    seen = set()
    power = tuple(t)
    while power not in seen:
        seen.add(power)
        x = power[0]
        if x != sink and x in power[1:sink]:
            return False
        power = tuple([t[q] for q in power])
    return True


def test_predicates_agree_on_bytes_and_tuples_exhaustively():
    # Every transformation of degree 2..6: the predicates read the
    # closure kernel's bytes as they read tuples, in_bsf's j <= n
    # window agrees with the unbounded definition, and the lemma forms
    # of in_vsf and in_wsf agree with bsf plus the class condition.
    for n in range(2, 7):
        for t in product(range(n), repeat=n):
            b = bytes(t)
            assert in_bsf(t) == in_bsf(b) == _in_bsf_unbounded(t), t
            assert in_vsf(t) == in_vsf(b) == reference_in_vsf(t), t
            assert in_wsf(t) == in_wsf(b) == reference_in_wsf(t), t


# ---------------------------------------------------------------------------
# zero_path (a test helper)

def test_zero_path_aperiodic():
    p = zero_path(Transformation((1, 2, 2)))
    assert p.states == (0, 1, 2)
    assert p.period == 1
    assert p.aperiodic
    assert p.end == 2


def test_zero_path_cycle():
    p = zero_path(Transformation((1, 0)))
    assert p.states == (0, 1)
    assert p.period == 2
    assert not p.aperiodic


def test_wsf_zero_paths_end_in_sink():
    for t in enumerate_class(5, WSF):
        p = zero_path(t)
        assert p.aperiodic and p.end == 4


# ---------------------------------------------------------------------------
# enumeration and cardinalities

def test_bsf_cardinalities():
    assert len(enumerate_class(3, BSF)) == 3
    assert len(enumerate_class(4, BSF)) == 15
    assert len(enumerate_class(5, BSF)) == 115


def test_vsf_cardinalities():
    expected = {4: 13, 5: 73, 6: 501, 7: 4051}
    for n, size in expected.items():
        assert len(enumerate_class(n, VSF)) == size


def test_wsf_cardinalities():
    expected = {2: 1, 3: 3, 4: 11, 5: 67, 6: 629, 7: 7781}
    for n, size in expected.items():
        members = enumerate_class(n, WSF)
        assert len(members) == size
        assert size == wsf_cardinality(n)


def test_bsf_not_closed_for_n_4():
    members = enumerate_class(4, BSF)
    raw = {tuple(t) for t in members}
    escapes = [
        (s, t)
        for s in members
        for t in members
        if tuple(t[q] for q in s) not in raw
    ]
    assert escapes  # bsf(4) is not a semigroup


def test_enumerate_class_matches_filter_by_oracles():
    # The sink-fixed, 0-free candidates lose no member: each class is the
    # n**n filter by its definition, power loop included.
    oracles = {BSF: _in_bsf_unbounded, VSF: reference_in_vsf,
               WSF: reference_in_wsf}
    for n in range(2, 7):
        maps = list(product(range(n), repeat=n))
        for cls, oracle in oracles.items():
            assert enumerate_class(n, cls) == frozenset(
                Transformation(t) for t in maps if oracle(t)), (n, cls)


def test_vsf_and_wsf_closed_but_bsf_4_not():
    def escape(n, cls):
        raw = [bytes(t) for t in enumerate_class(n, cls)]
        return semigroups._close(n, raw, guard=set(raw))[1]

    for n in range(2, 7):
        assert escape(n, VSF) is None, n
        assert escape(n, WSF) is None, n
    s, t = escape(4, BSF)
    assert not in_bsf([t[x] for x in s])


def test_enumerate_class_budget():
    with pytest.raises(BudgetError):
        enumerate_class(9, WSF)
    with pytest.raises(ValueError):
        enumerate_class(4, "xsf")


def test_enumerate_class_rejects_non_int_degree():
    with pytest.raises(ValueError, match="int >= 2"):
        enumerate_class(4.0, VSF)


def test_enumerate_class_rejects_degree_below_two():
    for n in (-1, 0, 1):
        with pytest.raises(ValueError, match="int >= 2"):
            enumerate_class(n, BSF)


# ---------------------------------------------------------------------------
# generate / transition_semigroup

def test_generate_closure_of_idempotent_is_singleton():
    s = generate(3, [(1, 1, 2)])
    assert s.elements == frozenset({Transformation((1, 1, 2))})
    assert s.generators == (("g0", Transformation((1, 1, 2))),)


def test_generate_closure_of_cycle():
    s = generate(3, [(1, 2, 0)], names=["r"])
    assert len(s) == 3
    assert Transformation.identity(3) in s
    assert s.generators[0][0] == "r"


def test_generate_needs_one_name_per_generator():
    with pytest.raises(ValueError, match="1 names for 2 generators"):
        generate(3, [(1, 1, 2), (2, 2, 2)], names=["a"])


def test_generate_matches_enumeration_for_named_generators():
    for n in (2, 3, 4, 5, 6):
        v = generate(n, [t for _, t in vsf_generators(n)])
        assert v.elements == enumerate_class(n, VSF)
        w = generate(n, [t for _, t in wsf_generators(n)])
        assert w.elements == enumerate_class(n, WSF)


def test_generate_wsf_8_by_closure():
    w = generate(8, [t for _, t in wsf_generators(8)])
    assert len(w) == wsf_cardinality(8) == 117655


def test_generate_budget_errors():
    assert wsf_cardinality(9) <= semigroups.MAX_CLOSURE_ELEMENTS <= 2 ** 22
    big = generate(9, [Transformation.identity(9)])
    assert len(big) == 1
    with pytest.raises(BudgetError):
        generate(5, [t for _, t in vsf_generators(5)], max_elements=10)
    with pytest.raises(ValueError):
        generate(4, [(0, 1, 2)])  # degree mismatch


def test_generate_rejects_degree_past_byte_encoding():
    with pytest.raises(BudgetError, match="256"):
        generate(257, [Transformation.identity(257)])
    top = generate(256, [Transformation.identity(256)])
    assert top.elements == frozenset({Transformation.identity(256)})


def test_degree_limit_is_one_budget_error_everywhere():
    # TransitionSemigroup raised a plain ValueError for the limit that
    # generate and semigroup_size raise as BudgetError.
    big = [Transformation.identity(257)]
    messages = set()
    for build in (TransitionSemigroup, generate, semigroup_size):
        with pytest.raises(BudgetError) as caught:
            build(257, big)
        messages.add(str(caught.value))
    assert len(messages) == 1


def test_nine_cycle_closes_by_default():
    cycle = [(q + 1) % 9 for q in range(9)]
    assert len(generate(9, [cycle])) == 9
    d = Dfa(9, ("a",), {"a": cycle}, 0, {0})
    assert len(transition_semigroup(d)) == 9
    with pytest.raises(BudgetError, match="max_elements=8"):
        transition_semigroup(d, max_elements=8)


def test_generate_matches_reference_closure():
    rng = random.Random(41)
    for n in range(2, 8):
        for k in (1, 2, 3):
            for _ in range(4):
                gens = [random_transformation(rng, n) for _ in range(k)]
                s = generate(n, gens)
                assert s.elements == reference_closure(gens), (n, gens)
                assert all(type(t) is Transformation for t in s.elements)


def test_generate_lists_elements_in_bfs_order():
    rng = random.Random(59)
    for n in range(2, 8):
        for k in (1, 2, 3):
            gens = [random_transformation(rng, n) for _ in range(k)]
            assert ([tuple(t) for t in generate(n, gens)._raw]
                    == reference_closure_order(gens)), (n, gens)


def test_seeded_closure_matches_the_one_shot_closure():
    # Seeded with the closure of all but the last generator, the closure
    # lists the seed first and then the rest of the one-shot closure.
    rng = random.Random(43)
    for n in range(2, 8):
        for k in (1, 2, 3):
            for _ in range(6):
                gens = [bytes(random_transformation(rng, n)) for _ in range(k)]
                seed = semigroups._close(n, gens[:-1])[0]
                elements, escape = semigroups._close(n, gens, seed=seed)
                assert escape is None
                assert elements[:len(seed)] == seed
                assert len(set(elements)) == len(elements)
                assert set(elements) == set(semigroups._close(n, gens)[0])
                assert frozenset(map(tuple, elements)) == reference_closure(gens)
                if seed:
                    # A last generator that the seed holds adds nothing.
                    again = gens[:-1] + [rng.choice(seed)]
                    assert semigroups._close(n, again, seed=seed)[0] == seed


def test_seeded_closure_escapes_bsf_when_the_one_shot_closure_does():
    rng = random.Random(47)
    tail = bytes(range(256))
    for n in (4, 5):
        bsf = sorted(bytes(t) for t in enumerate_class(n, BSF))
        guard = set(bsf)
        verdicts = []
        for _ in range(400):
            gens = rng.sample(bsf, rng.randint(1, 3))
            inside = semigroups._close(n, gens, guard=guard)[1] is None
            seed, escape = semigroups._close(n, gens[:-1], guard=guard)
            if escape is not None:
                assert not inside  # what a prefix escapes by, the whole does
                continue
            elements, escape = semigroups._close(n, gens, guard=guard, seed=seed)
            assert (escape is None) == inside
            if escape is not None:
                t, g = escape
                assert t in elements and g in gens
                assert t.translate(g + tail[n:]) not in guard
            verdicts.append((len(gens) > 1, inside))
        assert {(True, True), (True, False)} <= set(verdicts)


def test_seeded_closure_keeps_its_budget():
    gens = [bytes(t) for _, t in vsf_generators(5)]
    seed = semigroups._close(5, gens[:-1])[0]
    size = len(semigroups._close(5, gens)[0])
    assert len(seed) < size
    with pytest.raises(BudgetError, match=f"max_elements={size - 1}"):
        semigroups._close(5, gens, seed=seed, max_elements=size - 1)
    with pytest.raises(BudgetError, match=f"max_elements={len(seed) - 1}"):
        semigroups._close(5, gens, seed=seed, max_elements=len(seed) - 1)
    assert len(semigroups._close(5, gens, seed=seed, max_elements=size)[0]) == size


def test_generate_checks_the_image_range(monkeypatch):
    # Valid generators never compose outside 0..degree-1; a kernel that
    # did must not pass unnoticed.
    monkeypatch.setattr(semigroups, "_close",
                        lambda degree, gens, **kw: ([b"\x01\x01", b"\x01\x02"], None))
    with pytest.raises(ValueError, match="outside 0..1"):
        generate(2, [(1, 1)])


def test_bytes_readers_leave_elements_unbuilt():
    s = transition_semigroup(d6(6))
    a = s.generators[0][1]
    assert len(s) == wsf_cardinality(6)
    assert a in s and tuple(a) in s and list(a) in s
    assert (5,) * 6 in s
    for t in ((0,) * 6, (5,) * 5, (5,) * 7, (5,) * 5 + (300,), (-1,) * 6,
              ("a",) * 6):
        assert t not in s
    assert is_subsemigroup_of(s, BSF) and is_subsemigroup_of(s, WSF)
    assert not is_subsemigroup_of(s, VSF)
    assert colliding_pairs(s) == frozenset()
    assert focused_pairs(s) == frozenset(combinations(range(1, 5), 2))
    assert s._elements is None
    elements = s.elements
    assert elements is s.elements
    assert all(type(t) is Transformation for t in elements)
    assert elements == enumerate_class(6, WSF)
    assert s.sorted_elements() == sorted(elements)


def test_semigroup_equality_is_by_degree_and_element_set():
    gens = [t for _, t in wsf_generators(6)]
    s = generate(6, gens)
    r = generate(6, gens[::-1])
    assert s.generators != r.generators
    assert s == r and hash(s) == hash(r)
    given = TransitionSemigroup(6, enumerate_class(6, WSF))
    assert given == s and hash(given) == hash(s)
    assert s != generate(6, gens[:2])
    one = generate(3, [(1, 1, 2)])
    assert one != TransitionSemigroup(4, {(1, 1, 2, 3)})
    assert one == TransitionSemigroup(3, {(1, 1, 2)})
    assert len({s, r, given}) == 1
    with pytest.raises(AttributeError):
        s.degree = 5
    with pytest.raises(ValueError, match="256"):
        TransitionSemigroup(257, [Transformation.identity(257)])


def test_semigroup_elements_are_transformations_of_its_degree():
    s = TransitionSemigroup(3, {(1, 1, 2)})
    assert all(type(t) is Transformation for t in s.elements)
    assert s.elements == frozenset({Transformation((1, 1, 2))})
    with pytest.raises(ValueError, match="degree 3, want 4"):
        TransitionSemigroup(4, {(1, 1, 2)})
    with pytest.raises(ValueError, match="0..1"):
        TransitionSemigroup(4, {(0, 9)})
    with pytest.raises(ValueError, match="0..2"):
        TransitionSemigroup(3, {(1, 7, 2)})


def test_semigroup_degree_must_be_an_int_of_at_least_one():
    # A float degree built a semigroup, or escaped from generate as a
    # TypeError of the closure kernel; degrees 0 and -4 built empty ones.
    for degree, elements in ((3.0, [(1, 1, 2)]), (True, [(0,)]), (0, []), (-4, [])):
        with pytest.raises(ValueError, match="degree must be an int >= 1"):
            TransitionSemigroup(degree, elements)
        with pytest.raises(ValueError, match="degree must be an int >= 1"):
            generate(degree, elements)
        with pytest.raises(ValueError, match="degree must be an int >= 1"):
            semigroup_size(degree, elements)


def test_transition_semigroup_of_witnesses():
    s = transition_semigroup(d5(6))
    assert s.degree == 6
    assert len(s) == 345
    t = transition_semigroup(d6(5))
    assert t.degree == 5
    assert len(t) == wsf_cardinality(5) == 67
    assert is_subsemigroup_of(t, WSF)


def test_sink_last_renumbering():
    # Seeded random DFAs with a planted sink: its class in the minimal
    # DFA is the one empty state, which BFS numbering often puts before
    # n-1.  _letter_maps must conjugate minimize's maps by the
    # renumbering that moves it to n-1 and keeps the others in order.
    rng = random.Random(2207)
    moved = kept = 0
    for _ in range(400):
        n = rng.randrange(2, 8)
        d = random_dfa(rng, n, rng.randrange(1, 4))
        sink = rng.randrange(1, n)
        delta = {a: [sink if q == sink or rng.random() < 0.3 else t[q]
                     for q in range(n)] for a, t in d.delta.items()}
        d = Dfa(n, d.alphabet, delta, 0, d.finals - {sink})
        m = minimize(d)
        maps = [m.delta[a] for a in m.alphabet]
        degree, got = _letter_maps(d)
        assert degree == m.state_count
        assert transition_semigroup(d).generators == tuple(zip(d.alphabet, got))
        empty = m.empty_states()
        if len(empty) != 1 or empty[0] == degree - 1:
            kept += 1
            assert got == maps
            continue
        moved += 1
        s = empty[0]
        new = [q - (q > s) for q in range(degree)]
        new[s] = degree - 1
        assert new[m.initial] == 0
        for t, u in zip(maps, got, strict=True):
            assert type(u) is Transformation
            assert u[degree - 1] == degree - 1
            assert all(u[new[q]] == new[t[q]] for q in range(degree))
    assert moved > 50 and kept > 50


# ---------------------------------------------------------------------------
# semigroup_size: the count by R-classes against the closure

def test_semigroup_size_matches_reference_closure_on_random_sets():
    rng = random.Random(1601)
    for _ in range(500):
        n = rng.randint(1, 7)
        gens = [random_transformation(rng, n) for _ in range(rng.randint(1, 3))]
        assert semigroup_size(n, gens) == len(reference_closure(gens)), (n, gens)


def test_semigroup_size_matches_reference_closure_on_small_bsf_4_subsets():
    members = sorted(enumerate_class(4, BSF))
    subsets = [gens for k in (1, 2, 3) for gens in combinations(members, k)]
    assert len(subsets) == 575
    for gens in subsets:
        assert semigroup_size(4, gens) == len(reference_closure(gens)), gens


def test_semigroup_size_matches_closure_of_classes_and_witnesses():
    for n in range(2, 9):
        for gens in (vsf_generators, wsf_generators):
            maps = [t for _, t in gens(n)]
            assert semigroup_size(n, maps) == len(generate(n, maps)), (n, gens)
        for w in ([d6] if n >= 4 else []) + ([d5] if n >= 6 else []):
            m = minimize(w(n))
            maps = [m.delta[a] for a in m.alphabet]
            assert semigroup_size(m.state_count, maps) == len(
                transition_semigroup(w(n))), (w, n)


def test_semigroup_size_of_an_r_class_with_two_elements_of_one_image():
    # x = (0,0,1) and x * y = (1,1,0) share kernel {0,1},{2} and image
    # {0,1}: they are R-related but not L-related, and one R-class counts
    # both through the swap that y induces on {0,1}.
    x, y = (0, 0, 1), (1, 0, 2)
    assert generate(3, [x, y]).elements >= {(0, 0, 1), (1, 1, 0)}
    assert semigroup_size(3, [x, y]) == len(generate(3, [x, y])) == 6


def test_semigroup_size_needs_the_schutzenberger_groups():
    # Here the left walk reaches only some elements of an H-class: a
    # count that took every G(X) as trivial would find 14 of the 16.
    gens = [(0, 0, 1, 3), (1, 0, 3, 2)]
    assert semigroup_size(4, gens) == len(reference_closure(gens)) == 16


def test_semigroup_size_of_no_generators_and_degree_limits():
    assert semigroup_size(4, []) == 0
    assert semigroup_size(1, [(0,)]) == 1
    assert semigroup_size(256, [Transformation.identity(256)]) == 1
    with pytest.raises(BudgetError, match="256"):
        semigroup_size(257, [Transformation.identity(257)])
    with pytest.raises(ValueError, match="generator degree 3 != 4"):
        semigroup_size(4, [(1, 1, 2)])


def test_semigroup_size_budget(monkeypatch):
    gens = [t for _, t in vsf_generators(5)]
    assert semigroup_size(5, gens) == 73
    monkeypatch.setattr(semigroups, "MAX_CLOSURE_ELEMENTS", 10)
    with pytest.raises(BudgetError, match="MAX_CLOSURE_ELEMENTS=10"):
        semigroup_size(5, gens)


def test_semigroup_size_under_every_budget(monkeypatch):
    # Small budgets stop the count in the orbit, at a group or at an
    # R-class's variants; from some budget on it is whole.
    gens = [t for _, t in wsf_generators(6)]
    counts = []
    for budget in range(600):
        monkeypatch.setattr(semigroups, "MAX_CLOSURE_ELEMENTS", budget)
        try:
            counts.append(semigroup_size(6, gens))
        except BudgetError:
            counts.append(None)
    whole = counts.index(wsf_cardinality(6))
    assert counts == [None] * whole + [629] * (600 - whole)


@pytest.mark.parametrize("n", [12, 20])
def test_semigroup_size_past_the_budget_fails_before_building(n):
    # wsf(12)'s top Schützenberger group is S_10, 3,628,800 elements;
    # wsf(20)'s orbit has 2**18 images and its top group is S_18.
    gens = [t for _, t in wsf_generators(n)]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(BudgetError, match="MAX_CLOSURE_ELEMENTS"):
            semigroup_size(n, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2
    assert peak < 10 ** 7


def test_group_exceeds_matches_the_closure_of_random_permutations():
    rng = random.Random(1602)
    for _ in range(300):
        k = rng.randint(1, 7)
        perms = [bytes(rng.sample(range(k), k)) for _ in range(rng.randint(0, 3))]
        order = len(semigroups._close(k, [bytes(range(k))] + perms)[0])
        tables = [p + semigroups._POINTS[k:] for p in perms]
        assert semigroups._group_exceeds(tables, order - 1), (k, perms)
        assert not semigroups._group_exceeds(tables, order), (k, perms)


def test_group_exceeds_stops_early_on_a_large_symmetric_group():
    # S_255 from a 255-cycle and a transposition: the first orbits
    # already pass the bound.
    cycle = bytes([*range(1, 255), 0, 255])
    swap = bytes([1, 0, *range(2, 256)])
    start = time.perf_counter()
    assert semigroups._group_exceeds([cycle, swap], 2 ** 22)
    assert time.perf_counter() - start < 2


def _reachable(succ: list, v: int) -> set:
    seen, todo = {v}, [v]
    while todo:
        for w in succ[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def test_components_match_mutual_reachability():
    # Seeded random graphs with self-loops, start sets that leave some
    # nodes to be entered only from outside them and some unreached, and
    # the empty graph.
    rng = random.Random(2103)
    graphs = [([], [])]
    for _ in range(200):
        size = rng.randint(1, 25)
        succ = [[rng.randrange(size) for _ in range(rng.randint(0, 3))]
                for _ in range(size)]
        for v in rng.sample(range(size), rng.randint(0, size)):
            succ[v].append(v)
        graphs.append((rng.sample(range(size), rng.randint(1, size)), succ))
    entered, unreached = 0, 0
    for nodes, succ in graphs:
        label = semigroups._components(nodes, succ)
        reach = [_reachable(succ, v) for v in range(len(succ))]
        met = set().union(*(reach[v] for v in nodes))
        assert set(label) == met
        entered += bool(met - set(nodes))
        unreached += len(met) < len(succ)
        for v in met:
            for w in met:
                assert (label[v] == label[w]) == (w in reach[v] and v in reach[w])
        # Each component's members come in one run, its root last, and
        # only after every component it reaches.
        order = list(label)
        first = {}
        for i, v in enumerate(order):
            first.setdefault(label[v], i)
            assert (v == label[v]) == (i + 1 == len(order) or label[order[i + 1]] != label[v])
        for v in met:
            assert first[label[v]] <= order.index(v) <= order.index(label[v])
            for w in reach[v]:
                if label[w] != label[v]:
                    assert order.index(label[w]) < first[label[v]]
    assert entered and unreached


# ---------------------------------------------------------------------------
# class membership of whole semigroups

def _assert_membership_matches_reference(s):
    for cls in (VSF, WSF):
        assert is_subsemigroup_of(s, cls) == reference_is_subsemigroup_of(s, cls), (
            s, cls)


def test_membership_matches_reference_on_single_elements():
    # Every transformation of degree 2..5, and a sample at degree 6, as a
    # one-element semigroup: membership agrees with the definitions on
    # each element, power condition included.
    rng = random.Random(14)
    elements = [t for n in range(2, 6) for t in product(range(n), repeat=n)]
    elements += [random_transformation(rng, 6) for _ in range(3000)]
    for t in elements:
        _assert_membership_matches_reference(TransitionSemigroup(len(t), [t]))


def _random_member(rng, n: int, cls: str) -> list:
    """A random element of vsf(n) or wsf(n)."""
    sink = n - 1
    t = [sink] * n
    if cls == VSF:
        middles = list(range(1, sink))
        rng.shuffle(middles)
        for q, v in zip(rng.sample(range(sink), rng.randint(0, n - 2)), middles):
            t[q] = v
    elif rng.random() < 0.5:
        t[1:sink] = [rng.randrange(1, n) for _ in range(1, sink)]
    else:
        t[0] = rng.randrange(1, n)
    return t


def _spoil(rng, t: list) -> list:
    """t with 0 in its image, an unfixed sink or a middle value hit twice."""
    n = len(t)
    t = list(t)
    kind = rng.randrange(3) if n > 2 else rng.randrange(2)
    if kind == 0:
        t[rng.randrange(n)] = 0
    elif kind == 1:
        t[n - 1] = rng.randrange(n - 1)
    else:
        p, q = rng.sample(range(n - 1), 2)
        t[p] = t[q] = rng.randrange(1, n - 1)
    return t


def test_membership_matches_reference_on_random_element_sets():
    # Element sets of degree 2..8 drawn from vsf, wsf or both, up to 150
    # elements, checked element by element since no generators are
    # kept; half of them get one spoiled element at a random position.
    rng = random.Random(1402)
    for _ in range(400):
        n = rng.randint(2, 8)
        classes = rng.choice([(VSF,), (WSF,), (VSF, WSF)])
        raw = [bytes(_random_member(rng, n, rng.choice(classes)))
               for _ in range(rng.randint(1, 150))]
        if rng.random() < 0.5:
            raw.insert(rng.randrange(len(raw) + 1),
                       bytes(_spoil(rng, rng.choice(raw))))
        s = TransitionSemigroup._of_bytes(n, list(dict.fromkeys(raw)))
        _assert_membership_matches_reference(s)


def test_membership_of_generated_semigroups_matches_reference():
    # The generator rule: 1 to 3 generators drawn from bsf(n), vsf(n),
    # wsf(n) or their union, against every element of the closure
    # checked by the definitions.
    rng = random.Random(1703)
    pools = {n: [sorted(enumerate_class(n, cls)) for cls in (BSF, VSF, WSF)]
             for n in (4, 5)}
    for n in pools:
        pools[n].append(sorted(set().union(*pools[n])))
    outcomes = set()
    for _ in range(500):
        n = rng.choice((4, 5))
        pool = rng.choice(pools[n])
        s = generate(n, rng.sample(pool, rng.randint(1, 3)))
        for cls in (BSF, VSF, WSF):
            inside = is_subsemigroup_of(s, cls)
            assert inside == reference_is_subsemigroup_of(s, cls), (s.generators, cls)
            outcomes.add((cls, inside))
    assert len(outcomes) == 6  # each class is both met and missed


def test_membership_matches_reference_on_witness_semigroups():
    for n in range(4, 9):
        for s in (star_side_semigroup(n),
                  transition_semigroup(d6(n, "a,-,c,-,e")),
                  transition_semigroup(d6(n))):
            _assert_membership_matches_reference(s)


def test_empty_semigroup_is_inside_every_class():
    for n in range(1, 6):
        for cls in (BSF, VSF, WSF):
            assert is_subsemigroup_of(TransitionSemigroup(n, []), cls)


def test_membership_rejects_unknown_class_and_degree_one():
    s = transition_semigroup(d6(5))
    with pytest.raises(ValueError, match="unknown class 'xsf'"):
        is_subsemigroup_of(s, "xsf")
    for cls in (BSF, VSF, WSF):
        with pytest.raises(ValueError, match="degree must be >= 2"):
            is_subsemigroup_of(TransitionSemigroup(1, [(0,)]), cls)


# ---------------------------------------------------------------------------
# colliding / focused pair duality

def test_pair_duality_between_vsf_and_wsf():
    for n in (4, 5, 6, 7):
        v = TransitionSemigroup(n, enumerate_class(n, VSF))
        w = TransitionSemigroup(n, enumerate_class(n, WSF))
        middles = frozenset(combinations(range(1, n - 1), 2))
        assert colliding_pairs(v) == middles
        assert focused_pairs(v) == frozenset()
        assert colliding_pairs(w) == frozenset()
        assert focused_pairs(w) == middles


def test_focused_pairs_match_reference():
    cases = [transition_semigroup(d6(n)) for n in range(4, 9)]
    cases += [generate(n, [t for _, t in gens(n)])
                    for n in range(4, 8) for gens in (vsf_generators, wsf_generators)]
    cases.append(star_side_semigroup(6))
    # Random generators also merge middle states into 0, unlike bsf(n).
    rng = random.Random(5)
    cases += [generate(n, [random_transformation(rng, n) for _ in range(2)])
              for n in (2, 3, 5, 6) for _ in range(5)]
    for s in cases:
        assert focused_pairs(s) == reference_focused_pairs(s)


# ---------------------------------------------------------------------------
# generating sets

def test_vsf_generators_reject_non_int_degree():
    with pytest.raises(ValueError, match="int n >= 2"):
        vsf_generators(4.0)


def test_wsf_generators_reject_non_int_degree():
    with pytest.raises(ValueError, match="int n >= 2"):
        wsf_generators(4.0)


def test_wsf_cardinality_rejects_non_int_degree():
    for n in (2.5, 4.0, True, 1):
        with pytest.raises(ValueError, match="int n >= 2"):
            wsf_cardinality(n)


def test_vsf_generators_degenerations():
    assert [name for name, _ in vsf_generators(6)] == ["a", "b", "c1", "c2",
                                                       "c3", "c4"]
    assert [name for name, _ in vsf_generators(4)] == ["a", "c1", "c2"]
    assert [name for name, _ in vsf_generators(2)] == ["c1"]
    with pytest.raises(ValueError):
        vsf_generators(1)


def test_wsf_generators_degenerations():
    assert [name for name, _ in wsf_generators(6)] == ["a", "b", "c", "d", "e"]
    assert [name for name, _ in wsf_generators(4)] == ["a", "c", "d", "e"]
    assert [name for name, _ in wsf_generators(3)] == ["a", "e"]
    assert [name for name, _ in wsf_generators(2)] == ["e"]
    with pytest.raises(ValueError):
        wsf_generators(1)


def test_generator_values_at_n_6():
    gens = dict(vsf_generators(6))
    assert gens["a"] == Transformation((5, 2, 3, 4, 1, 5))
    assert gens["b"] == Transformation((5, 2, 1, 3, 4, 5))
    assert gens["c1"] == Transformation((1, 5, 2, 3, 4, 5))
    wens = dict(wsf_generators(6))
    assert wens["c"] == Transformation((5, 1, 2, 3, 1, 5))
    assert wens["d"] == Transformation((5, 5, 2, 3, 4, 5))
    assert wens["e"] == Transformation((1, 5, 5, 5, 5, 5))
