import importlib
import math
import random
import tracemalloc
from itertools import combinations

import pytest

from suffixfree.atoms import (
    AtomRow,
    atom_complexity,
    atom_dfa,
    atom_report,
    atoms,
    is_atom,
    middle_basis_bound,
    suffix_free_atom_bound,
    syntactic_complexity,
)
from suffixfree.automata import Dfa, is_isomorphic, minimize, quotient_complexity
from suffixfree.langops import BooleanOp, boolean, reverse, reverse_full
from suffixfree.semigroups import wsf_cardinality
from suffixfree.witnesses import d6

from helpers import (
    brute_force_state_count,
    random_dfa,
    reference_atom_dfa,
    reference_atoms,
    reference_determinize,
    reference_raw_atom_dfa,
    reference_reverse_nfa,
)


# ---------------------------------------------------------------------------
# atom_dfa / atom_complexity

def test_atom_dfa_singleton_initial_basis():
    assert atom_dfa(d6(5), {0}).state_count == 5


def test_atom_dfa_empty_basis():
    assert atom_dfa(d6(6), frozenset()).state_count == 2 ** 4 + 1 == 17


def test_atom_complexity_middle_basis():
    assert atom_complexity(d6(5), {1, 2}) == 16


def test_atom_complexity_rejects_empty_intersection():
    # the full state set collides immediately for d6
    d = d6(5)
    assert not is_atom(d, set(range(5)))
    with pytest.raises(ValueError):
        atom_complexity(d, set(range(5)))


def test_atom_dfa_rejects_out_of_range_basis():
    with pytest.raises(ValueError):
        atom_dfa(d6(5), {9})


def test_max_atom_complexity_per_family():
    cases = {4: 5, 6: 53, 7: 166}
    for n, expected in cases.items():
        d = d6(n)
        assert max(atom_complexity(d, s)
                   for s in atoms(d)) == expected


# ---------------------------------------------------------------------------
# atoms

def test_atoms_of_sigma_star():
    d = Dfa(1, ("a",), {"a": (0,)}, 0, {0})
    assert atoms(d) == frozenset({frozenset({0})})


def test_atom_count_of_d6():
    assert len(atoms(d6(6))) == 2 ** 4 + 1 == 17


def test_atom_count_equals_reverse_complexity():
    rng = random.Random(17)
    done = 0
    while done < 20:
        d = minimize(random_dfa(rng, rng.randrange(2, 7), 2))
        assert len(atoms(d)) == quotient_complexity(reverse(d))
        done += 1
    # Both run the reversed subset construction from the final states.
    for _ in range(40):
        d = random_dfa(rng, rng.randrange(1, 15), rng.randrange(1, 4))
        assert reverse_full(d).raw_states == len(atoms(d))


def test_atoms_of_a_21_state_cycle():
    d = Dfa(21, ("a",), {"a": tuple((q + 1) % 21 for q in range(21))}, 0, {0})
    assert atoms(d) == frozenset(frozenset({q}) for q in range(21))


def test_atom_count_across_three_chunks():
    # 27 states cut the subset kernel's lookups into three chunks of 9.
    n = 27
    cycle = [(q + 1) % n for q in range(n)]
    merge = [1] + list(range(1, n))
    d = Dfa(n, "ab", {"a": cycle, "b": merge}, 0, {0})
    assert len(atoms(d)) == reference_determinize(reference_reverse_nfa(d)).state_count == 704


def test_atoms_match_reference_sweep_on_d6():
    for n in range(4, 9):
        d = d6(n)
        assert atoms(d) == reference_atoms(d)


def test_atoms_match_reference_sweep_after_minimize():
    # Minimization numbers states in BFS order, so the sink is not n-1.
    m = minimize(d6(6))
    assert m.state_count == 6
    found = atoms(m)
    assert found == reference_atoms(m)
    assert len(found) == 17


def test_atoms_match_reference_sweep_on_random_dfas():
    # Not minimized: unreachable and equivalent states stay in.
    rng = random.Random(41)
    for _ in range(40):
        d = random_dfa(rng, rng.randrange(1, 8), rng.randrange(1, 4))
        found = atoms(d)
        assert found == reference_atoms(d)
        for basis in found:
            assert atom_dfa(d, basis).to_dict() == reference_atom_dfa(d, basis).to_dict()
    for _ in range(10):
        d = minimize(random_dfa(rng, rng.randrange(2, 8), 2))
        assert atoms(d) == reference_atoms(d)


def test_atom_complexity_matches_brute_force_on_random_dfas():
    rng = random.Random(47)
    for _ in range(30):
        d = random_dfa(rng, rng.randrange(1, 7), rng.randrange(1, 4))
        for basis in atoms(d):
            raw = reference_raw_atom_dfa(d, basis)
            assert atom_complexity(d, basis) == brute_force_state_count(raw)


def test_atom_complexity_counts_the_minimal_atom_dfa():
    # Counting the sets of atoms that the reachable pairs admit must
    # agree with minimizing the raw atom DFA, for every subset of the
    # states, atom or not.  13 and 14 states take two chunks of X and
    # of Y; the empty alphabet leaves the start pair alone.
    rng = random.Random(61)
    dfas = [random_dfa(rng, rng.randrange(1, 8), rng.randrange(1, 4)) for _ in range(40)]
    dfas += [Dfa(3, "", {}, 0, [1]), Dfa(1, "a", {"a": [0]}, 0, [])]
    for d in dfas:
        for size in range(d.state_count + 1):
            for basis in combinations(range(d.state_count), size):
                if is_atom(d, basis):
                    assert (atom_complexity(d, basis)
                            == quotient_complexity(atom_dfa(d, basis)))
                else:
                    with pytest.raises(ValueError, match="not an atom basis"):
                        atom_complexity(d, basis)
    for n in (13, 14):
        d = random_dfa(rng, n, 2)
        bases = sorted(atoms(d), key=sorted)
        for basis in rng.sample(bases, min(8, len(bases))):
            assert atom_complexity(d, basis) == quotient_complexity(atom_dfa(d, basis))


def test_atom_dfa_matches_reference_construction():
    for n in (5, 6):
        d = d6(n)
        for basis in atoms(d):
            assert atom_dfa(d, basis).to_dict() == reference_atom_dfa(d, basis).to_dict()
    # 13 and 25 states take two and three kernel chunks per part of a
    # pair.  The basis of the atom of a word w is {q : q.w in F}; random
    # bases may give empty atoms.
    rng = random.Random(13)
    for n in (13, 25):
        for _ in range(3):
            d = random_dfa(rng, n, 2)
            for _ in range(4):
                image = range(n)
                for _ in range(rng.randrange(6)):
                    image = [d.delta[rng.choice(d.alphabet)][r] for r in image]
                for basis in ({q for q, r in enumerate(image) if r in d.finals},
                              rng.sample(range(n), rng.randrange(n))):
                    assert (atom_dfa(d, basis).to_dict()
                            == reference_atom_dfa(d, basis).to_dict())


def test_atom_complexity_of_a_40_state_chain_keeps_its_tables_small():
    # Half-split tables would take 2 * 2**20 entries here.
    n = 40
    d = Dfa(n, "a", {"a": [min(q + 1, n - 1) for q in range(n)]}, 0, [n - 2])
    tracemalloc.start()
    try:
        complexity = atom_complexity(d, {n - 2})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert complexity == 2
    assert peak <= 5 * 2 ** 20


def test_atoms_are_pairwise_disjoint():
    rng = random.Random(31)
    for _ in range(5):
        d = minimize(random_dfa(rng, rng.randrange(2, 6), 2))
        bases = sorted(atoms(d), key=sorted)
        for s1, s2 in combinations(bases, 2):
            inter = boolean(atom_dfa(d, s1), atom_dfa(d, s2),
                            BooleanOp.INTERSECTION)
            assert not inter.finals


def test_quotients_are_unions_of_atoms():
    rng = random.Random(37)
    for _ in range(5):
        d = minimize(random_dfa(rng, rng.randrange(2, 6), 2))
        bases = atoms(d)
        for q in range(d.state_count):
            quotient = Dfa(d.state_count, d.alphabet, d.delta, q, d.finals)
            union = None
            for s in bases:
                if q not in s:
                    continue
                piece = atom_dfa(d, s)
                union = piece if union is None else boolean(
                    union, piece, BooleanOp.UNION)
            m = minimize(quotient)
            if union is None:
                # a state in no atom basis has an empty quotient
                assert not m.finals
            else:
                assert is_isomorphic(m, union)


def test_suffix_free_atom_basis_shapes():
    for n in (4, 5, 6):
        for s in atoms(d6(n)):
            assert n - 1 not in s
            if 0 in s:
                assert s == {0}


# ---------------------------------------------------------------------------
# bound formulas

def test_suffix_free_atom_bound_values():
    assert suffix_free_atom_bound(5, {1, 2}) == 16
    assert suffix_free_atom_bound(4, {1}) == 5
    assert suffix_free_atom_bound(9, {1, 2, 3, 4}) == 1646
    assert suffix_free_atom_bound(6, frozenset()) == 17
    assert suffix_free_atom_bound(6, {0}) == 6


def test_suffix_free_atom_bound_rejects_bad_bases():
    with pytest.raises(ValueError):
        suffix_free_atom_bound(5, {0, 1})
    with pytest.raises(ValueError):
        suffix_free_atom_bound(5, {4})
    with pytest.raises(ValueError):
        suffix_free_atom_bound(3, {1})


def test_suffix_free_atom_bound_rejects_non_int_degree():
    for n in (4.0, 5.5):
        with pytest.raises(ValueError, match="int n >= 4"):
            suffix_free_atom_bound(n, [])


def test_suffix_free_atom_bound_rejects_states_outside_the_range():
    for basis in ({7}, {-1}, {1, 2, 3, 9}, {5}):
        with pytest.raises(ValueError, match=r"outside 0\.\.4"):
            suffix_free_atom_bound(5, basis)


def test_middle_basis_bound_range_check():
    with pytest.raises(ValueError):
        middle_basis_bound(5, 0)
    with pytest.raises(ValueError):
        middle_basis_bound(5, 4)


def left_ideal_atom_bound(n: int, size: int) -> int:
    """Atom bound for left ideals, middle case: 1 + sum over x in
    1..size, y in 1..n-size of C(n-1,x) * C(n-1-x,y-1)."""
    if not 1 <= size <= n - 1:
        raise ValueError(f"size must be in 1..{n - 1}")
    total = 1
    for x in range(1, size + 1):
        lead = math.comb(n - 1, x)
        total += lead * sum(math.comb(n - 1 - x, y - 1) for y in range(1, n - size + 1))
    return total


def test_left_ideal_bound_shift_identity():
    for n in range(4, 12):
        for size in range(1, n - 1):
            assert left_ideal_atom_bound(n - 1, size) == middle_basis_bound(n, size)


# ---------------------------------------------------------------------------
# syntactic complexity

def test_syntactic_complexity_of_empty_language():
    d = Dfa(1, ("a",), {"a": (0,)}, 0, set())
    assert syntactic_complexity(d) == 1


def test_syntactic_complexity_of_d6():
    assert syntactic_complexity(d6(6)) == wsf_cardinality(6) == 629
    assert syntactic_complexity(d6(7)) == wsf_cardinality(7) == 7781


# ---------------------------------------------------------------------------
# atom_report

def test_atom_report_meets_bounds_for_d6():
    for n in range(4, 8):
        # minimize numbers the empty state of d6(n) 1, not n-1.
        for d in (d6(n), minimize(d6(n))):
            rows = atom_report(d)
            assert all(row.met for row in rows)
            assert len(rows) == len(atoms(d)) == 2 ** (n - 2) + 1
            assert rows == sorted(rows, key=lambda r: (len(r.basis), r.basis))


def test_atom_report_reads_the_atom_bases_once(monkeypatch):
    # suffixfree.atoms names the function too; the module is looked up.
    module = importlib.import_module("suffixfree.atoms")
    calls = []
    real = module._atom_bases
    monkeypatch.setattr(module, "_atom_bases",
                        lambda d: calls.append(d) or real(d))
    rows = atom_report(d6(6))
    assert len(rows) == 17
    assert len(calls) == 1


def test_atom_report_needs_exactly_one_empty_state():
    no_empty = Dfa(2, ("a",), {"a": (1, 0)}, 0, {1})
    two_empty = Dfa(4, ("a",), {"a": (1, 2, 2, 3)}, 0, {1})
    for d in (no_empty, two_empty):
        with pytest.raises(ValueError, match="exactly one empty state"):
            atom_report(d)


def test_atom_report_rejects_a_non_minimal_dfa():
    # d6(5) plus state 5, a copy of state 3 that state 2 now enters in
    # its place: same language, six states, quotient complexity 5.
    d = d6(5)
    delta = {}
    for a in d.alphabet:
        row = list(d.delta[a]) + [d.delta[a][3]]
        if row[2] == 3:
            row[2] = 5
        delta[a] = row
    copy = Dfa(6, d.alphabet, delta, 0, d.finals | {5})
    assert quotient_complexity(copy) == 5
    with pytest.raises(ValueError, match="6 states, quotient complexity 5"):
        atom_report(copy)


def test_atom_row_met_property():
    assert AtomRow(basis=(1,), complexity=5, bound=5).met
    assert not AtomRow(basis=(1,), complexity=4, bound=5).met
