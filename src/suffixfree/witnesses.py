"""Constructors for the witness DFA families, reproduced with their
published state numbering (no minimization or renumbering), plus the
predecessor words used in the ternary product argument, exposed as a
checkable oracle.

Families:

* d5(n), n >= 6: the ternary witness for star, product and boolean
  operations; transition semigroup inside vsf(n).
* d6(n), n >= 4: the quinary witness for boolean operations, reversal,
  syntactic complexity and atom complexities; transition semigroup is
  wsf(n).
* binary_product_pair(m, n): the two-letter pair meeting the product
  bound when m-2 and n-2 are relatively prime.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Dfa, Transformation, word_transformation
from .langops import PartialPermutation, _renamed
from .semigroups import _cycle, _middle_cycle, wsf_generators


def _d5_roles(n: int) -> dict:
    a = list(range(n))
    a[0] = n - 1
    _cycle(a, (1, 2, 3))
    _cycle(a, range(4, n - 1))
    b = list(range(n))
    b[2] = n - 1
    b[1] = 2
    b[0] = 1
    _cycle(b, (3, 4))
    return {"a": Transformation(a), "b": Transformation(b), "c": _middle_cycle(n)}


def d5(n: int, dialect: str = None) -> Dfa:
    """The ternary witness: roles a = (0 -> n-1)(1,2,3)(4,...,n-2),
    b = (2 -> n-1)(1 -> 2)(0 -> 1)(3,4), c = (0 -> n-1)(1,...,n-2);
    initial 0, final state 1.

    A dialect string such as "a,b,-" reassigns (or drops) the three
    roles in order.
    """
    if type(n) is not int or n < 6:
        raise ValueError(f"d5 is defined for int n >= 6, not n = {n!r}")
    roles = _d5_roles(n)
    if dialect is not None:
        roles = _renamed(PartialPermutation.parse(dialect, "abc"), roles)
    return Dfa(n, tuple(roles), roles, 0, {1})


def _d6_roles(n: int) -> dict:
    """The five roles by name, in order a..e: the generators of wsf(n),
    with role b equal to role a at n = 4."""
    roles = dict(wsf_generators(n))
    return {r: roles.get(r, roles["a"]) for r in "abcde"}


def d6(n: int, dialect: str = None) -> Dfa:
    """The quinary witness: roles a = (0 -> n-1)(1,...,n-2),
    b = (0 -> n-1)(1,2), c = (0 -> n-1)(n-2 -> 1), d = ({0,1} -> n-1),
    e = (Q \\ {0} -> n-1)(0 -> 1); finals are the odd middle states.

    At n = 4 roles a and b coincide, so the undialected automaton is
    built over {b,c,d,e}.  Dialect strings always have five entries,
    one per role; at n = 4 the role "a" still resolves (to the shared
    a/b transformation).
    """
    if type(n) is not int or n < 4:
        raise ValueError(f"d6 is defined for int n >= 4, not n = {n!r}")
    roles = _d6_roles(n)
    if dialect is not None:
        roles = _renamed(PartialPermutation.parse(dialect, "abcde"), roles)
    elif n == 4:
        del roles["a"]
    finals = frozenset(q for q in range(1, n - 1) if q % 2 == 1)
    return Dfa(n, tuple(roles), roles, 0, finals)


def binary_product_pair(m: int, n: int):
    """The binary product witnesses (left primed automaton, right
    automaton).  Unspecified transitions go to the sink, (m-1)' on the
    left and n-1 on the right."""
    if type(m) is not int or m < 6:
        raise ValueError(f"left witness needs int m >= 6, not m = {m!r}")
    if type(n) is not int or n < 3:
        raise ValueError(f"right witness needs int n >= 3, not n = {n!r}")
    b1 = [m - 1] * m
    b1[0] = 1
    b1[2] = 2
    left = Dfa(m, ("a", "b"), {"a": _middle_cycle(m), "b": b1}, 0, {2, 4})
    # b on the right loops on every state of {2,...,n-2} (the drawn
    # loops at 2 and n-2 bracket the whole dotted range); only state 1
    # falls to the sink.  With fewer loops the coprime pairs cannot
    # accumulate arbitrary subsets and the product bound is unreachable.
    b2 = list(range(n))
    b2[0] = 1
    b2[1] = n - 1
    right = Dfa(n, ("a", "b"), {"a": _middle_cycle(n), "b": b2}, 0, {1})
    return left, right


def pred_word(q: int, n: int) -> str:
    """The predecessor word w_q over {a,b,c} for middle state q:
    cab^2 (q=1), ca (q=2), cab^4 (q=3), cab^2 a^3 b^(q-4) for even
    q >= 4, and ca^4 b^(q-5) for odd q >= 5."""
    if type(n) is not int or n < 6:
        raise ValueError(f"predecessor words need int n >= 6, not n = {n!r}")
    if type(q) is not int or not 1 <= q <= n - 2:
        raise ValueError(f"q must be an int middle state 1..{n - 2}, not q = {q!r}")
    if q == 1:
        return "cabb"
    if q == 2:
        return "ca"
    if q == 3:
        return "cabbbb"
    if q % 2 == 0:
        return "cabbaaa" + "b" * (q - 4)
    return "caaaa" + "b" * (q - 5)


@dataclass(frozen=True)
class PredWordCheck:
    """Outcome of checking one predecessor word on the product setting:
    the word sends 1' to 3' in the primed d5(n), sends 0 to q in the
    (b,c,a) dialect, and gives every middle state other than q a unique
    predecessor among the middle states."""

    q: int
    n: int
    word: str
    maps_one_to_three: bool
    maps_zero_to_q: bool
    unique_predecessors: bool

    @property
    def ok(self) -> bool:
        return (self.maps_one_to_three and self.maps_zero_to_q
                and self.unique_predecessors)


def verify_pred_word(q: int, n: int) -> PredWordCheck:
    w = pred_word(q, n)
    left = d5(n)
    right = d5(n, "b,c,a")
    t_left = word_transformation(left, w)
    t_right = word_transformation(right, w)
    middles = range(1, n - 1)
    preds: dict = {}
    for p in middles:
        preds.setdefault(t_right[p], []).append(p)
    # 0's image is q by construction; every other middle target needs
    # exactly one middle-state preimage.
    unique = all(
        len(preds.get(r, [])) == 1 for r in middles if r != q
    )
    return PredWordCheck(
        q=q,
        n=n,
        word=w,
        maps_one_to_three=t_left[1] == 3,
        maps_zero_to_q=t_right[0] == q,
        unique_predecessors=unique,
    )
