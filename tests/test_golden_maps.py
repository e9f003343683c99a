"""Every generating set and witness role, pinned bit for bit.

The digests were recorded from the hand-assigned maps that the cycle
builder `semigroups._map` replaced; the tables at n = 7 are written out
from the paper's definitions of the roles.
"""

import hashlib
import json
from itertools import product

import pytest

from suffixfree.semigroups import vsf_generators, wsf_generators
from suffixfree.witnesses import binary_product_pair, d5, d6


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _named(generators) -> list:
    return [[name, list(t)] for name, t in generators]


def _every_dialect(build, n, roles) -> list:
    """build(n).to_dict(), then build(n, s).to_dict() for every dialect
    string s over roles and "-", None where s is rejected."""
    out = [build(n).to_dict()]
    for entries in product(roles + "-", repeat=len(roles)):
        try:
            out.append(build(n, ",".join(entries)).to_dict())
        except ValueError:
            out.append(None)
    return out


GOLDEN = {
    "vsf": (lambda: [_named(vsf_generators(n)) for n in range(2, 13)],
            "76bd40cb215ec2b726b11f5e4e89a41a3ba0213ce8dff5163d656da1ef994144"),
    "wsf": (lambda: [_named(wsf_generators(n)) for n in range(2, 13)],
            "7125f4fac1346f0434c081a4cea61f77f7ca1a2806716f37e4497411ba68f271"),
    "d5": (lambda: [_every_dialect(d5, n, "abc") for n in range(6, 10)],
           "972213fb5428eb67bc5c2fcc832f1f3203ea0ffe67c0233b76f7164c1a7aebd5"),
    "d6": (lambda: [_every_dialect(d6, n, "abcde") for n in range(4, 10)],
           "c6e84b82306c3f0de1ba0de00ff6b4e0708917e7ae66b4bcd6a4a43c93445978"),
    "binary_product_pair": (
        lambda: [[d.to_dict() for d in binary_product_pair(m, n)]
                 for m in range(6, 13) for n in range(3, 13)],
        "4b53329e15215f07b66daaae6739905bad072c6bfadd71bd97dc406cd446aba9"),
}


@pytest.mark.parametrize("family", GOLDEN)
def test_maps_match_their_recorded_digest(family):
    build, digest = GOLDEN[family]
    assert _digest(build()) == digest


def test_d5_roles_at_n_7_as_the_paper_defines_them():
    d = d5(7)
    # a = (0 -> 6)(1,2,3)(4,5)
    assert d.delta["a"] == (6, 2, 3, 1, 5, 4, 6)
    # b = (2 -> 6)(1 -> 2)(0 -> 1)(3,4)
    assert d.delta["b"] == (1, 2, 6, 4, 3, 5, 6)
    # c = (0 -> 6)(1,2,3,4,5)
    assert d.delta["c"] == (6, 2, 3, 4, 5, 1, 6)


def test_d6_roles_at_n_7_as_the_paper_defines_them():
    d = d6(7)
    # a = (0 -> 6)(1,2,3,4,5)
    assert d.delta["a"] == (6, 2, 3, 4, 5, 1, 6)
    # b = (0 -> 6)(1,2)
    assert d.delta["b"] == (6, 2, 1, 3, 4, 5, 6)
    # c = (0 -> 6)(5 -> 1)
    assert d.delta["c"] == (6, 1, 2, 3, 4, 1, 6)
    # d = ({0,1} -> 6)
    assert d.delta["d"] == (6, 6, 2, 3, 4, 5, 6)
    # e = ({1,...,6} -> 6)(0 -> 1)
    assert d.delta["e"] == (1, 6, 6, 6, 6, 6, 6)
