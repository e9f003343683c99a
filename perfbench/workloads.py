"""The benchmark's four workloads as seeded job lists.

A job is one call of a public ``suffixfree`` function.  Each workload
has a fixed grid of jobs.  A run goes through the grid in rounds; each
round visits every job once, in an order drawn from the seed.  Every
round therefore does the same work, and the seed decides only the
order, so runs with different seeds measure the same thing.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout's source tree; the benchmark measures this copy only.
SRC = Path(__file__).resolve().parent.parent / "src"

#: The package modules, which are also the benchmark's layers.
LAYERS = ("automata", "langops", "semigroups", "atoms", "witnesses", "verify")


def load_package():
    """Import ``suffixfree`` from the checkout's ``src`` and return it.

    Raises ``RuntimeError`` when the source tree is missing or another
    copy of the package would be imported instead.
    """
    if not (SRC / "suffixfree" / "__init__.py").is_file():
        raise RuntimeError(f"no suffixfree sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import suffixfree

    if Path(suffixfree.__file__).resolve().parent != SRC / "suffixfree":
        raise RuntimeError(f"imported suffixfree from {suffixfree.__file__}, "
                           f"not from {SRC}")
    return suffixfree


def _module(layer: str):
    # ``suffixfree.verify`` and ``suffixfree.atoms`` are functions on the
    # package, so modules are looked up by their full name.
    return sys.modules[f"suffixfree.{layer}"]


@dataclass(frozen=True)
class Job:
    """One call ``suffixfree.<module>.<func>(*args)``.

    ``key`` names the job in ``expected.json``.  ``kind`` tells the
    checker how to read the result: ``op`` for an ``OpResult`` whose
    minimal DFA must have ``measure``'s bound at ``params``, ``reports``
    for a ``ComplexityReport`` or a list of them, ``search`` for a
    ``SearchReport``.
    """

    key: str
    kind: str
    module: str
    func: str
    args: tuple = ()
    measure: str = None
    params: dict = field(default_factory=dict)

    def run(self):
        # Looked up on every call, so that a traced run sees the patched name.
        return getattr(_module(self.module), self.func)(*self.args)


def _op(key, func, args, measure, **params):
    return Job(key, "op", "langops", func, args, measure, params)


def _verify(func, *args, kind="reports"):
    key = f"{func}({','.join(str(a) for a in args)})"
    return Job(key, kind, "verify", func, args)


def _subset_grid():
    w = _module("witnesses")
    jobs = []
    for n in (12, 13, 14):
        jobs.append(_op(f"star_full d5({n},a,b,-)", "star_full",
                        (w.d5(n, "a,b,-"),), "star", n=n))
    for m in (8, 9, 10):
        for n in (8, 9, 10):
            jobs.append(_op(f"concat_full d5({m})*d5({n},b,c,a)", "concat_full",
                            (w.d5(m), w.d5(n, "b,c,a")), "product", m=m, n=n))
    for m in (9, 10, 11):
        for n in (9, 10, 11):
            if math.gcd(m - 2, n - 2) == 1:
                jobs.append(_op(f"concat_full binary({m},{n})", "concat_full",
                                w.binary_product_pair(m, n), "product", m=m, n=n))
    for n in (11, 12, 13):
        jobs.append(_op(f"reverse_full d6({n},a,-,c,-,e)", "reverse_full",
                        (w.d6(n, "a,-,c,-,e"),), "reversal", n=n))
    return jobs


# The closure and atoms grids run some light jobs twice per round, so
# that the median falls in the middle of one job's cluster of samples
# rather than at the edge between two, where it would jump from run to
# run.

def _closure_grid():
    light = [_verify("verify_syntactic", 7), _verify("verify_wsf_size", 7),
             _verify("verify_semigroup_classes", 7)]
    heavy = [_verify("verify_syntactic", 8), _verify("verify_wsf_size", 8),
             _verify("verify_semigroup_classes", 8)]
    return 2 * light + [_verify("search_subsemigroups", 5, 2, kind="search")] + heavy


def _atoms_grid():
    light = [_verify("verify_atom_count", 7), _verify("verify_atom_table", 6, True)]
    heavy = [_verify("verify_atom_count", 8), _verify("verify_atom_table", 7, True)]
    return 2 * light + heavy


def _sweep_grid():
    """The calls ``verify_all()`` makes, which yield its 139 reports."""
    ops = ("union", "intersection", "difference", "symmetric-difference")
    op_of = {op.value: op for op in _module("langops").BooleanOp}
    jobs = [_verify("verify_star", n) for n in (6, 7)]
    jobs += [_verify("verify_product", m, n) for m in (6, 7) for n in (6, 7)]
    jobs += [_verify("verify_product_binary", m, n)
             for m, n in ((6, 7), (7, 8), (8, 9))]
    for op in ops:
        pairs = [(m, n, "d5") for m in (6, 7) for n in (6, 7)]
        pairs += [(m, n, "d6") for m in range(4, 8) for n in range(4, 8)]
        for m, n, family in pairs:
            jobs.append(Job(f"verify_boolean({m},{n},{op},{family})", "reports",
                            "verify", "verify_boolean",
                            (m, n, op_of[op], family)))
    for n in range(4, 8):
        for func in ("verify_reversal", "verify_atom_count", "verify_syntactic",
                     "verify_wsf_size", "verify_semigroup_classes",
                     "verify_atom_table"):
            jobs.append(_verify(func, n))
    return jobs


#: Workload name -> the function that makes its job grid.
WORKLOADS = {
    "subset": _subset_grid,
    "closure": _closure_grid,
    "atoms": _atoms_grid,
    "sweep": _sweep_grid,
}


def build_grid(name: str) -> list:
    """The workload's jobs, with their witness DFAs constructed.

    ``load_package()`` must have run.
    """
    return WORKLOADS[name]()


def rounds(grid: list, name: str, seed: int):
    """Endless rounds: each is the grid in an order drawn from the seed."""
    rng = random.Random(f"{name}/{seed}")
    while True:
        yield rng.sample(grid, len(grid))
