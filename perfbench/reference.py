"""A fixed piece of pure-Python work, timed between the jobs to follow
the speed of the machine.

The benchmark runs on shared virtual machines whose speed drifts by up
to 2x over seconds to minutes, while the process keeps its CPU the whole
time.  A job's wall time then says as much about the host as about the
code.  So the harness times this reference work before and after every
stretch of jobs, and reports each job's time scaled to a machine on
which the reference work takes ``NOMINAL_S``:

    scaled = wall * NOMINAL_S / (mean of the two reference times around it)

The work resembles the library's kernels (a transformation-semigroup
closure over tuples and a subset construction over frozensets) but
imports nothing from ``suffixfree``, so a change to the library moves
the scaled times and leaves the reference alone.
"""

from __future__ import annotations

import gc
import time

#: Seconds the reference work takes at the speed scaled times refer to;
#: about its median on a 2-vCPU Xeon virtual machine with Python 3.11.
NOMINAL_S = 0.015

#: Elements the closure stops at; it reaches them in a fixed order.
_CLOSURE_ELEMENTS = 5000
#: The subset construction makes 2**_SUBSET_BITS sets.
_SUBSET_BITS = 9


def _closure() -> int:
    """Breadth-first closure of three transformations of 6 points
    (they generate all 6**6 maps) up to ``_CLOSURE_ELEMENTS``."""
    gens = [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5), (0, 0, 2, 3, 4, 5)]
    ident = tuple(range(6))
    seen = {ident}
    queue = [ident]
    i = 0
    while i < len(queue) and len(queue) < _CLOSURE_ELEMENTS:
        t = queue[i]
        i += 1
        for g in gens:
            u = tuple(g[x] for x in t)
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(queue)


def _subsets() -> int:
    """Subset construction of the NFA for "the k-th letter from the end
    is a", k = ``_SUBSET_BITS``; it reaches 2**k sets."""
    k = _SUBSET_BITS
    edges = {(0, "a"): frozenset({0, 1}), (0, "b"): frozenset({0}),
             (k, "a"): frozenset(), (k, "b"): frozenset()}
    for q in range(1, k):
        edges[(q, "a")] = edges[(q, "b")] = frozenset({q + 1})
    start = frozenset({0})
    index = {start: 0}
    queue = [start]
    i = 0
    while i < len(queue):
        s = queue[i]
        i += 1
        for a in "ab":
            nxt = set()
            for q in s:
                nxt |= edges[(q, a)]
            nxt = frozenset(nxt)
            if nxt not in index:
                index[nxt] = len(queue)
                queue.append(nxt)
    return len(queue)


def work() -> tuple:
    """The reference work; returns what it made, for a sanity check."""
    return _closure(), _subsets()


def time_reference() -> float:
    """Wall seconds of one ``work()``.  The garbage collector is paused
    meanwhile, so that the jobs' garbage is not collected on its clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        made = work()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if made != (_CLOSURE_ELEMENTS, 2 ** _SUBSET_BITS):
        raise RuntimeError(f"reference work made {made}")
    return elapsed
