"""Output checks for benchmark jobs.

Counts are checked against this file's own copy of the paper's bound
formulas and atom table; nothing here imports the bounds of the code
under test.  Every job's output is also compared with a digest recorded
in ``expected.json``, so a result that keeps its count but changes
otherwise (say, a DFA with its states renumbered) fails too.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

#: Atom complexities of the quinary witness d6(n), by basis size 0..n-2.
ATOM_TABLE = {
    4: (5, 5, 4),
    5: (9, 13, 16, 8),
    6: (17, 33, 53, 43, 16),
    7: (33, 81, 156, 166, 106, 32),
    8: (65, 193, 427, 542, 462, 249, 64),
    9: (129, 449, 1114, 1611, 1646, 1205, 568, 128),
}

#: The ComplexityReport fields that define its result; runtime_ms and
#: any later diagnostic fields are left out.
REPORT_FIELDS = ("measure", "params", "computed", "bound", "asserted")


def _two_power(p):
    return 2 ** (p["n"] - 2) + 1


def _product(p):
    return (p["m"] - 1) * 2 ** (p["n"] - 2) + 1


def _union(p):
    m, n = p["m"], p["n"]
    return m * n - (m + n - 2)


def _wsf(p):
    n = p["n"]
    return (n - 1) ** (n - 2) + (n - 2)


FORMULAS = {
    "star": _two_power,
    "reversal": _two_power,
    "atom-count": _two_power,
    "product": _product,
    "product-binary": _product,
    "boolean-union": _union,
    "boolean-symmetric-difference": _union,
    "boolean-intersection": lambda p: p["m"] * p["n"] - 2 * (p["m"] + p["n"] - 3),
    "boolean-difference": lambda p: p["m"] * p["n"] - (p["m"] + 2 * p["n"] - 4),
    "syntactic": _wsf,
    "wsf-size": _wsf,
    "atom-table": lambda p: ATOM_TABLE[p["n"]][p["size"]],
}


def expected_count(measure: str, params: dict) -> int:
    """The paper's value of an asserted measure; the semigroup-class
    facts (``classes.*``) are each asserted to hold, i.e. equal 1."""
    if measure.startswith("classes."):
        return 1
    return FORMULAS[measure](params)


def output(job, result):
    """The JSON value that stands for a job's result in its digest."""
    if job.kind == "op":
        return result.dfa.to_dict()
    if job.kind == "search":
        return result.to_dict()
    reports = result if isinstance(result, list) else [result]
    return [{k: r.to_dict()[k] for k in REPORT_FIELDS} for r in reports]


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def check(job, result, expected: dict) -> list:
    """Problems with one job's result; an empty list means correct."""
    problems = []
    if job.kind == "op":
        want = expected_count(job.measure, job.params)
        got = result.dfa.state_count
        if got != want:
            problems.append(f"{job.key}: {got} states, want {want}")
    elif job.kind == "reports":
        reports = result if isinstance(result, list) else [result]
        for r in reports:
            if r.asserted:
                want = expected_count(r.measure, r.params)
                if r.computed != want:
                    problems.append(f"{job.key}: {r.measure} {r.params} "
                                    f"computed {r.computed}, want {want}")
    got = digest(output(job, result))
    if got != expected.get(job.key):
        problems.append(f"{job.key}: output digest {got}, "
                        f"recorded {expected.get(job.key)}")
    return problems
