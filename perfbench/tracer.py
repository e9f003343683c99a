"""Spans around the public functions of each ``suffixfree`` module.

The tracer works from outside the package: it wraps every public
function of the six layer modules and rebinds the wrapper in every
``suffixfree`` namespace that bound the function, the defining module
and each ``from .x import y`` importer alike, so calls inside the package
are traced too.  Spans stay in memory; ``uninstall`` restores every
patched name.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

from workloads import LAYERS

#: Called once per semigroup element or transformation.  Tracing them
#: would cost more than the work; their time stays in the caller's span.
PER_ELEMENT = frozenset({"in_bsf", "in_vsf", "in_wsf", "compose", "zero_path"})

#: Private helpers counted (not timed) for attempt/outcome ratios.
COUNTED = {"verify._closure_within_bsf": "closures"}


#: Span name -> what to record from (args, result).
RECORD = {
    "automata.determinize": lambda a, r: {"states": r.state_count},
    "automata.minimize": lambda a, r: {"states_in": a[0].state_count,
                                       "states_out": r.state_count},
    "langops.star_full": lambda a, r: {"raw_states": r.raw_states},
    "langops.concat_full": lambda a, r: {"raw_states": r.raw_states},
    "langops.reverse_full": lambda a, r: {"raw_states": r.raw_states},
    "langops.boolean_full": lambda a, r: {"raw_states": r.raw_states},
    "semigroups.generate": lambda a, r: {"elements": len(r)},
    "semigroups.enumerate_class": lambda a, r: {"candidates": a[0] ** a[0]},
    "atoms.atoms": lambda a, r: {"found": len(r)},
    "verify.search_subsemigroups": lambda a, r: {"kept": r.semigroups_found},
}


class Tracer:
    """Records one span per traced call: (id, name, start, end, parent
    id or -1, job id, recorded values or None)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = -1
        self._stack = []
        self._next_id = 0
        self._patched = []

    def _span(self, name, fn):
        record = RECORD.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            info = record(args, result) if record is not None else None
            spans.append((sid, name, start, end, parent, self.job, info))
            return result

        return traced

    def _counter(self, label, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Patch every binding of the traced functions in ``suffixfree``."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"suffixfree.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in PER_ELEMENT):
                    wrappers[id(obj)] = (obj, self._span(f"{layer}.{attr}", obj))
        for qualified, label in COUNTED.items():
            layer, attr = qualified.split(".")
            obj = getattr(sys.modules[f"suffixfree.{layer}"], attr, None)
            if obj is not None:
                wrappers[id(obj)] = (obj, self._counter(label, obj))
        for name, mod in list(sys.modules.items()):
            if name != "suffixfree" and not name.startswith("suffixfree."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the time its child spans cover."""
    covered = defaultdict(float)
    for sid, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return {sid: end - start - covered[sid] for sid, _, start, end, *_ in spans}


OPS = ("langops.star_full", "langops.concat_full", "langops.reverse_full",
       "langops.boolean_full")
PAIRS = ("semigroups.colliding_pairs", "semigroups.focused_pairs")


def layer_metrics(tracer: Tracer, rounds: int, job_wall_s: float) -> dict:
    """Per-layer metrics, each a total per round (one pass over the
    workload's job grid); ratios and shares are not scaled.

    ``job_wall_s`` is the summed wall time of the traced jobs.
    """
    spans = tracer.spans
    own = self_times(spans)
    name_of = {s[0]: s[1] for s in spans}
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def self_s(*names):
        return sum(own[s[0]] for n in names for s in by_name[n])

    def recorded(key, *names):
        return sum(s[6][key] for n in names for s in by_name[n] if s[6])

    def children(name, parent_name):
        return [s for s in by_name[name] if name_of.get(s[4]) == parent_name]

    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s[1].split(".")[0]] += own[s[0]]

    bases_tried = len(children("atoms.is_atom", "atoms.atoms"))
    found = recorded("found", "atoms.atoms")
    closures = tracer.counts["closures"]
    kept = recorded("kept", "verify.search_subsemigroups")
    total = {
        "automata.determinize.calls": calls("automata.determinize"),
        "automata.determinize.self_s": self_s("automata.determinize"),
        "automata.determinize.states": recorded("states", "automata.determinize"),
        "automata.minimize.calls": calls("automata.minimize"),
        "automata.minimize.self_s": self_s("automata.minimize"),
        "automata.minimize.states_in": recorded("states_in", "automata.minimize"),
        "automata.minimize.states_out": recorded("states_out", "automata.minimize"),
        "automata.canonicalize.self_s": self_s("automata.canonicalize"),
        "langops.ops.calls": calls(*OPS),
        "langops.ops.self_s": self_s(*OPS),
        "langops.ops.raw_states": recorded("raw_states", *OPS),
        "semigroups.generate.calls": calls("semigroups.generate"),
        "semigroups.generate.self_s": self_s("semigroups.generate"),
        "semigroups.generate.elements": recorded("elements", "semigroups.generate"),
        "semigroups.transition_semigroup.self_s":
            self_s("semigroups.transition_semigroup"),
        "semigroups.membership.self_s": self_s("semigroups.is_subsemigroup_of"),
        "semigroups.pairs.self_s": self_s(*PAIRS),
        "semigroups.enumerate_class.self_s": self_s("semigroups.enumerate_class"),
        "semigroups.enumerate_class.candidates":
            recorded("candidates", "semigroups.enumerate_class"),
        "atoms.atoms.calls": calls("atoms.atoms"),
        "atoms.atoms.self_s": self_s("atoms.atoms"),
        "atoms.atoms.bases_tried": bases_tried,
        "atoms.atoms.found": found,
        "atoms.is_atom.calls": calls("atoms.is_atom"),
        "atoms.is_atom.self_s": self_s("atoms.is_atom"),
        "atoms.atom_dfa.calls": calls("atoms.atom_dfa"),
        "atoms.atom_dfa.self_s": self_s("atoms.atom_dfa"),
        "atoms.atom_dfa.states_raw": sum(
            s[6]["states_in"] for s in children("automata.minimize", "atoms.atom_dfa")),
        "verify.search.self_s": self_s("verify.search_subsemigroups"),
        "verify.search.subsets_tried": closures,
        "verify.search.kept": kept,
    }
    for layer in LAYERS:
        total[f"{layer}.self_s"] = layer_self[layer]
    metrics = {name: value / rounds for name, value in total.items()}
    metrics["atoms.atoms.hit_ratio"] = found / bases_tried if bases_tried else 0.0
    metrics["verify.search.accept_ratio"] = kept / closures if closures else 0.0
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layer_self[layer] / job_wall_s
    return metrics
