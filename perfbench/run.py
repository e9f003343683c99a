"""Batch benchmark of the suffixfree library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload subset --seed 1 --seconds 28 --trace 0

The run measures ``suffixfree`` from the checkout's ``src`` in this one
single-threaded process.  It runs the workload's job grid in whole
rounds, in an order drawn from ``--seed``, until the next round would
pass ``--seconds``, and checks every job's output.  Around the rounds it
times several fresh set-ups in child processes, one at a time
(``setup_s``).  Every time it reports is scaled by the reference work
timed around it, to take out the drift of the machine's speed (see
``reference.py``).

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1``
it spends half the time untraced and half traced, prints the per-layer
metrics and the tracing overhead, and writes the spans to
``.bench_out/``.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checker
import reference
import tracer as tracing
import workloads

#: Fresh set-ups timed before and after the timed rounds; setup_s is
#: the median of all of them, scaled.  Timing some at each end of the
#: run keeps one slow spell of the machine from moving them all.
SETUP_PROBES = (6, 5)
OUT_DIR = workloads.SRC.parent / ".bench_out"
#: Rounds a run makes even when they take longer than ``--seconds``.
#: With fewer, a slow spell of the machine leaves closure fewer than ten
#: samples of its n = 8 jobs, and job_tail_ms drops to its light jobs.
MIN_ROUNDS = 4
#: Seconds of jobs between two timings of the reference work.
REFERENCE_EVERY_S = 0.1


def setup(name: str) -> list:
    """What a run does before its first timed job: import the package,
    build the witnesses and the job grid."""
    workloads.load_package()
    return workloads.build_grid(name)


def scale(before: float, after: float) -> float:
    """Factor that scales a time measured between two timings of the
    reference work to the nominal machine speed."""
    return 2 * reference.NOMINAL_S / (before + after)


def time_setups(name: str, seed: int, count: int) -> tuple:
    """Seconds from spawning a fresh interpreter to its report that
    set-up is done, for ``count`` interpreters in turn, and the timings
    of the reference work taken just before and after each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    samples, references = [], []
    for _ in range(count):
        references.append(reference.time_reference())
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        references.append(reference.time_reference())
    return samples, references


def setup_seconds(samples: list, references: list) -> float:
    """The median set-up, scaled by the median reference timing around
    the probes.  A probe is too short for the two timings next to it to
    tell the machine's speed: scaling each probe by its own pair tripled
    the spread of setup_s between runs."""
    return (statistics.median(samples) * reference.NOMINAL_S
            / statistics.median(references))


@dataclass
class Phase:
    """Outcome of running whole rounds of a job grid."""

    rounds: int = 0
    #: Wall seconds of each job.
    latencies: list = field(default_factory=list)
    #: The same, scaled to the nominal machine speed.
    scaled: list = field(default_factory=list)
    #: Wall seconds of each timing of the reference work.
    references: list = field(default_factory=list)
    failed: int = 0
    raised: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def jobs_per_s(self) -> float:
        return (self.attempted - self.raised) / sum(self.scaled)


def run_rounds(order, budget_s, expected, tracer=None) -> Phase:
    """Run whole rounds until the next one would end past ``budget_s``,
    but at least ``MIN_ROUNDS``.  Job latency covers the call only, not
    its check.  The reference work is timed at the start and after every
    ``REFERENCE_EVERY_S`` of jobs, and each stretch of jobs is scaled by
    the two timings around it."""
    phase = Phase()
    clock = time.perf_counter
    begin = clock()
    phase.references.append(reference.time_reference())
    stretch = []

    def close_stretch():
        phase.references.append(reference.time_reference())
        factor = scale(*phase.references[-2:])
        phase.scaled.extend(x * factor for x in stretch)
        stretch.clear()

    while True:
        for job in next(order):
            if tracer is not None:
                tracer.job = phase.attempted
            t0 = clock()
            try:
                result = job.run()
            except Exception:
                latency = clock() - t0
                phase.raised += 1
                phase.failed += 1
                traceback.print_exc()
            else:
                latency = clock() - t0
                problems = checker.check(job, result, expected)
                if problems:
                    phase.failed += 1
                    print("\n".join(problems), file=sys.stderr)
            phase.latencies.append(latency)
            stretch.append(latency)
            if sum(stretch) >= REFERENCE_EVERY_S:
                close_stretch()
        phase.rounds += 1
        elapsed = clock() - begin
        if (phase.rounds >= MIN_ROUNDS
                and elapsed * (phase.rounds + 1) / phase.rounds > budget_s):
            if stretch:
                close_stretch()
            return phase


def tail(latencies: list):
    """The highest whole percentile with at least ten samples above it:
    (percentile, its value, samples above it).  Falls back to the median
    when there are too few samples."""
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    for pct in range(99, 50, -1):
        beyond = sum(1 for x in latencies if x > cuts[pct - 1])
        if beyond >= 10:
            return pct, cuts[pct - 1], beyond
    return 50, cuts[49], sum(1 for x in latencies if x > cuts[49])


def end_to_end(phase, setup_s):
    pct, tail_s, beyond = tail(phase.scaled)
    n = phase.attempted
    rows = [
        ("jobs_per_s", phase.jobs_per_s, "1/s",
         f"{phase.rounds} rounds of the grid"),
        ("job_p50_ms", 1000 * statistics.median(phase.scaled), "ms",
         f"median of {n} jobs"),
        ("job_tail_ms", 1000 * tail_s, "ms",
         f"p{pct} of {n} jobs, {beyond} beyond it"),
        ("setup_s", setup_s, "s", f"median of {sum(SETUP_PROBES)} fresh set-ups"),
        ("peak_rss_mb",
         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
         "this process"),
    ]
    print(f"times scaled to a reference work of {1000 * reference.NOMINAL_S:g} ms; "
          f"it took {1000 * statistics.median(phase.references):.2f} ms "
          f"(median of {len(phase.references)}), and the unscaled jobs_per_s "
          f"was {(n - phase.raised) / sum(phase.latencies):.4f}")
    for metric, value, unit, note in rows:
        print(f"{metric:12s} {value:12.4f} {unit:4s} {note}")
    print(f"{'failed_share':12s} {phase.failed / n:12.4f} {'':4s} "
          f"{phase.failed} of {n} jobs")
    return {metric: {"value": value, "unit": unit}
            for metric, value, unit, _ in rows}


def per_layer(name, seed, untraced, traced, tracer):
    metrics = tracing.layer_metrics(tracer, traced.rounds, sum(traced.latencies))
    # Self times are scaled like job times, by the traced half's typical
    # reference timing; shares are taken before, from wall times alone.
    factor = reference.NOMINAL_S / statistics.median(traced.references)
    for metric in metrics:
        if metric.endswith("self_s"):
            metrics[metric] *= factor
    metrics["trace.jobs_per_s"] = traced.jobs_per_s
    metrics["trace.untraced_jobs_per_s"] = untraced.jobs_per_s
    metrics["trace.overhead"] = untraced.jobs_per_s / traced.jobs_per_s - 1
    path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(path)
    print(f"{len(tracer.spans)} spans over {traced.rounds} traced rounds "
          f"written to {path}")
    for metric, value in metrics.items():
        print(f"{metric:42s} {value:14.6f}")
    return {metric: {"value": value, "unit": unit_of(metric)}
            for metric, value in metrics.items()}


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[1]
    if last.endswith("jobs_per_s"):
        return "1/s"
    if last.endswith("_s"):
        return "s"
    if last in ("hit_ratio", "accept_ratio", "self_share", "overhead"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used by setup_s)")
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup(args.workload)
            print("ready", flush=True)
            return 0
        expected = checker.load_expected()
        grid = setup(args.workload)
    except (RuntimeError, OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    order = workloads.rounds(grid, args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: {len(grid)} jobs per round")
    if args.trace:
        untraced = run_rounds(order, args.seconds / 2, expected)
        with tracing.Tracer() as tracer:
            traced = run_rounds(order, args.seconds / 2, expected, tracer)
        phases = (untraced, traced)
        metrics = per_layer(args.workload, args.seed, untraced, traced, tracer)
    else:
        before, after = SETUP_PROBES
        samples, references = time_setups(args.workload, args.seed, before)
        phase = run_rounds(order, args.seconds, expected)
        more_samples, more_references = time_setups(args.workload, args.seed, after)
        phases = (phase,)
        metrics = end_to_end(phase, setup_seconds(samples + more_samples,
                                                  references + more_references))
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
