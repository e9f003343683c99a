"""Tests of the benchmark itself: seeded job lists, the output checker
and the tracer.  Run with ``python3 -m pytest perfbench/tests``."""

import dataclasses
import sys
import time

import pytest

import checker
import tracer as tracing
import workloads


def _keys(name, seed, rounds=3):
    grid = workloads.build_grid(name)
    order = workloads.rounds(grid, name, seed)
    return [[job.key for job in next(order)] for _ in range(rounds)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_job_list_is_identical_for_a_seed(name):
    first = _keys(name, 7)
    assert first == _keys(name, 7)
    # Every round is the whole grid; only the order depends on the seed.
    grid = sorted(job.key for job in workloads.build_grid(name))
    assert all(sorted(r) == grid for r in first)
    if len(grid) > 4:
        assert first != _keys(name, 8)


def test_every_job_has_a_recorded_digest():
    expected = checker.load_expected()
    keys = {job.key for name in workloads.WORKLOADS
            for job in workloads.build_grid(name)}
    assert keys == set(expected)


def test_sweep_makes_the_reports_of_verify_all():
    def ident(r):
        return r.measure, tuple(sorted(r.params.items()))

    made = []
    for job in workloads.build_grid("sweep"):
        result = job.run()
        made += result if isinstance(result, list) else [result]
    verify = sys.modules["suffixfree.verify"]
    assert len(made) == 139
    assert sorted(map(ident, made)) == sorted(map(ident, verify.verify_all()))


def _job(key):
    return next(job for name in workloads.WORKLOADS
                for job in workloads.build_grid(name) if job.key == key)


def test_checker_passes_correct_outputs_and_flags_an_off_by_one_count():
    expected = checker.load_expected()
    job = _job("verify_star(6)")
    report = job.run()
    assert checker.check(job, report, expected) == []
    off = dataclasses.replace(report, computed=report.computed + 1)
    problems = checker.check(job, off, expected)
    assert any("want 17" in p for p in problems)


def test_checker_flags_a_renumbered_dfa():
    expected = checker.load_expected()
    job = _job("star_full d5(12,a,b,-)")
    result = job.run()
    assert checker.check(job, result, expected) == []
    dfa = result.dfa
    swap = {1: 2, 2: 1}
    renumbered = type(dfa)(
        dfa.state_count, dfa.alphabet,
        {a: [swap.get(dfa.delta[a][swap.get(q, q)], dfa.delta[a][swap.get(q, q)])
             for q in range(dfa.state_count)] for a in dfa.alphabet},
        dfa.initial, {swap.get(q, q) for q in dfa.finals})
    problems = checker.check(job, dataclasses.replace(result, dfa=renumbered), expected)
    assert len(problems) == 1 and "digest" in problems[0]


def test_self_times_sum_to_at_most_the_job_wall_time():
    jobs = [_job(k) for k in ("verify_atom_table(6,True)", "verify_syntactic(7)",
                              "verify_boolean(6,7,union,d5)",
                              "concat_full binary(9,10)")]
    walls = []
    with tracing.Tracer() as tracer:
        for i, job in enumerate(jobs):
            tracer.job = i
            t0 = time.perf_counter()
            job.run()
            walls.append(time.perf_counter() - t0)
    own = tracing.self_times(tracer.spans)
    for i, wall in enumerate(walls):
        mine = [own[s[0]] for s in tracer.spans if s[5] == i]
        assert mine, f"job {i} left no spans"
        assert all(t >= 0 for t in mine)
        assert sum(mine) <= wall


def test_tracer_restores_every_patched_name():
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if name == "suffixfree" or name.startswith("suffixfree.")}
    with tracing.Tracer() as tracer:
        verify = sys.modules["suffixfree.verify"]
        assert verify.quotient_complexity is not modules["suffixfree.verify"][
            "quotient_complexity"]
        verify.verify_star(6)
    names = {s[1] for s in tracer.spans}
    assert {"verify.verify_star", "witnesses.d5", "langops.star_full",
            "automata.determinize", "automata.minimize",
            "automata.quotient_complexity"} <= names
    for name, before in modules.items():
        after = vars(sys.modules[name])
        for attr, obj in before.items():
            assert after[attr] is obj, f"{name}.{attr} not restored"


def test_layer_metrics_count_atom_bases():
    verify = sys.modules["suffixfree.verify"]
    with tracing.Tracer() as tracer:
        verify.verify_atom_count(6)
    m = tracing.layer_metrics(tracer, rounds=1, job_wall_s=1.0)
    assert m["atoms.atoms.calls"] == 1
    assert m["atoms.atoms.found"] == 17
    assert m["atoms.atoms.bases_tried"] == m["atoms.is_atom.calls"]
    assert 0 < m["atoms.atoms.hit_ratio"] <= 1


def test_tail_percentile_counts_samples_beyond():
    import run

    pct, value, beyond = run.tail([float(x) for x in range(1, 101)])
    assert pct == 90 and 90 <= value <= 91 and beyond == 10


def test_reference_work_is_fixed_and_leaves_the_collector_as_it_was():
    import gc

    import reference

    assert reference.work() == reference.work() == (5000, 512)
    assert gc.isenabled()
    assert reference.time_reference() > 0
    assert gc.isenabled()


def test_scaled_times_follow_the_reference_timings():
    import reference
    import run

    nominal = reference.NOMINAL_S
    assert run.scale(nominal, nominal) == pytest.approx(1)
    # A machine that runs the reference work at half speed halves the times.
    assert run.scale(2 * nominal, 2 * nominal) == pytest.approx(0.5)
    assert run.setup_seconds([0.3, 0.2, 0.4], [2 * nominal] * 6) == pytest.approx(0.15)


def test_a_run_scales_every_job_and_times_the_reference_around_them():
    import run

    grid = workloads.build_grid("atoms")
    phase = run.run_rounds(workloads.rounds(grid, "atoms", 1), 0.0,
                           checker.load_expected())
    assert phase.rounds == run.MIN_ROUNDS and phase.failed == 0
    assert len(phase.scaled) == len(phase.latencies) == run.MIN_ROUNDS * len(grid)
    assert len(phase.references) >= 2
    assert all(s > 0 for s in phase.scaled)
