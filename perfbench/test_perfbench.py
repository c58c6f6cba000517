"""Tests of the benchmark itself: seeded inputs, checks, the plan limit, spans.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import baoc  # noqa: E402
import baoc.cli  # noqa: E402
import calibration  # noqa: E402
import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _problem_docs(specs, count=6):
    docs = []
    for spec in specs[:count]:
        problem = baoc.build_problem(
            spec.blocks, {}, budget_ratio=spec.budget_ratio, time_budget=spec.time_budget, signals=spec.signals
        )
        docs.append(baoc.problem_to_json_dict(problem))
    return docs


class TestSeededInputs:
    def test_trace_bytes_repeat_for_a_seed_and_differ_across_seeds(self, tmp_path):
        first = workloads.setup_ingest(3, tmp_path / "a").trace.read_bytes()
        again = workloads.setup_ingest(3, tmp_path / "b").trace.read_bytes()
        other = workloads.setup_ingest(4, tmp_path / "c").trace.read_bytes()
        assert first == again
        assert first != other

    @pytest.mark.parametrize("make", [workloads.setup_sweep, workloads.setup_solve])
    def test_problems_repeat_for_a_seed_and_differ_across_seeds(self, make):
        assert _problem_docs(make(7)) == _problem_docs(make(7))
        assert _problem_docs(make(7)) != _problem_docs(make(8))

    def test_sweep_draws_differ_between_ops(self):
        specs = workloads.setup_sweep(0)
        assert len(specs) == 17 * 3 * workloads.SWEEP_DRAWS_PER_BUDGET
        assert specs[0].signals[0] != specs[1].signals[0]

    def test_ingest_model_matches_the_trace(self, tmp_path):
        inputs = workloads.setup_ingest(0, tmp_path)
        units = json.loads(inputs.model_desc.read_text())["units"]
        header = json.loads(inputs.trace.read_text().splitlines()[0])
        assert len(units) == 16
        assert [(u["id"], u["dims"]) for u in units] == [(b["id"], b["dims"]) for b in header["blocks"]]


def _solved(seed=0, index=0):
    return workloads.solve_op(workloads.setup_sweep(seed)[index])


def _tamper(plan: bytes, problem, block_pos: int, recompute: bool) -> bytes:
    """Give one block a different candidate; optionally make the totals agree."""
    doc = json.loads(plan)
    row = doc["blocks"][block_pos]
    current = baoc.Configuration.from_json_dict(row["config"])
    other = next(c for c in problem.candidates[block_pos] if c.config != current and c.mem_bytes <= row["mem_bytes"])
    row.update(config=other.config.to_json_dict(), phi=other.phi, mem_bytes=other.mem_bytes, time_ratio=other.time_ratio)
    if recompute:
        picked = [next(c for c in problem.candidates[i] if c.config.to_json_dict() == r["config"])
                  for i, r in enumerate(doc["blocks"])]
        objective = 0.0
        for c in picked:
            objective += c.phi
        doc["objective"] = objective
        doc["total_mem"] = sum(c.mem_bytes for c in picked)
        doc["mean_time_ratio"] = sum(c.time_ratio for c in picked) / len(picked)
    return baoc.pipeline.plan_bytes(doc)


class TestCorrectnessChecks:
    def test_a_solved_plan_passes_against_the_milp_oracle(self):
        solved = _solved()
        answer = checks.oracle(solved.problem)
        assert answer.source == "milp"
        result = checks.check_plan(solved.problem, solved.plan, answer)
        assert result.ok and result.checked, result.messages

    def test_a_plan_with_a_stale_objective_fails_verify(self):
        solved = _solved()
        tampered = _tamper(solved.plan, solved.problem, 0, recompute=False)
        result = checks.check_plan(solved.problem, tampered, checks.oracle(solved.problem))
        assert not result.ok
        assert any(m.startswith("verify:") for m in result.messages)

    def test_a_consistent_but_suboptimal_plan_fails_the_oracle(self):
        solved = _solved()
        answer = checks.oracle(solved.problem)
        tampered = None
        for pos in range(len(solved.problem.blocks)):
            candidate = _tamper(solved.plan, solved.problem, pos, recompute=True)
            if json.loads(candidate)["objective"] > answer.objective + 1e-6:
                tampered = candidate
                break
        assert tampered is not None
        result = checks.check_plan(solved.problem, tampered, answer)
        assert not result.ok
        assert any("oracle" in m for m in result.messages)

    def test_small_problems_use_the_bruteforce_oracle(self):
        spec = workloads.setup_sweep(0)[0]
        small = dataclasses.replace(spec, blocks=spec.blocks[:3], signals={i: spec.signals[i] for i in range(3)})
        solved = workloads.solve_op(small)
        answer = checks.oracle(solved.problem)
        assert answer.source == "bruteforce"
        assert checks.check_plan(solved.problem, solved.plan, answer).ok

    def test_an_untrusted_oracle_answer_leaves_the_plan_unchecked(self):
        solved = _solved()
        answer = dataclasses.replace(checks.oracle(solved.problem), trusted=False)
        result = checks.check_plan(solved.problem, solved.plan, answer)
        assert result.ok and not result.checked


class _FakeWorkload:
    """Op set of callables returning plan bytes; each plan is its own reference."""

    def __init__(self, ops, limit):
        self._ops = ops
        self.limit = limit

    def ops(self):
        return self._ops

    def harvest(self, index, value):
        return _solved().problem, value

    def references(self, records):
        return {r.index: (r.problem, r.plan) for r in records if r.plan is not None}


class TestPlanLimit:
    def test_a_runaway_op_is_charged_at_the_limit_and_counted_as_failed(self):
        solved = _solved()

        def runaway():
            deadline = time.perf_counter() + 3.0
            while time.perf_counter() < deadline:
                pass
            return solved.plan

        workload = _FakeWorkload([lambda: solved.plan, runaway], limit=0.2)
        records = harness.timed_passes(workload, 0.0, None, calibration.HostClock())
        assert [r.timed_out for r in records] == [False, True]
        assert records[1].seconds == 0.2
        verdict = harness.check_records(workload, records)
        assert verdict.failed == [False, True]
        assert verdict.correct

    def test_the_alarm_is_cleared_after_an_op(self):
        with harness.time_limit(0.05):
            pass
        time.sleep(0.1)  # an alarm left armed would raise here

    def test_differing_plan_bytes_across_passes_fail_the_op(self):
        solved = _solved()
        plans = iter([solved.plan, solved.plan.replace(b"\n", b"\n ", 1)])
        workload = _FakeWorkload([lambda: next(plans)], limit=None)
        records = harness.timed_passes(workload, 0.0, None, calibration.HostClock())
        records += harness.timed_passes(workload, 0.0, None, calibration.HostClock())
        records[1].plan = records[1].problem = None  # a later pass keeps only its digest
        verdict = harness.check_records(workload, records)
        assert verdict.failed == [False, True]
        assert verdict.nondeterministic == 1 and not verdict.correct


class TestCalibration:
    def test_factor_averages_the_samples_bracketing_an_interval(self):
        host = calibration.HostClock()
        for t, ratio in ((0.0, 2.0), (1.0, 4.0), (2.0, 6.0)):
            host.times.append(t)
            host.samples.append(ratio * calibration.CALM_S)
        assert host.factor(0.2, 0.8) == pytest.approx(3.0)
        assert host.factor(1.5, 1.9) == pytest.approx(5.0)
        assert host.factor(0.5, 1.5) == pytest.approx(4.0)

    def test_the_kernel_runs_and_is_sampled(self):
        host = calibration.HostClock()
        host.sample()
        host.sample()
        assert len(host.times) == len(host.samples) == 2
        assert 0.1 < host.factor(host.times[0], host.times[1]) < 10


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSpans:
    def test_self_time_subtracts_direct_children_only(self):
        clock = _Clock()
        rec = spans.Recorder(clock)
        with rec.span("op"):                  # 0 .. 10
            clock.now = 1.0
            with rec.span("read", records=1):  # 1 .. 4
                clock.now = 2.0
                with rec.span("parse"):        # 2 .. 3
                    clock.now = 3.0
                clock.now = 4.0
            with rec.span("read", records=2):  # 4 .. 6
                clock.now = 6.0
            clock.now = 10.0
        own = spans.self_times(rec.spans)
        assert own == {"op": 5.0, "read": 4.0, "parse": 1.0}
        assert sum(own.values()) == 10.0
        assert spans.count_totals(rec.spans) == {"read.records": 3}

    def test_counts_set_inside_the_span_are_kept(self):
        rec = spans.Recorder(_Clock())
        with rec.span("solve") as counts:
            counts["nodes"] = 41
        assert spans.count_totals(rec.spans) == {"solve.nodes": 41}

    def test_traced_wraps_the_call_sites_and_restores_them(self):
        original = baoc.cli.read_trace, baoc.diagnostics.DiagnosticsState.update
        rec = spans.Recorder()
        with spans.traced(rec):
            assert baoc.cli.read_trace is not original[0]
            solved = _solved()
        assert (baoc.cli.read_trace, baoc.diagnostics.DiagnosticsState.update) == original
        names = {s[0] for s in rec.spans}
        assert {"allocator.build_problem", "allocator.solve", "pipeline.render"} <= names
        assert spans.count_totals(rec.spans)["allocator.solve.nodes"] == solved.solution.nodes_explored

    def test_ingest_spans_cover_read_and_update(self, tmp_path):
        inputs = workloads.setup_ingest(0, tmp_path)
        rec = spans.Recorder()
        with spans.traced(rec):
            workloads.ingest_op(inputs, tmp_path / "blocks.json", tmp_path / "plan.json")
        totals = spans.count_totals(rec.spans)
        assert totals["trace.read.records"] == 2 * workloads.STEPS
        assert totals["diagnostics.update.calls"] == 2 * workloads.STEPS * 16
        own = spans.self_times(rec.spans)
        assert {"cli.partition", "cli.allocate", "partitioner.compute_tau", "allocator.solve"} <= set(own)
