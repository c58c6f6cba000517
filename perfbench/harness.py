"""Runs one workload: set-up, timed passes over the op set, checks, metrics.

A run sets the workload up `SETUP_REPS` times, half before and half after
the timed passes, so that ``setup_s`` (the median) samples the host at two
moments. An untraced run times one whole pass over the workload's fixed op
set and then keeps going through the (seeded, shuffled) op order until
``--seconds`` have gone by. A traced run alternates whole untraced and
traced passes, so the per-layer numbers and the tracing overhead come from
the same process. Checks run after the timed passes. Gated times are divided
by host factors from `calibration`; the raw times are reported next to them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import baoc.cli
import calibration
import checks
import spans
import workloads

# Per-plan wall-clock limit on `solve` and `sweep` ops. The slowest finishing
# ops seen took about 18 s; a runaway branch-and-bound runs for minutes.
PLAN_LIMIT_S = 30.0
SETUP_REPS = {"ingest": 4, "solve": 20, "sweep": 20}
# Host-speed kernel samples are taken between ops at least this often.
SAMPLE_EVERY_S = 0.5

END_TO_END_UNITS = {
    "plan_s_p50": "s",
    "plan_s_p90": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "trace.read_s": "s",
    "trace.records": "count",
    "trace.floats": "count",
    "trace.mfloats_per_s": "Mfloat/s",
    "trace.write_s": "s",
    "trace.bytes": "B",
    "simulator.generate_s": "s",
    "diagnostics.update_s": "s",
    "diagnostics.update_calls": "count",
    "diagnostics.update_ns_per_sample": "ns",
    "diagnostics.snapshot_s": "s",
    "risk.signals_s": "s",
    "partitioner.partition_s": "s",
    "partitioner.compute_tau_s": "s",
    "partitioner.units_in": "count",
    "partitioner.blocks_out": "count",
    "allocator.build_problem_s": "s",
    "allocator.candidates": "count",
    "allocator.solve_s": "s",
    "allocator.solve_calls": "count",
    "allocator.nodes_explored": "count",
    "allocator.solve_timeouts": "count",
    "allocator.verify_s": "s",
    "pipeline.collect_metrics_self_s": "s",
    "pipeline.run_allocation_self_s": "s",
    "pipeline.render_s": "s",
    "cli.partition_self_s": "s",
    "cli.allocate_self_s": "s",
    "bench.op_traced_s": "s",
    "bench.op_untraced_s": "s",
    "bench.trace_overhead_s": "s",
}

# Per-layer time metric -> span name whose self time it reports.
_SELF_TIME_OF = {
    "trace.read_s": "trace.read",
    "diagnostics.update_s": "diagnostics.update",
    "diagnostics.snapshot_s": "diagnostics.snapshot",
    "risk.signals_s": "risk.signals",
    "partitioner.partition_s": "partitioner.partition",
    "partitioner.compute_tau_s": "partitioner.compute_tau",
    "allocator.build_problem_s": "allocator.build_problem",
    "allocator.solve_s": "allocator.solve",
    "pipeline.collect_metrics_self_s": "pipeline.collect_metrics",
    "pipeline.run_allocation_self_s": "pipeline.run_allocation",
    "pipeline.render_s": "pipeline.render",
    "cli.partition_self_s": "cli.partition",
    "cli.allocate_self_s": "cli.allocate",
}
# Per-layer count metric -> "<span name>.<count key>".
_COUNT_OF = {
    "trace.records": "trace.read.records",
    "trace.floats": "trace.read.floats",
    "diagnostics.update_calls": "diagnostics.update.calls",
    "partitioner.units_in": "partitioner.partition.units_in",
    "partitioner.blocks_out": "partitioner.partition.blocks_out",
    "allocator.candidates": "allocator.build_problem.candidates",
    "allocator.solve_calls": "allocator.solve.calls",
    "allocator.nodes_explored": "allocator.solve.nodes",
}


class OpTimeout(Exception):
    """The op ran past the per-plan wall-clock limit."""


@contextlib.contextmanager
def time_limit(seconds: float | None) -> Iterator[None]:
    """Raise OpTimeout inside the block once `seconds` of wall time pass.

    SIGALRM interrupts pure-Python code such as `solve_exact`'s search
    between bytecodes; `None` sets no limit.
    """
    if seconds is None:
        yield
        return

    def on_alarm(signum, frame):
        raise OpTimeout(f"op exceeded the {seconds:g} s plan limit")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class OpRecord:
    index: int  # position in the op set
    start: float
    seconds: float
    traced: bool
    error: str | None = None
    timed_out: bool = False
    digest: str | None = None  # sha256 of the plan bytes
    # Kept for the first successful op of each index only, so memory does not
    # grow with the number of passes.
    problem: object = None
    plan: bytes | None = None


# ---- workloads ----------------------------------------------------------------------------


class IngestWorkload:
    """One op: `baoc partition` then `baoc allocate --blocks` on the simulated trace."""

    limit = None
    # Most of an op is allocation-bound `DiagnosticsState.update`, which the
    # interpreter-bound kernel does not track, so ingest op times stay raw.
    calibrated = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.blocks_out = workdir / "blocks.json"
        self.plan_out = workdir / "plan.json"

    def setup(self) -> None:
        self.inputs = workloads.setup_ingest(self.seed, self.workdir)

    def ops(self) -> list[Callable[[], object]]:
        return [lambda: workloads.ingest_op(self.inputs, self.blocks_out, self.plan_out)]

    def harvest(self, index: int, value: object) -> tuple[object, bytes]:
        return None, self.plan_out.read_bytes()

    def references(self, records: list[OpRecord]) -> dict[int, tuple[object, bytes]]:
        """One more allocate, untimed, that also dumps the problem document."""
        problem_doc, plan = self.workdir / "problem.json", self.workdir / "reference-plan.json"
        code = baoc.cli.dispatch(
            [
                "allocate", "--trace", str(self.inputs.trace), "--blocks", str(self.blocks_out),
                "--out", str(plan), "--dump-problem", str(problem_doc), "--quiet",
            ]
        )
        if code != 0:
            return {}
        problem = baoc.problem_from_json_dict(json.loads(problem_doc.read_text(encoding="utf-8")))
        return {0: (problem, plan.read_bytes())}

    def descriptor(self) -> dict:
        with open(self.inputs.trace, "r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        specs = [baoc.BlockSpec.from_json_dict(b) for b in header["blocks"]]
        return checks.trace_descriptor(specs, workloads.STEPS, self.inputs.trace.stat().st_size)


class SolverWorkload:
    """Ops that call build_problem, solve_exact and the plan serializer directly."""

    limit = PLAN_LIMIT_S
    calibrated = True

    def __init__(self, kind: str, seed: int):
        self.make = workloads.setup_solve if kind == "solve" else workloads.setup_sweep
        self.seed = seed

    def setup(self) -> None:
        self.specs = self.make(self.seed)

    def ops(self) -> list[Callable[[], object]]:
        return [lambda s=s: workloads.solve_op(s) for s in self.specs]

    def harvest(self, index: int, value: object) -> tuple[object, bytes]:
        return value.problem, value.plan

    def references(self, records: list[OpRecord]) -> dict[int, tuple[object, bytes]]:
        """The first successful plan of each op in the set."""
        return {r.index: (r.problem, r.plan) for r in records if r.plan is not None}

    def descriptor(self) -> dict:
        return {"ops_per_pass": len(self.specs)}


def make_workload(name: str, seed: int, workdir: Path):
    if name == "ingest":
        return IngestWorkload(seed, workdir)
    return SolverWorkload(name, seed)


# ---- the run ------------------------------------------------------------------------------


def run_op(op: Callable[[], object], index: int, workload, traced: bool) -> OpRecord:
    t0 = time.perf_counter()
    try:
        with time_limit(workload.limit):
            value = op()
        seconds = time.perf_counter() - t0
    except OpTimeout as exc:
        return OpRecord(index, t0, workload.limit, traced, error=str(exc), timed_out=True)
    except Exception as exc:  # a failed op is counted, and the run goes on
        return OpRecord(index, t0, time.perf_counter() - t0, traced, error=f"{type(exc).__name__}: {exc}")
    problem, plan = workload.harvest(index, value)
    return OpRecord(index, t0, seconds, traced, digest=hashlib.sha256(plan).hexdigest(), problem=problem, plan=plan)


def timed_passes(
    workload, seconds: float, recorder: spans.Recorder | None, host: calibration.HostClock
) -> list[OpRecord]:
    """Ops in op-set order, cycling, until `seconds` elapse; at least one pass.

    With a recorder, whole passes alternate untraced and traced, and the run
    ends after a traced pass. Host kernels are sampled before the first op,
    between ops at least every `SAMPLE_EVERY_S`, and after the last op.
    """
    ops = workload.ops()
    records: list[OpRecord] = []
    kept: set[int] = set()
    host.sample()
    start = time.perf_counter()
    pass_no = 0
    while True:
        trace_this = recorder is not None and pass_no % 2 == 1
        with spans.traced(recorder) if trace_this else contextlib.nullcontext():
            for index, op in enumerate(ops):
                if pass_no and recorder is None and time.perf_counter() - start >= seconds:
                    host.sample()
                    return records
                with recorder.span("bench.op") if trace_this else contextlib.nullcontext():
                    record = run_op(op, index, workload, trace_this)
                if time.perf_counter() - host.times[-1] >= SAMPLE_EVERY_S:
                    host.sample()
                if record.error is None and index in kept:
                    record.problem = record.plan = None
                elif record.error is None:
                    kept.add(index)
                records.append(record)
        pass_no += 1
        if time.perf_counter() - start >= seconds and (recorder is None or pass_no % 2 == 0):
            host.sample()
            return records


@dataclass
class Verdict:
    failed: list[bool]
    summary: checks.CheckSummary
    sha256: str
    nondeterministic: int
    references: dict

    @property
    def correct(self) -> bool:
        return bool(self.references) and self.summary.failed == 0 and self.nondeterministic == 0


def check_records(workload, records: list[OpRecord]) -> Verdict:
    """Check each op set member's reference plan once; every op must repeat its bytes."""
    refs = workload.references(records)
    verdicts, summary = checks.check_problems(list(refs.values()))
    good = {i for i, ok in zip(refs, verdicts) if ok}
    digests = {i: hashlib.sha256(plan).hexdigest() for i, (_, plan) in refs.items()}
    failed = []
    nondeterministic = 0
    for r in records:
        same = r.digest is not None and r.digest == digests.get(r.index)
        nondeterministic += r.error is None and not same
        failed.append(r.error is not None or not same or r.index not in good)
    sha = checks.plans_sha256([plan for _, plan in refs.values()])
    return Verdict(failed, summary, sha, nondeterministic, refs)


@dataclass
class RunOutcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    report: list[str] = field(default_factory=list)


def run(name: str, seed: int, seconds: float, traced: bool, root: Path) -> RunOutcome:
    """One run in a scratch directory under the checkout, removed afterwards."""
    runs_dir = root / ".perfbench_runs"
    workdir = runs_dir / f"{name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(name, seed, seconds, traced, workdir, runs_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name: str, seed: int, seconds: float, traced: bool, workdir: Path, runs_dir: Path) -> RunOutcome:
    workload = make_workload(name, seed, workdir)
    host = calibration.HostClock()
    setup_recorder = spans.Recorder()
    setups: list[tuple[float, float]] = []  # (start, seconds) of each set-up

    def set_up(reps: int) -> None:
        host.sample()
        with spans.traced(setup_recorder) if traced else contextlib.nullcontext():
            for _ in range(reps):
                t0 = time.perf_counter()
                workload.setup()
                setups.append((t0, time.perf_counter() - t0))
                host.sample()

    set_up(SETUP_REPS[name] // 2)
    recorder = spans.Recorder() if traced else None
    records = timed_passes(workload, seconds, recorder, host)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    set_up(SETUP_REPS[name] - SETUP_REPS[name] // 2)

    verdict = check_records(workload, records)
    untraced = [(r, f) for r, f in zip(records, verdict.failed) if not r.traced]
    op_times = [r.seconds for r, _ in untraced]
    op_factors = [host.factor(r.start, r.start + r.seconds) if workload.calibrated else 1.0 for r, _ in untraced]
    op_cal = [t / f for t, f in zip(op_times, op_factors)]
    setup_times = [s for _, s in setups]
    setup_factors = [host.factor(t0, t0 + s) for t0, s in setups]
    ok = sum(1 for _, f in untraced if not f)
    p90 = float(np.quantile(op_cal, 0.9))
    n_failed = sum(verdict.failed)

    descriptor = workload.descriptor()
    if verdict.references:
        problems, plans = zip(*verdict.references.values())
        descriptor.update(checks.problem_descriptor(problems, plans))
    report = [f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(traced)}"]
    report += [f"descriptor {key} = {value}" for key, value in descriptor.items()]
    report += [
        f"untraced ops {len(op_times)}, {sum(1 for t in op_cal if t > p90)} beyond p90",
        f"host factor (median over ops) {statistics.median(op_factors):.4g}; "
        f"raw op seconds p50 {statistics.median(op_times):.6g} p90 {float(np.quantile(op_times, 0.9)):.6g} "
        f"max {max(op_times):.6g}",
        f"host factor (median over set-ups) {statistics.median(setup_factors):.4g}; "
        f"raw setup seconds median {statistics.median(setup_times):.6g}",
        # Printed, not gated: on `sweep` one or two branch-and-bound runaways
        # set most of a pass's wall time, so it spreads widely between seeds.
        f"plans_per_s {ok / sum(op_times):.6g} 1/s (untraced plans that passed every check, per second of op time)",
        f"fail_ratio {n_failed / len(records):.4g} ({n_failed} of {len(records)} ops)",
        f"checks: {verdict.summary.plans} reference plan(s), {verdict.summary.failed} failed, "
        f"{verdict.summary.unchecked} unchecked, {verdict.nondeterministic} op(s) with differing plan bytes; "
        f"oracle {verdict.summary.oracle_s:.3g} s",
        f"plan bytes sha256 {verdict.sha256}",
    ]
    report += [f"error: {r.error}" for r in records if r.error][:10]
    report += [f"check: {m}" for m in verdict.summary.messages[:10]]

    if not traced:
        metrics = {
            "plan_s_p50": statistics.median(op_cal),
            "plan_s_p90": p90,
            "ok_ratio": ok / len(op_times),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(s / f for s, f in zip(setup_times, setup_factors)),
        }
        report += [f"metric {k} = {v:.6g} {END_TO_END_UNITS[k]}" for k, v in metrics.items()]
        return RunOutcome(verdict.correct, len(records), n_failed, metrics, report)

    metrics = layer_metrics(
        recorder.spans,
        setup_recorder.spans,
        traced_ops=sum(1 for r in records if r.traced),
        setup_reps=SETUP_REPS[name],
        trace_bytes=float(descriptor.get("trace_bytes", 0)),
        timeouts=sum(1 for r in records if r.traced and r.timed_out),
        verify_s_per_plan=verdict.summary.verify_s / max(verdict.summary.plans, 1),
        untraced_s=op_times,
        traced_s=[r.seconds for r in records if r.traced],
    )
    recorder.write(runs_dir / f"spans-{name}-seed{seed}.jsonl")
    op_s = metrics["bench.op_traced_s"]
    for k, v in metrics.items():
        share = f"  ({v / op_s:.1%} of a traced op)" if k in _SELF_TIME_OF and op_s else ""
        report.append(f"layer {k} = {v:.6g} {PER_LAYER_UNITS[k]}{share}")
    return RunOutcome(verdict.correct, len(records), n_failed, metrics, report)


def layer_metrics(
    op_spans: list[list],
    setups: list[list],
    traced_ops: int,
    setup_reps: int,
    trace_bytes: float,
    timeouts: int,
    verify_s_per_plan: float,
    untraced_s: list[float],
    traced_s: list[float],
) -> dict[str, float]:
    """Per-layer numbers: times are self seconds per op, counts are per op."""
    own = spans.self_times(op_spans)
    counts = spans.count_totals(op_spans)
    setup_own = spans.self_times(setups)
    per_op = max(traced_ops, 1)
    out: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        if name in _SELF_TIME_OF:
            out[name] = own.get(_SELF_TIME_OF[name], 0.0) / per_op
        elif name in _COUNT_OF:
            out[name] = counts.get(_COUNT_OF[name], 0.0) / per_op
    read_s = own.get("trace.read", 0.0)
    update_s = own.get("diagnostics.update", 0.0)
    samples = counts.get("diagnostics.update.samples", 0.0)
    out["trace.mfloats_per_s"] = counts.get("trace.read.floats", 0.0) / read_s / 1e6 if read_s else 0.0
    out["trace.write_s"] = setup_own.get("trace.write", 0.0) / setup_reps
    out["trace.bytes"] = trace_bytes
    out["simulator.generate_s"] = setup_own.get("simulator.generate", 0.0) / setup_reps
    out["diagnostics.update_ns_per_sample"] = update_s / samples * 1e9 if samples else 0.0
    out["allocator.solve_timeouts"] = timeouts / per_op
    out["allocator.verify_s"] = verify_s_per_plan
    out["bench.op_traced_s"] = statistics.fmean(traced_s) if traced_s else 0.0
    out["bench.op_untraced_s"] = statistics.fmean(untraced_s) if untraced_s else 0.0
    out["bench.trace_overhead_s"] = out["bench.op_traced_s"] - out["bench.op_untraced_s"]
    return {name: out[name] for name in PER_LAYER_UNITS}
