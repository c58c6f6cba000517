"""End-to-end flow: consume a warmup trace, diagnose, allocate, emit a plan.

The pipeline never executes training steps; it reads pre-recorded sampled
traces, folds them into per-block diagnostics, snapshots the metrics at the
end of the trace, builds the allocation problem, solves it exactly, and
renders the plan document. Everything is deterministic for a fixed trace and
configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .allocator import (
    AllocationProblem,
    AllocationSolution,
    ProblemBlock,
    build_problem,
    plan_to_json_dict,
    solve_exact,
)
from .config_space import CostModel
from .diagnostics import DiagnosticsState, RawMetrics
from .partitioner import block_name
from .risk import Anchors, RiskSignals, RiskWeights, signals_from_metrics
from .trace import BlockSpec, StepRecord, read_trace


class AllocationInfeasibleError(RuntimeError):
    """The budgets admit no assignment; carries the solver's solution."""

    def __init__(self, message: str, solution: AllocationSolution, problem: AllocationProblem):
        super().__init__(message)
        self.solution = solution
        self.problem = problem


@dataclass(frozen=True)
class RunConfig:
    """Inputs of one allocation run."""

    budget_ratio: float = 0.5
    time_budget: float = 1.3
    gamma: float = 0.1
    anchors: Anchors = Anchors()
    weights: RiskWeights = RiskWeights()
    warmup_steps: int | None = None
    cost_model: CostModel | None = None
    exclude: tuple[str, ...] = ()
    prefer: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.budget_ratio > 0:
            raise ValueError(f"budget ratio must be positive, got {self.budget_ratio}")
        if self.warmup_steps is not None and self.warmup_steps < 2:
            raise ValueError("warmup needs at least 2 steps for direction stability")


@dataclass(frozen=True)
class RunResult:
    problem: AllocationProblem
    solution: AllocationSolution
    plan: dict
    metrics: Mapping[int, RawMetrics]  # every traced unit's, given or diagnosed


def collect_metrics(
    specs: Sequence[BlockSpec],
    records: Iterable[StepRecord],
    max_steps: int | None = None,
) -> dict[int, RawMetrics]:
    """Fold the first `max_steps` records (all of them when None) into one
    `DiagnosticsState` per spec and snapshot each, with a precision cosine
    for every bit-width of the candidate grid.

    The EMA decay rates are the constants of `baoc.diagnostics`. A gradient
    for a block not in `specs`, a trace with no records and a spec that no
    record gives a gradient raise ValueError.
    """
    states = {s.id: DiagnosticsState(s) for s in specs}
    consumed = 0
    for record in records:
        for block_id, grad in record.grads.items():
            if block_id not in states:
                raise ValueError(f"trace step {record.step}: gradient for unknown block {block_id}")
            params = record.params.get(block_id) if record.params else None
            states[block_id].update(grad, params)
        consumed += 1
        if max_steps is not None and consumed >= max_steps:
            break
    if consumed == 0:
        raise ValueError("empty trace: no step records to diagnose")
    return {block_id: state.snapshot() for block_id, state in states.items()}


def _merged_signals(
    members: Sequence[BlockSpec], per_unit: Mapping[int, RiskSignals]
) -> RiskSignals:
    sizes = np.array([m.shape.param_count for m in members], dtype=np.float64)
    sizes /= sizes.sum()
    sigs = [per_unit[m.id] for m in members]
    bit_keys = set(sigs[0].precision)
    for s in sigs[1:]:
        bit_keys &= set(s.precision)
    return RiskSignals(
        geometry=float(sum(w * s.geometry for w, s in zip(sizes, sigs))),
        momentum=float(sum(w * s.momentum for w, s in zip(sizes, sigs))),
        distortion=float(sum(w * s.distortion for w, s in zip(sizes, sigs))),
        structure=float(sum(w * s.structure for w, s in zip(sizes, sigs))),
        precision={
            b: float(sum(w * s.precision[b] for w, s in zip(sizes, sigs))) for b in bit_keys
        },
    )


def group_blocks(
    specs: Sequence[BlockSpec],
    signals: Mapping[int, RiskSignals],
    groups: Sequence[Sequence[int]],
) -> tuple[list[ProblemBlock], dict[int, RiskSignals]]:
    """Merge traced units into allocation blocks following a partition.

    Every spec id must appear in exactly one group; merged signals are
    parameter-weighted means of the member signals.
    """
    by_id = {s.id: s for s in specs}
    seen: set[int] = set()
    blocks: list[ProblemBlock] = []
    merged: dict[int, RiskSignals] = {}
    for gi, unit_ids in enumerate(groups):
        members = []
        for uid in unit_ids:
            if uid not in by_id:
                raise ValueError(f"group {gi} names unknown block {uid}")
            if uid in seen:
                raise ValueError(f"block {uid} appears in more than one group")
            seen.add(uid)
            members.append(by_id[uid])
        if not members:
            raise ValueError(f"group {gi} is empty")
        name = block_name([m.name for m in members])
        blocks.append(ProblemBlock(id=gi, name=name, shapes=tuple(m.shape for m in members)))
        merged[gi] = _merged_signals(members, signals)
    leftover = set(by_id) - seen
    if leftover:
        raise ValueError(f"blocks {sorted(leftover)} are not covered by any group")
    return blocks, merged


def render_plan(problem: AllocationProblem, solution: AllocationSolution) -> dict:
    return plan_to_json_dict(problem, solution)


def _json_leaf(value: object) -> str:
    """`value` as `json.dumps` writes a bool, float (numpy float64 included),
    int, str or None: strings ASCII-escaped, non-finite floats as Infinity,
    -Infinity and NaN."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    raise TypeError(f"plan value of type {type(value).__name__} is not a JSON leaf")


def _schema_error(d: object, keys: frozenset[str], what: str) -> ValueError:
    """The error for `d`, which is not an object with exactly `keys`."""
    if not isinstance(d, dict):
        return ValueError(f"{what} is not an object")
    extra = sorted(map(repr, d.keys() - keys))
    if extra:
        return ValueError(f"{what} has key {extra[0]}, which the plan schema lacks")
    return ValueError(f"{what} lacks key {sorted(keys - d.keys())[0]!r}")


def plan_bytes(plan: dict) -> bytes:
    """The plan document of `plan_to_json_dict` as UTF-8 bytes: exactly
    `json.dumps(plan, sort_keys=True, indent=2) + "\n"`, written field by
    field in sorted key order without json's pure-Python indenting encoder.

    A plan, block row or block config whose keys differ from the schema
    raises ValueError naming the key, so a new field cannot be dropped
    silently.
    """
    plan_keys = frozenset(("B_mem", "B_time", "blocks", "mean_time_ratio", "objective", "status", "total_mem"))
    if not isinstance(plan, dict) or plan.keys() != plan_keys:
        raise _schema_error(plan, plan_keys, "plan")
    row_keys = frozenset(("config", "id", "mem_bytes", "name", "phi", "time_ratio"))
    config_keys = frozenset(("adaptive", "bits", "decoupled_decay", "factorized", "momentum"))
    rows = []
    for i, row in enumerate(plan["blocks"]):
        if not isinstance(row, dict) or row.keys() != row_keys:
            raise _schema_error(row, row_keys, f"plan block {i}")
        config = row["config"]
        if not isinstance(config, dict) or config.keys() != config_keys:
            raise _schema_error(config, config_keys, f"plan block {i} config")
        rows.append(
            f"    {{\n"
            f'      "config": {{\n'
            f'        "adaptive": {_json_leaf(config["adaptive"])},\n'
            f'        "bits": {_json_leaf(config["bits"])},\n'
            f'        "decoupled_decay": {_json_leaf(config["decoupled_decay"])},\n'
            f'        "factorized": {_json_leaf(config["factorized"])},\n'
            f'        "momentum": {_json_leaf(config["momentum"])}\n'
            f"      }},\n"
            f'      "id": {_json_leaf(row["id"])},\n'
            f'      "mem_bytes": {_json_leaf(row["mem_bytes"])},\n'
            f'      "name": {_json_leaf(row["name"])},\n'
            f'      "phi": {_json_leaf(row["phi"])},\n'
            f'      "time_ratio": {_json_leaf(row["time_ratio"])}\n'
            f"    }}"
        )
    blocks = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return (
        f"{{\n"
        f'  "B_mem": {_json_leaf(plan["B_mem"])},\n'
        f'  "B_time": {_json_leaf(plan["B_time"])},\n'
        f'  "blocks": {blocks},\n'
        f'  "mean_time_ratio": {_json_leaf(plan["mean_time_ratio"])},\n'
        f'  "objective": {_json_leaf(plan["objective"])},\n'
        f'  "status": {_json_leaf(plan["status"])},\n'
        f'  "total_mem": {_json_leaf(plan["total_mem"])}\n'
        f"}}\n"
    ).encode("utf-8")


def run_allocation(
    config: RunConfig,
    trace_source: str | Path | tuple[Sequence[BlockSpec], Iterable[StepRecord]],
    groups: Sequence[Sequence[int]] | None = None,
    metrics: Mapping[int, RawMetrics] | None = None,
) -> RunResult:
    """Warmup-trace consumption, diagnostics, allocation, plan rendering.

    `metrics`, when given, are every traced unit's raw metrics, diagnosed
    over `config.warmup_steps` by `collect_metrics`: the trace records are
    then never read, and the plan is the one diagnosing them here would give.
    `config.exclude` is the one way to narrow the candidate grid.

    Raises AllocationInfeasibleError when the budgets admit no assignment;
    when the memory budget is below the cheapest assignment's memory, the
    message also gives that minimum as a budget ratio.
    """
    if isinstance(trace_source, (str, Path)):
        specs, records = read_trace(trace_source)
    else:
        specs, records = trace_source
        specs = list(specs)
    if not specs:
        raise ValueError("trace declares no blocks")

    if metrics is None:
        metrics = collect_metrics(specs, records, max_steps=config.warmup_steps)
    signals = {s.id: signals_from_metrics(metrics[s.id], config.anchors) for s in specs}

    if groups is not None:
        blocks, block_signals = group_blocks(specs, signals, groups)
    else:
        blocks, block_signals = list(specs), signals

    problem = build_problem(
        blocks,
        metrics,
        anchors=config.anchors,
        weights=config.weights,
        cost_model=config.cost_model,
        budget_ratio=config.budget_ratio,
        time_budget=config.time_budget,
        gamma=config.gamma,
        exclude=config.exclude,
        prefer=config.prefer,
        signals=block_signals,
    )
    solution = solve_exact(problem)
    if not solution.is_optimal:
        message = str(solution.infeasible_reason)
        min_mem = problem.min_feasible_mem()
        if min_mem > problem.mem_budget:
            message += f" (budget ratio {min_mem / max(problem.mem_budget / config.budget_ratio, 1e-300):.4g})"
        raise AllocationInfeasibleError(message, solution, problem)
    plan = render_plan(problem, solution)
    return RunResult(problem=problem, solution=solution, plan=plan, metrics=metrics)
