"""End-to-end flow: consume a warmup trace, diagnose, allocate, emit a plan.

The pipeline never executes training steps; it reads pre-recorded sampled
traces, folds them into per-block diagnostics, snapshots the metrics at the
end of the trace, builds the allocation problem, solves it exactly, and
renders the plan document. Everything is deterministic for a fixed trace and
configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
from .config_space import CandidatePolicy, CostModel, DEFAULT_POLICY
from .diagnostics import DEFAULT_BETAS, DiagnosticsState, RawMetrics
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
    policy: CandidatePolicy = DEFAULT_POLICY
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
    metrics_report: list[dict]
    problem: AllocationProblem
    solution: AllocationSolution
    plan: dict


def collect_metrics(
    specs: Sequence[BlockSpec],
    records: Iterable[StepRecord],
    bits: tuple[int, ...] = (32, 16, 8),
    betas: tuple[float, float, float] = DEFAULT_BETAS,
    max_steps: int | None = None,
) -> dict[int, RawMetrics]:
    """Stream records through per-block diagnostics; snapshot at the end."""
    states = {s.id: DiagnosticsState(s, betas=betas) for s in specs}
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
    return {block_id: state.snapshot(bits) for block_id, state in states.items()}


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


def plan_bytes(plan: dict) -> bytes:
    """Canonical plan serialization; identical inputs give identical bytes."""
    return (json.dumps(plan, sort_keys=True, indent=2) + "\n").encode("utf-8")


def run_allocation(
    config: RunConfig,
    trace_source: str | Path | tuple[Sequence[BlockSpec], Iterable[StepRecord]],
    groups: Sequence[Sequence[int]] | None = None,
) -> RunResult:
    """Warmup-trace consumption, diagnostics, allocation, plan rendering.

    Raises AllocationInfeasibleError when the budgets admit no assignment;
    when the memory budget is below the cheapest assignment's memory, the
    message also names the minimum feasible memory budget.
    """
    if isinstance(trace_source, (str, Path)):
        specs, records = read_trace(trace_source)
    else:
        specs, records = trace_source
        specs = list(specs)
    if not specs:
        raise ValueError("trace declares no blocks")

    bits = tuple(sorted(set(config.policy.bits) | {32}, reverse=True))
    metrics = collect_metrics(specs, records, bits=bits, max_steps=config.warmup_steps)
    metrics_report = [metrics[s.id].to_json_dict(s.id) for s in specs]
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
        policy=config.policy,
        exclude=config.exclude,
        prefer=config.prefer,
        signals=block_signals,
    )
    solution = solve_exact(problem)
    if not solution.is_optimal:
        message = str(solution.infeasible_reason)
        min_mem = problem.min_feasible_mem()
        if min_mem > problem.mem_budget:
            message += (
                f"; minimum feasible memory budget is {min_mem} bytes (budget ratio "
                f"{min_mem / max(problem.mem_budget / config.budget_ratio, 1e-300):.4g})"
            )
        raise AllocationInfeasibleError(message, solution, problem)
    plan = render_plan(problem, solution)
    return RunResult(metrics_report=metrics_report, problem=problem, solution=solution, plan=plan)
