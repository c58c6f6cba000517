"""Correctness checks and workload descriptors, all outside the timed region.

Every plan must pass `baoc.verify` after a JSON round-trip, and its objective
must match an independent optimum within `OBJECTIVE_TOLERANCE`: the
repository's brute-force oracle where the instance is small enough, otherwise
a `scipy.optimize.milp` (HiGHS) solve with a zero relative gap. An oracle
answer whose own assignment breaks the exact-integer memory check is
*unchecked*, not a failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import baoc
from baoc.allocator import TIME_SLACK

OBJECTIVE_TOLERANCE = 1e-9
BRUTEFORCE_LIMIT = 1_000_000
# A budget binds in a plan when the plan's total is within this share of it.
BINDING_SHARE = 0.01


@dataclass
class OracleAnswer:
    objective: float | None  # None: the oracle found no feasible assignment
    source: str
    trusted: bool = True  # False when the oracle's own assignment breaks a budget


@dataclass
class PlanCheck:
    ok: bool
    checked: bool
    messages: list[str] = field(default_factory=list)


def _totals(problem, choice: dict) -> tuple[float, int, float]:
    """Objective, exact memory and mean time ratio of an assignment, in block order."""
    objective, mem, ratio = 0.0, 0, 0.0
    for i, block in enumerate(problem.blocks):
        cand = next(c for c in problem.candidates[i] if c.config == choice[block.id])
        objective += cand.phi
        mem += cand.mem_bytes
        ratio += cand.time_ratio
    return objective, mem, ratio / len(problem.blocks)


@contextlib.contextmanager
def _native_stdout_silenced():
    """HiGHS prints some progress lines straight to file descriptor 1."""
    sys.stdout.flush()
    saved = os.dup(1)
    with open(os.devnull, "w") as null:
        os.dup2(null.fileno(), 1)
    try:
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def milp_oracle(problem) -> OracleAnswer:
    """Multiple-choice knapsack as a 0/1 program solved by HiGHS, gap 0."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(problem.blocks)
    cols = [(i, cand) for i in range(n) for _, cand in problem.usable(i)]
    one_each = np.zeros((n, len(cols)))
    for k, (i, _) in enumerate(cols):
        one_each[i, k] = 1.0
    # The memory row is scaled by the budget so HiGHS's tolerances act on a
    # row of order 1; the exact integer total is re-checked below.
    mem_row = np.array([c.mem_bytes for _, c in cols], dtype=np.float64) / max(problem.mem_budget, 1)
    time_row = np.array([c.time_ratio for _, c in cols], dtype=np.float64) / n
    with _native_stdout_silenced():
        res = milp(
            c=np.array([c.phi for _, c in cols]),
            constraints=[
                LinearConstraint(one_each, 1, 1),
                LinearConstraint(mem_row[None, :], -np.inf, problem.mem_budget / max(problem.mem_budget, 1)),
                LinearConstraint(time_row[None, :], -np.inf, problem.time_budget + TIME_SLACK),
            ],
            integrality=np.ones(len(cols)),
            bounds=Bounds(0, 1),
            options={"mip_rel_gap": 0.0},
        )
    if res.status != 0 or res.x is None:
        return OracleAnswer(None, "milp")
    choice = {}
    for i in range(n):
        picks = [k for k, (bi, _) in enumerate(cols) if bi == i]
        best = max(picks, key=lambda k: res.x[k])
        choice[problem.blocks[i].id] = cols[best][1].config
    objective, mem, mean_ratio = _totals(problem, choice)
    trusted = mem <= problem.mem_budget and mean_ratio <= problem.time_budget + TIME_SLACK
    return OracleAnswer(objective, "milp", trusted)


def oracle(problem) -> OracleAnswer:
    sizes = [len(problem.usable(i)) for i in range(len(problem.blocks))]
    if math.prod(sizes) <= BRUTEFORCE_LIMIT:
        sol = baoc.solve_bruteforce(problem, max_assignments=BRUTEFORCE_LIMIT)
        if not sol.is_optimal:
            return OracleAnswer(None, "bruteforce")
        return OracleAnswer(sol.objective, "bruteforce")
    return milp_oracle(problem)


def check_plan(problem, plan: bytes, answer: OracleAnswer) -> PlanCheck:
    """`verify` on the serialized plan, then the objective against the oracle."""
    doc = json.loads(plan)
    report = baoc.verify(problem, baoc.solution_from_plan_dict(doc))
    messages = [f"verify: {v.kind}: {v.message}" for v in report.violations]
    if doc["B_mem"] != problem.mem_budget or doc["B_time"] != problem.time_budget:
        messages.append("plan budgets differ from the problem's")
    if answer.objective is None:
        messages.append(f"{answer.source} oracle finds no feasible assignment, but a plan was emitted")
        return PlanCheck(False, True, messages)
    if not answer.trusted:
        return PlanCheck(not messages, False, messages)
    gap = float(doc["objective"]) - answer.objective
    if abs(gap) > OBJECTIVE_TOLERANCE:
        messages.append(
            f"objective {doc['objective']!r} differs from the {answer.source} oracle's {answer.objective!r} by {gap:.3g}"
        )
    return PlanCheck(not messages, True, messages)


@dataclass
class CheckSummary:
    plans: int = 0
    failed: int = 0
    unchecked: int = 0
    oracle_s: float = 0.0
    verify_s: float = 0.0
    messages: list[str] = field(default_factory=list)


def check_problems(pairs) -> tuple[list[bool], CheckSummary]:
    """Check each (problem, plan bytes) pair; returns one verdict per pair."""
    summary = CheckSummary()
    verdicts = []
    for problem, plan in pairs:
        t0 = time.perf_counter()
        answer = oracle(problem)
        t1 = time.perf_counter()
        result = check_plan(problem, plan, answer)
        summary.oracle_s += t1 - t0
        summary.verify_s += time.perf_counter() - t1
        summary.plans += 1
        summary.unchecked += not result.checked
        summary.failed += not result.ok
        summary.messages.extend(result.messages)
        verdicts.append(result.ok)
    return verdicts, summary


def plans_sha256(plans: list[bytes]) -> str:
    digest = hashlib.sha256()
    for plan in plans:
        digest.update(plan)
    return digest.hexdigest()


# ---- descriptors -----------------------------------------------------------------------------


def binding(plan: bytes) -> str:
    """Which budget a plan's totals sit against: memory, time, both or none."""
    doc = json.loads(plan)
    mem = doc["total_mem"] >= (1.0 - BINDING_SHARE) * doc["B_mem"]
    tim = doc["mean_time_ratio"] >= (1.0 - BINDING_SHARE) * doc["B_time"]
    return {(True, True): "both", (True, False): "memory", (False, True): "time"}.get((mem, tim), "none")


def problem_descriptor(problems, plans: list[bytes]) -> dict:
    sizes = [len(p.blocks) for p in problems]
    cands = [len(c) for p in problems for c in p.candidates]
    binds: dict[str, int] = {}
    for plan in plans:
        key = binding(plan)
        binds[key] = binds.get(key, 0) + 1
    return {
        "problems": len(problems),
        "blocks": sorted(set(sizes)),
        "candidates_per_block": [min(cands), max(cands)],
        "mem_budgets_bytes": [min(p.mem_budget for p in problems), max(p.mem_budget for p in problems)],
        "time_budgets": sorted({p.time_budget for p in problems}),
        "binding_budget": dict(sorted(binds.items())),
    }


def grid_cells(spec) -> int:
    """Cells of the occupied-rows x occupied-columns grid of a matrix block's samples."""
    rows, cols = spec.shape.dims[-2], spec.shape.dims[-1]
    within = np.asarray(spec.sample_indices, dtype=np.int64) % (rows * cols)
    return len(np.unique(within // cols)) * len(np.unique(within % cols))


def trace_descriptor(specs, steps: int, trace_bytes: int) -> dict:
    matrices = [s for s in specs if len(s.shape.dims) >= 2]
    matrix_samples = sum(s.sample_size for s in matrices)
    return {
        "units": len(specs),
        "sampled_floats_per_step": sum(s.sample_size for s in specs),
        "steps": steps,
        "trace_bytes": trace_bytes,
        "grid_cells_per_sampled_coordinate": round(sum(grid_cells(s) for s in matrices) / matrix_samples, 1),
    }
