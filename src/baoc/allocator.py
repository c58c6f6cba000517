"""Budget-constrained assignment of one configuration per block.

The problem: pick exactly one candidate configuration for every block so that
total state memory stays within an integer byte budget and the mean relative
update-time ratio stays within a time budget, minimizing the summed objective
terms. Memory is compared in exact integer arithmetic; objectives are floats
with a 1e-9 comparison slack.

Two solvers are provided. `solve_bruteforce` exhaustively enumerates small
instances and is the testing oracle. `solve_exact` runs depth-first branch
and bound over per-block choices, using a subgradient-optimized Lagrangian
relaxation of the two budget constraints for lower bounds; it proves
optimality or infeasibility on any instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config_space import (
    ADAMW16,
    BlockShape,
    CandidatePolicy,
    Configuration,
    CostModel,
    DEFAULT_POLICY,
    enumerate_candidates_multi,
    state_bytes,
)
from .diagnostics import RawMetrics
from .risk import Anchors, RiskSignals, RiskWeights, expand_selectors, phi, signals_from_metrics

OBJECTIVE_SLACK = 1e-9
TIME_SLACK = 1e-12
SUBGRADIENT_ITERATIONS = 200


class AllocationBuildError(ValueError):
    """The problem cannot be constructed as requested."""


@dataclass(frozen=True, slots=True)
class Candidate:
    """One admissible configuration for a block, with its cost row."""

    config: Configuration
    phi: float
    mem_bytes: int
    time_ratio: float

    def __post_init__(self) -> None:
        if self.mem_bytes < 0:
            raise ValueError("candidate memory must be non-negative")
        if not self.time_ratio > 0:
            raise ValueError("candidate time ratio must be positive")
        if not math.isfinite(self.phi):
            raise ValueError("candidate objective term must be finite")


@dataclass(frozen=True, slots=True)
class ProblemBlock:
    """Block descriptor; a block may cover several parameter tensors."""

    id: int
    name: str
    shapes: tuple[BlockShape, ...] = ()


@dataclass(frozen=True)
class AllocationProblem:
    blocks: tuple[ProblemBlock, ...]
    candidates: tuple[tuple[Candidate, ...], ...]
    mem_budget: int
    time_budget: float
    excluded: tuple[frozenset[Configuration], ...] = ()

    def __post_init__(self) -> None:
        if len(self.candidates) != len(self.blocks):
            raise ValueError("need one candidate list per block")
        excluded = self.excluded or tuple(frozenset() for _ in self.blocks)
        if len(excluded) != len(self.blocks):
            raise ValueError("need one exclusion set per block")
        object.__setattr__(self, "excluded", excluded)
        for block, cands, banned in zip(self.blocks, self.candidates, excluded):
            usable = [c for c in cands if c.config not in banned]
            if not usable:
                raise AllocationBuildError(f"block {block.id}: all candidates excluded")

    def usable(self, i: int) -> list[tuple[int, Candidate]]:
        """Non-excluded candidates of block i with their original indices."""
        banned = self.excluded[i]
        return [(j, c) for j, c in enumerate(self.candidates[i]) if c.config not in banned]

    def min_feasible_mem(self) -> int:
        return sum(min(c.mem_bytes for _, c in self.usable(i)) for i in range(len(self.blocks)))


@dataclass(frozen=True)
class AllocationSolution:
    status: str  # "optimal" or "infeasible"
    assignment: dict[int, Configuration]
    objective: float
    total_mem: int
    mean_time_ratio: float
    nodes_explored: int = 0
    infeasible_reason: str | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _infeasible(reason: str, nodes: int = 0) -> AllocationSolution:
    return AllocationSolution(
        status="infeasible",
        assignment={},
        objective=math.inf,
        total_mem=0,
        mean_time_ratio=math.inf,
        nodes_explored=nodes,
        infeasible_reason=reason,
    )


@dataclass(frozen=True)
class _Arrays:
    """Per-block numpy views over the usable candidates."""

    phis: list[np.ndarray]
    mems: list[np.ndarray]
    ratios: list[np.ndarray]
    orig_idx: list[np.ndarray]


def _usable_arrays(problem: AllocationProblem) -> _Arrays:
    phis, mems, ratios, orig = [], [], [], []
    for i in range(len(problem.blocks)):
        pairs = problem.usable(i)
        phis.append(np.array([c.phi for _, c in pairs], dtype=np.float64))
        mems.append(np.array([c.mem_bytes for _, c in pairs], dtype=np.int64))
        ratios.append(np.array([c.time_ratio for _, c in pairs], dtype=np.float64))
        orig.append(np.array([j for j, _ in pairs], dtype=np.int64))
    return _Arrays(phis, mems, ratios, orig)


def _solution_from_choice(problem: AllocationProblem, arrays: _Arrays, choice: Sequence[int], nodes: int) -> AllocationSolution:
    n = len(problem.blocks)
    assignment = {}
    objective = 0.0
    total_mem = 0
    total_r = 0.0
    for i, k in enumerate(choice):
        cand = problem.candidates[i][int(arrays.orig_idx[i][k])]
        assignment[problem.blocks[i].id] = cand.config
        objective += cand.phi
        total_mem += cand.mem_bytes
        total_r += cand.time_ratio
    return AllocationSolution(
        status="optimal",
        assignment=assignment,
        objective=objective,
        total_mem=total_mem,
        mean_time_ratio=total_r / n,
        nodes_explored=nodes,
    )


def solve_bruteforce(problem: AllocationProblem, max_assignments: int = 10**7) -> AllocationSolution:
    """Exhaustive oracle: feasible minimum of the summed objective.

    Ties within the 1e-9 slack break toward the lexicographically smallest
    assignment (by block order, then candidate index).
    """
    arrays = _usable_arrays(problem)
    n = len(problem.blocks)
    sizes = [len(p) for p in arrays.phis]
    total = math.prod(sizes)
    if total > max_assignments:
        raise ValueError(f"instance too large for brute force: {total} assignments > {max_assignments}")

    strides = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]

    mean_cap = problem.time_budget + TIME_SLACK
    chunk = 1 << 19

    def _chunk_stats(start: int, stop: int):
        flat = np.arange(start, stop, dtype=np.int64)
        obj = np.zeros(stop - start, dtype=np.float64)
        mem = np.zeros(stop - start, dtype=np.int64)
        ratio = np.zeros(stop - start, dtype=np.float64)
        for i in range(n):
            digit = (flat // strides[i]) % sizes[i]
            obj += arrays.phis[i][digit]
            mem += arrays.mems[i][digit]
            ratio += arrays.ratios[i][digit]
        feasible = (mem <= problem.mem_budget) & (ratio / n <= mean_cap)
        return obj, feasible

    best = math.inf
    any_feasible = False
    for start in range(0, total, chunk):
        obj, feasible = _chunk_stats(start, min(start + chunk, total))
        if feasible.any():
            any_feasible = True
            best = min(best, float(obj[feasible].min()))
    if not any_feasible:
        return _infeasible("no assignment satisfies both budgets", nodes=total)

    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        obj, feasible = _chunk_stats(start, stop)
        hits = np.flatnonzero(feasible & (obj <= best + OBJECTIVE_SLACK))
        if hits.size:
            flat = start + int(hits[0])
            choice = [(flat // int(strides[i])) % sizes[i] for i in range(n)]
            return _solution_from_choice(problem, arrays, choice, nodes=total)
    raise RuntimeError("unreachable: feasible minimum vanished between passes")


def _root_multipliers(arrays: _Arrays, mem_budget: int, time_budget: float) -> tuple[float, float, float, float]:
    """Subgradient ascent on the two budget multipliers (normalized scale).

    Returns (lam_mem, lam_time, mem_scale, time_scale); the resulting bound is
    valid for any multipliers, so tightness is best-effort only.
    """
    n = len(arrays.phis)
    mem_scale = max(1.0, float(mem_budget), float(max(int(m.max()) for m in arrays.mems)))
    time_finite = math.isfinite(time_budget)
    time_scale = max(1.0, time_budget) if time_finite else 1.0
    phi_lo = min(float(p.min()) for p in arrays.phis)
    phi_hi = max(float(p.max()) for p in arrays.phis)
    step0 = max(phi_hi - phi_lo, 1e-6)

    lam = np.zeros(2, dtype=np.float64)
    best_lam = lam.copy()
    best_bound = -math.inf
    norm_mems = [m.astype(np.float64) / mem_scale for m in arrays.mems]
    norm_ratios = [(r / n) / time_scale for r in arrays.ratios]
    mem_cap = mem_budget / mem_scale
    time_cap = (time_budget / time_scale) if time_finite else math.inf

    for k in range(1, SUBGRADIENT_ITERATIONS + 1):
        inner = 0.0
        used_mem = 0.0
        used_time = 0.0
        for i in range(n):
            cost = arrays.phis[i] + lam[0] * norm_mems[i] + lam[1] * norm_ratios[i]
            j = int(np.argmin(cost))
            inner += float(cost[j])
            used_mem += float(norm_mems[i][j])
            used_time += float(norm_ratios[i][j])
        bound = inner - lam[0] * mem_cap - (lam[1] * time_cap if time_finite else 0.0)
        if bound > best_bound:
            best_bound = bound
            best_lam = lam.copy()
        g = np.array(
            [used_mem - mem_cap, (used_time - time_cap) if time_finite else 0.0],
            dtype=np.float64,
        )
        lam = np.maximum(0.0, lam + (step0 / math.sqrt(k)) * g)
        if not time_finite:
            lam[1] = 0.0
    return float(best_lam[0]), float(best_lam[1]), mem_scale, time_scale


def solve_exact(problem: AllocationProblem) -> AllocationSolution:
    """Prove the feasible optimum (or infeasibility) by branch and bound.

    Matches `solve_bruteforce` objectives within 1e-9 on any instance both
    can solve; identical problems always produce identical solutions.
    """
    arrays = _usable_arrays(problem)
    n = len(problem.blocks)
    mem_budget = problem.mem_budget
    time_budget = problem.time_budget
    mean_cap = time_budget + TIME_SLACK

    suffix_min_mem = np.zeros(n + 1, dtype=np.int64)
    suffix_min_r = np.zeros(n + 1, dtype=np.float64)
    for i in range(n - 1, -1, -1):
        suffix_min_mem[i] = suffix_min_mem[i + 1] + int(arrays.mems[i].min())
        suffix_min_r[i] = suffix_min_r[i + 1] + float(arrays.ratios[i].min())

    if suffix_min_mem[0] > mem_budget:
        return _infeasible(
            f"memory budget {mem_budget} below minimum feasible {int(suffix_min_mem[0])} bytes"
        )
    if suffix_min_r[0] / n > mean_cap:
        return _infeasible(
            f"time budget {time_budget} below minimum feasible mean ratio {suffix_min_r[0] / n:.6g}"
        )

    lam_mem, lam_time, mem_scale, time_scale = _root_multipliers(arrays, mem_budget, time_budget)
    aug = [
        arrays.phis[i]
        + lam_mem * (arrays.mems[i].astype(np.float64) / mem_scale)
        + lam_time * ((arrays.ratios[i] / n) / time_scale)
        for i in range(n)
    ]
    suffix_min_aug = np.zeros(n + 1, dtype=np.float64)
    for i in range(n - 1, -1, -1):
        suffix_min_aug[i] = suffix_min_aug[i + 1] + float(aug[i].min())
    # The offset uses the slack-widened caps so any admitted-feasible leaf has
    # bound <= its true objective and can never prune itself away.
    lam_offset = lam_mem * (mem_budget / mem_scale) + (
        lam_time * (mean_cap / time_scale) if math.isfinite(time_budget) else 0.0
    )

    best_obj = math.inf
    best_choice: list[int] | None = None

    choice = [0] * n
    nodes = 0

    def descend(depth: int, fixed_phi: float, fixed_mem: int, fixed_r: float, fixed_aug: float) -> None:
        nonlocal best_obj, best_choice, nodes
        nodes += 1
        if fixed_mem + suffix_min_mem[depth] > mem_budget:
            return
        if (fixed_r + suffix_min_r[depth]) / n > mean_cap:
            return
        bound = fixed_aug + suffix_min_aug[depth] - lam_offset
        if bound >= best_obj - TIME_SLACK:
            return
        if depth == n:
            if fixed_phi < best_obj - TIME_SLACK:
                best_obj = fixed_phi
                best_choice = choice.copy()
            return
        order = np.argsort(aug[depth], kind="stable")
        for j in map(int, order):
            choice[depth] = j
            descend(
                depth + 1,
                fixed_phi + float(arrays.phis[depth][j]),
                fixed_mem + int(arrays.mems[depth][j]),
                fixed_r + float(arrays.ratios[depth][j]),
                fixed_aug + float(aug[depth][j]),
            )

    descend(0, 0.0, 0, 0.0, 0.0)

    if best_choice is None:
        return _infeasible("no assignment satisfies both budgets", nodes=nodes)
    solution = _solution_from_choice(problem, arrays, best_choice, nodes=nodes)
    # Guard against float drift between incremental and gathered sums.
    assert abs(solution.objective - best_obj) < 1e-6
    return solution


@dataclass(frozen=True, slots=True)
class Violation:
    kind: str
    message: str


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[Violation, ...]
    objective: float
    total_mem: int
    mean_time_ratio: float

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [{"kind": v.kind, "message": v.message} for v in self.violations],
            "objective": self.objective,
            "total_mem": self.total_mem,
            "mean_time_ratio": self.mean_time_ratio,
        }


def verify(problem: AllocationProblem, solution: AllocationSolution) -> VerificationReport:
    """Recompute totals from scratch and flag every violated contract."""
    violations: list[Violation] = []
    by_id = {b.id: i for i, b in enumerate(problem.blocks)}
    missing = set(by_id) - set(solution.assignment)
    extra = set(solution.assignment) - set(by_id)
    for block_id in sorted(missing):
        violations.append(Violation("coverage", f"block {block_id} has no assigned configuration"))
    for block_id in sorted(extra):
        violations.append(Violation("coverage", f"assignment names unknown block {block_id}"))

    objective = 0.0
    total_mem = 0
    total_r = 0.0
    counted = 0
    for block_id, config in sorted(solution.assignment.items()):
        if block_id not in by_id:
            continue
        i = by_id[block_id]
        if config in problem.excluded[i]:
            violations.append(
                Violation("exclusion", f"block {block_id} uses excluded configuration {config.family}:{config.state_bits}")
            )
            continue
        cand = next((c for c in problem.candidates[i] if c.config == config), None)
        if cand is None:
            violations.append(
                Violation(
                    "unknown-candidate",
                    f"block {block_id} uses {config.family}:{config.state_bits}, not a candidate of this problem",
                )
            )
            continue
        objective += cand.phi
        total_mem += cand.mem_bytes
        total_r += cand.time_ratio
        counted += 1

    mean_ratio = total_r / counted if counted else math.inf
    if counted == len(problem.blocks):
        if total_mem > problem.mem_budget:
            violations.append(
                Violation(
                    "memory",
                    f"total state memory {total_mem} exceeds budget {problem.mem_budget} "
                    f"by {total_mem - problem.mem_budget} bytes",
                )
            )
        if mean_ratio > problem.time_budget + TIME_SLACK:
            violations.append(
                Violation(
                    "time",
                    f"mean update-time ratio {mean_ratio:.6g} exceeds budget {problem.time_budget:.6g}",
                )
            )
        if solution.is_optimal and abs(solution.objective - objective) > 1e-6:
            violations.append(
                Violation(
                    "objective",
                    f"stored objective {solution.objective:.9g} does not match recomputed {objective:.9g}",
                )
            )
    return VerificationReport(
        ok=not violations,
        violations=tuple(violations),
        objective=objective,
        total_mem=total_mem,
        mean_time_ratio=mean_ratio,
    )


def build_problem(
    blocks: Sequence,
    metrics: Mapping[int, RawMetrics],
    anchors: Anchors = Anchors(),
    weights: RiskWeights = RiskWeights(),
    cost_model: CostModel | None = None,
    budget_ratio: float = 0.5,
    time_budget: float = 1.3,
    gamma: float = 0.1,
    policy: CandidatePolicy = DEFAULT_POLICY,
    exclude: Iterable[str] = (),
    prefer: Iterable[str] = (),
    signals: Mapping[int, RiskSignals] | None = None,
) -> AllocationProblem:
    """Assemble the allocation problem from block descriptors and metrics.

    The memory budget is `budget_ratio` times the AdamW16 state bytes of the
    whole block list, rounded to integer bytes. `exclude`/`prefer` take
    family[:bits] selectors; excluded configurations are removed from the
    candidate lists and recorded per block. `signals` may be passed directly
    to bypass metric normalization (block id -> RiskSignals).
    """
    if not blocks:
        raise AllocationBuildError("need at least one block")
    if not budget_ratio > 0:
        raise AllocationBuildError(f"budget ratio must be positive, got {budget_ratio}")
    cost_model = cost_model or CostModel.static_default(policy)

    descriptors: list[ProblemBlock] = []
    for b in blocks:
        if isinstance(b, ProblemBlock):
            descriptors.append(b)
        else:  # trace.BlockSpec
            descriptors.append(ProblemBlock(id=b.id, name=b.name, shapes=(b.shape,)))

    baseline = sum(state_bytes(ADAMW16, s) for d in descriptors for s in d.shapes)
    mem_budget = int(round(budget_ratio * baseline))

    per_block_candidates: list[tuple[Candidate, ...]] = []
    per_block_excluded: list[frozenset[Configuration]] = []
    for d in descriptors:
        grid = enumerate_candidates_multi(d.shapes, policy)
        if signals is not None:
            block_signals = signals[d.id]
        else:
            try:
                block_signals = signals_from_metrics(metrics[d.id], anchors)
            except KeyError:
                raise AllocationBuildError(f"no metrics available for block {d.id}") from None
        banned = expand_selectors(exclude, grid)
        preferred = expand_selectors(prefer, grid)
        block_weights = (
            RiskWeights(
                w_A=weights.w_A,
                w_M=weights.w_M,
                w_C=weights.w_C,
                w_F=weights.w_F,
                w_Q=weights.w_Q,
                pref_set=weights.pref_set | preferred,
                lambda_pref=weights.lambda_pref,
            )
            if preferred
            else weights
        )
        kept = []
        for cfg in grid:
            if cfg in banned:
                continue
            kept.append(
                Candidate(
                    config=cfg,
                    phi=phi(cfg, block_signals, block_weights, gamma),
                    mem_bytes=sum(state_bytes(cfg, s) for s in d.shapes),
                    time_ratio=cost_model.ratio(cfg),
                )
            )
        if not kept:
            raise AllocationBuildError(f"block {d.id}: all candidates excluded")
        per_block_candidates.append(tuple(kept))
        per_block_excluded.append(banned)

    return AllocationProblem(
        blocks=tuple(descriptors),
        candidates=tuple(per_block_candidates),
        mem_budget=mem_budget,
        time_budget=time_budget,
        excluded=tuple(per_block_excluded),
    )


def problem_to_json_dict(problem: AllocationProblem) -> dict:
    return {
        "B_mem": problem.mem_budget,
        "B_time": problem.time_budget,
        "blocks": [
            {
                "id": b.id,
                "name": b.name,
                "dims_list": [list(s.dims) for s in b.shapes],
                "candidates": [
                    {
                        "config": c.config.to_json_dict(),
                        "phi": c.phi,
                        "mem_bytes": c.mem_bytes,
                        "time_ratio": c.time_ratio,
                    }
                    for c in cands
                ],
                "excluded": [c.to_json_dict() for c in sorted(banned, key=Configuration.sort_key)],
            }
            for b, cands, banned in zip(problem.blocks, problem.candidates, problem.excluded)
        ],
    }


def problem_from_json_dict(d: dict) -> AllocationProblem:
    blocks = []
    candidates = []
    excluded = []
    for entry in d["blocks"]:
        blocks.append(
            ProblemBlock(
                id=int(entry["id"]),
                name=str(entry.get("name", f"block{entry['id']}")),
                shapes=tuple(BlockShape(tuple(int(x) for x in dims)) for dims in entry.get("dims_list", [])),
            )
        )
        candidates.append(
            tuple(
                Candidate(
                    config=Configuration.from_json_dict(c["config"]),
                    phi=float(c["phi"]),
                    mem_bytes=int(c["mem_bytes"]),
                    time_ratio=float(c["time_ratio"]),
                )
                for c in entry["candidates"]
            )
        )
        excluded.append(frozenset(Configuration.from_json_dict(c) for c in entry.get("excluded", [])))
    return AllocationProblem(
        blocks=tuple(blocks),
        candidates=tuple(candidates),
        mem_budget=int(d["B_mem"]),
        time_budget=float(d["B_time"]),
        excluded=tuple(excluded),
    )


def plan_to_json_dict(problem: AllocationProblem, solution: AllocationSolution) -> dict:
    """Spec'd plan document for an optimal solution."""
    if not solution.is_optimal:
        raise ValueError("plans are emitted for optimal solutions only")
    block_rows = []
    for i, block in enumerate(problem.blocks):
        config = solution.assignment[block.id]
        cand = next(c for c in problem.candidates[i] if c.config == config)
        block_rows.append(
            {
                "id": block.id,
                "name": block.name,
                "config": config.to_json_dict(),
                "phi": cand.phi,
                "mem_bytes": cand.mem_bytes,
                "time_ratio": cand.time_ratio,
            }
        )
    return {
        "status": solution.status,
        "objective": solution.objective,
        "B_mem": problem.mem_budget,
        "total_mem": solution.total_mem,
        "B_time": problem.time_budget,
        "mean_time_ratio": solution.mean_time_ratio,
        "blocks": block_rows,
    }


def solution_from_plan_dict(d: dict) -> AllocationSolution:
    """Rehydrate a solution (claimed totals included) from a plan document."""
    assignment = {int(row["id"]): Configuration.from_json_dict(row["config"]) for row in d["blocks"]}
    return AllocationSolution(
        status=str(d.get("status", "optimal")),
        assignment=assignment,
        objective=float(d["objective"]),
        total_mem=int(d["total_mem"]),
        mean_time_ratio=float(d["mean_time_ratio"]),
    )
