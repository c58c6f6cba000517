"""Seeded inputs and the operation (op) of each benchmark workload.

One op produces one plan:

- ``ingest``: ``baoc partition`` then ``baoc allocate --blocks`` through
  `baoc.cli.dispatch`, reading the trace that set-up simulated;
- ``solve`` and ``sweep``: `build_problem` -> `solve_exact` ->
  `plan_to_json_dict` -> `plan_bytes`, called through the `baoc` namespace.

The seed only shapes the generated inputs; the program sees files and
problem descriptions, never the seed itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import baoc
import baoc.cli
import baoc.pipeline

# ---- ingest: 2 transformer layers, hidden 1024, FFN 2816 ---------------------------------

HIDDEN = 1024
FFN = 2816
LAYERS = 2
SAMPLING_RATIO = 0.001
STEPS = 24
# (name, dims, kind) in forward order inside one layer.
LAYER_UNITS = (
    ("attn_norm", (HIDDEN,), "norm"),
    ("q", (HIDDEN, HIDDEN), "attn"),
    ("k", (HIDDEN, HIDDEN), "attn"),
    ("v", (HIDDEN, HIDDEN), "attn"),
    ("o", (HIDDEN, HIDDEN), "attn"),
    ("mlp_norm", (HIDDEN,), "norm"),
    ("up", (HIDDEN, FFN), "mlp"),
    ("down", (FFN, HIDDEN), "mlp"),
)

# ---- solve / sweep: the solver-M shapes ---------------------------------------------------

SOLVER_SHAPES = ((4096, 4096), (4096, 11008), (11008, 4096), (4096,))
SOLVE_SIZES = (32, 64)
SOLVE_BUDGETS = (0.3, 0.5)
SOLVE_DRAWS = 3
SWEEP_BLOCKS = 12
SWEEP_DRAWS_PER_BUDGET = 9
SWEEP_RATIOS = tuple(round(0.20 + 0.05 * k, 2) for k in range(17))  # 0.20 .. 1.00
SWEEP_TIME_BUDGETS = (1.3, 1.0, 0.9)
DEFAULT_TIME_BUDGET = 1.3

_STREAM_TAGS = {"ingest": 1, "solve": 2, "sweep": 3}


def rng_for(workload: str, seed: int, draw: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM_TAGS[workload], draw])


@dataclass(frozen=True)
class IngestInputs:
    trace: Path
    model_desc: Path
    profile: Path


@dataclass(frozen=True)
class SolveSpec:
    """One op of `solve` or `sweep`: blocks, their signals, the budgets."""

    label: str
    blocks: tuple
    signals: dict
    budget_ratio: float
    time_budget: float


def model_units() -> list[dict]:
    units = []
    for layer in range(LAYERS):
        for position, (name, dims, kind) in enumerate(LAYER_UNITS):
            units.append(
                {
                    "id": len(units),
                    "name": f"layers.{layer}.{name}",
                    "dims": list(dims),
                    "kind": kind,
                    "layer": layer,
                    "position": position,
                }
            )
    return units


def ingest_profiles(seed: int) -> dict:
    """The `baoc simulate --profile` document: one drawn stream profile per unit."""
    rng = rng_for("ingest", seed)
    blocks = []
    for unit in model_units():
        profile = {
            "drift_strength": float(rng.uniform(0.0, 2.0)),
            "drift_persistence": float(rng.uniform(0.0, 0.95)),
            "noise_scale_spread": float(rng.uniform(0.0, 2.5)),
        }
        mix = float(rng.uniform(0.0, 1.0))
        if len(unit["dims"]) >= 2:
            profile["rank1_mix"] = mix
        blocks.append({k: unit[k] for k in ("id", "name", "dims", "kind")} | {"profile": profile})
    return {"sampling_ratio": SAMPLING_RATIO, "blocks": blocks}


def setup_ingest(seed: int, workdir: Path) -> IngestInputs:
    """Write the model description, the stream profiles and the simulated trace."""
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = IngestInputs(
        trace=workdir / "trace.jsonl",
        model_desc=workdir / "model.json",
        profile=workdir / "profile.json",
    )
    inputs.model_desc.write_text(json.dumps({"units": model_units()}), encoding="utf-8")
    inputs.profile.write_text(json.dumps(ingest_profiles(seed)), encoding="utf-8")
    code = baoc.cli.dispatch(
        [
            "simulate",
            "--profile", str(inputs.profile),
            "--steps", str(STEPS),
            "--seed", str(seed),
            "--out", str(inputs.trace),
            "--quiet",
        ]
    )
    if code != 0:
        raise RuntimeError(f"baoc simulate exited with {code}")
    return inputs


class CliFailure(RuntimeError):
    pass


def ingest_op(inputs: IngestInputs, blocks_out: Path, plan_out: Path) -> None:
    """partition then allocate --blocks, both through the CLI dispatcher."""
    code = baoc.cli.dispatch(
        [
            "partition",
            "--model-desc", str(inputs.model_desc),
            "--trace", str(inputs.trace),
            "--out", str(blocks_out),
            "--quiet",
        ]
    )
    if code != 0:
        raise CliFailure(f"baoc partition exited with {code}")
    code = baoc.cli.dispatch(
        ["allocate", "--trace", str(inputs.trace), "--blocks", str(blocks_out), "--out", str(plan_out), "--quiet"]
    )
    if code != 0:
        raise CliFailure(f"baoc allocate exited with {code}")


def _draw_problem_inputs(rng: np.random.Generator, n: int) -> tuple[tuple, dict]:
    blocks = tuple(
        baoc.ProblemBlock(id=i, name=f"b{i}", shapes=(baoc.BlockShape(SOLVER_SHAPES[i % len(SOLVER_SHAPES)]),))
        for i in range(n)
    )
    signals = {}
    for i in range(n):
        geometry, momentum, distortion, structure = (float(x) for x in rng.uniform(0.0, 1.0, size=4))
        signals[i] = baoc.RiskSignals(
            geometry=geometry,
            momentum=momentum,
            distortion=distortion,
            structure=structure,
            precision={32: 0.0, 16: float(rng.uniform(0.0, 0.05)), 8: float(rng.uniform(0.0, 0.5))},
        )
    return blocks, signals


def _shuffled(specs: list[SolveSpec], workload: str, seed: int) -> list[SolveSpec]:
    """Seeded op order, so that any prefix of a pass is a uniform sample of it."""
    order = rng_for(workload, seed, draw=len(specs)).permutation(len(specs))
    return [specs[int(i)] for i in order]


def setup_solve(seed: int) -> list[SolveSpec]:
    """Three draws for each (N, memory budget) pair: 12 large problems."""
    specs = []
    for n in SOLVE_SIZES:
        for ratio in SOLVE_BUDGETS:
            for draw in range(SOLVE_DRAWS):
                blocks, signals = _draw_problem_inputs(rng_for("solve", seed, draw=len(specs)), n)
                specs.append(SolveSpec(f"n{n}-b{ratio}-d{draw}", blocks, signals, ratio, DEFAULT_TIME_BUDGET))
    return _shuffled(specs, "solve", seed)


def setup_sweep(seed: int) -> list[SolveSpec]:
    """12-block problems over a grid of memory and time budgets.

    Every op draws its own signals: solve time varies several-fold between
    draws, so a run's median over a few shared draws would mostly measure
    which draws the seed picked.
    """
    specs = []
    for time_budget in SWEEP_TIME_BUDGETS:
        for ratio in SWEEP_RATIOS:
            for draw in range(SWEEP_DRAWS_PER_BUDGET):
                blocks, signals = _draw_problem_inputs(rng_for("sweep", seed, draw=len(specs)), SWEEP_BLOCKS)
                specs.append(SolveSpec(f"t{time_budget}-b{ratio}-d{draw}", blocks, signals, ratio, time_budget))
    return _shuffled(specs, "sweep", seed)


@dataclass
class SolvedOp:
    problem: object
    solution: object
    plan: bytes


def solve_op(spec: SolveSpec) -> SolvedOp:
    """build_problem -> solve_exact -> plan_to_json_dict -> plan_bytes."""
    problem = baoc.build_problem(
        spec.blocks,
        {},
        budget_ratio=spec.budget_ratio,
        time_budget=spec.time_budget,
        signals=spec.signals,
    )
    solution = baoc.solve_exact(problem)
    if not solution.is_optimal:
        raise RuntimeError(f"{spec.label}: solver reports {solution.status}: {solution.infeasible_reason}")
    plan = baoc.pipeline.plan_bytes(baoc.plan_to_json_dict(problem, solution))
    return SolvedOp(problem, solution, plan)
