"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import math
import time

import numpy as np
import pytest

from baoc.allocator import (
    AllocationProblem,
    build_problem,
    solve_bruteforce,
    solve_exact,
    verify,
)
from baoc.config_space import (
    ADAMW16,
    ADAMW32,
    BlockShape,
    Configuration,
    aggressiveness,
    enumerate_candidates,
    state_bytes,
)
from baoc.diagnostics import (
    DiagnosticsState,
    distortion,
    snr,
    structure_residual,
)
from baoc.partitioner import PartitionParams, StructuralUnit, partition
from baoc.pipeline import RunConfig, collect_metrics, run_allocation
from baoc.risk import (
    RiskSignals,
    RiskWeights,
    distortion_signal,
    geometry_signal,
    momentum_need,
    precision_risk,
)
from baoc.simulator import StreamProfile, generate_stream
from baoc.trace import BlockSpec
from conftest import random_instance


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"acceptance criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def solver_suite():
    """1000 random instances solved by both solvers (shared by criteria 1/2/11)."""
    rng = np.random.default_rng(987654321)
    t0 = time.monotonic()
    results = []
    for _ in range(1000):
        prob = random_instance(rng)
        results.append((prob, solve_exact(prob), solve_bruteforce(prob)))
    elapsed = time.monotonic() - t0
    return results, elapsed


def test_01_solver_oracle_equivalence(solver_suite):
    results, elapsed = solver_suite
    agree = all(
        exact.status == brute.status
        and (exact.status == "infeasible" or abs(exact.objective - brute.objective) <= 1e-9)
        for _, exact, brute in results
    )
    n_optimal = sum(1 for _, e, _ in results if e.status == "optimal")
    spans = 0 < n_optimal < 1000
    report(
        1,
        "solver oracle equivalence",
        agree and spans and elapsed < 60.0,
        f"1000 instances, {n_optimal} optimal, {elapsed:.1f}s",
    )


def test_02_feasibility_certificates(solver_suite):
    results, _ = solver_suite
    ok = True
    for prob, exact, _ in results:
        if exact.status != "optimal":
            continue
        rep = verify(prob, exact)
        ok &= rep.ok
        ok &= rep.total_mem <= prob.mem_budget  # exact integer arithmetic
        ok &= rep.mean_time_ratio <= prob.time_budget + 1e-12
        ok &= set(exact.assignment) == {b.id for b in prob.blocks}
    report(2, "MILP feasibility certificates", ok)


def test_03_normalization_anchor_exactness():
    ok = geometry_signal(math.log(2.0)) == 0.0
    ok &= geometry_signal(math.log(10.0)) == 1.0
    ok &= momentum_need(0.2, 1e9) == 0.0  # a saturating SNR leaves the direction gate exact
    ok &= momentum_need(0.6, 1e9) == 1.0
    ok &= distortion_signal(0.0) == 0.0
    ok &= -1e-9 <= precision_risk(1.0) <= 1e-9
    report(3, "normalization anchor exactness", bool(ok))


def test_04_aggressiveness_exactness():
    # Hand-written table for the full 17-candidate grid, term by term.
    expected = {
        ("adamw", 32): 0.0, ("adamw", 16): 1.0, ("adamw", 8): 3.0,
        ("adam", 32): 1.0, ("adam", 16): 2.0, ("adam", 8): 4.0,
        ("sgdwm", 32): 1.0, ("sgdwm", 16): 2.0, ("sgdwm", 8): 4.0,
        ("sgdm", 32): 2.0, ("sgdm", 16): 3.0, ("sgdm", 8): 5.0,
        ("adafactor", 32): 3.0, ("adafactor", 16): 4.0, ("adafactor", 8): 6.0,
        ("sgdw", 32): 2.0, ("sgd", 32): 3.0,
    }
    grid = enumerate_candidates(BlockShape((64, 64)))
    ok = len(grid) == len(expected)
    for cfg in grid:
        ok &= aggressiveness(cfg) == expected[(cfg.family, cfg.state_bits)]
    ok &= aggressiveness(ADAMW32) == 0.0
    ok &= aggressiveness(Configuration.from_family("adamw", 8)) == 3.0
    ok &= aggressiveness(Configuration.from_family("sgd")) == 3.0
    report(4, "aggressiveness exactness", bool(ok))


def test_05_state_memory_formula():
    shapes = [BlockShape((1000,)), BlockShape((100, 200)), BlockShape((64, 64))]
    total = sum(state_bytes(ADAMW16, s) for s in shapes)
    ok = total == 4 * (1000 + 20000 + 4096) == 100384
    af32 = Configuration.from_family("adafactor", 32)
    ok &= state_bytes(af32, shapes[1]) == 1200
    ok &= state_bytes(Configuration.from_family("sgd"), shapes[0]) == 0

    specs = [BlockSpec.create(i, f"b{i}", s.dims, 0.01, seed=1) for i, s in enumerate(shapes)]
    signals = {
        s.id: RiskSignals(geometry=0.5, momentum=0.5, distortion=0.5, structure=0.5,
                          precision={32: 0.0, 16: 0.01, 8: 0.1})
        for s in specs
    }
    prob = build_problem(specs, {}, budget_ratio=0.5, signals=signals)
    ok &= prob.mem_budget == 50192
    report(5, "state memory formula", bool(ok), f"AdamW16 total {total} bytes")


def test_06_diagnostics_closed_forms():
    ok = abs(distortion(np.array([1.0, 4.0]), np.array([1.0, 1.0])) - 1 / 3) <= 1e-6
    rng = np.random.default_rng(0)
    outer = np.outer(rng.uniform(0.5, 2.0, 6), rng.uniform(0.5, 2.0, 8))
    ok &= structure_residual(outer) < 1e-9
    ok &= abs(structure_residual(np.eye(2)) - 1 / math.sqrt(2)) <= 1e-9
    ok &= abs(snr(np.array([3.0, 4.0]), np.array([2.0, 3.0])) - 5.0) <= 1e-9
    state = DiagnosticsState(BlockSpec.create(0, "b", (2,), 1.0, seed=0))
    g = np.array([1.0, 2.0])
    state.update(g)
    state.update(g)
    ok &= abs(state.direction_stability - 0.1) <= 1e-12
    report(6, "diagnostics closed forms", bool(ok))


def test_07_simulator_monotone_control():
    t0 = time.monotonic()
    ok = True
    for seed in (0, 1, 2):
        spec = BlockSpec.create(0, "b", (24, 24), 1.0, seed=seed)
        aniso = []
        for spread in (0.0, 1.0, 2.0, 3.0):
            recs = generate_stream([spec], {0: StreamProfile(noise_scale_spread=spread, seed=seed)}, 500)
            aniso.append(collect_metrics([spec], recs)[0].anisotropy)
        ok &= all(a <= b for a, b in zip(aniso, aniso[1:]))
        stab = []
        for persistence in (0.0, 0.5, 0.9, 1.0):
            recs = generate_stream(
                [spec],
                {0: StreamProfile(drift_persistence=persistence, drift_strength=100.0, seed=seed)},
                500,
            )
            stab.append(collect_metrics([spec], recs)[0].direction_stability)
        ok &= all(a <= b for a, b in zip(stab, stab[1:]))
    elapsed = time.monotonic() - t0
    report(7, "simulator monotone control", ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_08_end_to_end_exchange_property():
    t0 = time.monotonic()
    # Only AdamW and SGDW+momentum at 16 bits stay.
    exclude = ("adam", "sgd", "sgdm", "sgdw", "adafactor", "adamw:32", "adamw:8", "sgdwm:32", "sgdwm:8")
    ok = True
    for seed in range(20):
        specs = [
            BlockSpec.create(0, "high", (24, 24), 1.0, seed=seed),
            BlockSpec.create(1, "low", (24, 24), 1.0, seed=seed),
        ]
        profiles = {
            0: StreamProfile(noise_scale_spread=0.68, drift_strength=3.0,
                             drift_persistence=0.5, seed=seed),
            1: StreamProfile(noise_scale_spread=0.27, drift_strength=3.0,
                             drift_persistence=0.5, seed=seed + 1000),
        }
        records = generate_stream(specs, profiles, 300)
        result = run_allocation(
            RunConfig(budget_ratio=0.75, exclude=exclude), (specs, records)
        )
        sol = result.solution
        ok &= sol.assignment[0].adaptive and not sol.assignment[1].adaptive
        brute = solve_bruteforce(result.problem)
        ok &= brute.assignment == sol.assignment
        ok &= abs(brute.objective - sol.objective) <= 1e-9
    elapsed = time.monotonic() - t0
    report(8, "end-to-end exchange property", ok and elapsed < 30.0, f"20 seeds, {elapsed:.1f}s")


def test_09_budget_monotonicity_end_to_end():
    rng_seeds = range(12)
    specs = [BlockSpec.create(i, f"b{i}", (24, 24), 1.0, seed=i) for i in rng_seeds]
    profiles = {
        i: StreamProfile(
            noise_scale_spread=0.25 * i,
            drift_strength=float(3 + 2 * (i % 4)),
            drift_persistence=0.08 * i,
            rank1_mix=0.5 if i % 3 == 0 else 0.0,
            seed=i,
        )
        for i in rng_seeds
    }
    records = generate_stream(specs, profiles, 200)
    metrics = collect_metrics(specs, records)
    objectives = []
    for ratio in (0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.2):
        prob = build_problem(specs, metrics, budget_ratio=ratio)
        sol = solve_exact(prob)
        assert sol.status == "optimal"
        objectives.append(sol.objective)
    ok = all(a >= b - 1e-9 for a, b in zip(objectives, objectives[1:]))
    report(9, "budget monotonicity end-to-end", ok,
           " -> ".join(f"{o:.3f}" for o in objectives))


def test_10_partitioner_cluster_recovery():
    def sig(v):
        return RiskSignals(geometry=v, momentum=0.5, distortion=0.3, structure=0.2,
                           precision={32: 0.0})

    def mk(values, sizes):
        units = [StructuralUnit(id=i, name=f"u{i}", shape=BlockShape((n,)))
                 for i, n in enumerate(sizes)]
        return units, {i: sig(v) for i, v in enumerate(values)}

    units, signals = mk([0.13, 0.12, 0.11, 0.10, 0.90, 0.89, 0.88, 0.87], [10_000] * 8)
    two = partition(units, signals, PartitionParams(alpha=0.01))
    ok = two == [[0, 1, 2, 3], [4, 5, 6, 7]]

    units, signals = mk([0.5] * 8, [10_000] * 8)
    ok &= partition(units, signals, PartitionParams(alpha=0.01)) == [list(range(8))]

    # sub-minimum unit 4 carries the right cluster's signal and must join it
    units, signals = mk(
        [0.13, 0.12, 0.11, 0.10, 0.90, 0.90, 0.89, 0.88, 0.87],
        [10_000] * 4 + [50] + [10_000] * 4,
    )
    merged = partition(units, signals, PartitionParams(alpha=0.01))
    ok &= merged == [[0, 1, 2, 3], [4, 5, 6, 7, 8]]

    # isolated merge-target checks (fixed threshold): closest side wins
    units, signals = mk([0.1, 0.85, 0.9], [10_000, 50, 10_000])
    ok &= partition(units, signals, PartitionParams(alpha=0.01, tau=0.5)) == [[0], [1, 2]]
    units, signals = mk([0.1, 0.15, 0.9], [10_000, 50, 10_000])
    ok &= partition(units, signals, PartitionParams(alpha=0.01, tau=0.5)) == [[0, 1], [2]]
    report(10, "partitioner cluster recovery", bool(ok))


def test_11_soft_and_hard_constraint_semantics(solver_suite):
    # Soft: lambda_pref = 0 must reproduce the base problem bit for bit.
    specs = [BlockSpec.create(i, f"b{i}", (30, 30), 0.05, seed=i) for i in range(4)]
    profiles = {i: StreamProfile(noise_scale_spread=0.5 * i, drift_strength=2.0, seed=i)
                for i in range(4)}
    records = generate_stream(specs, profiles, 150)
    metrics = collect_metrics(specs, records)
    base_prob = build_problem(specs, metrics, budget_ratio=0.5)
    pref_prob = build_problem(
        specs, metrics, budget_ratio=0.5,
        weights=RiskWeights(lambda_pref=0.0), prefer=["sgd", "adamw:8"],
    )
    base_sol, pref_sol = solve_exact(base_prob), solve_exact(pref_prob)
    ok = base_sol.assignment == pref_sol.assignment
    ok &= base_sol.objective == pref_sol.objective

    # Hard: excluded configurations never appear across the random suite.
    results, _ = solver_suite
    for prob, exact, brute in results:
        for sol in (exact, brute):
            if sol.status != "optimal":
                continue
            ok &= all(
                sol.assignment[b.id] not in prob.excluded[i]
                for i, b in enumerate(prob.blocks)
            )
    report(11, "soft/hard constraint semantics", bool(ok))
