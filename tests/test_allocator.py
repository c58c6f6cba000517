import json
import math

import numpy as np
import pytest

from baoc.allocator import (
    AllocationBuildError,
    AllocationProblem,
    AllocationSolution,
    Candidate,
    ProblemBlock,
    build_problem,
    plan_to_json_dict,
    problem_from_json_dict,
    problem_to_json_dict,
    solution_from_plan_dict,
    solve_bruteforce,
    solve_exact,
    verify,
)
from baoc.config_space import ADAMW16, BlockShape, CandidatePolicy, Configuration, CostModel
from baoc.risk import RiskSignals, RiskWeights
from conftest import random_instance

X = Configuration.from_family("adamw", 16)
Y = Configuration.from_family("sgdm", 16)
Z = Configuration.from_family("sgd")


def two_block_problem(mem_budget, time_budget=math.inf):
    """The hand instance: block1 {X: phi .1 M 10, Y: phi 1.0 M 4},
    block2 {X: phi .2 M 10, Y: phi .3 M 4}."""
    blocks = (ProblemBlock(0, "b0"), ProblemBlock(1, "b1"))
    cands = (
        (Candidate(X, 0.1, 10, 1.0), Candidate(Y, 1.0, 4, 1.0)),
        (Candidate(X, 0.2, 10, 1.0), Candidate(Y, 0.3, 4, 1.0)),
    )
    return AllocationProblem(blocks=blocks, candidates=cands, mem_budget=mem_budget, time_budget=time_budget)


class TestBruteforce:
    def test_hand_instance(self):
        sol = solve_bruteforce(two_block_problem(14))
        assert sol.status == "optimal"
        assert sol.assignment == {0: X, 1: Y}
        assert sol.objective == pytest.approx(0.4, abs=1e-12)
        assert sol.total_mem == 14

    def test_infeasible_budget(self):
        sol = solve_bruteforce(two_block_problem(7))  # cheapest total memory is 8
        assert sol.status == "infeasible"

    def test_unbounded_budget_decomposes(self):
        sol = solve_bruteforce(two_block_problem(10**9))
        assert sol.assignment == {0: X, 1: X}  # per-block argmin of phi
        assert sol.objective == pytest.approx(0.3, abs=1e-12)

    def test_instance_size_guard(self):
        prob = two_block_problem(14)
        with pytest.raises(ValueError, match="too large"):
            solve_bruteforce(prob, max_assignments=3)

    def test_lexicographic_tie_break(self):
        blocks = (ProblemBlock(0, "b0"),)
        cands = ((Candidate(X, 0.5, 1, 1.0), Candidate(Y, 0.5, 1, 1.0)),)
        prob = AllocationProblem(blocks=blocks, candidates=cands, mem_budget=10, time_budget=2.0)
        assert solve_bruteforce(prob).assignment == {0: X}


class TestSolveExact:
    def test_matches_hand_instance(self):
        sol = solve_exact(two_block_problem(14))
        assert sol.status == "optimal"
        assert sol.assignment == {0: X, 1: Y}
        assert sol.objective == pytest.approx(0.4, abs=1e-12)

    def test_infeasible_names_constraint(self):
        sol = solve_exact(two_block_problem(7))
        assert sol.status == "infeasible"
        assert "memory" in sol.infeasible_reason

    def test_time_infeasible(self):
        sol = solve_exact(two_block_problem(100, time_budget=0.5))
        assert sol.status == "infeasible"
        assert "time" in sol.infeasible_reason

    def test_jointly_infeasible(self):
        # min-memory choice violates time, min-time choice violates memory
        a = Configuration.from_family("adamw", 32)
        b = Configuration.from_family("sgd")
        blocks = (ProblemBlock(0, "b0"),)
        cands = ((Candidate(a, 0.1, 0, 2.0), Candidate(b, 0.1, 100, 0.5)),)
        prob = AllocationProblem(blocks=blocks, candidates=cands, mem_budget=50, time_budget=1.0)
        sol = solve_exact(prob)
        assert sol.status == "infeasible"
        assert solve_bruteforce(prob).status == "infeasible"

    def test_time_budget_forces_cheap_configs(self):
        # All-adaptive ratios exceed the cap; the solver must mix in cheap ones.
        rng = np.random.default_rng(3)
        blocks, cands = [], []
        for i in range(6):
            blocks.append(ProblemBlock(i, f"b{i}"))
            cands.append(
                (
                    Candidate(X, float(rng.uniform(0, 0.2)), 8, 1.5),
                    Candidate(Z, float(rng.uniform(0.5, 1.0)), 0, 0.4),
                )
            )
        prob = AllocationProblem(blocks=tuple(blocks), candidates=tuple(cands),
                                 mem_budget=10**6, time_budget=1.3)
        sol = solve_exact(prob)
        assert sol.status == "optimal"
        assert sol.mean_time_ratio <= 1.3 + 1e-12
        assert any(cfg == Z for cfg in sol.assignment.values())
        ref = solve_bruteforce(prob)
        assert abs(sol.objective - ref.objective) <= 1e-9

    def test_determinism(self):
        prob = two_block_problem(14)
        assert solve_exact(prob) == solve_exact(prob)

    def test_oracle_equivalence_random_suite(self, instance_rng):
        feasible_seen = infeasible_seen = 0
        for _ in range(200):
            prob = random_instance(instance_rng)
            exact = solve_exact(prob)
            brute = solve_bruteforce(prob)
            assert exact.status == brute.status
            if exact.status == "optimal":
                feasible_seen += 1
                assert abs(exact.objective - brute.objective) <= 1e-9
                assert verify(prob, exact).ok
                banned_used = [
                    bid for bid, cfg in exact.assignment.items()
                    if cfg in prob.excluded[bid]
                ]
                assert banned_used == []
            else:
                infeasible_seen += 1
        assert feasible_seen > 50 and infeasible_seen > 5  # suite spans both regimes

    def test_budget_monotonicity(self, instance_rng):
        for _ in range(30):
            prob = random_instance(instance_rng)
            budgets = sorted({prob.mem_budget, prob.mem_budget + 50, prob.mem_budget * 2 + 100})
            last = math.inf
            for budget in budgets:
                variant = AllocationProblem(
                    blocks=prob.blocks, candidates=prob.candidates,
                    mem_budget=budget, time_budget=prob.time_budget, excluded=prob.excluded,
                )
                sol = solve_exact(variant)
                if sol.status == "optimal":
                    assert sol.objective <= last + 1e-9
                    last = sol.objective

    def test_12x17_against_scipy_milp(self):
        from scipy.optimize import Bounds, LinearConstraint, milp
        from baoc.config_space import enumerate_candidates

        grid = enumerate_candidates(BlockShape((64, 64)))
        rng = np.random.default_rng(777)
        for _ in range(10):
            blocks, cands = [], []
            for i in range(12):
                blocks.append(ProblemBlock(i, f"b{i}"))
                cands.append(
                    tuple(
                        Candidate(cfg, float(rng.uniform(0, 3)), int(rng.integers(0, 101)),
                                  float(rng.uniform(0.3, 1.5)))
                        for cfg in grid
                    )
                )
            min_mem = sum(min(c.mem_bytes for c in row) for row in cands)
            max_mem = sum(max(c.mem_bytes for c in row) for row in cands)
            prob = AllocationProblem(
                blocks=tuple(blocks), candidates=tuple(cands),
                mem_budget=int(min_mem + rng.uniform(0.05, 0.4) * (max_mem - min_mem)),
                time_budget=float(rng.uniform(0.8, 1.1)),
            )
            sol = solve_exact(prob)

            cols, costs, mems, ratios = [], [], [], []
            for i in range(12):
                for j, cand in prob.usable(i):
                    cols.append(i)
                    costs.append(cand.phi)
                    mems.append(cand.mem_bytes)
                    ratios.append(cand.time_ratio)
            a_eq = np.zeros((12, len(cols)))
            for k, i in enumerate(cols):
                a_eq[i, k] = 1.0
            res = milp(
                c=np.array(costs),
                constraints=[
                    LinearConstraint(a_eq, 1, 1),
                    LinearConstraint(np.array(mems)[None, :], -np.inf, prob.mem_budget),
                    LinearConstraint(np.array(ratios)[None, :] / 12, -np.inf, prob.time_budget + 1e-12),
                ],
                integrality=np.ones(len(cols)),
                bounds=Bounds(0, 1),
            )
            if sol.status == "infeasible":
                assert res.status != 0
            else:
                assert res.status == 0
                assert abs(sol.objective - float(res.fun)) <= 1e-9


class TestVerify:
    def test_clean_report(self):
        prob = two_block_problem(14)
        report = verify(prob, solve_exact(prob))
        assert report.ok and report.violations == ()
        assert report.total_mem == 14

    def test_memory_violation_with_overshoot(self):
        prob = two_block_problem(14)
        tampered = AllocationSolution(
            status="optimal", assignment={0: X, 1: X}, objective=0.3,
            total_mem=20, mean_time_ratio=1.0,
        )
        report = verify(prob, tampered)
        kinds = {v.kind for v in report.violations}
        assert "memory" in kinds
        assert any("by 6 bytes" in v.message for v in report.violations)

    def test_excluded_config_flagged(self):
        blocks = (ProblemBlock(0, "b0"),)
        cands = ((Candidate(X, 0.1, 4, 1.0), Candidate(Y, 0.9, 2, 0.7)),)
        prob = AllocationProblem(
            blocks=blocks, candidates=cands, mem_budget=10, time_budget=2.0,
            excluded=(frozenset({X}),),
        )
        bad = AllocationSolution(status="optimal", assignment={0: X}, objective=0.1,
                                 total_mem=4, mean_time_ratio=1.0)
        report = verify(prob, bad)
        assert any(v.kind == "exclusion" for v in report.violations)

    def test_unknown_candidate_and_coverage(self):
        prob = two_block_problem(14)
        weird = AllocationSolution(status="optimal", assignment={0: Z}, objective=0.0,
                                   total_mem=0, mean_time_ratio=1.0)
        report = verify(prob, weird)
        kinds = {v.kind for v in report.violations}
        assert "unknown-candidate" in kinds and "coverage" in kinds

    def test_objective_mismatch_flagged(self):
        prob = two_block_problem(14)
        sol = solve_exact(prob)
        lied = AllocationSolution(status="optimal", assignment=sol.assignment, objective=0.0,
                                  total_mem=sol.total_mem, mean_time_ratio=sol.mean_time_ratio)
        report = verify(prob, lied)
        assert any(v.kind == "objective" for v in report.violations)


def _signals():
    return RiskSignals(geometry=0.5, momentum=0.3, distortion=0.2, structure=0.4,
                       precision={32: 0.0, 16: 0.01, 8: 0.3})


def _specs3():
    from baoc.trace import BlockSpec

    return [
        BlockSpec.create(0, "emb", (1000,), 0.01, seed=1),
        BlockSpec.create(1, "ffn", (100, 200), 0.01, seed=1),
        BlockSpec.create(2, "attn", (64, 64), 0.01, seed=1),
    ]


class TestBuildProblem:
    def test_budget_from_ratio(self):
        specs = _specs3()
        signals = {s.id: _signals() for s in specs}
        prob = build_problem(specs, {}, budget_ratio=1.0, signals=signals)
        assert prob.mem_budget == 4 * (1000 + 20000 + 4096)
        adamw16_everywhere = sum(
            next(c for c in prob.candidates[i] if c.config == ADAMW16).mem_bytes
            for i in range(3)
        )
        assert adamw16_everywhere == prob.mem_budget  # feasible at ratio 1.0
        prob_half = build_problem(specs, {}, budget_ratio=0.5, signals=signals)
        assert prob_half.mem_budget == 50192

    def test_half_ratio_on_equal_blocks(self):
        from baoc.trace import BlockSpec

        specs = [BlockSpec.create(i, f"b{i}", (500,), 0.01, seed=1) for i in range(2)]
        signals = {s.id: _signals() for s in specs}
        prob = build_problem(specs, {}, budget_ratio=0.5, signals=signals)
        assert prob.mem_budget == (2 * 500 * 2 * 2) // 2

    def test_exclusions_removed_and_recorded(self):
        specs = _specs3()
        signals = {s.id: _signals() for s in specs}
        prob = build_problem(specs, {}, signals=signals, exclude=["adamw:8", "adam:8", "sgdm:8", "sgdwm:8", "adafactor:8"])
        for i in range(3):
            assert not any(c.config.state_bits == 8 for c in prob.candidates[i])
            assert all(cfg.state_bits == 8 for cfg in prob.excluded[i])

    def test_all_excluded_is_an_error(self):
        specs = _specs3()
        signals = {s.id: _signals() for s in specs}
        everything = ["adamw", "adam", "sgd", "sgdm", "sgdw", "sgdwm", "adafactor"]
        with pytest.raises(AllocationBuildError, match="all candidates excluded"):
            build_problem(specs, {}, signals=signals, exclude=everything)

    def test_missing_metrics(self):
        specs = _specs3()
        with pytest.raises(AllocationBuildError, match="no metrics"):
            build_problem(specs, {}, budget_ratio=1.0)

    def test_prefer_lowers_phi(self):
        specs = _specs3()[:1]
        signals = {0: _signals()}
        base = build_problem(specs, {}, signals=signals)
        preferred = build_problem(
            specs, {}, signals=signals, prefer=["sgd"],
            weights=RiskWeights(lambda_pref=0.25),
        )
        sgd = Configuration.from_family("sgd")
        phi_base = next(c.phi for c in base.candidates[0] if c.config == sgd)
        phi_pref = next(c.phi for c in preferred.candidates[0] if c.config == sgd)
        assert phi_pref == pytest.approx(phi_base - 0.25, abs=1e-12)

    def test_candidates_in_conservative_order(self):
        specs = _specs3()
        signals = {s.id: _signals() for s in specs}
        prob = build_problem(specs, {}, signals=signals)
        from baoc.config_space import ADAMW32

        assert prob.candidates[0][0].config == ADAMW32


class TestSerialization:
    def test_problem_round_trip(self):
        specs = _specs3()
        signals = {s.id: _signals() for s in specs}
        prob = build_problem(specs, {}, signals=signals, exclude=["sgd"])
        again = problem_from_json_dict(json.loads(json.dumps(problem_to_json_dict(prob))))
        assert again == prob

    def test_plan_round_trip(self):
        prob = two_block_problem(14)
        sol = solve_exact(prob)
        plan = plan_to_json_dict(prob, sol)
        assert set(plan) == {"status", "objective", "B_mem", "total_mem", "B_time",
                             "mean_time_ratio", "blocks"}
        assert set(plan["blocks"][0]) == {"id", "name", "config", "phi", "mem_bytes", "time_ratio"}
        back = solution_from_plan_dict(json.loads(json.dumps(plan)))
        assert back.assignment == sol.assignment
        assert verify(prob, back).ok

    def test_plan_requires_optimal(self):
        prob = two_block_problem(7)
        with pytest.raises(ValueError):
            plan_to_json_dict(prob, solve_exact(prob))
