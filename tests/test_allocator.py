import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from baoc import allocator
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
from baoc.config_space import (
    ADAMW16,
    BlockShape,
    Configuration,
    CostModel,
    enumerate_candidates_multi,
    state_bytes,
)
from baoc.pipeline import plan_bytes
from baoc.risk import RiskSignals, RiskWeights, expand_selectors, phi
from conftest import GRID, random_instance

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
    return AllocationProblem.from_candidates(blocks=blocks, candidates=cands, mem_budget=mem_budget, time_budget=time_budget)


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
        prob = AllocationProblem.from_candidates(blocks=blocks, candidates=cands, mem_budget=10, time_budget=2.0)
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
        prob = AllocationProblem.from_candidates(blocks=blocks, candidates=cands, mem_budget=50, time_budget=1.0)
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
        prob = AllocationProblem.from_candidates(blocks=tuple(blocks), candidates=tuple(cands),
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
                variant = AllocationProblem.from_candidates(
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
            prob = AllocationProblem.from_candidates(
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


def _table_instance(rng, n, k, mem_ratio, time_budget, phi_levels=None, ban=False):
    """n blocks of k candidates drawn from GRID, with the static cost table's time ratios.

    `phi_levels` draws phi from a few values, so that assignments tie;
    memory comes from a few byte sizes, so that states coincide.
    """
    ratios = CostModel.static_default()
    blocks, cands, excluded = [], [], []
    for i in range(n):
        picks = sorted(rng.choice(len(GRID), size=k, replace=False))
        row = []
        for j in picks:
            cfg = GRID[int(j)]
            phi = float(rng.choice(phi_levels)) if phi_levels is not None else float(rng.uniform(0, 3))
            row.append(Candidate(cfg, phi, int(rng.choice([0, 8, 16, 24, 32])), ratios.ratio(cfg)))
        blocks.append(ProblemBlock(i, f"b{i}"))
        cands.append(tuple(row))
        excluded.append(frozenset({row[int(rng.integers(k))].config}) if ban else frozenset())
    min_mem = sum(min(c.mem_bytes for c in row) for row in cands)
    max_mem = sum(max(c.mem_bytes for c in row) for row in cands)
    return AllocationProblem.from_candidates(
        blocks=tuple(blocks), candidates=tuple(cands),
        mem_budget=int(min_mem + mem_ratio * (max_mem - min_mem)),
        time_budget=time_budget, excluded=tuple(excluded),
    )


def assert_same_as_bruteforce(prob):
    exact, brute = solve_exact(prob), solve_bruteforce(prob)
    assert exact.status == brute.status
    if exact.status == "optimal":
        assert abs(exact.objective - brute.objective) <= 1e-9
        assert exact.assignment == brute.assignment
        assert verify(prob, exact).ok
    return exact


class TestParetoDP:
    """`solve_exact` against the brute-force oracle: objective and assignment."""

    @pytest.mark.parametrize("time_budget", [0.9, 1.0])
    def test_time_binding(self, time_budget):
        rng = np.random.default_rng(11)
        binding = 0
        for _ in range(60):
            prob = _table_instance(rng, 5, 6, float(rng.uniform(0.2, 1.0)), time_budget)
            exact = assert_same_as_bruteforce(prob)
            unconstrained = solve_bruteforce(
                AllocationProblem.from_candidates(blocks=prob.blocks, candidates=prob.candidates,
                                  mem_budget=prob.mem_budget, time_budget=math.inf)
            )
            binding += exact.is_optimal and unconstrained.mean_time_ratio > time_budget
        assert binding >= 5  # the time row changes the answer on some draws

    def test_ties_follow_the_bruteforce_rule(self):
        # Few phi levels and memory sizes: many assignments share the optimum,
        # equal-phi candidates differ only in memory, and sums such as
        # 0.1 + 0.2 and 0.3 differ by less than OBJECTIVE_SLACK.
        rng = np.random.default_rng(5)
        for _ in range(60):
            prob = _table_instance(rng, int(rng.integers(2, 6)), 5, float(rng.uniform(0.0, 1.2)),
                                   float(rng.choice([0.9, 1.0, 1.3])), phi_levels=[0.0, 0.1, 0.2, 0.3])
            assert_same_as_bruteforce(prob)

    def test_equal_phi_prefers_the_first_candidate(self):
        # X is within OBJECTIVE_SLACK of Y and Z, not equal to them.
        blocks = (ProblemBlock(0, "b0"), ProblemBlock(1, "b1"))
        cands = (
            (Candidate(X, 0.5 + 4e-10, 4, 1.0), Candidate(Y, 0.5, 2, 1.0), Candidate(Z, 0.5, 2, 1.0)),
            (Candidate(Z, 0.2, 8, 0.4), Candidate(X, 0.2, 8, 0.4)),
        )
        prob = AllocationProblem.from_candidates(blocks=blocks, candidates=cands, mem_budget=100, time_budget=2.0)
        assert assert_same_as_bruteforce(prob).assignment == {0: X, 1: Z}
        tight = AllocationProblem.from_candidates(blocks=blocks, candidates=cands, mem_budget=10, time_budget=2.0)
        assert assert_same_as_bruteforce(tight).assignment == {0: Y, 1: Z}

    @pytest.mark.parametrize("kind", ["memory", "time", "joint"])
    def test_infeasible(self, kind):
        rng = np.random.default_rng(17)
        if kind == "memory":
            prob = _table_instance(rng, 4, 5, -0.1, 1.3)
        elif kind == "time":
            prob = _table_instance(rng, 4, 5, 1.0, 0.3)
        else:
            prob = _time_row_unmet()
        sol = assert_same_as_bruteforce(prob)
        assert sol.status == "infeasible"
        if kind != "joint":
            assert kind in sol.infeasible_reason

    def test_single_block(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            assert_same_as_bruteforce(
                _table_instance(rng, 1, int(rng.integers(1, 9)), float(rng.uniform(0, 1.1)),
                                float(rng.choice([0.5, 0.9, 1.3])))
            )

    def test_excluded_candidates(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            prob = _table_instance(rng, 4, 5, float(rng.uniform(0.1, 1.0)),
                                   float(rng.choice([0.9, 1.0, 1.3])), ban=True)
            sol = assert_same_as_bruteforce(prob)
            if sol.is_optimal:
                assert all(sol.assignment[i] not in prob.excluded[i] for i in range(4))

    def test_two_thousand_blocks_without_recursion_limit(self):
        rng = np.random.default_rng(31)
        shapes = (BlockShape((256, 256)), BlockShape((256, 688)), BlockShape((256,)))
        blocks = [ProblemBlock(i, f"b{i}", (shapes[i % 3],)) for i in range(2000)]
        signals = {
            i: RiskSignals(
                geometry=float(g), momentum=float(m), distortion=float(d), structure=float(f),
                precision={32: 0.0, 16: float(p16), 8: float(p8)},
            )
            for i, (g, m, d, f, p16, p8) in enumerate(rng.uniform(0, 1, size=(2000, 6)) * [1, 1, 1, 1, 0.05, 0.5])
        }
        prob = build_problem(blocks, {}, budget_ratio=2.0, time_budget=1.3, signals=signals)
        sol = solve_exact(prob)
        assert sol.status == "optimal"
        floor = sum(min(c.phi for c in row) for row in prob.candidates)
        assert abs(sol.objective - floor) <= 1e-9


# (memory, time, phi, mem_free, time_free): few values, so states tie in
# memory and time, and phi 0.1 + 0.2 lies within OBJECTIVE_SLACK of 0.3.
_STATES = st.lists(
    st.tuples(st.integers(0, 4), st.sampled_from([0.0, 0.5, 1.0, 1.5]),
              st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.1 + 0.2]), st.booleans(), st.booleans()),
    max_size=60,
)


class TestUndominated:
    """`_undominated` drops only states that another state dominates."""

    @settings(max_examples=300, deadline=None)
    @given(states=_STATES)
    def test_every_dropped_state_has_a_dominator(self, states):
        mems = np.array([s[0] for s in states], dtype=np.int64)
        times = np.array([s[1] for s in states], dtype=np.float64)
        phis = np.array([s[2] for s in states], dtype=np.float64)
        mem_free = np.array([s[3] for s in states], dtype=bool)
        time_free = np.array([s[4] for s in states], dtype=bool)
        keep = allocator._undominated(mems, times, phis, mem_free, time_free)

        def dominates(a, b):
            fits = (mem_free[a] or mems[a] <= mems[b]) and (time_free[a] or times[a] <= times[b])
            same = mems[a] == mems[b] and times[a] == times[b]
            return a != b and fits and (
                phis[a] < phis[b] - allocator.OBJECTIVE_SLACK or (same and phis[a] <= phis[b] and a < b)
            )

        for b in np.flatnonzero(~keep).tolist():
            assert any(dominates(a, b) for a in range(len(states)))
        # Among exact duplicates only the first can be kept. It can only be
        # dropped for a dominator the check above finds, as its copies come later.
        seen = set()
        for b, state in enumerate(zip(mems.tolist(), times.tolist(), phis.tolist())):
            assert state not in seen or not keep[b]
            seen.add(state)

    def test_the_first_of_exact_duplicates_is_kept(self):
        free = np.zeros(4, dtype=bool)
        keep = allocator._undominated(np.array([2, 2, 2, 1]), np.array([1.0, 1.0, 1.0, 1.5]), np.full(4, 0.3),
                                      free, free)
        assert keep.tolist() == [True, False, False, True]


def incumbent_of(prob):
    """`solve_exact`'s incumbent for `prob` and whether some table's rounded
    LP solution broke the time row."""
    dp = allocator._ParetoDP(prob)
    dp.root_bound()
    broken = any(prob.ratio[np.arange(dp.n), t.rounded()].sum() / dp.n > dp.mean_cap for t in dp.tables)
    return dp.incumbent(), broken


def _time_row_unmet():
    """Three blocks whose cheapest memory runs slow and whose fastest ratio
    needs memory: each budget alone can be met, both together cannot."""
    a, b = Configuration.from_family("adamw", 32), Configuration.from_family("sgd")
    row = (Candidate(a, 0.1, 0, 2.0), Candidate(b, 0.1, 100, 0.5))
    return AllocationProblem.from_candidates(
        blocks=tuple(ProblemBlock(i, f"b{i}") for i in range(3)), candidates=(row,) * 3, mem_budget=150, time_budget=1.0
    )


def _bracket_problem():
    """Two blocks whose priced root LP has its maximum on a kink: block 0's
    increment (X to Y) and block 1's (X to Z) tie at the best time price."""
    blocks = (ProblemBlock(0, "b0"), ProblemBlock(1, "b1"))
    cands = (
        (Candidate(X, 1.0, 0, 2.0), Candidate(Y, 0.0, 100, 2.0)),
        (Candidate(X, 0.0, 0, 2.0), Candidate(Z, 1.0, 100, 0.5)),
    )
    return AllocationProblem.from_candidates(blocks=blocks, candidates=cands, mem_budget=100, time_budget=1.25)


@pytest.fixture
def dp_rounds(monkeypatch):
    """A list that collects the cutoff of every `_ParetoDP.run` call."""
    limits = []
    run = allocator._ParetoDP.run

    def counted(self, limit):
        limits.append(limit)
        return run(self, limit)

    monkeypatch.setattr(allocator._ParetoDP, "run", counted)
    return limits


class TestIncumbent:
    """The rounded-LP assignment whose phi is `solve_exact`'s cutoff."""

    @pytest.mark.parametrize("time_budget", [0.9, 1.0])
    def test_feasible_and_not_below_the_optimum(self, time_budget):
        rng = np.random.default_rng(41)
        repaired = 0
        for _ in range(80):
            prob = _table_instance(rng, 6, 6, float(rng.uniform(0.1, 1.0)), time_budget)
            (found, broken), brute = incumbent_of(prob), solve_bruteforce(prob)
            if found is None:
                continue
            value, cols = found
            sol = allocator._solution(prob, cols, nodes=0)
            assert verify(prob, sol).ok
            assert sol.objective == value
            assert brute.is_optimal and value >= brute.objective - 1e-9
            repaired += broken
        assert repaired >= 5  # the rounding broke the time row and was repaired

    def test_random_suite_is_feasible_and_not_below_the_optimum(self, instance_rng):
        found_seen = 0
        for _ in range(150):
            prob = random_instance(instance_rng)
            (found, _), brute = incumbent_of(prob), solve_bruteforce(prob)
            if found is not None:
                found_seen += 1
                assert verify(prob, allocator._solution(prob, found[1], nodes=0)).ok
                assert found[0] >= brute.objective - 1e-9
        assert found_seen > 50

    def test_one_round_when_an_incumbent_exists(self, dp_rounds):
        rng = np.random.default_rng(43)
        seen = 0
        for _ in range(60):
            prob = _table_instance(rng, 6, 6, float(rng.uniform(0.1, 1.0)), float(rng.choice([0.9, 1.0, 1.3])))
            found = incumbent_of(prob)[0]
            dp_rounds.clear()
            assert_same_as_bruteforce(prob)
            if found is not None:
                seen += 1
                assert len(dp_rounds) == 1
        assert seen > 30

    def test_one_round_at_three_hundred_blocks(self, dp_rounds):
        rng = np.random.default_rng(47)
        shapes = (BlockShape((64, 64)), BlockShape((64, 172)), BlockShape((64,)))
        blocks = [ProblemBlock(i, f"b{i}", (shapes[i % 3],)) for i in range(300)]
        signals = {
            i: RiskSignals(
                geometry=float(g), momentum=float(m), distortion=float(d), structure=float(f),
                precision={32: 0.0, 16: float(p16), 8: float(p8)},
            )
            for i, (g, m, d, f, p16, p8) in enumerate(rng.uniform(0, 1, size=(300, 6)) * [1, 1, 1, 1, 0.05, 0.5])
        }
        prob = build_problem(blocks, {}, budget_ratio=0.4, time_budget=0.9, signals=signals)
        sol = solve_exact(prob)
        assert sol.is_optimal and verify(prob, sol).ok
        assert len(dp_rounds) == 1

    def test_both_ends_of_the_price_bracket_are_rounded(self):
        # The root bound's maximum sits on a kink of the priced LP. The table
        # at the best price buys block 0's increment, which breaks the time
        # row and cannot be repaired; the bracket's upper end buys block 1's,
        # which rounds to the optimum (X, Z).
        prob = _bracket_problem()
        (value, cols), _ = incumbent_of(prob)
        assert allocator._solution(prob, cols, nodes=0).assignment == {0: X, 1: Z}
        assert value == 2.0
        assert assert_same_as_bruteforce(prob).assignment == {0: X, 1: Z}

    def test_an_excluded_candidate_is_never_the_incumbent(self, dp_rounds):
        # The excluded Y is the last column, with the least memory and phi.
        blocks = (ProblemBlock(0, "b0"), ProblemBlock(1, "b1"))
        row = (Candidate(X, 1.0, 10, 1.0), Candidate(Z, 2.0, 5, 0.5), Candidate(Y, 0.0, 0, 1.0))
        prob = AllocationProblem.from_candidates(
            blocks=blocks, candidates=(row, row), mem_budget=15, time_budget=1.0, excluded=(frozenset({Y}),) * 2
        )
        (value, cols), _ = incumbent_of(prob)
        assert verify(prob, allocator._solution(prob, cols, nodes=0)).ok
        assert value == 3.0
        assert assert_same_as_bruteforce(prob).assignment == {0: X, 1: Z}
        assert len(dp_rounds) == 1

    def test_no_incumbent_still_matches_the_oracle(self, dp_rounds):
        # The LP takes block 0's cheap increment and 90% of block 1's, which
        # meets the time row; rounded down, block 1 runs slow, and moving it
        # to its fast candidate needs 100 bytes where 90 are left. Only
        # (X, Z) fits both budgets.
        blocks = (ProblemBlock(0, "b0"), ProblemBlock(1, "b1"))
        cands = (
            (Candidate(X, 0.5, 0, 2.0), Candidate(Y, 0.0, 10, 2.0)),
            (Candidate(X, 1.0, 0, 2.0), Candidate(Z, 0.0, 100, 0.4)),
        )
        prob = AllocationProblem.from_candidates(blocks=blocks, candidates=cands, mem_budget=100, time_budget=1.3)
        assert incumbent_of(prob)[0] is None
        sol = assert_same_as_bruteforce(prob)
        assert sol.assignment == {0: X, 1: Z}
        assert dp_rounds == [math.inf]  # one round, pruned by dominance alone

    def test_a_round_at_the_incumbent_without_a_leaf_is_a_bug(self, monkeypatch):
        prob = _solver_problem(np.random.default_rng(0), 12, 0.5, 1.0)
        assert incumbent_of(prob)[0] is not None
        monkeypatch.setattr(allocator._ParetoDP, "run", lambda self, limit: (None, 0))
        with pytest.raises(RuntimeError, match="unreachable"):
            solve_exact(prob)

    # Without an incumbent the DP round is unbounded, so the benchmark's
    # solves stay bounded only while its problems have one.
    def test_every_sweep_shaped_problem_has_an_incumbent(self):
        assert all(incumbent_of(prob)[0] is not None for prob in _sweep_draws(0, 459))

    @pytest.mark.parametrize("mem_ratio,time_budget", itertools.product([0.3, 0.5], [1.0, 0.9]))
    def test_three_hundred_solver_blocks_have_an_incumbent(self, mem_ratio, time_budget):
        prob = _solver_problem(np.random.default_rng(0), 300, mem_ratio, time_budget)
        assert incumbent_of(prob)[0] is not None


def _draw(seed, index):
    """Draw `index` of the `random_instance` suite seeded with `seed`."""
    rng = np.random.default_rng(seed)
    for _ in range(index):
        random_instance(rng)
    return random_instance(rng)


def _solver_signals(rng, n):
    """The signal model of the benchmark's `solve` workload."""
    signals = {}
    for i in range(n):
        geometry, momentum, distortion, structure = (float(x) for x in rng.uniform(0.0, 1.0, size=4))
        signals[i] = RiskSignals(
            geometry=geometry, momentum=momentum, distortion=distortion, structure=structure,
            precision={32: 0.0, 16: float(rng.uniform(0.0, 0.05)), 8: float(rng.uniform(0.0, 0.5))},
        )
    return signals


def _solver_problem(rng, n, mem_ratio, time_budget):
    """n blocks of the benchmark's solver shapes under the `solve` signal model."""
    shapes = ((4096, 4096), (4096, 11008), (11008, 4096), (4096,))
    blocks = [ProblemBlock(i, f"b{i}", (BlockShape(shapes[i % 4]),)) for i in range(n)]
    return build_problem(blocks, {}, budget_ratio=mem_ratio, time_budget=time_budget,
                         signals=_solver_signals(rng, n))


def _sweep_draws(seed, count):
    """12-block problems over the `sweep` workload's memory and time budgets."""
    rng = np.random.default_rng(seed)
    return [
        _solver_problem(rng, 12, float(rng.choice(np.arange(4, 21) / 20)), float(rng.choice([1.3, 1.0, 0.9])))
        for _ in range(count)
    ]


def _highs_rows(prob):
    """The problem over its usable cells for HiGHS: phi, the one-per-block
    equality rows, and the memory and mean time-ratio rows with their caps.
    Memory is scaled by the budget, so HiGHS's tolerances act on a row of
    order 1; time is capped as `_ParetoDP` caps it."""
    n = len(prob.blocks)
    rows, cols = np.nonzero(prob.column_mask)
    one_each = np.zeros((n, rows.size))
    one_each[rows, np.arange(rows.size)] = 1.0
    budget_rows = np.vstack((prob.mem[rows, cols] / prob.mem_budget, prob.ratio[rows, cols] / n))
    return prob.phi[rows, cols], one_each, budget_rows, np.array([1.0, prob.time_budget + allocator.TIME_SLACK])


class TestReducedCostFixing:
    """`_ParetoDP.run` drops the columns whose Lagrangian bound exceeds its limit."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), squeeze=st.one_of(st.none(), st.floats(0.0, 1.0)))
    def test_no_assignment_within_the_slack_loses_a_column(self, seed, squeeze):
        prob = random_instance(np.random.default_rng(seed), max_product=20_000)
        if squeeze is not None:
            # A time budget below the unconstrained optimum's mean ratio: the row binds.
            free = solve_bruteforce(AllocationProblem.from_candidates(
                prob.blocks, prob.candidates, prob.mem_budget, math.inf, prob.excluded))
            least = float(np.where(prob.column_mask, prob.ratio, np.inf).min(axis=1).mean())
            if free.is_optimal and free.mean_time_ratio > least:
                prob = AllocationProblem.from_candidates(
                    prob.blocks, prob.candidates, prob.mem_budget,
                    least + squeeze * (free.mean_time_ratio - least), prob.excluded)
        brute = assert_same_as_bruteforce(prob)
        if not brute.is_optimal:
            return
        dp = allocator._ParetoDP(prob)
        dp.root_bound()
        for table in dp.tables:
            bounds = table.column_bounds(prob.mem, prob.phi, prob.ratio, dp.time_cap)
            root = table.root(dp.time_cap)[0]
            scale = max(1.0, table.lam * abs(dp.time_cap)) if table.lam else 1.0
            assert np.abs(bounds.min(axis=1) - root).max() <= 1e-9 * scale

        keep = dp.valid & (dp.column_bound <= brute.objective + allocator.OBJECTIVE_SLACK)
        n = len(prob.blocks)
        choice = np.array(list(itertools.product(*map(np.flatnonzero, prob.column_mask))))
        rows = np.arange(n)
        obj = np.zeros(len(choice))
        for i in range(n):
            obj += prob.phi[i, choice[:, i]]
        within = (
            (prob.mem[rows, choice].sum(axis=1) <= prob.mem_budget)
            & (prob.ratio[rows, choice].sum(axis=1) / n <= prob.time_budget + allocator.TIME_SLACK)
            & (obj <= brute.objective + allocator.OBJECTIVE_SLACK)
        )
        assert within.any()
        assert keep[rows, choice[within]].all()

    def test_infinite_time_budget_proves_the_optimum_in_one_round(self, dp_rounds):
        # Time is unpriced (lam 0): the bounds must not take 0 * inf.
        rng = np.random.default_rng(53)
        for _ in range(20):
            prob = _table_instance(rng, 6, 6, float(rng.uniform(0.1, 0.9)), math.inf)
            dp = allocator._ParetoDP(prob)
            dp.root_bound()
            assert np.isfinite(dp.column_bound[dp.valid]).all()
            dp_rounds.clear()
            assert assert_same_as_bruteforce(prob).is_optimal
            assert len(dp_rounds) == 1

    def test_rounds_without_an_incumbent(self, dp_rounds):
        # Draw 560 of the seed-987654321 suite has no incumbent, so its one
        # round is unbounded: fixing keeps every column and dominance alone prunes.
        prob = _draw(987654321, 560)
        assert incumbent_of(prob)[0] is None
        assert assert_same_as_bruteforce(prob).is_optimal
        assert dp_rounds == [math.inf]

    def test_a_block_without_columns_ends_the_round(self):
        # Just below the least bound some block reaches, that block keeps no column.
        prob = _draw(987654321, 560)
        dp = allocator._ParetoDP(prob)
        dp.root_bound()
        limit = np.nextafter(np.where(dp.valid, dp.column_bound, np.inf).min(axis=1).max(), -np.inf)
        assert not (dp.valid & (dp.column_bound <= limit)).any(axis=1).all()
        assert dp.run(limit) == (None, 0)

    @pytest.mark.parametrize("mem_ratio", [0.3, 0.5])
    def test_three_hundred_blocks_against_scipy_milp(self, mem_ratio):
        # The benchmark's solver shapes at time 0.9. At memory 0.3 the time
        # row binds the root LP; at 0.5 it also moves the optimum.
        from scipy.optimize import Bounds, LinearConstraint, milp

        prob = _solver_problem(np.random.default_rng(0), 300, mem_ratio, 0.9)
        sol = solve_exact(prob)
        assert sol.is_optimal and verify(prob, sol).ok

        c, one_each, budget_rows, caps = _highs_rows(prob)
        res = milp(
            c=c,
            constraints=[LinearConstraint(one_each, 1, 1), LinearConstraint(budget_rows, -np.inf, caps)],
            integrality=np.ones(c.size),
            bounds=Bounds(0, 1),
            options={"mip_rel_gap": 0.0},
        )
        assert res.status == 0
        assert abs(sol.objective - float(res.fun)) <= 1e-9


@pytest.fixture(scope="module")
def priced_sweep_draws():
    """The `_sweep_draws(0, 459)` problems whose time row binds the price-0 LP,
    so that `_best_price` searches for a time price."""
    priced = []
    for prob in _sweep_draws(0, 459):
        dp = allocator._ParetoDP(prob)
        dp.root_bound()
        if len(dp.tables) > 1:
            priced.append(prob)
    return priced


class TestRootPrice:
    """`_best_price` ends near the LP optimum after few hull builds."""

    @staticmethod
    def _lp_optimum(prob):
        """HiGHS's optimum of the LP relaxation with both budget rows."""
        from scipy.optimize import linprog

        c, one_each, budget_rows, caps = _highs_rows(prob)
        res = linprog(c, A_ub=budget_rows, b_ub=caps, A_eq=one_each, b_eq=np.ones(len(one_each)), bounds=(0, 1),
                      method="highs")
        assert res.status == 0
        return float(res.fun)

    def test_root_bound_against_highs(self, priced_sweep_draws):
        assert len(priced_sweep_draws) > 100
        for prob in priced_sweep_draws + [_bracket_problem()]:
            dp = allocator._ParetoDP(prob)
            root = dp.root_bound()
            lp = self._lp_optimum(prob)
            assert root <= lp + 1e-9 * max(1.0, abs(lp))  # weak duality; above it the DP would prune the optimum
            assert root >= lp - allocator._PRICE_GAP

    def test_priced_problems_take_few_hull_builds(self, priced_sweep_draws, monkeypatch):
        lams = []
        build = allocator._PricedHulls.build.__func__

        def counted(cls, mem, phi, ratio, lam, *rest):
            lams.append(lam)
            return build(cls, mem, phi, ratio, lam, *rest)

        monkeypatch.setattr(allocator._PricedHulls, "build", classmethod(counted))
        for prob in priced_sweep_draws:
            allocator._ParetoDP(prob).root_bound()
        assert lams.count(0.0) == len(priced_sweep_draws)
        # 4.55 on these draws; starting at ptp(phi) / ptp(ratio) and growing fourfold took 6.78.
        assert (len(lams) - lams.count(0.0)) / len(priced_sweep_draws) <= 4.6

    def test_an_infeasible_problem_takes_few_hull_builds(self, monkeypatch):
        # Under the memory budget the LP's time row is never met, so the bound
        # grows with the price without end. The search stops once the bound
        # passes the largest phi (7 builds here); it took all 64 steps before.
        builds = []
        build = allocator._PricedHulls.build.__func__

        def counted(cls, *args):
            builds.append(args)
            return build(cls, *args)

        monkeypatch.setattr(allocator._PricedHulls, "build", classmethod(counted))
        sol = solve_exact(_time_row_unmet())
        assert sol.status == "infeasible" and sol.infeasible_reason == "no assignment satisfies both budgets"
        assert len(builds) <= 10


class TestSmallFrontGate:
    """Fronts of at most `_SMALL_FRONT` states skip the bound and dominance passes."""

    @staticmethod
    def _solutions(monkeypatch, problems, gate):
        monkeypatch.setattr(allocator, "_SMALL_FRONT", gate)
        # The states kept depend on the gate; nothing else may.
        return [dataclasses.replace(solve_exact(prob), nodes_explored=0) for prob in problems]

    @staticmethod
    def _first_round_columns(prob):
        """Product of the columns each block keeps in the first DP round: the
        most states that round carries unpruned (inf without an incumbent)."""
        dp = allocator._ParetoDP(prob)
        dp.root_bound()
        incumbent = dp.incumbent()
        if incumbent is None:
            return math.inf
        return math.prod((dp.valid & (dp.column_bound <= incumbent[0] + 1e-6)).sum(axis=1).tolist())

    @pytest.mark.parametrize("suite", ["random", "sweep"])
    def test_the_gate_leaves_every_solution_unchanged(self, suite, monkeypatch):
        if suite == "random":
            rng = np.random.default_rng(20240615)
            problems = [random_instance(rng) for _ in range(200)]  # at most 300,000 assignments each
            small = list(range(len(problems)))
        else:
            problems = _sweep_draws(11, 60)
            # Unpruned, a few draws carry over ten million states (GBs); leave those to gate 0.
            small = [i for i, prob in enumerate(problems) if self._first_round_columns(prob) <= 2**21]
            assert len(small) >= 50
        default = self._solutions(monkeypatch, problems, allocator._SMALL_FRONT)
        assert sum(sol.is_optimal for sol in default) > len(problems) // 2
        assert self._solutions(monkeypatch, problems, 0) == default  # every front pruned
        unpruned = self._solutions(monkeypatch, [problems[i] for i in small], 2**62)  # only the leaves pruned
        assert unpruned == [default[i] for i in small]

    def test_the_passes_see_only_large_fronts(self, monkeypatch):
        fronts = {"bound": [], "dominance": []}
        bound, undominated = allocator._PricedHulls.bound, allocator._undominated

        def counted_bound(self, first, sel, spare_mem, spare_time):
            fronts["bound"].append(spare_mem.size)
            return bound(self, first, sel, spare_mem, spare_time)

        def counted_undominated(mems, times, phis, mem_free, time_free):
            fronts["dominance"].append(mems.size)
            return undominated(mems, times, phis, mem_free, time_free)

        monkeypatch.setattr(allocator._PricedHulls, "bound", counted_bound)
        monkeypatch.setattr(allocator, "_undominated", counted_undominated)
        rng = np.random.default_rng(5)
        for prob in _sweep_draws(5, 60) + [random_instance(rng) for _ in range(100)]:
            solve_exact(prob)
        assert min(fronts["bound"] + fronts["dominance"], default=math.inf) > allocator._SMALL_FRONT

        fronts["bound"].clear()
        fronts["dominance"].clear()
        assert solve_exact(_solver_problem(np.random.default_rng(0), 300, 0.3, 0.9)).is_optimal
        assert min(fronts["bound"]) > allocator._SMALL_FRONT
        assert min(fronts["dominance"]) > allocator._SMALL_FRONT


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
        prob = AllocationProblem.from_candidates(
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

    def test_partial_plan_memory_is_checked(self):
        prob = two_block_problem(8)
        partial = AllocationSolution(status="optimal", assignment={0: X}, objective=0.1,
                                     total_mem=10, mean_time_ratio=1.0)
        report = verify(prob, partial)
        assert {v.kind for v in report.violations} == {"coverage", "memory"}
        assert report.total_mem == 10
        within = verify(two_block_problem(14), partial)
        assert {v.kind for v in within.violations} == {"coverage"}

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


SHAPE_SETS = (
    (BlockShape((100,)),),
    (BlockShape((64, 32)),),
    (BlockShape((3, 10, 20)),),
    (BlockShape((100, 1)),),
    (BlockShape((64, 32)), BlockShape((3, 10, 20))),
    (BlockShape((64, 32)), BlockShape((100,))),
    (BlockShape((1, 100)), BlockShape((5, 1, 100))),
)
SELECTORS = ("adamw:8", "adam", "sgd", "sgdm:16", "adafactor", "adafactor:32", "sgdwm:8")
# Narrowings of the grid to its 16- and 8-bit states and to Adafactor and SGD.
NARROWINGS = (
    (),
    ("adamw:32", "adam:32", "sgdm:32", "sgdwm:32", "adafactor:32"),
    ("adamw", "adam", "sgdm", "sgdw", "sgdwm"),
)
block_signals = st.builds(
    RiskSignals,
    *[st.floats(0.0, 2.0)] * 4,
    st.fixed_dictionaries({32: st.floats(0.0, 0.1), 16: st.floats(0.0, 0.5), 8: st.floats(0.0, 3.0)}),
)


class TestProblemTable:
    """`build_problem`'s (blocks x grid) table against the scalar definitions."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape_sets=st.lists(st.sampled_from(SHAPE_SETS), min_size=1, max_size=5),
        signals=st.lists(block_signals, min_size=5, max_size=5),
        exclude=st.lists(st.sampled_from(SELECTORS), max_size=3),
        prefer=st.lists(st.sampled_from(SELECTORS), max_size=2),
        lambda_pref=st.floats(0.0, 1.0),
        gamma=st.floats(0.0, 0.5),
        narrowing=st.sampled_from(NARROWINGS),
    )
    def test_cells_equal_the_scalar_definitions(self, shape_sets, signals, exclude, prefer, lambda_pref, gamma, narrowing):
        blocks = [ProblemBlock(10 + i, f"b{i}", shapes) for i, shapes in enumerate(shape_sets)]
        by_id = {b.id: s for b, s in zip(blocks, signals)}
        weights = RiskWeights(lambda_pref=lambda_pref)
        try:
            prob = build_problem(blocks, {}, signals=by_id, weights=weights, gamma=gamma,
                                 exclude=exclude + list(narrowing), prefer=prefer)
        except AllocationBuildError as exc:
            assert "all candidates excluded" in str(exc)
            return
        preferred = RiskWeights(lambda_pref=lambda_pref, pref_set=expand_selectors(prefer, GRID))
        for i, block in enumerate(blocks):
            grid = enumerate_candidates_multi(block.shapes)
            assert prob.configs[i] == tuple(c for c in grid if c not in prob.excluded[i])
            assert all(c in grid for c in prob.excluded[i])
            for j, cfg in enumerate(prob.configs[i]):
                assert int(prob.mem[i, j]) == sum(state_bytes(cfg, s) for s in block.shapes)
                assert prob.phi[i, j] == phi(cfg, by_id[block.id], preferred, gamma)
                assert prob.ratio[i, j] == CostModel.static_default().ratio(cfg)
            assert prob.column_mask[i].sum() == len(prob.configs[i])
        assert prob.mem_budget == round(0.5 * sum(state_bytes(ADAMW16, s) for b in blocks for s in b.shapes))

    def test_state_bytes_beyond_int64_is_an_error(self):
        huge = ProblemBlock(0, "huge", (BlockShape((2**31, 2**31)),))
        with pytest.raises(AllocationBuildError, match="64-bit"):
            build_problem([huge], {}, signals={0: _signals()})

    def test_an_op_builds_no_candidate_objects(self):
        prob = build_problem(_specs3(), {}, budget_ratio=0.4, signals={i: _signals() for i in range(3)})
        sol = solve_exact(prob)
        plan_bytes(plan_to_json_dict(prob, sol))
        assert verify(prob, sol).ok
        assert "candidates" not in vars(prob)
        assert prob.candidates[1][0] == Candidate(prob.configs[1][0], float(prob.phi[1, 0]), int(prob.mem[1, 0]),
                                                  float(prob.ratio[1, 0]))
        assert "candidates" in vars(prob)

    def test_candidate_views(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            prob = random_instance(rng)
            for i in range(len(prob.blocks)):
                row = prob.candidates[i]
                assert tuple(c.config for c in row) == prob.configs[i]
                assert [(j, c) for j, c in enumerate(row) if c.config not in prob.excluded[i]] == prob.usable(i)
            again = AllocationProblem.from_candidates(prob.blocks, prob.candidates, prob.mem_budget, prob.time_budget,
                                                      prob.excluded)
            assert again == prob and again.candidates == prob.candidates

    def test_duplicate_block_ids_are_rejected(self):
        blocks = (ProblemBlock(0, "b0"), ProblemBlock(0, "b1"))
        row = (Candidate(X, 0.1, 64, 1.0),)
        with pytest.raises(AllocationBuildError, match="duplicate block id 0"):
            AllocationProblem.from_candidates(blocks, (row, row), mem_budget=100, time_budget=2.0)
        shaped = [ProblemBlock(0, "b0", (BlockShape((4, 4)),)), ProblemBlock(0, "b1", (BlockShape((8,)),))]
        with pytest.raises(AllocationBuildError, match="duplicate block id 0"):
            build_problem(shaped, {}, signals={0: _signals()})

    def test_nan_time_budget_is_rejected(self):
        # Every comparison with NaN is false, so verify would pass any plan.
        row = (Candidate(X, 0.1, 64, 1.0),)
        with pytest.raises(AllocationBuildError, match="time budget must be a number, got NaN"):
            AllocationProblem.from_candidates((ProblemBlock(0, "b0"),), (row,), mem_budget=100, time_budget=math.nan)
        with pytest.raises(AllocationBuildError, match="time budget must be a number, got NaN"):
            build_problem(_specs3(), {}, time_budget=math.nan, signals={i: _signals() for i in range(3)})

    @pytest.mark.parametrize(
        "cell, message",
        [
            (Candidate(Y, 0.1, -1, 1.0), "memory must be non-negative"),
            (Candidate(Y, 0.1, 4, 0.0), "time ratio must be positive"),
            (Candidate(Y, math.nan, 4, 1.0), "objective term must be finite"),
            (Candidate(Y, math.inf, 4, 1.0), "objective term must be finite"),
        ],
    )
    def test_from_candidates_checks_every_cell(self, cell, message):
        rows = ((Candidate(X, 0.1, 10, 1.0),), (Candidate(X, 0.2, 10, 1.0), cell))
        with pytest.raises(ValueError, match=rf"blocks\[1\]: candidates\[1\]: candidate {message}"):
            AllocationProblem.from_candidates((ProblemBlock(0, "b0"), ProblemBlock(1, "b1")), rows, 100, 2.0)

    def test_from_candidates_drops_excluded_rows(self):
        blocks = (ProblemBlock(0, "b0"), ProblemBlock(1, "b1"))
        row = (Candidate(X, 0.1, 10, 1.0), Candidate(Y, 0.2, 4, 0.8), Candidate(Z, 0.9, 0, 0.5))
        prob = AllocationProblem.from_candidates(blocks, (row, row), 20, 2.0, (frozenset({Y}), frozenset()))
        assert prob.configs == ((X, Z), (X, Y, Z))
        assert prob.excluded == (frozenset({Y}), frozenset())
        assert prob.candidates[0] == (row[0], row[2])
        assert prob.usable(0) == [(0, row[0]), (1, row[2])]
        assert prob.column_mask.tolist() == [[True, True, False], [True, True, True]]
        assert (prob.phi[0, 2], prob.mem[0, 2], prob.ratio[0, 2]) == (math.inf, 0, 0.0)
        with pytest.raises(AllocationBuildError, match="block 1: all candidates excluded"):
            AllocationProblem.from_candidates(blocks, (row, row[:1]), 20, 2.0, (frozenset(), frozenset({X})))

    def test_a_configuration_both_column_and_excluded_is_rejected(self):
        blocks = (ProblemBlock(0, "b0"), ProblemBlock(1, "b1"))
        table = np.array([[0.1, 0.2], [0.1, 0.2]])
        with pytest.raises(ValueError, match="block 1: sgdm:16 is both a candidate and excluded"):
            AllocationProblem(blocks, ((X, Y), (X, Y)), table, np.zeros((2, 2), np.int64), np.ones((2, 2)),
                              mem_budget=10, time_budget=2.0, excluded=(frozenset(), frozenset({Y})))

    def test_constructor_keeps_read_only_copies(self):
        base = np.array([[0.1, 1.0], [0.2, 0.3], [9.0, 9.0]])
        blocks = (ProblemBlock(0, "b0"), ProblemBlock(1, "b1"))
        prob = AllocationProblem(blocks, ((X, Y), (X, Y)), base[:2], np.array([[10, 4], [10, 5]]),
                                 np.ones((2, 2)), mem_budget=14, time_budget=2.0)
        assert base.flags.writeable
        base[0, 0] = 5.0
        assert prob.phi[0, 0] == 0.1
        with pytest.raises(ValueError):
            prob.phi[0, 0] = 5.0

    def test_content_equality(self):
        prob = two_block_problem(14)
        assert prob == two_block_problem(14)
        assert prob != two_block_problem(15)
        other = AllocationProblem.from_candidates(
            prob.blocks, ((Candidate(X, 0.1, 10, 1.0), Candidate(Y, 1.0, 4, 1.0)),
                          (Candidate(X, 0.2, 10, 1.0), Candidate(Y, 0.3, 5, 1.0))), 14, math.inf)
        assert prob != other


class TestSerialization:
    def test_problem_round_trip(self):
        specs = _specs3()
        signals = {s.id: _signals() for s in specs}
        prob = build_problem(specs, {}, signals=signals, exclude=["sgd"])
        again = problem_from_json_dict(json.loads(json.dumps(problem_to_json_dict(prob))))
        assert again == prob

    def test_from_candidates_round_trip(self, instance_rng):
        for _ in range(50):
            prob = random_instance(instance_rng)
            again = problem_from_json_dict(json.loads(json.dumps(problem_to_json_dict(prob))))
            assert again == prob
            assert again.candidates == prob.candidates
            assert [again.usable(i) for i in range(len(prob.blocks))] == [prob.usable(i) for i in range(len(prob.blocks))]

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
