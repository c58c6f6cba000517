import gc
import warnings

import numpy as np
import pytest

from baoc.allocator import solve_bruteforce
from baoc.config_space import ADAMW16, CandidatePolicy
from baoc.pipeline import (
    AllocationInfeasibleError,
    RunConfig,
    RunResult,
    collect_metrics,
    group_blocks,
    plan_bytes,
    run_allocation,
)
from baoc.risk import signals_from_metrics
from baoc.simulator import StreamProfile, generate_stream
from baoc.trace import BlockSpec, StepRecord, write_trace


def three_block_trace(steps=150, seed=0):
    specs = [
        BlockSpec.create(0, "emb", (20, 30), 1.0, seed=seed),
        BlockSpec.create(1, "ffn", (24, 24), 1.0, seed=seed),
        BlockSpec.create(2, "norm", (64,), 1.0, seed=seed),
    ]
    profiles = {
        0: StreamProfile(noise_scale_spread=2.0, drift_strength=1.0, seed=seed),
        1: StreamProfile(noise_scale_spread=0.2, drift_strength=5.0, drift_persistence=0.9, seed=seed + 50),
        2: StreamProfile(noise_scale_spread=1.0, rank1_mix=0.0, seed=seed + 99),
    }
    return specs, generate_stream(specs, profiles, steps)


class TestRunAllocation:
    def test_full_budget_run_is_optimal_and_bounded_by_adamw16(self):
        specs, records = three_block_trace()
        result = run_allocation(RunConfig(budget_ratio=1.0), (specs, records))
        sol, prob = result.solution, result.problem
        assert sol.status == "optimal"
        assert sol.total_mem <= prob.mem_budget
        adamw16_objective = sum(
            next(c.phi for c in prob.candidates[i] if c.config == ADAMW16)
            for i in range(len(prob.blocks))
        )
        assert sol.objective <= adamw16_objective + 1e-9

    def test_plan_schema_and_metrics_report(self):
        specs, records = three_block_trace()
        result = run_allocation(RunConfig(budget_ratio=0.5), (specs, records))
        assert {row["block_id"] for row in result.metrics_report} == {0, 1, 2}
        assert set(result.plan) == {"status", "objective", "B_mem", "total_mem", "B_time",
                                    "mean_time_ratio", "blocks"}
        assert [row["id"] for row in result.plan["blocks"]] == [0, 1, 2]

    def test_deterministic_plan_bytes(self, tmp_path):
        specs, records = three_block_trace()
        path = tmp_path / "t.jsonl"
        write_trace(path, specs, records, 1.0)
        a = run_allocation(RunConfig(budget_ratio=0.6), path)
        b = run_allocation(RunConfig(budget_ratio=0.6), path)
        assert plan_bytes(a.plan) == plan_bytes(b.plan)

    def test_exchange_prefers_high_anisotropy_block(self):
        seed = 5
        specs = [
            BlockSpec.create(0, "high", (24, 24), 1.0, seed=seed),
            BlockSpec.create(1, "low", (24, 24), 1.0, seed=seed),
        ]
        profiles = {
            0: StreamProfile(noise_scale_spread=0.68, drift_strength=3.0, drift_persistence=0.5, seed=seed),
            1: StreamProfile(noise_scale_spread=0.27, drift_strength=3.0, drift_persistence=0.5, seed=seed + 1000),
        }
        records = generate_stream(specs, profiles, 300)
        config = RunConfig(
            budget_ratio=0.75,
            policy=CandidatePolicy(families=("adamw", "sgdwm"), bits=(16,)),
        )
        result = run_allocation(config, (specs, records))
        assert result.solution.assignment[0].adaptive
        assert not result.solution.assignment[1].adaptive
        brute = solve_bruteforce(result.problem)
        assert brute.assignment == result.solution.assignment

    def test_infeasible_reports_minimum_budget(self):
        specs, records = three_block_trace()
        config = RunConfig(budget_ratio=0.1, policy=CandidatePolicy(families=("adamw", "adam")))
        with pytest.raises(AllocationInfeasibleError) as err:
            run_allocation(config, (specs, records))
        min_mem = sum(s.shape.param_count * 2 for s in specs)  # adamw8 everywhere
        assert f"{min_mem} bytes" in str(err.value)
        assert err.value.solution.status == "infeasible"

    def test_empty_trace_rejected(self):
        specs, _ = three_block_trace(steps=1)
        with pytest.raises(ValueError, match="empty trace"):
            run_allocation(RunConfig(), (specs, []))

    def test_no_blocks_rejected(self):
        with pytest.raises(ValueError, match="no blocks"):
            run_allocation(RunConfig(), ([], []))

    def test_no_blocks_trace_file_leaks_no_handle(self, tmp_path):
        path = tmp_path / "no_blocks.jsonl"
        write_trace(path, [], [], sampling_ratio=0.1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="no blocks"):
                run_allocation(RunConfig(), path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_warmup_steps_truncates(self):
        specs, records = three_block_trace(steps=100)
        metrics_full = collect_metrics(specs, records)
        metrics_cut = collect_metrics(specs, records, max_steps=10)
        assert metrics_cut[0].steps == 10
        assert metrics_full[0].steps == 100
        assert metrics_cut[0].anisotropy != metrics_full[0].anisotropy

    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(budget_ratio=0.0)
        with pytest.raises(ValueError):
            RunConfig(warmup_steps=1)


class TestGrouping:
    def test_grouped_blocks_sum_memory(self):
        specs, records = three_block_trace()
        metrics = collect_metrics(specs, records)
        signals = {s.id: signals_from_metrics(metrics[s.id]) for s in specs}
        blocks, merged = group_blocks(specs, signals, [[0, 1], [2]])
        assert len(blocks) == 2
        assert blocks[0].shapes == (specs[0].shape, specs[1].shape)
        big, small = signals[0], signals[1]
        w0 = specs[0].shape.param_count / (specs[0].shape.param_count + specs[1].shape.param_count)
        assert merged[0].geometry == pytest.approx(w0 * big.geometry + (1 - w0) * small.geometry)

    def test_group_validation(self):
        specs, records = three_block_trace()
        metrics = collect_metrics(specs, records)
        signals = {s.id: signals_from_metrics(metrics[s.id]) for s in specs}
        with pytest.raises(ValueError, match="unknown block"):
            group_blocks(specs, signals, [[0, 9], [1, 2]])
        with pytest.raises(ValueError, match="more than one group"):
            group_blocks(specs, signals, [[0, 1], [1, 2]])
        with pytest.raises(ValueError, match="not covered"):
            group_blocks(specs, signals, [[0, 1]])

    def test_run_allocation_with_groups(self):
        specs, records = three_block_trace()
        result = run_allocation(RunConfig(budget_ratio=0.8), (specs, records), groups=[[0, 1], [2]])
        assert len(result.problem.blocks) == 2
        assert result.solution.status == "optimal"
        mem_01 = next(
            c.mem_bytes for c in result.problem.candidates[0] if c.config == ADAMW16
        )
        assert mem_01 == (specs[0].shape.param_count + specs[1].shape.param_count) * 4


class TestCollectMetrics:
    def test_unknown_block_in_records(self):
        specs, _ = three_block_trace()
        bad = [StepRecord(step=1, grads={7: np.ones(3)})]
        with pytest.raises(ValueError, match="unknown block 7"):
            collect_metrics(specs, bad)
