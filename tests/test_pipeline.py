import base64
import gc
import json
import math
import warnings

import numpy as np
import pytest

from baoc.allocator import build_problem, plan_to_json_dict, solution_from_plan_dict, solve_bruteforce, solve_exact
from baoc.config_space import ADAMW16, Configuration
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
from baoc.trace import BlockSpec, StepRecord, read_trace, write_trace
from conftest import v5_records, write_trace_v4


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

    def test_plan_schema(self):
        specs, records = three_block_trace()
        result = run_allocation(RunConfig(budget_ratio=0.5), (specs, records))
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
        config = RunConfig(  # only AdamW and SGDW+momentum at 16 bits stay
            budget_ratio=0.75,
            exclude=("adam", "sgd", "sgdm", "sgdw", "adafactor", "adamw:32", "adamw:8", "sgdwm:32", "sgdwm:8"),
        )
        result = run_allocation(config, (specs, records))
        assert result.solution.assignment[0].adaptive
        assert not result.solution.assignment[1].adaptive
        brute = solve_bruteforce(result.problem)
        assert brute.assignment == result.solution.assignment

    def test_infeasible_reports_minimum_budget(self):
        specs, records = three_block_trace()
        config = RunConfig(budget_ratio=0.1, exclude=("sgd", "sgdm", "sgdw", "sgdwm", "adafactor"))
        with pytest.raises(AllocationInfeasibleError) as err:
            run_allocation(config, (specs, records))
        min_mem = sum(s.shape.param_count * 2 for s in specs)  # adamw8 everywhere
        assert f"{min_mem} bytes" in str(err.value)
        assert err.value.solution.status == "infeasible"

    def test_infeasible_states_the_minimum_once(self):
        specs, records = three_block_trace()
        config = RunConfig(budget_ratio=0.1, exclude=("sgd", "sgdm", "sgdw", "sgdwm", "adafactor"))
        with pytest.raises(AllocationInfeasibleError) as err:
            run_allocation(config, (specs, records))
        baseline = sum(s.shape.param_count * 4 for s in specs)  # adamw16 everywhere
        min_mem = baseline // 2  # adamw8 everywhere
        assert str(err.value) == (
            f"memory budget {round(0.1 * baseline)} below minimum feasible {min_mem} bytes (budget ratio 0.5)"
        )
        assert str(err.value).count(str(min_mem)) == 1

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

    def test_given_metrics_replace_the_records(self):
        specs, records = three_block_trace()
        config = RunConfig(budget_ratio=0.5, warmup_steps=40)
        metrics = collect_metrics(specs, records, max_steps=40)
        specs, records = three_block_trace()

        def unread():
            raise AssertionError("records read although metrics were given")
            yield

        given = run_allocation(config, (specs, unread()), groups=[[0, 1], [2]], metrics=metrics)
        diagnosed = run_allocation(config, (specs, records), groups=[[0, 1], [2]])
        assert plan_bytes(given.plan) == plan_bytes(diagnosed.plan)
        assert given.metrics is metrics and diagnosed.metrics == metrics

    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(budget_ratio=0.0)
        with pytest.raises(ValueError):
            RunConfig(warmup_steps=1)


def json_plan_bytes(plan):
    return (json.dumps(plan, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _solved_plans():
    """One plan per feasible (memory, time) budget pair on the three-block trace."""
    specs, records = three_block_trace(steps=40)
    metrics = collect_metrics(specs, records)
    plans = []
    for ratio in (0.2, 0.3, 0.5, 0.75, 1.0, 2.0):
        for time_budget in (0.9, 1.0, 1.3, math.inf):
            problem = build_problem(specs, metrics, budget_ratio=ratio, time_budget=time_budget)
            solution = solve_exact(problem)
            if solution.is_optimal:
                plans.append(plan_to_json_dict(problem, solution))
    return plans


def _assert_written_as_json(plan):
    data = plan_bytes(plan)
    assert data == json_plan_bytes(plan)
    solution = solution_from_plan_dict(json.loads(data))
    assert solution.assignment == {row["id"]: Configuration.from_json_dict(row["config"]) for row in plan["blocks"]}
    assert (solution.objective, solution.total_mem) == (plan["objective"], plan["total_mem"])


class TestPlanBytes:
    def test_solved_plans_match_json_dumps(self):
        plans = _solved_plans()
        assert len(plans) >= 12
        assert any(plan["B_time"] == math.inf for plan in plans)
        for plan in plans:
            _assert_written_as_json(plan)

    @pytest.mark.parametrize(
        "name",
        ['quote"d', "back\\slash", "new\nline", "bell\x07 and nul\x00", "caf\u00e9", "clef \U0001d11e"],
        ids=["quote", "backslash", "newline", "control", "e-acute", "outside-bmp"],
    )
    def test_block_names_are_escaped_as_json_escapes_them(self, name):
        plan = _solved_plans()[0]
        for row in plan["blocks"]:
            row["name"] = f"{name}{row['id']}"
        _assert_written_as_json(plan)
        if name.startswith("clef"):
            assert b"\\ud834\\udd1e" in plan_bytes(plan)

    def test_leaves_of_other_float_types(self):
        plan = _solved_plans()[0]
        plan["B_time"] = math.inf
        plan["objective"] = 1.0
        plan["blocks"][0]["phi"] = np.float64(0.1) + np.float64(0.2)
        plan["blocks"][1]["time_ratio"] = 2.0
        data = plan_bytes(plan)
        assert b'"B_time": Infinity' in data and b'"objective": 1.0' in data
        assert b'"phi": 0.30000000000000004' in data
        _assert_written_as_json(plan)

    def test_non_finite_values_and_no_blocks(self):
        plan = _solved_plans()[0]
        plan.update(blocks=[], B_time=-math.inf, mean_time_ratio=math.nan)
        assert plan_bytes(plan) == json_plan_bytes(plan)

    def test_a_top_level_key_outside_the_schema_is_an_error(self):
        plan = _solved_plans()[0]
        plan["solver"] = "dp"
        with pytest.raises(ValueError, match="plan has key 'solver'"):
            plan_bytes(plan)
        del plan["solver"], plan["status"]
        with pytest.raises(ValueError, match="plan lacks key 'status'"):
            plan_bytes(plan)

    def test_a_row_key_outside_the_schema_is_an_error(self):
        plan = _solved_plans()[0]
        plan["blocks"][1]["shape"] = [4, 4]
        with pytest.raises(ValueError, match="plan block 1 has key 'shape'"):
            plan_bytes(plan)
        del plan["blocks"][1]["shape"]
        plan["blocks"][1]["config"]["lr"] = 0.1
        with pytest.raises(ValueError, match="plan block 1 config has key 'lr'"):
            plan_bytes(plan)


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


def _write_v1_trace(path, specs, records, sampling_ratio):
    """The version-1 layout: every vector a JSON array of decimal numbers."""
    lines = [json.dumps({"version": 1, "sampling_ratio": sampling_ratio, "blocks": [s.to_json_dict() for s in specs]})]
    for rec in records:
        obj = {"step": rec.step, "grads": {str(b): v.tolist() for b, v in rec.grads.items()}}
        if rec.params is not None:
            obj["params"] = {str(b): v.tolist() for b, v in rec.params.items()}
        lines.append(json.dumps(obj))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestTraceVersions:
    def test_v1_and_v2_traces_give_the_same_metrics_and_plan(self, tmp_path):
        ratio, seed = 0.1, 4
        specs = [
            BlockSpec.create(0, "attn", (40, 50), ratio, seed=seed),
            BlockSpec.create(1, "ffn", (2, 30, 30), ratio, seed=seed),
            BlockSpec.create(2, "norm", (64,), ratio, seed=seed),
        ]
        profiles = {
            0: StreamProfile(noise_scale_spread=1.5, rank1_mix=0.7, drift_strength=1.0, seed=seed),
            1: StreamProfile(noise_scale_spread=0.3, drift_strength=4.0, drift_persistence=0.9, seed=seed + 1),
            2: StreamProfile(noise_scale_spread=1.0, seed=seed + 2),
        }
        records = generate_stream(specs, profiles, 40)
        v1, v2 = tmp_path / "v1.jsonl", tmp_path / "v2.jsonl"
        _write_v1_trace(v1, specs, records, ratio)
        write_trace(v2, specs, records, ratio)
        assert v1.read_bytes() != v2.read_bytes()

        assert collect_metrics(*read_trace(v1)) == collect_metrics(*read_trace(v2))
        config = RunConfig(budget_ratio=0.5)
        plans = [plan_bytes(run_allocation(config, path, groups=[[0, 1], [2]]).plan) for path in (v1, v2)]
        assert plans[0] == plans[1]


def _write_v2_trace(path, specs, records, sampling_ratio):
    """The version-2 layout: every vector written out as base64, repeats included."""

    def encode(vectors):
        return {str(b): base64.b64encode(v.astype("<f8").tobytes()).decode("ascii") for b, v in vectors.items()}

    lines = [json.dumps({"version": 2, "sampling_ratio": sampling_ratio, "blocks": [s.to_json_dict() for s in specs]})]
    for rec in records:
        obj = {"step": rec.step, "grads": encode(rec.grads)}
        if rec.params is not None:
            obj["params"] = encode(rec.params)
        lines.append(json.dumps(obj))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _simulated(ratio=0.1, seed=4, steps=40):
    specs = [
        BlockSpec.create(0, "attn", (40, 50), ratio, seed=seed),
        BlockSpec.create(1, "ffn", (2, 30, 30), ratio, seed=seed),
        BlockSpec.create(2, "norm", (64,), ratio, seed=seed),
    ]
    profiles = {
        0: StreamProfile(noise_scale_spread=1.5, rank1_mix=0.7, drift_strength=1.0, seed=seed),
        1: StreamProfile(noise_scale_spread=0.3, drift_strength=4.0, drift_persistence=0.9, seed=seed + 1),
        2: StreamProfile(noise_scale_spread=1.0, seed=seed + 2),
    }
    return specs, generate_stream(specs, profiles, steps)


class TestTraceVersion3:
    def test_v1_v2_and_v3_traces_give_the_same_metrics_and_plan(self, tmp_path):
        ratio = 0.1
        specs, records = _simulated(ratio)
        # Drop the parameter sample at some steps, so absent params must survive every layout.
        records = [StepRecord(r.step, r.grads, None if r.step % 7 == 0 else r.params) for r in records]
        paths = {v: tmp_path / f"v{v}.jsonl" for v in (1, 2, 4, 5)}
        _write_v1_trace(paths[1], specs, records, ratio)
        _write_v2_trace(paths[2], specs, records, ratio)
        write_trace_v4(paths[4], specs, records, ratio)
        write_trace(paths[5], specs, records, ratio)
        assert [json.loads(p.read_text().splitlines()[0])["version"] for p in paths.values()] == [1, 2, 4, 5]
        assert paths[4].stat().st_size < 0.75 * paths[2].stat().st_size

        metrics = [collect_metrics(*read_trace(p)) for p in paths.values()]
        assert metrics[0] == metrics[1] == metrics[2] == metrics[3]
        config = RunConfig(budget_ratio=0.5)
        plans = [plan_bytes(run_allocation(config, p, groups=[[0, 1], [2]]).plan) for p in paths.values()]
        assert plans[0] == plans[1] == plans[2] == plans[3]

    def test_simulated_trace_writes_each_parameter_vector_once(self, tmp_path):
        specs, records = _simulated()
        path = tmp_path / "t.jsonl"
        write_trace(path, specs, records, 0.1)
        lines = v5_records(path)
        assert len(lines) == 40
        for spec in specs:
            values = [head["params"][str(spec.id)] for head, _ in lines]
            assert values == [None] + [1] * 39
            assert all(head["grads"][str(spec.id)] is None for head, _ in lines)
        floats = sum(s.sample_size for s in specs)
        assert [len(payload) for _, payload in lines] == [2 * 16 * floats] + [16 * floats] * 39
        _, stream = read_trace(path)
        back = list(stream)
        for spec in specs:
            assert all(rec.params[spec.id] is back[0].params[spec.id] for rec in back)
            assert back[0].params[spec.id].tobytes() == records[0].params[spec.id].tobytes()

    def test_trace_without_repeats_is_the_version_2_layout(self, tmp_path):
        # As in training, the optimizer moves the parameters at every step, so no
        # vector repeats: version 4 then writes the same records as version 2, and
        # version 5 no reference.
        specs, moving = _moving(*_simulated())
        v2, v4, v5 = tmp_path / "v2.jsonl", tmp_path / "v4.jsonl", tmp_path / "v5.jsonl"
        _write_v2_trace(v2, specs, moving, 0.1)
        write_trace_v4(v4, specs, moving, 0.1)
        write_trace(v5, specs, moving, 0.1)
        lines2, lines4 = v2.read_text().splitlines(), v4.read_text().splitlines()
        assert lines4[1:] == lines2[1:]
        assert json.loads(lines4[0]) == json.loads(lines2[0]) | {"version": 4}
        assert all(value is None for head, _ in v5_records(v5) for kind in ("grads", "params")
                   for value in head[kind].values())
        assert collect_metrics(*read_trace(v2)) == collect_metrics(*read_trace(v5))


def _moving(specs, records):
    """`records` with the parameters moved at every step, as an optimizer
    moves them, so that no vector repeats."""
    params = records[0].params
    moving = []
    for rec in records:
        params = {b: p - 0.01 * rec.grads[b] for b, p in params.items()}
        moving.append(StepRecord(rec.step, rec.grads, params))
    return specs, moving


def _metrics_text(metrics):
    """Every metric's repr, so that equal text means bit-identical values."""
    return json.dumps([m.to_json_dict(block_id) for block_id, m in metrics.items()])


class TestVersion4And5:
    """One stream written as version 4 and as version 5 gives the same metrics and plan."""

    @pytest.mark.parametrize("stream", ["repeating", "moving"])
    def test_same_metrics_and_plan_bytes(self, stream, tmp_path):
        specs, records = _simulated()
        if stream == "moving":
            specs, records = _moving(specs, records)
        v4, v5 = tmp_path / "v4.jsonl", tmp_path / "v5.jsonl"
        write_trace_v4(v4, specs, records, 0.1)
        write_trace(v5, specs, records, 0.1)
        heads = [head for head, _ in v5_records(v5)]
        references = sum(type(v) is int for head in heads for kind in ("grads", "params") for v in head[kind].values())
        assert references == (0 if stream == "moving" else 3 * 39)

        metrics4, metrics5 = collect_metrics(*read_trace(v4)), collect_metrics(*read_trace(v5))
        assert _metrics_text(metrics4) == _metrics_text(metrics5)
        config = RunConfig(budget_ratio=0.5)
        plans = [plan_bytes(run_allocation(config, p, groups=[[0, 1], [2]]).plan) for p in (v4, v5)]
        assert plans[0] == plans[1]
