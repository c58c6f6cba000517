import dataclasses
import gc
import hashlib
import json
import math
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from baoc import cli
from baoc.cli import EXIT_INFEASIBLE, EXIT_INPUT_ERROR, EXIT_OK, _BackgroundSha256, dispatch
from baoc.config_space import CostModel
from baoc.diagnostics import DiagnosticsState
from baoc.trace import BlockSpec, read_trace
from conftest import write_trace_v4

PROFILES = {
    "sampling_ratio": 1.0,
    "blocks": [
        {"id": 0, "name": "l0.attn", "dims": [16, 16], "kind": "attention",
         "profile": {"noise_scale_spread": 2.0, "drift_strength": 1.0}},
        {"id": 1, "name": "l0.ffn", "dims": [16, 16], "kind": "ffn",
         "profile": {"noise_scale_spread": 0.1, "drift_strength": 1.0, "drift_persistence": 0.8}},
    ],
}


@pytest.fixture()
def trace_path(tmp_path):
    profile_path = tmp_path / "profiles.json"
    profile_path.write_text(json.dumps(PROFILES))
    out = tmp_path / "trace.jsonl"
    code = dispatch(["simulate", "--profile", str(profile_path), "--steps", "120",
                     "--seed", "3", "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    return out


class TestHelpAndUsage:
    @pytest.mark.parametrize(
        "cmd", ["simulate", "diagnose", "allocate", "partition", "bench", "verify"]
    )
    def test_help_exits_zero(self, cmd, capsys):
        assert dispatch([cmd, "--help"]) == EXIT_OK
        assert "usage" in capsys.readouterr().out

    def test_top_level_help(self, capsys):
        assert dispatch(["--help"]) == EXIT_OK

    def test_unknown_flag_is_an_error(self, trace_path, capsys):
        code = dispatch(["diagnose", "--trace", str(trace_path), "--frobnicate"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "\n" not in err.strip("\n").replace("\n", "")

    def test_unknown_command(self, capsys):
        assert dispatch(["explode"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")


class TestSimulate:
    def test_stdout_when_no_out(self, tmp_path, capsys):
        profile_path = tmp_path / "profiles.json"
        profile_path.write_text(json.dumps(PROFILES))
        code = dispatch(["simulate", "--profile", str(profile_path), "--steps", "3",
                         "--seed", "1", "--quiet"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # header + 3 records
        assert json.loads(lines[0])["version"] == 5

    def test_stdout_and_out_give_the_same_bytes(self, tmp_path, capsys):
        profile_path = tmp_path / "profiles.json"
        profile_path.write_text(json.dumps(PROFILES))
        argv = ["simulate", "--profile", str(profile_path), "--steps", "3", "--seed", "1", "--quiet"]
        out = tmp_path / "trace.jsonl"
        assert dispatch(argv + ["--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert dispatch(argv) == EXIT_OK
        assert capsys.readouterr().out.encode("ascii") == out.read_bytes()

    def test_no_seed_is_seed_zero(self, tmp_path, capsys):
        profile_path = tmp_path / "profiles.json"
        profile_path.write_text(json.dumps(PROFILES))

        def run(*seed):
            code = dispatch(["simulate", "--profile", str(profile_path), "--steps", "2", *seed, "--quiet"])
            assert code == EXIT_OK
            return capsys.readouterr().out

        assert run() == run("--seed", "0")
        assert run() != run("--seed", "1")

    @pytest.mark.parametrize(
        "file_ratio, flag, ratio",
        [(None, None, 0.001), (None, "0.25", 0.25), (0.5, None, 0.5), (0.5, "0.5", 0.5)],
    )
    def test_sampling_ratio_from_flag_or_profile(self, file_ratio, flag, ratio, tmp_path, capsys):
        profile = {k: v for k, v in PROFILES.items() if k != "sampling_ratio"}
        if file_ratio is not None:
            profile["sampling_ratio"] = file_ratio
        profile_path = tmp_path / "profiles.json"
        profile_path.write_text(json.dumps(profile))
        argv = ["simulate", "--profile", str(profile_path), "--steps", "2", "--quiet"]
        assert dispatch(argv + ([] if flag is None else ["--sampling-ratio", flag])) == EXIT_OK
        assert json.loads(capsys.readouterr().out.splitlines()[0])["sampling_ratio"] == ratio

    def test_sampling_ratio_that_differs_from_the_profile_is_one_error_line(self, tmp_path, capsys):
        profile_path = tmp_path / "profiles.json"
        profile_path.write_text(json.dumps(PROFILES | {"sampling_ratio": 0.5}))
        out = tmp_path / "trace.jsonl"
        code = dispatch(["simulate", "--profile", str(profile_path), "--steps", "2", "--sampling-ratio", "1.0",
                         "--out", str(out)])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.splitlines() == [
            "error: --sampling-ratio 1.0 differs from the profile file's sampling_ratio 0.5"
        ]
        assert not out.exists()

    def test_bad_steps(self, tmp_path, capsys):
        profile_path = tmp_path / "profiles.json"
        profile_path.write_text(json.dumps(PROFILES))
        code = dispatch(["simulate", "--profile", str(profile_path), "--steps", "0"])
        assert code == EXIT_INPUT_ERROR
        assert "--steps" in capsys.readouterr().err


class TestDiagnose:
    def test_emits_snapshots(self, trace_path, capsys):
        assert dispatch(["diagnose", "--trace", str(trace_path), "--quiet"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert [row["block_id"] for row in report] == [0, 1]
        assert set(report[0]) == {"block_id", "A", "rho_bar", "snr", "C", "F", "Q", "steps"}

    def test_idempotent_rerun(self, trace_path, tmp_path):
        a, b = tmp_path / "m1.json", tmp_path / "m2.json"
        assert dispatch(["diagnose", "--trace", str(trace_path), "--out", str(a), "--quiet"]) == EXIT_OK
        assert dispatch(["diagnose", "--trace", str(trace_path), "--out", str(b), "--quiet"]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_missing_trace(self, capsys):
        assert dispatch(["diagnose", "--trace", "/nonexistent.jsonl"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    def test_record_that_is_not_utf8_is_one_error_line(self, trace_path, tmp_path, capsys):
        lines = trace_path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"grads"', b'"gr\xffads"')
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(lines))
        assert dispatch(["diagnose", "--trace", str(bad), "--quiet"]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: record 2: not UTF-8: 'utf-8' codec can't decode byte 0xff")


class TestSeededHeaderEntries:
    """A block entry that holds `sample_seed` must be exact: one error line naming the block and the key."""

    ENTRY = "malformed header block entry: block 0: "

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"sample_seed": True}, ENTRY + "'sample_seed' must be an integer >= 0, got true"),
            ({"sample_seed": 3.0}, ENTRY + "'sample_seed' must be an integer >= 0, got 3.0"),
            ({"sample_seed": -3}, ENTRY + "'sample_seed' must be an integer >= 0, got -3"),
            ({"sample_size": None}, ENTRY + "missing key 'sample_size'"),
            ({"sample_size": True}, ENTRY + "'sample_size' must be an integer >= 1, got true"),
            ({"sample_indices": list(range(256))}, ENTRY + "has both 'sample_indices' and 'sample_seed'"),
            ({"sample_sha256": "0" * 64}, ENTRY + "'sample_sha256' 000000000000... does not match the 256 indices"),
            # The entry is intact; the header's ratio implies another size.
            ({"sampling_ratio": 0.5}, "header block 0: 'sample_size' gives 256 samples, but sampling_ratio 0.5 implies 128"),
        ],
    )
    def test_bad_entry(self, edit, message, trace_path, tmp_path, capsys):
        lines = trace_path.read_text().splitlines()
        header = json.loads(lines[0])
        entry = header["blocks"][0]
        assert {"sample_seed", "sample_size", "sample_sha256"} <= set(entry)
        for key, value in edit.items():
            target = header if key in header else entry
            if value is None:
                del target[key]
            else:
                target[key] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        assert dispatch(["diagnose", "--trace", str(bad), "--quiet"]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")


class TestAllocate:
    def test_happy_path_and_verify_round_trip(self, trace_path, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        problem_path = tmp_path / "problem.json"
        code = dispatch([
            "allocate", "--trace", str(trace_path), "--budget-ratio", "0.5",
            "--out", str(plan_path), "--dump-problem", str(problem_path), "--quiet",
        ])
        assert code == EXIT_OK
        plan = json.loads(plan_path.read_text())
        assert plan["status"] == "optimal"
        assert plan["total_mem"] <= plan["B_mem"]

        assert dispatch(["verify", "--problem", str(problem_path), "--plan", str(plan_path), "--quiet"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True

    def test_negative_budget_ratio_names_flag(self, trace_path, capsys):
        code = dispatch(["allocate", "--trace", str(trace_path), "--budget-ratio", "-1"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--budget-ratio" in err

    @pytest.mark.parametrize("ratio", ["inf", "1e400"])
    def test_infinite_budget_ratio_is_one_error_line(self, trace_path, ratio, capsys):
        code = dispatch(["allocate", "--trace", str(trace_path), "--budget-ratio", ratio, "--quiet"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "budget ratio must be positive and finite, got inf" in err

    def test_infeasible_exit_code(self, trace_path, capsys):
        excludes = []
        for fam in ("adam", "sgd", "sgdm", "sgdw", "sgdwm", "adafactor"):
            excludes += ["--exclude", fam]
        code = dispatch(["allocate", "--trace", str(trace_path), "--budget-ratio", "0.1",
                         *excludes, "--quiet"])
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "infeasible" in err and "minimum feasible" in err

    def test_time_infeasible_names_no_memory_budget(self, trace_path, capsys):
        # The cheapest configuration runs at ratio 0.4, and SGD needs no state memory.
        code = dispatch(["allocate", "--trace", str(trace_path), "--time-budget", "0.3", "--quiet"])
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: infeasible: time budget 0.3")
        assert "memory budget" not in err[0]

    def test_malformed_trace_record_is_one_error_line(self, trace_path, tmp_path, capsys):
        header = trace_path.read_text().splitlines()[0]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(header + "\n" + json.dumps({"step": 1, "grads": [0.1, 0.2]}) + "\t\n")
        assert dispatch(["allocate", "--trace", str(bad), "--quiet"]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: record 1 (step 1): grads must be an object")
        assert err.count("\n") == 1

    def test_non_integer_trace_step_is_one_error_line(self, trace_path, tmp_path, capsys):
        header = trace_path.read_text().splitlines()[0]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(header + "\n" + json.dumps({"step": "1", "grads": {}}) + "\t\n")
        assert dispatch(["allocate", "--trace", str(bad), "--quiet"]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert err == ['error: record 1: step "1" is not a 64-bit integer']

    @pytest.mark.parametrize(
        "doc", [{"blocks": 5}, {"blocks": [5]}, [1, 2], {}, {"blocks": [{"unit_ids": 3}]}]
    )
    def test_malformed_blocks_document_is_one_error_line(self, doc, trace_path, tmp_path, capsys):
        blocks = tmp_path / "blocks.json"
        blocks.write_text(json.dumps(doc))
        code = dispatch(["allocate", "--trace", str(trace_path), "--blocks", str(blocks), "--quiet"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --blocks ")

    def test_bad_selector(self, trace_path, capsys):
        code = dispatch(["allocate", "--trace", str(trace_path), "--exclude", "adamw:13"])
        assert code == EXIT_INPUT_ERROR
        assert "adamw:13" in capsys.readouterr().err

    def test_reruns_identical(self, trace_path, tmp_path):
        a, b = tmp_path / "p1.json", tmp_path / "p2.json"
        for path in (a, b):
            assert dispatch(["allocate", "--trace", str(trace_path), "--out", str(path), "--quiet"]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_quiet_suppresses_logs(self, trace_path, capsys):
        assert dispatch(["allocate", "--trace", str(trace_path), "--quiet"]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert dispatch(["allocate", "--trace", str(trace_path)]) == EXIT_OK
        assert "optimal" in capsys.readouterr().err

    def test_anchor_scale_changes_the_plan(self, tmp_path):
        # Block 0's anisotropy lies between the default anchors; doubling them
        # lowers its geometry need enough that, under a tight budget, it
        # gives up adaptive state.
        profiles = json.loads(json.dumps(PROFILES))
        profiles["blocks"][0]["profile"]["noise_scale_spread"] = 0.5
        profile_path = tmp_path / "profiles.json"
        profile_path.write_text(json.dumps(profiles))
        trace = tmp_path / "trace.jsonl"
        assert dispatch(["simulate", "--profile", str(profile_path), "--steps", "120",
                         "--seed", "3", "--out", str(trace), "--quiet"]) == EXIT_OK
        plans = []
        for extra in ([], ["--anchor-scale", "2"]):
            out = tmp_path / f"plan{len(plans)}.json"
            assert dispatch(["allocate", "--trace", str(trace), "--budget-ratio", "0.3",
                             "--out", str(out), "--quiet", *extra]) == EXIT_OK
            plans.append(out.read_bytes())
        assert plans[0] != plans[1]
        assert json.loads(plans[0])["blocks"][0]["config"]["adaptive"] is True
        assert json.loads(plans[1])["blocks"][0]["config"]["adaptive"] is False

    def test_preference_from_flags_and_risk_config_agree(self, trace_path, tmp_path):
        from_flags = tmp_path / "flags.json"
        assert dispatch(["allocate", "--trace", str(trace_path), "--prefer", "sgd",
                         "--lambda-pref", "5", "--out", str(from_flags), "--quiet"]) == EXIT_OK
        plan = json.loads(from_flags.read_text())
        plain_sgd = {"adaptive": False, "momentum": False, "decoupled_decay": False,
                     "factorized": False, "bits": 32}
        assert [row["config"] for row in plan["blocks"]] == [plain_sgd, plain_sgd]

        config = tmp_path / "risk.json"
        config.write_text(json.dumps({"prefer": ["sgd"], "lambda_pref": 5}))
        from_config = tmp_path / "config.json"
        assert dispatch(["allocate", "--trace", str(trace_path), "--risk-config", str(config),
                         "--out", str(from_config), "--quiet"]) == EXIT_OK
        assert from_config.read_bytes() == from_flags.read_bytes()

    def test_measured_cost_model(self, trace_path, tmp_path):
        model = tmp_path / "cost.json"
        assert dispatch(["bench", "--dims", "32x32", "--reps", "2", "--out", str(model), "--quiet"]) == EXIT_OK
        plan = tmp_path / "plan.json"
        assert dispatch(["allocate", "--trace", str(trace_path), "--cost-model", str(model),
                         "--out", str(plan), "--quiet"]) == EXIT_OK
        assert json.loads(plan.read_text())["status"] == "optimal"

    def test_cost_model_without_a_needed_ratio(self, trace_path, tmp_path, capsys):
        model = tmp_path / "cost.json"
        model.write_text(json.dumps({"ratios": {"adamw:16": 1.0}}))
        code = dispatch(["allocate", "--trace", str(trace_path), "--cost-model", str(model), "--quiet"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: --cost-model {model}: no ratio for ")
        assert "'" not in err[0]
        bench = CostModel.static_default().to_json_dict()
        del bench["ratios"]["adafactor:16"]
        model.write_text(json.dumps(bench))
        code = dispatch(["allocate", "--trace", str(trace_path), "--cost-model", str(model), "--quiet"])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.splitlines() == [f"error: --cost-model {model}: no ratio for adafactor:16"]

    @pytest.mark.parametrize("flag", ["--lambda-pref", "--gamma"])
    def test_negative_weight_flag_is_one_error_line(self, flag, trace_path, capsys):
        code = dispatch(["allocate", "--trace", str(trace_path), flag, "-1", "--quiet"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag} must be non-negative")

    @pytest.mark.parametrize("flag", ["--lambda-pref", "--gamma"])
    def test_nan_weight_flag_names_the_flag(self, flag, trace_path, capsys):
        # NaN passes a `< 0` check; the phi table would then fail naming a candidate cell.
        code = dispatch(["allocate", "--trace", str(trace_path), "--prefer", "sgd", flag, "nan", "--quiet"])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.splitlines() == [f"error: {flag} must be non-negative, got nan"]

    @pytest.mark.parametrize("flag", ["--lambda-pref", "--gamma", "--anchor-scale"])
    def test_infinite_flag_names_the_flag(self, flag, trace_path, capsys):
        # An infinite weight made the phi table fail naming a candidate cell; an
        # infinite anchor scale gave a plan from degenerate phi values.
        code = dispatch(["allocate", "--trace", str(trace_path), "--prefer", "sgd", flag, "inf", "--quiet"])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.splitlines() == [f"error: {flag} must be finite, got inf"]

    @pytest.mark.parametrize("steps", ["1", "0", "-3"])
    def test_window_below_two_names_the_flag(self, steps, trace_path, capsys):
        code = dispatch(["allocate", "--trace", str(trace_path), "--warmup-steps", steps, "--quiet"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --warmup-steps must be at least 2 for direction stability, got {steps}"]


MALFORMED_DOCUMENTS = [
    ("allocate", "--risk-config", [1, 2]),
    ("allocate", "--risk-config", {"anchors": [1]}),
    ("allocate", "--risk-config", {"weights": 5}),
    ("allocate", "--risk-config", {"prefer": 5}),
    ("allocate", "--cost-model", [1]),
    ("allocate", "--cost-model", {"ratios": 5}),
    ("partition", "--model-desc", {"units": 5}),
    ("partition", "--model-desc", {"units": [5]}),
    ("partition", "--model-desc", {"units": [{"id": 0, "name": "a", "dims": 5}]}),
    ("simulate", "--profile", {"blocks": 5}),
    ("simulate", "--profile", {"blocks": [5]}),
    ("simulate", "--profile", {"blocks": [{"id": 0, "dims": [4], "profile": 5}]}),
]


@pytest.mark.parametrize("command,flag,doc", MALFORMED_DOCUMENTS)
def test_malformed_input_document_is_one_error_line(command, flag, doc, trace_path, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command, flag, str(path), "--quiet"]
    if command != "simulate":
        argv += ["--trace", str(trace_path)]
    assert dispatch(argv) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]


_METRICS_ROW = {"block_id": 0, "A": 1.0, "rho_bar": 0.5, "snr": 0.1, "C": 0.2, "F": 0.3,
                "Q": {"32": 1.0, "16": 0.99, "8": 0.9}, "steps": 120}


def _handed_off(**changes):
    """A partition document with metrics; a change to a document key applies to the
    document, any other to its first metrics row, and `...` deletes the key."""
    doc = {"blocks": [{"unit_ids": [0, 1]}], "trace_sha256": "0" * 64, "warmup_steps": None,
           "metrics": [dict(_METRICS_ROW), dict(_METRICS_ROW, block_id=1)]}
    for key, value in changes.items():
        target = doc if key in doc else doc["metrics"][0]
        if value is ...:
            del target[key]
        else:
            target[key] = value
    return doc


MALFORMED_VALUES = [
    ("partition", "--model-desc", {"units": [{"id": 0, "name": "a", "dims": [[1]]}]}, "[1] is not an integer"),
    ("partition", "--model-desc", {"units": [{"id": 0, "name": "a", "dims": [16.9, 16]}]}, "16.9 is not an integer"),
    ("partition", "--model-desc", {"units": [{"id": 0, "name": "a", "dims": ["16", 16]}]}, "'16' is not an integer"),
    ("partition", "--model-desc",
     {"units": [{"id": 0, "name": "a", "dims": [1000, 1000]}, {"id": 1, "name": "b", "dims": [16, 16]}]},
     "unit 0 has dims [1000, 1000], but the trace's block 0 has dims [16, 16]"),
    ("allocate", "--risk-config", {"lambda_pref": [1]}, "'lambda_pref' must be a finite number, got [1]"),
    ("allocate", "--risk-config", {"anchors": {"A_low": {}}}, "'anchors': 'A_low' must be a finite number, got {}"),
    ("allocate", "--risk-config", {"weights": {"w_A": "heavy"}}, "'weights': 'w_A' must be a finite number, got \"heavy\""),
    ("allocate", "--cost-model", {"ratios": {"adamw:16": [1]}}, "'ratios': 'adamw:16' must be a finite number, got [1]"),
    ("simulate", "--profile", {"blocks": [{"id": 0, "dims": [2.5], "profile": {}}]}, "2.5 is not an integer"),
    ("simulate", "--profile", {"blocks": [{"id": 0, "dims": [4], "profile": {"drift_strength": [1]}}]}, "blocks[0]"),
    ("partition", "--model-desc", {"units": [{"id": 0.7, "name": "a", "dims": [16, 16]}]}, "units[0]: 'id' must be a 64-bit integer, got 0.7"),
    ("partition", "--model-desc", {"units": [{"id": "1", "name": "a", "dims": [16, 16]}]}, "units[0]: 'id' must be a 64-bit integer, got \"1\""),
    ("partition", "--model-desc", {"units": [{"id": 0, "dims": [16, 16]}]}, "units[0]: missing key 'name'"),
    ("simulate", "--profile", {"blocks": [{"id": 0.7, "dims": [4], "profile": {}}]}, "blocks[0]: 'id' must be a 64-bit integer, got 0.7"),
    ("simulate", "--profile", {"blocks": [{"id": 0, "dims": [4], "profile": {"seed": "3"}}]}, "blocks[0]: 'profile': 'seed' must be a 64-bit integer, got \"3\""),
    ("simulate", "--profile", {"blocks": [{"dims": [4], "profile": {}}]}, "blocks[0]: missing key 'id'"),
    ("allocate", "--blocks", {"blocks": [{"unit_ids": [[0]]}, {"unit_ids": [1]}]}, "blocks[0]: 'unit_ids': [0] is not an integer"),
    ("allocate", "--blocks", {"blocks": [{"unit_ids": [0]}, {"unit_ids": [True]}]}, "blocks[1]: 'unit_ids': True is not an integer"),
    ("allocate", "--blocks", {"blocks": [{"unit_ids": [0, 1.0]}]}, "blocks[0]: 'unit_ids': 1.0 is not an integer"),
    ("allocate", "--blocks", _handed_off(A=True), "metrics[0]: 'A' must be a finite number, got true"),
    ("allocate", "--blocks", _handed_off(A="0.5"), "metrics[0]: 'A' must be a finite number, got \"0.5\""),
    ("allocate", "--blocks", _handed_off(snr=math.nan), "metrics[0]: 'snr' must be a finite number, got NaN"),
    ("allocate", "--blocks", _handed_off(Q={"32": 1.0, "12": 0.5}), "metrics[0]: 'Q' key '12' is not a bit-width in (32, 16, 8)"),
    ("allocate", "--blocks", _handed_off(Q={"16": "1"}), "metrics[0]: Q['16'] must be a finite number, got \"1\""),
    ("allocate", "--blocks", _handed_off(steps=0), "metrics[0]: 'steps' must be an integer >= 1, got 0"),
    ("allocate", "--blocks", _handed_off(steps=2.0), "metrics[0]: 'steps' must be an integer >= 1, got 2.0"),
    ("allocate", "--blocks", _handed_off(F=None), "metrics[0]: 'F' must be a finite number, got null"),
    ("allocate", "--blocks", _handed_off(block_id="0"), "metrics[0]: 'block_id' must be a 64-bit integer, got \"0\""),
    ("allocate", "--blocks", _handed_off(block_id=1), "metrics[1]: duplicate block_id 1"),
    ("allocate", "--blocks", _handed_off(steps=...), "metrics[0]: missing key 'steps'"),
    ("allocate", "--blocks", _handed_off(metrics=5), "'metrics' must be a list, got 5"),
    ("allocate", "--blocks", _handed_off(metrics=[5]), "metrics[0] must be an object, got 5"),
    ("allocate", "--blocks", _handed_off(trace_sha256=5), "'trace_sha256' must be a string, got 5"),
    ("allocate", "--blocks", _handed_off(warmup_steps="all"), "'warmup_steps' must be an integer or null, got \"all\""),
    ("allocate", "--blocks", _handed_off(warmup_steps=...), "'metrics' comes without 'warmup_steps'"),
    ("allocate", "--cost-model", {"ratios": {"adamw:16": 1.0, "sgd:32": "0.5"}},
     "'ratios': 'sgd:32' must be a finite number, got \"0.5\""),
    ("allocate", "--cost-model", {"ratios": {"adamw:16": True}}, "'ratios': 'adamw:16' must be a finite number, got true"),
    ("allocate", "--cost-model", {"ratios": {"adamw:16": 1.0, "adamw:x": 1.0}},
     "'ratios': key 'adamw:x' is not family:bits with bits in (32, 16, 8)"),
    ("allocate", "--risk-config", {"weights": {"w_A": "2"}}, "'weights': 'w_A' must be a finite number, got \"2\""),
    ("allocate", "--risk-config", {"lambda_pref": "0.1"}, "'lambda_pref' must be a finite number, got \"0.1\""),
    ("simulate", "--profile", {"blocks": [{"id": 0, "dims": [4], "profile": {"drift_strength": "0.3"}}]},
     "blocks[0]: 'profile': 'drift_strength' must be a finite number, got \"0.3\""),
    ("simulate", "--profile", {"blocks": [{"id": 0, "dims": [4], "profile": {"rank1_mix": True}}]},
     "blocks[0]: 'profile': 'rank1_mix' must be a finite number, got true"),
    ("simulate", "--profile", {"sampling_ratio": "0.5", "blocks": [{"id": 0, "dims": [4]}]},
     "'sampling_ratio' must be a finite number, got \"0.5\""),
    ("simulate", "--profile", {"sampling_ratio": 1.5, "blocks": [{"id": 0, "dims": [4]}]},
     "'sampling_ratio' must be a number in (0, 1], got 1.5"),
    ("allocate", "--risk-config", {"prefer": [""]}, "prefer[0]: empty family in selector ''"),
    ("allocate", "--risk-config", {"prefer": ["adamw:13"]}, "prefer[0]: bit-width in selector 'adamw:13' must be 8, 16, or 32"),
    ("allocate", "--blocks", _handed_off(A=-5), "metrics[0]: 'A' must be a number >= 0, got -5"),
    ("allocate", "--blocks", _handed_off(snr=-1), "metrics[0]: 'snr' must be a number >= 0, got -1"),
    ("allocate", "--blocks", _handed_off(C=-1), "metrics[0]: 'C' must be a number >= 0, got -1"),
    ("allocate", "--blocks", _handed_off(F=-3), "metrics[0]: 'F' must be a number >= 0, got -3"),
    ("allocate", "--blocks", _handed_off(Q={"32": 1.0, "8": -1}), "metrics[0]: Q['8'] must be a number in (0, 1], got -1"),
    ("allocate", "--blocks", _handed_off(Q={"32": 1.5}), "metrics[0]: Q['32'] must be a number in (0, 1], got 1.5"),
    ("allocate", "--blocks", _handed_off(metrics=[_METRICS_ROW, dict(_METRICS_ROW, block_id=1, Q={"16": 0.0})]),
     "metrics[1]: Q['16'] must be a number in (0, 1], got 0.0"),
]


@pytest.mark.parametrize("command,flag,doc,reason", MALFORMED_VALUES)
def test_malformed_value_in_input_document_is_one_error_line(command, flag, doc, reason, trace_path, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command, flag, str(path), "--quiet"]
    if command != "simulate":
        argv += ["--trace", str(trace_path)]
    assert dispatch(argv) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0] and reason in err[0]


@pytest.mark.parametrize(
    "command,flag,label",
    [
        ("simulate", "--profile", "profile file"),
        ("partition", "--model-desc", "model description"),
        ("allocate", "--risk-config", "risk config"),
        ("allocate", "--cost-model", "--cost-model"),
        ("allocate", "--blocks", "--blocks"),
        ("verify", "--problem", "--problem"),
        ("verify", "--plan", "--plan"),
    ],
)
def test_non_json_input_document_names_its_file(command, flag, label, trace_path, tmp_path, capsys):
    bad = tmp_path / "empty.json"
    bad.write_text("")
    if command == "verify":
        docs = {"--plan": tmp_path / "plan.json", "--problem": tmp_path / "problem.json"}
        assert dispatch(["allocate", "--trace", str(trace_path), "--out", str(docs["--plan"]),
                         "--dump-problem", str(docs["--problem"]), "--quiet"]) == EXIT_OK
        docs[flag] = bad
        argv = ["verify", "--problem", str(docs["--problem"]), "--plan", str(docs["--plan"])]
    else:
        argv = [command, flag, str(bad)] + ([] if command == "simulate" else ["--trace", str(trace_path)])
    capsys.readouterr()
    assert dispatch(argv + ["--quiet"]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {label} {bad}: ")


class TestVerifyCommand:
    @pytest.mark.parametrize("case", ["blocks-not-a-list", "phi-null", "top-level-list", "id-not-an-integer", "config-null"])
    def test_malformed_document_is_one_error_line(self, case, trace_path, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        problem_path = tmp_path / "problem.json"
        assert dispatch(["allocate", "--trace", str(trace_path), "--out", str(plan_path),
                         "--dump-problem", str(problem_path), "--quiet"]) == EXIT_OK
        problem, plan = json.loads(problem_path.read_text()), json.loads(plan_path.read_text())
        if case == "blocks-not-a-list":
            problem["blocks"] = 5
        elif case == "phi-null":
            problem["blocks"][0]["candidates"][0]["phi"] = None
        elif case == "top-level-list":
            problem = [problem]
        elif case == "id-not-an-integer":
            problem["blocks"][0]["id"] = 0.5
        else:
            plan["blocks"][0]["config"] = None
        problem_path.write_text(json.dumps(problem))
        plan_path.write_text(json.dumps(plan))
        code = dispatch(["verify", "--problem", str(problem_path), "--plan", str(plan_path), "--quiet"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        named = f"--plan {plan_path}" if case == "config-null" else f"--problem {problem_path}"
        assert len(err) == 1 and err[0].startswith(f"error: {named}: ")

    @pytest.mark.parametrize(
        "flag, path, value, message",
        [
            ("--problem", ["blocks"], 5, "'blocks' must be a list, got 5"),
            ("--problem", ["blocks", 0], 7, "blocks[0] must be an object, got 7"),
            ("--problem", ["blocks", 0, "candidates"], {}, "blocks[0]: 'candidates' must be a list, got {}"),
            ("--problem", ["blocks", 0, "candidates", 1, "phi"], None, "blocks[0]: candidates[1]: 'phi' must be a finite number, got null"),
            ("--problem", ["blocks", 0, "dims_list"], 3, "blocks[0]: 'dims_list' must be a list, got 3"),
            ("--problem", ["B_mem"], "100", "'B_mem' must be a 64-bit integer, got \"100\""),
            ("--plan", ["blocks", 1, "config", "adaptive"], "false",
             "blocks[1]: 'config': 'adaptive' must be true or false, got \"false\""),
            ("--plan", ["blocks", 0, "config", "bits"], "16", "blocks[0]: 'config': 'bits' must be a 64-bit integer, got \"16\""),
            ("--plan", ["total_mem"], 2.5, "'total_mem' must be a 64-bit integer, got 2.5"),
            ("--problem", ["blocks", 0, "candidates", 0, "phi"], "0.5",
             "blocks[0]: candidates[0]: 'phi' must be a finite number, got \"0.5\""),
            ("--problem", ["blocks", 1, "candidates", 2, "time_ratio"], True,
             "blocks[1]: candidates[2]: 'time_ratio' must be a finite number, got true"),
            ("--problem", ["B_time"], "1.3", "'B_time' must be a finite number or Infinity, got \"1.3\""),
            ("--plan", ["objective"], "1.5", "'objective' must be a finite number, got \"1.5\""),
            ("--plan", ["mean_time_ratio"], True, "'mean_time_ratio' must be a finite number, got true"),
        ],
    )
    def test_malformed_document_names_the_key(self, flag, path, value, message, trace_path, tmp_path, capsys):
        paths = {"--plan": tmp_path / "plan.json", "--problem": tmp_path / "problem.json"}
        assert dispatch(["allocate", "--trace", str(trace_path), "--out", str(paths["--plan"]),
                         "--dump-problem", str(paths["--problem"]), "--quiet"]) == EXIT_OK
        doc = json.loads(paths[flag].read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        paths[flag].write_text(json.dumps(doc))
        capsys.readouterr()
        code = dispatch(["verify", "--problem", str(paths["--problem"]), "--plan", str(paths["--plan"]), "--quiet"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag} {paths[flag]}: {message}")

    def test_infinite_time_budget_reads_back(self, trace_path, tmp_path, capsys):
        # json writes an infinite budget as Infinity; the strict number rule admits it for B_time only.
        plan_path, problem_path = tmp_path / "plan.json", tmp_path / "problem.json"
        assert dispatch(["allocate", "--trace", str(trace_path), "--time-budget", "inf", "--out", str(plan_path),
                         "--dump-problem", str(problem_path), "--quiet"]) == EXIT_OK
        assert json.loads(problem_path.read_text())["B_time"] == math.inf
        capsys.readouterr()
        assert dispatch(["verify", "--problem", str(problem_path), "--plan", str(plan_path), "--quiet"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_duplicate_block_ids_are_one_error_line(self, trace_path, tmp_path, capsys):
        plan_path, problem_path = tmp_path / "plan.json", tmp_path / "problem.json"
        assert dispatch(["allocate", "--trace", str(trace_path), "--out", str(plan_path),
                         "--dump-problem", str(problem_path), "--quiet"]) == EXIT_OK
        problem = json.loads(problem_path.read_text())
        problem["blocks"][1]["id"] = problem["blocks"][0]["id"]
        problem_path.write_text(json.dumps(problem))
        capsys.readouterr()
        code = dispatch(["verify", "--problem", str(problem_path), "--plan", str(plan_path), "--quiet"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: --problem {problem_path}: duplicate block id ")

    def test_nan_time_budget_is_one_error_line(self, trace_path, tmp_path, capsys):
        plan_path, problem_path = tmp_path / "plan.json", tmp_path / "problem.json"
        assert dispatch(["allocate", "--trace", str(trace_path), "--out", str(plan_path),
                         "--dump-problem", str(problem_path), "--quiet"]) == EXIT_OK
        problem = json.loads(problem_path.read_text())
        problem["B_time"] = math.nan
        problem_path.write_text(json.dumps(problem))
        capsys.readouterr()
        code = dispatch(["verify", "--problem", str(problem_path), "--plan", str(plan_path), "--quiet"])
        assert code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert err == [f"error: --problem {problem_path}: 'B_time' must be a finite number or Infinity, got NaN"]

    def test_partial_plan_over_memory_exits_two(self, trace_path, tmp_path, capsys):
        plan_path, problem_path = tmp_path / "plan.json", tmp_path / "problem.json"
        assert dispatch(["allocate", "--trace", str(trace_path), "--out", str(plan_path),
                         "--dump-problem", str(problem_path), "--quiet"]) == EXIT_OK
        plan, problem = json.loads(plan_path.read_text()), json.loads(problem_path.read_text())
        kept = plan["blocks"][0]
        kept["config"] = problem["blocks"][0]["candidates"][0]["config"]  # AdamW32, the most memory
        plan["blocks"] = [kept]
        problem["B_mem"] = problem["blocks"][0]["candidates"][0]["mem_bytes"] - 1
        plan_path.write_text(json.dumps(plan))
        problem_path.write_text(json.dumps(problem))
        capsys.readouterr()
        code = dispatch(["verify", "--problem", str(problem_path), "--plan", str(plan_path), "--quiet"])
        assert code == EXIT_INFEASIBLE
        kinds = {v["kind"] for v in json.loads(capsys.readouterr().out)["violations"]}
        assert kinds == {"coverage", "memory"}

    def test_tampered_plan_exits_two(self, trace_path, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        problem_path = tmp_path / "problem.json"
        dispatch(["allocate", "--trace", str(trace_path), "--budget-ratio", "0.4",
                  "--out", str(plan_path), "--dump-problem", str(problem_path), "--quiet"])
        plan = json.loads(plan_path.read_text())
        for row in plan["blocks"]:
            row["config"] = {"adaptive": True, "momentum": True, "decoupled_decay": True,
                             "factorized": False, "bits": 32}
        plan_path.write_text(json.dumps(plan))
        code = dispatch(["verify", "--problem", str(problem_path), "--plan", str(plan_path), "--quiet"])
        assert code == EXIT_INFEASIBLE
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert any(v["kind"] == "memory" for v in report["violations"])


class TestPartitionCommand:
    def test_partition_flow(self, trace_path, tmp_path, capsys):
        model = {
            "units": [
                {"id": 0, "name": "l0.attn", "dims": [16, 16], "kind": "attention"},
                {"id": 1, "name": "l0.ffn", "dims": [16, 16], "kind": "ffn"},
            ]
        }
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        out = tmp_path / "blocks.json"
        code = dispatch(["partition", "--model-desc", str(model_path), "--trace", str(trace_path),
                         "--alpha", "0.01", "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        covered = sorted(uid for row in doc["blocks"] for uid in row["unit_ids"])
        assert covered == [0, 1]

        plan_path = tmp_path / "plan.json"
        code = dispatch(["allocate", "--trace", str(trace_path), "--blocks", str(out),
                         "--out", str(plan_path), "--quiet"])
        assert code == EXIT_OK
        plan = json.loads(plan_path.read_text())
        assert len(plan["blocks"]) == len(doc["blocks"])

    def test_alpha_of_one_is_rejected(self, trace_path, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"units": [{"id": 0, "name": "a", "dims": [16, 16]}]}))
        code = dispatch(["partition", "--model-desc", str(model_path), "--trace", str(trace_path),
                         "--alpha", "1.0", "--quiet"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --alpha")

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
    def test_non_finite_tau_is_one_error_line(self, tau, trace_path, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"units": [{"id": 0, "name": "a", "dims": [16, 16]}]}))
        out = tmp_path / "blocks.json"
        code = dispatch(["partition", "--model-desc", str(model_path), "--trace", str(trace_path),
                         f"--tau={tau}", "--out", str(out)])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.splitlines() == [f"error: tau must be a finite number, got {float(tau)}"]
        assert not out.exists()

    def test_infinite_anchor_scale_names_the_flag(self, trace_path, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"units": [{"id": 0, "name": "a", "dims": [16, 16]}]}))
        out = tmp_path / "blocks.json"
        code = dispatch(["partition", "--model-desc", str(model_path), "--trace", str(trace_path),
                         "--anchor-scale", "inf", "--out", str(out), "--quiet"])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.splitlines() == ["error: --anchor-scale must be finite, got inf"]
        assert not out.exists()

    def test_unit_missing_from_trace_is_one_error_line(self, trace_path, tmp_path, capsys):
        model = {"units": [{"id": 0, "name": "a", "dims": [16, 16]}, {"id": 7, "name": "b", "dims": [16, 16]}]}
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        code = dispatch(["partition", "--model-desc", str(model_path), "--trace", str(trace_path), "--quiet"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: trace lacks diagnostics for units [7]"]


MODEL = {
    "units": [
        {"id": 0, "name": "l0.attn", "dims": [16, 16], "kind": "attention"},
        {"id": 1, "name": "l0.ffn", "dims": [16, 16], "kind": "ffn"},
    ]
}


def _edit_record(trace, out, edit, record=2):
    """Write `trace` to `out` with the record replaced by `edit(head, payload)`, the new line's bytes."""
    lines = trace.read_bytes().split(b"\n")
    head, payload = lines[record].decode("ascii").split("\t")
    lines[record] = edit(json.loads(head), payload)
    out.write_bytes(b"\n".join(lines))


def _line(head, payload):
    return (json.dumps(head) + "\t" + payload).encode("ascii")


NAN = np.array([np.nan], dtype="<f8").tobytes().hex()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda h, p: _line(h, p[:10] + "x" + p[11:]),
         "record 2 (step 2): grads vector for block 0 is not hex: payload digit 10 is b'x'"),
        (lambda h, p: _line(h, p + "0"), "record 2 (step 2): payload has an odd number of hex digits (8193)"),
        (lambda h, p: _line(h, p[:-16]), "record 2 (step 2): grads vector for block 1 is cut short"),
        (lambda h, p: _line(h, p + "00" * 8), "record 2 (step 2): payload has 8208 hex digits, more than the 8192"),
        (lambda h, p: _line(h, NAN + p[16:]), "record 2 (step 2): grads vector for block 0 has a non-finite value"),
        (lambda h, p: _line(h | {"grads": {"0": None, "7": None}}, p),
         "record 2 (step 2): grads for unknown block id 7"),
        (lambda h, p: _line(h | {"params": {"0": 2, "1": 1}}, p),
         "record 2 (step 2): params vector for block 0 refers to step 2, but the last one was written at step 1"),
        (lambda h, p: _line(h | {"step": 1}, p), "record 2: step 1 not greater than previous step 1"),
        (lambda h, p: _line(h, p).replace(b'"grads"', b'"gr\xffads"'), "record 2: not UTF-8"),
        (lambda h, p: json.dumps(h).encode("ascii"), "record 2: no tab between the JSON head and the payload"),
    ],
)
@pytest.mark.parametrize("command", ["allocate", "partition"])
def test_malformed_version_5_record_is_one_error_line(command, edit, message, trace_path, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    _edit_record(trace_path, bad, edit)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MODEL))
    argv = {
        "allocate": ["allocate", "--trace", str(bad), "--quiet"],
        "partition": ["partition", "--model-desc", str(model), "--trace", str(bad),
                      "--out", str(tmp_path / "blocks.json"), "--quiet"],
    }[command]
    assert dispatch(argv) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: " + message)


class TestDiagnosticsHandOff:
    """`partition` hands its metrics to `allocate --blocks`, stamped with the trace's sha256."""

    @staticmethod
    def partition(trace, tmp_path, *extra, name="blocks.json"):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(MODEL))
        out = tmp_path / name
        assert dispatch(["partition", "--model-desc", str(model_path), "--trace", str(trace),
                         "--out", str(out), "--quiet", *extra]) == EXIT_OK
        return out

    @staticmethod
    def without_metrics(blocks):
        doc = json.loads(blocks.read_text())
        del doc["metrics"]
        bare = blocks.with_name("bare-" + blocks.name)
        bare.write_text(json.dumps(doc))
        return bare

    @staticmethod
    def allocate(trace, blocks, capsys, *extra):
        """Plan bytes and the stderr log of one `allocate --blocks` run."""
        capsys.readouterr()
        out = blocks.with_name("plan.json")
        assert dispatch(["allocate", "--trace", str(trace), "--blocks", str(blocks),
                         "--out", str(out), *extra]) == EXIT_OK
        return out.read_bytes(), capsys.readouterr().err

    def test_document_carries_digest_window_and_diagnose_rows(self, trace_path, tmp_path, capsys):
        doc = json.loads(self.partition(trace_path, tmp_path).read_text())
        assert doc["trace_sha256"] == hashlib.sha256(trace_path.read_bytes()).hexdigest()
        assert doc["warmup_steps"] is None
        assert dispatch(["diagnose", "--trace", str(trace_path), "--quiet"]) == EXIT_OK
        assert doc["metrics"] == json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--anchor-scale", "2"],
            ["--risk-config", "RISK"],
            ["--exclude", "adamw:8", "--exclude", "adafactor"],
            ["--budget-ratio", "0.3"],
            ["--time-budget", "1.0"],
        ],
    )
    def test_reuse_and_trace_paths_give_the_same_bytes(self, extra, trace_path, tmp_path, capsys, monkeypatch):
        risk = tmp_path / "risk.json"
        risk.write_text(json.dumps({"anchors": {"A_low": 0.1, "A_high": 0.5}, "weights": {"w_Q": 3.0}}))
        extra = [str(risk) if arg == "RISK" else arg for arg in extra]
        blocks = self.partition(trace_path, tmp_path)
        updates = []
        update = DiagnosticsState.update

        def counted(state, *args):
            updates.append(state.spec.id)
            update(state, *args)

        monkeypatch.setattr(DiagnosticsState, "update", counted)

        reused, log = self.allocate(trace_path, blocks, capsys, *extra)
        digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
        assert log.splitlines()[0] == f"diagnostics reused from --blocks (trace sha256 {digest[:12]}...)"
        assert updates == []

        diagnosed, log = self.allocate(trace_path, self.without_metrics(blocks), capsys, *extra)
        assert log.splitlines()[0] == "diagnosed the whole trace of 2 units from --trace"
        assert len(updates) == 240
        assert reused == diagnosed

    def test_rewritten_trace_is_diagnosed_afresh(self, trace_path, tmp_path, capsys):
        blocks = self.partition(trace_path, tmp_path)
        profile_path = tmp_path / "profiles.json"
        profile_path.write_text(json.dumps(PROFILES))
        assert dispatch(["simulate", "--profile", str(profile_path), "--steps", "120",
                         "--seed", "4", "--out", str(trace_path), "--quiet"]) == EXIT_OK
        assert dispatch(["diagnose", "--trace", str(trace_path), "--quiet"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) != json.loads(blocks.read_text())["metrics"]

        stale, log = self.allocate(trace_path, blocks, capsys)
        assert "diagnosed the whole trace of 2 units from --trace (--blocks metrics not used: the trace's sha256 is " in log
        fresh, _ = self.allocate(trace_path, self.without_metrics(blocks), capsys)
        assert stale == fresh

    def test_hand_written_document(self, trace_path, tmp_path, capsys):
        blocks = tmp_path / "blocks.json"
        blocks.write_text(json.dumps({"blocks": [{"unit_ids": [1]}, {"unit_ids": [0]}]}))
        plan, log = self.allocate(trace_path, blocks, capsys)
        assert log.splitlines()[0] == "diagnosed the whole trace of 2 units from --trace"
        assert [row["name"] for row in json.loads(plan)["blocks"]] == ["l0.ffn", "l0.attn"]

    def test_window_mismatch_falls_back_to_the_trace(self, trace_path, tmp_path, capsys):
        blocks = self.partition(trace_path, tmp_path, "--warmup-steps", "60")
        doc = json.loads(blocks.read_text())
        assert doc["warmup_steps"] == 60 and {row["steps"] for row in doc["metrics"]} == {60}
        bare = self.without_metrics(blocks)

        whole, log = self.allocate(trace_path, blocks, capsys)
        assert log.splitlines()[0] == (
            "diagnosed the whole trace of 2 units from --trace (--blocks metrics not used: "
            "they cover 60 steps, --warmup-steps asks for the whole trace)"
        )
        assert whole == self.allocate(trace_path, bare, capsys)[0]

        window, log = self.allocate(trace_path, blocks, capsys, "--warmup-steps", "60")
        assert log.startswith("diagnostics reused from --blocks")
        assert window == self.allocate(trace_path, bare, capsys, "--warmup-steps", "60")[0]
        assert window != whole

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda doc: doc["metrics"].pop(), "the rows lack units [1] and add units []"),
            (lambda doc: doc["metrics"][0].update(block_id=7), "the rows lack units [0] and add units [7]"),
            (lambda doc: doc["metrics"][1]["Q"].pop("8"), "the rows of units [1] do not carry exactly the bits [32, 16, 8]"),
        ],
    )
    def test_rows_that_miss_a_unit_or_a_bit_fall_back(self, edit, reason, trace_path, tmp_path, capsys):
        blocks = self.partition(trace_path, tmp_path)
        doc = json.loads(blocks.read_text())
        edit(doc)
        blocks.write_text(json.dumps(doc))
        plan, log = self.allocate(trace_path, blocks, capsys)
        assert log.splitlines()[0].endswith(f"(--blocks metrics not used: {reason})")
        assert plan == self.allocate(trace_path, self.without_metrics(blocks), capsys)[0]

    def test_log_gives_the_steps_diagnosed(self, trace_path, tmp_path, capsys):
        # The trace holds 120 steps: a longer window diagnoses those, logs them, and
        # stays the window stamped, so that the same --warmup-steps reuses the metrics.
        blocks = self.partition(trace_path, tmp_path, "--warmup-steps", "200")
        doc = json.loads(blocks.read_text())
        assert doc["warmup_steps"] == 200 and {row["steps"] for row in doc["metrics"]} == {120}
        _, log = self.allocate(trace_path, self.without_metrics(blocks), capsys, "--warmup-steps", "200")
        assert log.splitlines()[0] == "diagnosed 120 steps of 2 units from --trace"
        _, log = self.allocate(trace_path, blocks, capsys, "--warmup-steps", "200")
        assert log.startswith("diagnostics reused from --blocks")
        _, log = self.allocate(trace_path, blocks, capsys, "--warmup-steps", "60")
        assert log.splitlines()[0] == (
            "diagnosed 60 steps of 2 units from --trace (--blocks metrics not used: "
            "they cover 200 steps, --warmup-steps asks for 60 steps)"
        )

    def test_no_file_handle_leaks(self, trace_path, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            blocks = self.partition(trace_path, tmp_path)
            self.allocate(trace_path, blocks, capsys)
            self.allocate(trace_path, self.without_metrics(blocks), capsys)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_quiet_keeps_stderr_empty(self, trace_path, tmp_path, capsys):
        blocks = self.partition(trace_path, tmp_path)
        plan, log = self.allocate(trace_path, blocks, capsys, "--quiet")
        assert log == "" and json.loads(plan)["status"] == "optimal"

    @pytest.mark.parametrize("steps", ["1", "0", "-3"])
    def test_partition_window_below_two_is_one_error_line(self, steps, trace_path, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(MODEL))
        code = dispatch(["partition", "--model-desc", str(model_path), "--trace", str(trace_path),
                         "--warmup-steps", steps, "--quiet"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --warmup-steps must be at least 2 for direction stability, got {steps}"]


def _hash_fails(path):
    raise OSError("the disk went away")


# (command, case, exit code, the one stderr line or None); the paths are filled in.
_EXIT_PATHS = [
    ("partition", "success", EXIT_OK, None),
    ("partition", "missing trace", EXIT_INPUT_ERROR, "error: [Errno 2] No such file or directory: '{trace}'"),
    ("partition", "directory trace", EXIT_INPUT_ERROR, "error: [Errno 21] Is a directory: '{trace}'"),
    ("partition", "malformed record", EXIT_INPUT_ERROR,
     "error: record 100 (step 100): grads vector for block 0 has a non-finite value"),
    ("partition", "dims mismatch", EXIT_INPUT_ERROR,
     "error: --model-desc {model}: unit 0 has dims [16, 8], but the trace's block 0 has dims [16, 16]"),
    ("partition", "window below two", EXIT_INPUT_ERROR,
     "error: --warmup-steps must be at least 2 for direction stability, got 1"),
    ("partition", "hash error", EXIT_INPUT_ERROR, "error: the disk went away"),
    ("allocate", "success", EXIT_OK, None),
    ("allocate", "missing trace", EXIT_INPUT_ERROR, "error: [Errno 2] No such file or directory: '{trace}'"),
    ("allocate", "directory trace", EXIT_INPUT_ERROR, "error: [Errno 21] Is a directory: '{trace}'"),
    ("allocate", "malformed record", EXIT_INPUT_ERROR,
     "error: record 100 (step 100): grads vector for block 0 has a non-finite value"),
    ("allocate", "window mismatch", EXIT_OK, None),
    ("allocate", "hash error", EXIT_INPUT_ERROR, "error: the disk went away"),
]


class TestTraceDigestThread:
    """The trace's sha256 is computed on a thread of its own, and no exit path leaves it running."""

    @pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, 3 * (1 << 20) + 5])
    def test_digest_is_the_sha256_of_the_bytes(self, size, tmp_path):
        # Around the 1 MiB chunk: a short last chunk, an exact one, and none at all.
        path = tmp_path / "bytes"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        threads = threading.active_count()
        with _BackgroundSha256(str(path)) as digest:
            assert digest.result() == hashlib.sha256(path.read_bytes()).hexdigest()
        assert threading.active_count() == threads

    def test_result_raises_what_the_hash_raised(self, tmp_path):
        with _BackgroundSha256(str(tmp_path / "absent")) as digest:
            with pytest.raises(FileNotFoundError, match="absent"):
                digest.result()

    @pytest.mark.parametrize("command, case, code, error", _EXIT_PATHS, ids=[f"{c}-{k}" for c, k, *_ in _EXIT_PATHS])
    def test_no_thread_outlives_the_command(self, command, case, code, error, trace_path, tmp_path, capsys,
                                            monkeypatch):
        model = tmp_path / "units.json"
        dims = [16, 8] if case == "dims mismatch" else [16, 16]
        model.write_text(json.dumps({"units": [MODEL["units"][0] | {"dims": dims}, MODEL["units"][1]]}))
        blocks = TestDiagnosticsHandOff.partition(trace_path, tmp_path, name="handed-off.json")
        trace, extra = trace_path, []
        if case == "missing trace":
            trace = tmp_path / "absent.jsonl"
        elif case == "directory trace":
            trace = tmp_path / "a-directory"
            trace.mkdir()
        elif case == "malformed record":
            trace = tmp_path / "bad.jsonl"
            _edit_record(trace_path, trace, lambda h, p: _line(h, NAN + p[16:]), record=100)
        elif case == "window mismatch":
            extra = ["--warmup-steps", "60"]
        elif case == "window below two":
            extra = ["--warmup-steps", "1"]
        elif case == "hash error":
            monkeypatch.setattr(cli, "_file_sha256", _hash_fails)
        argv = {
            "allocate": ["allocate", "--trace", str(trace), "--blocks", str(blocks)],
            "partition": ["partition", "--model-desc", str(model), "--trace", str(trace)],
        }[command] + ["--out", str(tmp_path / "out.json"), "--quiet", *extra]
        capsys.readouterr()
        threads = threading.active_count()
        assert dispatch(argv) == code
        assert threading.active_count() == threads
        assert capsys.readouterr().err.splitlines() == ([] if error is None else [error.format(trace=trace, model=model)])

    @pytest.mark.parametrize("command", ["allocate", "partition"])
    def test_the_command_s_own_error_wins(self, command, trace_path, tmp_path, capsys, monkeypatch):
        # Both fail: the command on the record (partition) or the header (allocate), the thread on the hash.
        blocks = TestDiagnosticsHandOff.partition(trace_path, tmp_path)
        bad = tmp_path / "bad.jsonl"
        if command == "partition":
            _edit_record(trace_path, bad, lambda h, p: _line(h, NAN + p[16:]), record=100)
            argv = ["partition", "--model-desc", str(tmp_path / "model.json")]
            message = "error: record 100 (step 100): grads vector for block 0 has a non-finite value"
        else:
            bad.write_text("\n")
            argv = ["allocate", "--blocks", str(blocks)]
            message = "error: empty trace file: missing header line"
        monkeypatch.setattr(cli, "_file_sha256", _hash_fails)
        capsys.readouterr()
        threads = threading.active_count()
        assert dispatch(argv + ["--trace", str(bad), "--quiet"]) == EXIT_INPUT_ERROR
        assert threading.active_count() == threads
        assert capsys.readouterr().err.splitlines() == [message]


class TestBench:
    def test_emits_cost_model(self, capsys):
        assert dispatch(["bench", "--dims", "64x64", "--reps", "2", "--quiet"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["source"] == "measured"
        assert doc["ratios"]["adamw:16"] == 1.0
        assert all(r > 0 for r in doc["ratios"].values())

    def test_bad_dims(self, capsys):
        assert dispatch(["bench", "--dims", "banana"]) == EXIT_INPUT_ERROR
        assert "--dims" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["256", "256x1", "1x256"])
    def test_dims_that_cannot_factorize(self, dims, tmp_path, capsys):
        # Such a model would lack the factorized ratios `allocate --cost-model` needs.
        out = tmp_path / "cost.json"
        assert dispatch(["bench", "--dims", dims, "--reps", "1", "--out", str(out)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"error: --dims needs two trailing axes longer than 1 to time factorized updates, got {dims!r}"
        ]
        assert not out.exists()

    def test_zero_reps(self, capsys):
        assert dispatch(["bench", "--reps", "0"]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --reps")


def _ingest_workloads():
    """The benchmark's workload module, which simulates the seed-0 `ingest` inputs."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def _as_version_4(src: Path, dst: Path) -> None:
    """The version-5 trace `src` rendered as version 4: the same header entries and records."""
    specs, records = read_trace(src)
    ratio = json.loads(src.read_text().splitlines()[0])["sampling_ratio"]
    write_trace_v4(dst, specs, list(records), ratio)


def _as_version_3(src: Path, dst: Path) -> None:
    """The version-4 trace `src` with its header rewritten as version 3, every entry listing its `sample_indices`."""
    with open(src, "rb") as fh:
        header = json.loads(fh.readline())
        records = fh.read()
    specs = [BlockSpec.from_json_dict(entry) for entry in header["blocks"]]
    header["version"] = 3
    header["blocks"] = [dataclasses.replace(s, sample_seed=None).to_json_dict() for s in specs]
    dst.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + records)


def test_version_3_and_seeded_headers_give_the_same_plan(tmp_path):
    """The ingest seed-0 stream read as version 5, as version 4 with its seeded
    header and as version 3 with explicit indices."""
    inputs = _ingest_workloads().setup_ingest(0, tmp_path)
    v4, v3 = tmp_path / "trace-v4.jsonl", tmp_path / "trace-v3.jsonl"
    _as_version_4(inputs.trace, v4)
    _as_version_3(v4, v3)
    headers = [json.loads(trace.read_text().splitlines()[0]) for trace in (inputs.trace, v4, v3)]
    assert [header["version"] for header in headers] == [5, 4, 3]
    assert headers[1] == headers[0] | {"version": 4}
    assert all("sample_seed" in entry and "sample_indices" not in entry for entry in headers[1]["blocks"])
    assert all("sample_indices" in entry and "sample_seed" not in entry for entry in headers[2]["blocks"])
    specs5, specs4, specs3 = (read_trace(trace)[0] for trace in (inputs.trace, v4, v3))
    assert specs5 == specs4 == specs3 and sum(s.sample_size for s in specs4) == 19_936

    docs, plans = [], []
    for trace in (inputs.trace, v4, v3):
        blocks, plan = trace.with_suffix(".blocks.json"), trace.with_suffix(".plan.json")
        assert dispatch(["partition", "--model-desc", str(inputs.model_desc), "--trace", str(trace),
                         "--out", str(blocks), "--quiet"]) == EXIT_OK
        assert dispatch(["allocate", "--trace", str(trace), "--blocks", str(blocks),
                         "--out", str(plan), "--quiet"]) == EXIT_OK
        doc = json.loads(blocks.read_text())
        assert doc.pop("trace_sha256") == hashlib.sha256(trace.read_bytes()).hexdigest()
        docs.append(doc)
        plans.append(plan.read_bytes())
    assert docs[0] == docs[1] == docs[2]
    assert plans[0] == plans[1] == plans[2]
    assert hashlib.sha256(plans[0]).hexdigest() == "7f79ae155f2084e8164500399b52122a03fc061be0828316ca436f435e9fd75c"
