import json

import pytest

from baoc.cli import EXIT_INFEASIBLE, EXIT_INPUT_ERROR, EXIT_OK, dispatch

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
        assert json.loads(lines[0])["version"] == 2

    def test_env_seed_used_when_flag_absent(self, tmp_path, capsys, monkeypatch):
        profile_path = tmp_path / "profiles.json"
        profile_path.write_text(json.dumps(PROFILES))

        def run():
            code = dispatch(["simulate", "--profile", str(profile_path), "--steps", "2", "--quiet"])
            assert code == EXIT_OK
            return capsys.readouterr().out

        monkeypatch.setenv("BAOC_SEED", "11")
        first = run()
        second = run()
        monkeypatch.setenv("BAOC_SEED", "12")
        third = run()
        assert first == second
        assert first != third

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
        bad.write_text(header + "\n" + json.dumps({"step": 1, "grads": [0.1, 0.2]}) + "\n")
        assert dispatch(["allocate", "--trace", str(bad), "--quiet"]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: record 1 (step 1): grads must be an object")
        assert err.count("\n") == 1

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


class TestVerifyCommand:
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
