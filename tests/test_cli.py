"""End-to-end command line coverage: exit codes, files, formats."""

import json

import pytest

from nsgames.behavior import pr_box, signaling_box
from nsgames.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_box(tmp_path, box, name="box.json"):
    path = tmp_path / name
    path.write_text(json.dumps(box.to_json()), encoding="utf-8")
    return str(path)


class TestSimulate:
    def test_json_outputs(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "simulate", "--strategy", "fns", "--players", "8",
            "--trials", "5", "--seed", "1", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "pooled win rate: 1.000000" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == 2
        assert report["config"]["players"] == 8
        assert set(report["config"]) == {
            "players", "trials", "master_seed", "strategy", "override_depth",
            "azuma_n", "azuma_eps", "enforce_contracts", "enable_backdoor",
        }
        lines = (tmp_path / "trials.jsonl").read_text().splitlines()
        assert len(lines) == 5
        first = json.loads(lines[0])
        assert set(first) == {"root", "outputs", "s", "S", "threshold", "valid"}

    def test_csv_outputs(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "simulate", "--strategy", "constant:0", "--players", "4",
            "--trials", "8", "--format", "csv", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "win.csv").exists()
        assert (tmp_path / "azuma.csv").exists()
        assert not (tmp_path / "report.json").exists()

    def test_env_var_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NSGAMES_OUT_DIR", str(tmp_path / "from_env"))
        code, _, _ = run(
            capsys, "simulate", "--strategy", "fns", "--players", "4",
            "--trials", "2",
        )
        assert code == 0
        assert (tmp_path / "from_env" / "report.json").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "strategy": {"name": "local-table", "table": [0, 1]},
            "players": 4,
            "trials": 3,
            "seed": 9,
        }))
        code, out, _ = run(
            capsys, "simulate", "--config", str(cfg), "--trials", "7",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "trials=7 players=4" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["trials"] == 7
        assert report["config"]["master_seed"] == 9

    def test_cheat_quarantined_exit_two(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "simulate", "--strategy", "cheat", "--allow-cheat",
            "--players", "4", "--trials", "4", "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert "SIGNALING-INVALID" in out
        assert "raw success rate 1.0000" in out
        log = (tmp_path / "trials.jsonl").read_text()
        assert '"threshold":null' in log

    def test_no_enforce_scores_cheat(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "simulate", "--strategy", "cheat", "--allow-cheat",
            "--no-enforce", "--players", "4", "--trials", "4",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "pooled win rate: 1.000000" in out

    def test_bad_strategy_exit_one(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "simulate", "--strategy", "telepathy",
            "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert "config error" in err

    def test_missing_strategy_exit_one(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--out-dir", str(tmp_path))
        assert code == 1
        assert "--strategy is required" in err

    def test_unknown_flag_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--nope"])
        assert exc.value.code == 1

    def test_bad_config_json_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run(
            capsys, "simulate", "--config", str(cfg), "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert "config error" in err

    @pytest.mark.parametrize("doc, message", [
        ([], "JSON object"),
        ({"strategy": "fns", "player": 8}, "'player'"),
        ({"strategy": "fns", "game": "hat"}, "'game'"),
        ({"strategy": "fns", "oracle-mode": "canonical"}, "'oracle-mode'"),
        ({"strategy": {"name": "constant", "extra": 1}}, "'extra'"),
    ])
    def test_bad_config_document_exit_one(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "simulate", "--config", str(cfg), "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert "config error" in err and message in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("flag", [["--game", "hat"], ["--oracle-mode", "memoized"]])
    def test_removed_flags_exit_one(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--strategy", "fns", *flag])
        assert exc.value.code == 1

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_azuma_eps_exit_one(self, tmp_path, capsys, eps):
        code, _, err = run(
            capsys, "simulate", "--strategy", "constant:0", "--players", "4",
            "--trials", "2", "--azuma-eps", eps, "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert "epsilon" in err
        assert not (tmp_path / "report.json").exists()

    def test_parallel_matches_serial(self, tmp_path, capsys):
        outs = []
        for par, sub in (("1", "a"), ("2", "b")):
            code, _, _ = run(
                capsys, "simulate", "--strategy", "local-table:0,1,1,0",
                "--players", "8", "--trials", "32", "--seed", "4",
                "--parallelism", par, "--out-dir", str(tmp_path / sub),
            )
            assert code == 0
            outs.append((
                (tmp_path / sub / "report.json").read_bytes(),
                (tmp_path / sub / "trials.jsonl").read_bytes(),
            ))
        assert outs[0] == outs[1]


class TestVerifyBehavior:
    def test_pr_box_passes(self, tmp_path, capsys):
        path = write_box(tmp_path, pr_box())
        code, out, _ = run(capsys, "verify-behavior", path)
        assert code == 0
        assert "NS: pass" in out
        assert "deterministic: no" in out

    def test_signaling_box_exit_three(self, tmp_path, capsys):
        path = write_box(tmp_path, signaling_box())
        code, out, _ = run(capsys, "verify-behavior", path)
        assert code == 3
        assert "NS: FAIL" in out
        assert "party 2" in out

    def test_json_format(self, tmp_path, capsys):
        path = write_box(tmp_path, signaling_box())
        code, out, _ = run(capsys, "verify-behavior", path, "--format", "json")
        assert code == 3
        doc = json.loads(out)
        assert doc["no_signaling"] is False
        assert doc["deterministic"] is True
        assert doc["fns"] is False
        assert doc["violations"]

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"parties": 2,\n  "inputs": [2 2]}')
        code, _, err = run(capsys, "verify-behavior", str(path))
        assert code == 1
        assert "line 2" in err and "column" in err

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run(capsys, "verify-behavior", "/nonexistent/box.json")
        assert code == 1
        assert "input error" in err

    def test_float_table_needs_tol(self, tmp_path, capsys):
        box = pr_box()
        table = {k: float(v) for k, v in box.table.items()}
        doc = {
            "parties": 2, "inputs": [2, 2], "outputs": [2, 2],
            "table": [
                {"x": list(x), "a": list(a), "p": p}
                for (x, a), p in table.items()
            ],
        }
        path = tmp_path / "float.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify-behavior", str(path))
        assert code == 1
        assert "tol" in err
        code, out, _ = run(capsys, "verify-behavior", str(path), "--tol", "1e-9")
        assert code == 0

    def test_string_probabilities(self, tmp_path, capsys):
        def write(p):
            doc = {
                "parties": 1, "inputs": [1], "outputs": [2],
                "table": [
                    {"x": [0], "a": [0], "p": p},
                    {"x": [0], "a": [1], "p": "1/2"},
                ],
            }
            path = tmp_path / "strings.json"
            path.write_text(json.dumps(doc))
            return str(path)

        code, out, _ = run(capsys, "verify-behavior", write("0.5"))
        assert code == 0
        assert "NS: pass" in out
        code, _, err = run(capsys, "verify-behavior", write("1/0"))
        assert code == 1
        assert "input error" in err

    def test_strict_flag(self, tmp_path, capsys):
        path = write_box(tmp_path, pr_box())
        code, _, _ = run(capsys, "verify-behavior", path, "--strict")
        assert code == 0


    def test_oversized_header_exit_one(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "parties": 40, "inputs": [2] * 40, "outputs": [2] * 40, "table": [],
        }))
        for extra in ((), ("--strict",)):
            code, _, err = run(capsys, "verify-behavior", str(path), *extra)
            assert code == 1
            assert "budget error" in err


class TestInvarianceCommand:
    def test_uniform_passes(self, tmp_path, capsys):
        out_file = tmp_path / "inv.json"
        code, out, _ = run(
            capsys, "invariance-test", "--samples", "20000", "--bins", "16",
            "--seed", "5", "--out", str(out_file),
        )
        assert code == 0
        assert "pass" in out
        doc = json.loads(out_file.read_text())
        assert doc["passed"] is True
        assert doc["bins"] == 16

    def test_adversarial_rejected_exit_three(self, capsys):
        code, out, _ = run(
            capsys, "invariance-test", "--samples", "20000", "--bins", "16",
            "--sampler", "adversarial",
        )
        assert code == 3
        assert "REJECT" in out

    def test_bad_bins_exit_one(self, capsys):
        code, _, err = run(capsys, "invariance-test", "--bins", "10")
        assert code == 1
        assert "config error" in err


class TestEnumerateFns:
    def test_default_binary_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate-fns")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 256
        assert doc["fns"] == 16
        assert doc["equal"] is True

    def test_budget_exceeded_exit_one(self, capsys):
        code, _, err = run(
            capsys, "enumerate-fns", "--inputs", "4,4", "--outputs", "4,4",
            "--budget", "1000",
        )
        assert code == 1
        assert "budget error" in err


class TestParser:
    def test_no_command_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1
