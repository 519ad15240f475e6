"""End-to-end command line coverage: exit codes, files, formats."""

import decimal
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nsgames.behavior as behavior_module
import nsgames.experiment as experiment_module
from nsgames.behavior import pr_box, signaling_box
from nsgames.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_indented(text):
    """The document in `text`, after checking that `text` is its
    ``json.dumps(..., sort_keys=True, indent=2)`` rendering and a newline."""
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return doc


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
        report = load_indented((tmp_path / "report.json").read_text())
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

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_cheat_without_allow_exit_one(self, tmp_path, capsys, parallelism):
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys, "simulate", "--strategy", "cheat", "--players", "4",
            "--trials", "8", "--parallelism", parallelism, "--out-dir", str(out_dir),
        )
        assert code == 1
        assert "config error" in err and "--allow-cheat" in err
        assert not out_dir.exists()

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

    def test_out_dir_is_a_file_exit_one(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, _, err = run(
            capsys, "simulate", "--strategy", "constant:0", "--players", "4",
            "--trials", "3", "--out-dir", str(taken),
        )
        assert code == 1
        assert err.startswith("output error: ")

    def test_non_utf8_config_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"players": 4, "strategy": "fns\xff"}')
        code, _, err = run(
            capsys, "simulate", "--config", str(cfg), "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert err.startswith("config error: --config: ")
        assert not (tmp_path / "report.json").exists()

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
        ({"strategy": "fns", "players": 2.9}, "'players'"),
        ({"strategy": "fns", "trials": True}, "'trials'"),
        ({"strategy": "fns", "seed": "1"}, "'seed'"),
        ({"strategy": "fns", "root-override-depth": 1.0}, "'root-override-depth'"),
        ({"strategy": "fns", "parallelism": False}, "'parallelism'"),
        ({"strategy": "fns", "azuma-n": [16.0]}, "'azuma-n'"),
        ({"strategy": "fns", "azuma-n": [True]}, "'azuma-n'"),
        ({"strategy": "fns", "azuma-n": 16}, "'azuma-n'"),
        ({"strategy": "cheat", "allow-cheat": "false", "no-enforce": "no",
          "players": 4, "trials": 5}, "'allow-cheat'"),
        ({"strategy": "cheat", "allow-cheat": True, "no-enforce": "no"}, "'no-enforce'"),
        ({"strategy": "fns", "no-enforce": 0}, "'no-enforce'"),
        ({"strategy": "fns", "azuma-eps": [True]}, "'azuma-eps'"),
        ({"strategy": "fns", "azuma-eps": ["4"]}, "'azuma-eps'"),
        ({"strategy": "fns", "azuma-eps": 4.0}, "'azuma-eps'"),
        ({"strategy": 5}, "'strategy' must be a string or an object"),
        ({"strategy": ["fns"]}, "'strategy' must be a string or an object"),
        ({"strategy": {"name": "constant", "value": 1.7}}, "'value' must be an integer"),
        ({"strategy": {"name": "constant", "value": True}}, "'value' must be an integer"),
        ({"strategy": {"name": "local-table", "table": [True, False]}},
         "'table' must be a list of integers"),
        ({"strategy": {"name": "local-table", "table": [0, 1], "m": 1.0}},
         "'m' must be an integer"),
        ({"strategy": {"name": "local-random", "p": True}}, "'p' must be a number"),
        ({"strategy": {"name": "shared-mixture", "tables": [[False]]}},
         "'tables' must be a list of lists"),
        ({"strategy": {"name": "shared-mixture", "tables": [[0], [1]], "weights": [True, 1]}},
         "'weights' must be a list of numbers"),
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

    @pytest.mark.parametrize("no_enforce, code", [(False, 2), (True, 0)])
    def test_config_booleans_and_epsilons(self, tmp_path, capsys, no_enforce, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "strategy": "cheat", "allow-cheat": True, "no-enforce": no_enforce,
            "players": 4, "trials": 3, "azuma-eps": [2, 4.5],
        }))
        assert run(capsys, "simulate", "--config", str(cfg),
                   "--out-dir", str(tmp_path))[0] == code
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["enable_backdoor"] is True
        assert report["config"]["enforce_contracts"] is not no_enforce
        assert report["config"]["azuma_eps"] == [2, 4.5]

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
        doc = load_indented(out)
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

    def test_non_utf8_file_exit_one(self, tmp_path, capsys):
        path = tmp_path / "box.json"
        path.write_bytes(b'{"parties": 2, "note": "\xff"}')
        code, out, err = run(capsys, "verify-behavior", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"input error: {path}: ")

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

    def test_oversized_header_fails_before_the_dense_table(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("dense table built before the budget check")

        monkeypatch.setattr(behavior_module, "_dense_table", refuse)
        # 3**5 inputs x 3**5 outputs fit the budget only without --strict.
        for parties, size, extra, required in (
            (40, 2, (), 2**80), (40, 2, ("--strict",), 2**80 * (2**40 - 2)),
            (5, 3, ("--strict",), 3**10 * 30),
        ):
            path = tmp_path / "wide.json"
            path.write_text(json.dumps({
                "parties": parties, "inputs": [size] * parties,
                "outputs": [size] * parties, "table": [],
            }))
            code, _, err = run(capsys, "verify-behavior", str(path), *extra)
            assert code == 1
            assert f"budget error: enumeration needs {required} table cell visits" in err

    def test_huge_header_is_a_budget_error(self, tmp_path, capsys):
        # 15000 parties of two inputs and two outputs: 4**15000 cells, a
        # count of 9031 digits, times 2**15000 - 2 party subsets under --strict.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "parties": 15000, "inputs": [2] * 15000, "outputs": [2] * 15000, "table": [],
        }))
        for extra, magnitude in (((), "9030.9"), (("--strict",), "13546.3")):
            code, out, err = run(capsys, "verify-behavior", str(path), *extra)
            assert code == 1
            assert out == ""
            assert f"budget error: enumeration needs about 10^{magnitude} table cell visits" in err

    def test_more_parties_than_array_axes(self, tmp_path, capsys):
        # Two axes per party would be 80, beyond any numpy's ndarray limit.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "parties": 40, "inputs": [1] * 40, "outputs": [1] * 40,
            "table": [{"x": [0] * 40, "a": [0] * 40, "p": 1}],
        }))
        code, out, err = run(capsys, "verify-behavior", str(path))
        assert code == 0, err
        assert "NS: pass" in out

    @pytest.mark.parametrize("change, message", [
        ({"parties": 2.9}, "parties must be an integer"),
        ({"parties": True}, "parties must be an integer"),
        ({"inputs": [2.5, 2]}, "inputs must be a list of integers"),
        ({"outputs": [2, True]}, "outputs must be a list of integers"),
        ({"x": [0.9, 1]}, "x must be a list of integers"),
        ({"a": [True, 0]}, "a must be a list of integers"),
        ({"extra": 1}, "behavior has unknown key 'extra'"),
        ({"q": 1}, "entry has unknown key 'q'"),
    ])
    def test_non_integer_json_exit_one(self, tmp_path, capsys, change, message):
        doc = pr_box().to_json()
        entry_keys = {"x", "a", "q"} & set(change)
        (doc["table"][0] if entry_keys else doc).update(change)
        path = tmp_path / "box.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify-behavior", str(path))
        assert code == 1
        assert out == ""
        assert "input error" in err and message in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exit_one(self, tmp_path, capsys, tol):
        path = write_box(tmp_path, signaling_box())
        code, out, err = run(capsys, "verify-behavior", path, "--tol", tol)
        assert code == 1
        assert out == ""
        assert "input error: tolerance must be finite" in err

    def test_ambiguous_deterministic_reading_exit_one(self, tmp_path, capsys):
        # Under a tolerance of 0.6 each PR-box entry, 1/2, reads as certain.
        path = write_box(tmp_path, pr_box())
        code, out, err = run(capsys, "verify-behavior", path, "--tol", "0.6")
        assert code == 1
        assert out == ""
        assert "input error: two certain outcomes" in err


class TestInvarianceCommand:
    def test_uniform_passes(self, tmp_path, capsys):
        out_file = tmp_path / "inv.json"
        code, out, _ = run(
            capsys, "invariance-test", "--samples", "20000", "--bins", "16",
            "--seed", "5", "--out", str(out_file),
        )
        assert code == 0
        assert "pass" in out
        doc = load_indented(out_file.read_text())
        assert doc["passed"] is True
        assert doc["bins"] == 16

    def test_unwritable_out_exit_one(self, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        code, _, err = run(
            capsys, "invariance-test", "--samples", "2000", "--bins", "16",
            "--out", str(not_a_dir / "inv.json"),
        )
        assert code == 1
        assert err.startswith("output error: ")

    def test_adversarial_rejected_exit_three(self, capsys):
        code, out, _ = run(
            capsys, "invariance-test", "--samples", "20000", "--bins", "16",
            "--sampler", "adversarial",
        )
        assert code == 3
        assert "REJECT" in out

    @pytest.mark.parametrize("alpha", ["nan", "inf", "2", "-1", "0", "1"])
    def test_bad_alpha_exit_one(self, tmp_path, capsys, alpha):
        out_file = tmp_path / "inv.json"
        code, out, err = run(
            capsys, "invariance-test", "--samples", "1600", "--bins", "16",
            "--alpha", alpha, "--out", str(out_file),
        )
        assert code == 1
        assert out == ""
        assert "config error: alpha must lie strictly between 0 and 1" in err
        assert not out_file.exists()

    def test_bad_bins_exit_one(self, capsys):
        code, _, err = run(capsys, "invariance-test", "--bins", "10")
        assert code == 1
        assert "config error" in err

    def test_oversized_bins_exit_one_without_allocating(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("histogram allocated")

        monkeypatch.setattr(experiment_module, "_invariance_counts", refuse)
        monkeypatch.setattr(experiment_module, "_bit_reversal_table", refuse)
        code, out, err = run(
            capsys, "invariance-test", "--bins", "1099511627776",
            "--samples", "109951162777600",
        )
        assert code == 1
        assert out == ""
        assert "config error: bins must be at most" in err

    def test_iterations_beyond_64_bits(self, capsys):
        code, out, err = run(
            capsys, "invariance-test", "--iterations", "100000000000000000000000",
            "--samples", "1600", "--bins", "16",
        )
        assert code == 0
        assert err == ""
        assert "iterations=100000000000000000000000" in out


class TestEnumerateFns:
    def test_default_binary_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate-fns")
        assert code == 0
        doc = load_indented(out)
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

    def test_default_budget_names_the_cell_count(self, capsys):
        code, out, err = run(
            capsys, "enumerate-fns", "--inputs", "4,4", "--outputs", "4,4",
        )
        assert code == 1
        assert out == ""
        # 2 parties x 4**16 functions x 16 points = 2**37 cells.
        assert "budget error: enumeration needs about 10^11.1 response-function cells" in err

    def test_huge_alphabet_is_a_budget_error(self, capsys):
        code, out, err = run(
            capsys, "enumerate-fns", "--inputs", "100,100", "--outputs", "2,2",
        )
        assert code == 1
        assert out == ""
        assert "budget error: enumeration needs about 10^3014.6" in err

    def test_counts_beyond_the_int_digit_limit_printed(self, capsys):
        # 15000 parties of one input and two outputs fit the budget; their
        # total, 2**15000, has 4516 digits.
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(
            capsys, "enumerate-fns",
            "--inputs", ",".join(["1"] * 15000), "--outputs", ",".join(["2"] * 15000),
        )
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        total = out.split('"total": ')[1].split()[0]
        with decimal.localcontext() as ctx:
            ctx.prec = 5000
            assert total == str(decimal.Decimal(2) ** 15000)

    @pytest.mark.parametrize("inputs, outputs", [("0,2", "2,2"), ("2,2", "2,-1"), ("", "")])
    def test_bad_alphabet_exit_one(self, capsys, inputs, outputs):
        code, _, err = run(capsys, "enumerate-fns", "--inputs", inputs, "--outputs", outputs)
        assert code == 1
        assert "config error" in err


class TestParser:
    def test_python_dash_m_runs_the_cli(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "nsgames", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "simulate" in proc.stdout

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats is most of the import time and serves only the
        # invariance test, which imports it when it runs.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = "import sys, nsgames, nsgames.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_no_command_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1
