"""End-to-end command line coverage: exit codes, files, formats."""

import contextlib
import copy
import decimal
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nsgames.behavior as behavior_module
import nsgames.cli as cli_module
import nsgames.experiment as experiment_module
from nsgames.behavior import pr_box, signaling_box
from nsgames.cli import main
from nsgames.strategies import parse_strategy_arg

from helpers import record_chunks

# The standard-library packages a process pool is built from.
POOL_PACKAGES = ("multiprocessing", "concurrent")


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

    def test_block_past_memory_exit_one(self, tmp_path, capsys):
        # 10^13 trials of 64 players is a 582 TiB block: numpy refuses to
        # allocate it at once, before any trial runs.
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys, "simulate", "--strategy", "constant:0", "--players", "64",
            "--trials", str(10**13), "--out-dir", str(out_dir),
        )
        assert code == 1
        assert err.startswith("config error: ") and "582. TiB" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_block_past_the_index_range_exit_one(self, tmp_path, capsys, source):
        # 10^20 trials is past numpy's index type, so numpy refuses the
        # block's shape with a ValueError, not a MemoryError.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strategy": "constant:0", "players": 1, "trials": 10**20}))
        argv = (
            ["--strategy", "constant:0", "--players", "1", "--trials", str(10**20)]
            if source == "flag" else ["--config", str(cfg)]
        )
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "simulate", *argv, "--out-dir", str(out_dir))
        assert code == 1
        assert err.startswith("config error: ") and str(10**20) in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    def test_seed_outside_64_bits_exit_one(self, tmp_path, capsys, seed):
        # The seed hash reads a seed modulo 2^64, so -1 would write the log
        # of 2^64 - 1, and 2^64 that of 0, under another master_seed.
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "simulate", "--strategy", "fns", "--players", "4", "--trials", "2",
            "--seed", seed, "--out-dir", str(out_dir),
        )
        assert code == 1
        assert out == ""
        assert err == f"config error: seed must be in 0..{2**64 - 1}, got {seed}\n"
        assert not out_dir.exists()
        code, _, _ = run(
            capsys, "simulate", "--strategy", "fns", "--players", "4", "--trials", "2",
            "--seed", str(2**64 - 1), "--out-dir", str(out_dir),
        )
        assert code == 0

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

    def test_log_written_slice_by_slice(self, tmp_path, capsys, monkeypatch):
        # One slice a chunk of the run: 40 cells of 4 players hold 10 trials.
        monkeypatch.setattr(experiment_module, "CHUNK_CELLS", 40)
        chunks = record_chunks(monkeypatch)
        slices = []
        block_log = experiment_module._block_log

        def recording(*args):
            for text in block_log(*args):
                slices.append(text)
                yield text

        monkeypatch.setattr(experiment_module, "_block_log", recording)
        code, _, _ = run(
            capsys, "simulate", "--strategy", "local-table:0,1,1,0", "--players", "4",
            "--trials", "23", "--seed", "5", "--root-override-depth", "3",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert [text.count("\n") for text in slices] == [b - a for a, b in chunks] == [10, 10, 3]
        result = experiment_module.run_experiment(experiment_module.ExperimentConfig(
            strategy=parse_strategy_arg("local-table:0,1,1,0"), players=4, trials=23,
            master_seed=5, override_depth=3,
        ))
        log = "".join(r.to_json_line() + "\n" for r in result.records)
        assert (tmp_path / "trials.jsonl").read_text(encoding="utf-8") == log

    @pytest.mark.slow
    def test_deepest_overrides_in_a_bounded_peak(self, tmp_path):
        # Three trials at the deepest override depth write 2^20 pairs a line.
        # The child's own peak RSS was about 126 MiB when the override keys
        # became fixed-width byte strings, and 278 MiB before.  The child
        # reads it as its VmHWM: the peak of its own address space since
        # exec.  wait4's ru_maxrss also keeps the peak of the memory the
        # child held before exec, a copy of this process's, which grows with
        # the tests run before this one.
        depth = experiment_module.MAX_OVERRIDE_DEPTH
        src = Path(__file__).resolve().parents[1] / "src"
        child = (
            "import sys\n"
            "from nsgames.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as status:\n"
            "    print(*(line for line in status if line.startswith('VmHWM:')), end='')\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [
                sys.executable, "-c", child, "simulate", "--strategy", "fns",
                "--root-override-depth", str(depth), "--players", "4", "--trials", "3",
                "--out-dir", str(tmp_path),
            ],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "trials.jsonl").read_bytes().splitlines()
        assert len(lines) == 3
        for line in lines:
            overrides = line[line.index(b'"overrides":{') : line.index(b'},"seed":')]
            assert overrides.count(b",") + 1 == depth
        # The last line of stdout is "VmHWM:  <n> kB".
        _, peak, unit = proc.stdout.splitlines()[-1].split()
        assert unit == "kB"
        assert int(peak) < 192 * 1024

    def test_unwritable_log_exit_one_after_the_report(self, tmp_path, capsys):
        (tmp_path / "trials.jsonl").mkdir()
        code, _, err = run(
            capsys, "simulate", "--strategy", "constant:0", "--players", "4",
            "--trials", "3", "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert err.startswith("output error: ")
        assert load_indented((tmp_path / "report.json").read_text())["config"]["trials"] == 3

    def test_non_utf8_config_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"players": 4, "strategy": "fns\xff"}')
        code, _, err = run(
            capsys, "simulate", "--config", str(cfg), "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert err.startswith("config error: --config: ")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("literal", ["digits", "nested"])
    def test_config_past_the_decoder_exit_one(self, tmp_path, capsys, literal):
        # json.load raises a plain ValueError for an integer past Python's
        # limit on int digits, and a RecursionError for deep nesting.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(dump_document({"strategy": "constant:0", "players": f"\0{literal}"}))
        code, _, err = run(
            capsys, "simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
        )
        assert code == 1
        assert err.startswith("config error: --config: ")
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("doc, message", [
        ({"azuma-eps": [10**400]}, "epsilon"),
        ({"strategy": {"name": "shared-mixture", "tables": [[0], [1]], "weights": [10**400, 1]}},
         "weights"),
        ({"strategy": {"name": "shared-mixture", "tables": [[0], [1]],
                       "weights": [10**308, 10**308]}}, "finite sum"),
    ], ids=["azuma-eps", "weights", "weights-sum"])
    def test_number_past_float_range_exit_one(self, tmp_path, capsys, doc, message):
        # A JSON integer has no bound; one past the float range is not a
        # finite number, and math.isfinite raises OverflowError on it.  Two
        # weights inside the range may still sum past it.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strategy": "constant:0", "players": 4, "trials": 2, **doc}))
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 1
        assert err.startswith("config error: ") and message in err
        assert not out_dir.exists()

    def test_override_depth_past_the_bound_exit_one(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys, "simulate", "--strategy", "fns", "--root-override-depth", "100000000",
            "--trials", "3", "--out-dir", str(out_dir),
        )
        assert code == 1
        assert "config error" in err and str(experiment_module.MAX_OVERRIDE_DEPTH) in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("players", [experiment_module.MAX_PLAYERS + 1, 10**10])
    def test_players_past_the_bound_exit_one(self, tmp_path, capsys, monkeypatch, players):
        def refuse(cfg):
            raise AssertionError(f"a run of {cfg.players} players started")

        monkeypatch.setattr(cli_module, "run_experiment", refuse)
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys, "simulate", "--strategy", "constant:0", "--players", str(players),
            "--trials", "3", "--out-dir", str(out_dir),
        )
        assert code == 1
        assert "config error" in err and str(experiment_module.MAX_PLAYERS) in err
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("flags, doc, code", [
        (["--parallelism", "0"], None, 1),
        (["--parallelism", "-1"], None, 1),
        ([], {"parallelism": 0}, 1),
        (["--parallelism", "2"], None, 0),
    ], ids=["flag-0", "flag-minus-1", "config-0", "flag-2"])
    def test_parallelism_checked_then_ignored(self, tmp_path, capsys, flags, doc, code):
        # --parallelism and the config key are accepted and a count below 1
        # is rejected, but the value changes nothing.
        if doc is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            flags = [*flags, "--config", str(cfg)]
        out_dir = tmp_path / "out"
        got, _, err = run(
            capsys, "simulate", "--strategy", "constant:0", "--players", "4",
            "--trials", "2", *flags, "--out-dir", str(out_dir),
        )
        assert got == code
        if code:
            assert "config error" in err and "parallelism" in err
            assert not out_dir.exists()
        else:
            assert (out_dir / "report.json").exists()


# JSON literals json.dumps cannot write, each put in the place of its
# stand-in string: an integer past Python's default limit of 4300 digits on
# int-from-str conversion, and arrays nested past the decoder's recursion
# limit.
RAW_LITERALS = {"\0digits": "9" * 5000, "\0nested": "[" * 10**4 + "]" * 10**4}


def dump_document(doc):
    """``json.dumps(doc)``, with each stand-in of RAW_LITERALS replaced by
    its literal."""
    text = json.dumps(doc)
    for stand_in, literal in RAW_LITERALS.items():
        text = text.replace(json.dumps(stand_in), literal)
    return text


# Each config key's in-range values: at most 8 players, 20 trials and an
# override depth of 4, so that every run that starts is short.
IN_RANGE = {
    "strategy": st.sampled_from([
        "constant:0", "local-table:0,1,1,0", "fns", "cheat", "no-such-strategy",
        {"name": "local-random", "p": 0.5}, {"name": "shared-mixture", "tables": [[0, 1]]},
    ]),
    "players": st.integers(1, 8),
    "trials": st.integers(1, 20),
    "seed": st.integers(0, 2**64 - 1),
    "root-override-depth": st.integers(0, 4),
    "parallelism": st.integers(1, 4),
    "azuma-n": st.lists(st.integers(1, 8), max_size=3),
    "azuma-eps": st.lists(st.floats(0.5, 40.0), max_size=3),
    "allow-cheat": st.booleans(),
    "no-enforce": st.booleans(),
}
# Values no key accepts, or accepts only at its edge.
ODD_VALUES = st.sampled_from(
    [2**63, 10**400, 1e308, -0.0, math.nan, math.inf, True, False, "8", "", [[1]], [1, [2]], None]
)


def odd_value(key):
    """An out-of-range or odd value of the key, or a list of them."""
    # A trial count past the range starts at 2^62, so that no example plays
    # a mid-size run.
    past = st.integers(min_value=2**62)
    if key != "trials":
        past |= st.just(experiment_module.MAX_PLAYERS + 1)
    odd = ODD_VALUES | st.integers(max_value=0) | past
    return odd | st.lists(odd, max_size=2)


@st.composite
def config_documents(draw):
    """A simulate --config document: some of CONFIG_KEYS, mostly with the
    strategy, each with an in-range value but for at most two odd ones, and
    at times one key it does not know."""
    any_keys = st.sampled_from(sorted(cli_module.CONFIG_KEYS))
    keys = draw(st.lists(any_keys, unique=True))
    if draw(st.integers(0, 3)) and "strategy" not in keys:
        keys.append("strategy")
    odd = draw(st.sets(any_keys, max_size=2))
    doc = {key: draw(odd_value(key) if key in odd else IN_RANGE[key]) for key in keys}
    if draw(st.integers(0, 9)) == 0:
        doc["no-such-key"] = 1
    return doc


def run_config_document(doc):
    """Exit code and stderr of simulate --config on ``doc``, run in this
    process with the output in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", str(cfg), "--out-dir", str(Path(tmp) / "out")])
    return code, err.getvalue()


class TestConfigDocuments:
    """Every simulate --config document ends in a documented exit code: 0,
    1 with a one-line ``config error`` or ``output error`` message, or 2."""

    @staticmethod
    def check(doc):
        code, err = run_config_document(doc)
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith(("config error: ", "output error: ")), err

    @settings(max_examples=60, deadline=None)
    @given(config_documents())
    @example({"strategy": "constant:0", "players": 1, "trials": 10**20})
    def test_any_document_exits_cleanly(self, doc):
        self.check(doc)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(config_documents())
    def test_many_documents_exit_cleanly(self, doc):
        self.check(doc)


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

    @pytest.mark.parametrize("p", ["1e10000000", "1e-10000000"])
    def test_huge_exponent_exit_one_at_once(self, tmp_path, capsys, p):
        # Fraction alone would build 10^(10^7) here, for about 10 s.
        doc = {
            "parties": 1, "inputs": [1], "outputs": [2],
            "table": [{"x": [0], "a": [0], "p": p}, {"x": [0], "a": [1], "p": "1/2"}],
        }
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify-behavior", str(path))
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert err.startswith("input error: table entry 0: probability exponent must lie")

    @pytest.mark.parametrize("p, size", [
        ("1e4300", "10^4300.0"), ("1e999", "10^999.0"), ("-1e999", "-10^999.0"),
    ])
    def test_huge_probability_named_by_its_size(self, tmp_path, capsys, p, size):
        # Its digits, 1000 to 4301 of them, are not written out: 10^4300 is
        # past the int-to-str limit.
        doc = {
            "parties": 1, "inputs": [1], "outputs": [2],
            "table": [{"x": [0], "a": [0], "p": p}, {"x": [0], "a": [1], "p": "1/2"}],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify-behavior", str(path))
        assert code == 1
        assert out == ""
        assert err == f"input error: P((0,), (0,)) = about {size} outside [0, 1]\n"

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


# Values odd in any place of a behavior document.
ODD_JSON = st.sampled_from([
    -1, 0, 40, 2**63, 10**400, 1e308, -0.0, math.nan, math.inf, True, False, "2", "", None,
    [], [[1]], {"p": 1}, *RAW_LITERALS,
])
# Probabilities of a table entry: exact and float ones in [0, 1], and ones
# outside it, past float range, with a zero denominator or malformed.
PROBABILITIES = ODD_JSON | st.fractions(0, 1, max_denominator=12).map(str) | st.sampled_from([
    1, "1/2", 0.5, 1.0, 1e-320, "0.25", "1e-3", "1e999", "1/0", "0/0", "-1/2", "3/2", "nan",
    "inf",
])
# Documents the drawn ones start from: exact and float, no-signaling and
# signaling, and a header whose table is past the budget.
BEHAVIOR_BOXES = [
    pr_box().to_json(),
    signaling_box().to_json(),
    {**pr_box().to_json(), "table": [
        {**entry, "p": 0.5} for entry in pr_box().to_json()["table"]
    ]},
    {"parties": 1, "inputs": [1], "outputs": [2], "table": [
        {"x": [0], "a": [0], "p": "1/3"}, {"x": [0], "a": [1], "p": "2/3"},
    ]},
    {"parties": 40, "inputs": [2] * 40, "outputs": [2] * 40, "table": []},
]
# verify-behavior's options, each with a value argparse takes.
BEHAVIOR_OPTIONS = st.sampled_from([
    [], ["--strict"], ["--format", "json"], ["--tol", "0"], ["--tol", "1e-9"],
    ["--tol", "0.6"], ["--tol", "1e308"], ["--tol", "-1"], ["--tol", "nan"],
])


def behavior_value(key):
    """A value for a behavior document's key: odd, or of the key's type
    but at times out of range or of the wrong arity."""
    if key == "p":
        return PROBABILITIES
    small = st.integers(-1, 3)
    if key == "parties":
        return small | ODD_JSON
    if key == "table":
        return ODD_JSON | st.lists(ODD_JSON, max_size=2)
    return ODD_JSON | st.lists(small | ODD_JSON, max_size=3)


@st.composite
def behavior_documents(draw):
    """A verify-behavior document: one of BEHAVIOR_BOXES, then at most three
    changes, each to the document or to one of its entries: a key dropped,
    an unknown key added, or a key's value replaced (see behavior_value)."""
    doc = copy.deepcopy(draw(st.sampled_from(BEHAVIOR_BOXES)))
    for _ in range(draw(st.integers(0, 3))):
        table = doc.get("table")
        entries = [e for e in table if isinstance(e, dict)] if isinstance(table, list) else []
        where = draw(st.sampled_from([doc, *entries]))
        change = draw(st.sampled_from(["drop", "unknown", "replace"]))
        if change == "unknown":
            where["extra"] = 1
        elif where:
            key = draw(st.sampled_from(sorted(where)))
            if change == "drop":
                del where[key]
            else:
                where[key] = draw(behavior_value(key))
    return doc


class TestBehaviorDocuments:
    """Every verify-behavior document ends in a documented exit code: 0, 1
    with a one-line ``input error`` or ``budget error`` message, or 3."""

    @staticmethod
    def check(doc, options):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "box.json"
            path.write_text(dump_document(doc), encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["verify-behavior", str(path), *options])
        err = err.getvalue()
        assert code in (0, 1, 3), (code, err)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith(("input error: ", "budget error: ")), err

    @settings(max_examples=60, deadline=None)
    @given(behavior_documents(), BEHAVIOR_OPTIONS)
    @example({**pr_box().to_json(), "parties": "\0digits"}, [])
    @example({**pr_box().to_json(), "table": "\0nested"}, [])
    def test_any_document_exits_cleanly(self, doc, options):
        self.check(doc, options)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(behavior_documents(), BEHAVIOR_OPTIONS)
    def test_many_documents_exit_cleanly(self, doc, options):
        self.check(doc, options)


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

    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    def test_seed_outside_64_bits_exit_one(self, capsys, seed):
        # The report does not hold the seed, and the hash reads it modulo
        # 2^64: 2^64 would report the p-value of seed 0.
        code, out, err = run(
            capsys, "invariance-test", "--samples", "20000", "--bins", "16", "--seed", seed,
        )
        assert code == 1
        assert out == ""
        assert err == f"config error: seed must be in 0..{2**64 - 1}, got {seed}\n"

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


# Edge values for invariance-test's flags: negative, zero, not a power of
# two, one bin past the bound, past 64 bits, and not integers at all.
EDGE_ARGS = ["-1", "0", "3", str(2**24 + 1), str(2**64), str(10**30), "nan", "1e3", ""]
# Each flag's in-range values, then its edge values.  A valid --samples
# stays at 2·10^4 or below, so that every run is quick; an --out is a path
# under the example's own directory, or "" for none.
INVARIANCE_ARGS = {
    "--samples": (["1600", "20000"], ["-1", "0", "3", "99", "nan", "1e3", ""]),
    "--bins": (["2", "4", "16", "128"], [*EDGE_ARGS, str(2**24)]),
    "--seed": (["0", "7"], EDGE_ARGS),
    "--iterations": (["1", "61", "64"], EDGE_ARGS),
    "--sampler": (["uniform", "adversarial"], ["Uniform", "nan", ""]),
    "--alpha": (["0.5", "1e-3", "1e-320"], [*EDGE_ARGS, "inf", "-inf"]),
    "--out": (["", "inv.json"], [".", "missing/inv.json"]),
}


@st.composite
def flag_options(draw, flags, always=()):
    """Options by flag, from ``flags``, a map of each flag to its in-range
    values and its edge values: the flags in ``always`` and each other at
    times, with an in-range value but for at most two edge ones."""
    edged = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    options = {}
    for flag, (in_range, edge) in flags.items():
        if flag in always or flag in edged or draw(st.booleans()):
            options[flag] = draw(st.sampled_from(edge if flag in edged else in_range))
    return options


def exit_and_stderr(argv):
    """The exit code and stderr of the command line, run in this process;
    a usage error's ``SystemExit`` is its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def check_exit(code, err, codes, prefixes):
    """A documented exit: a code of ``codes``; no traceback; with code 1, a
    last stderr line that starts with one of ``prefixes``, and otherwise
    nothing on stderr."""
    assert code in codes, (code, err)
    assert "Traceback" not in err
    if code == 1:
        assert err.splitlines()[-1].startswith(prefixes), err
    else:
        assert err == ""


class TestInvarianceArguments:
    """Every invariance-test command line ends in a documented exit code: 0,
    1 with a last stderr line that names the error, or 3."""

    @staticmethod
    def check(options):
        with tempfile.TemporaryDirectory() as tmp:
            argv = []
            for flag, value in options.items():
                if flag == "--out" and value:
                    value = str(Path(tmp) / value)
                argv += [flag, value]
            code, err = exit_and_stderr(["invariance-test", *argv])
        check_exit(code, err, (0, 1, 3), (
            "config error: ", "output error: ", "nsgames invariance-test: error: ",
        ))

    @settings(max_examples=60, deadline=None)
    @given(flag_options(INVARIANCE_ARGS, always=("--samples",)))
    @example({"--samples": "20000", "--bins": "4", "--sampler": "adversarial",
              "--iterations": str(2**64), "--seed": str(2**64 - 1), "--alpha": "1e-320"})
    @example({"--samples": "20000", "--bins": str(10**30), "--out": "."})
    def test_any_arguments_exit_cleanly(self, options):
        self.check(options)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(flag_options(INVARIANCE_ARGS, always=("--samples",)))
    def test_many_arguments_exit_cleanly(self, options):
        self.check(options)


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


# enumerate-fns's flags: each one's in-range values, then its edge values.
# In-range alphabets are two parties of at most 4 input points and 3 outputs,
# so that a run stays small at any budget.  The edge lists are empty, hold a
# size below 1, past 64 bits or not an integer, or name 15000 parties: one
# input each, whose total has 4516 digits, or two, past every budget.
ENUMERATE_LISTS = (
    ["2,2", "1,2", "3,1"],
    ["", ",", "0", "-1", "0,2", "2,-1", str(2**64), str(10**30), "nan", "1e3",
     ",".join(["1"] * 15000), ",".join(["2"] * 15000)],
)
ENUMERATE_ARGS = {
    "--inputs": ENUMERATE_LISTS,
    "--outputs": (["2,2", "3,2", "1,1"], ENUMERATE_LISTS[1]),
    "--budget": (
        ["100", "4000", "1000000"], ["-1", "0", str(2**64), str(10**30), "nan", "1e3", ""],
    ),
}


class TestEnumerateArguments:
    """Every enumerate-fns command line ends in a documented exit code: 0,
    1 with a last stderr line that names the error, or 3."""

    @staticmethod
    def check(options):
        argv = [arg for pair in options.items() for arg in pair]
        code, err = exit_and_stderr(["enumerate-fns", *argv])
        check_exit(code, err, (0, 1, 3), (
            "budget error: ", "config error: ", "nsgames enumerate-fns: error: ",
        ))

    @settings(max_examples=60, deadline=None)
    @given(flag_options(ENUMERATE_ARGS))
    @example({"--inputs": ",".join(["1"] * 15000), "--outputs": ",".join(["2"] * 15000),
              "--budget": str(10**30)})
    @example({"--inputs": "3,1", "--outputs": "3,2", "--budget": str(2**64)})
    def test_any_arguments_exit_cleanly(self, options):
        self.check(options)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(flag_options(ENUMERATE_ARGS))
    def test_many_arguments_exit_cleanly(self, options):
        self.check(options)


# Edge values of simulate's integer flags: below the range, past 64 bits,
# and not integers at all.  None of them starts a run: a trial count past 64
# bits is refused before its block is allocated.
SIMULATE_EDGES = ["-1", "0", str(2**64), str(10**30), "nan", "1e3", ""]
# simulate's flags: each one's in-range values, then its edge values.  In
# range, a run has at most 8 players and 20 trials and overrides at most 4
# bits, so that every run that starts is short.  --config and --out-dir name
# paths under the example's own directory: a small valid config, a missing
# file or a directory; and a fresh directory, or a regular file.
SIMULATE_ARGS = {
    "--strategy": (
        ["constant:0", "local-table:0,1,1,0", "fns", "cheat",
         '{"name": "local-random", "p": 0.5}'],
        ["", "no-such-strategy", "constant:2", "local-table:", "local-table:0,1,1",
         "local-random:nan", "fns:1", "{", '{"name": "fns", "x": 1}', "[]"],
    ),
    "--players": (["1", "2", "8"], [*SIMULATE_EDGES, str(experiment_module.MAX_PLAYERS + 1)]),
    "--trials": (["1", "3", "20"], SIMULATE_EDGES),
    "--seed": (["0", str(2**64 - 1)], SIMULATE_EDGES[:1] + SIMULATE_EDGES[2:]),
    "--root-override-depth": (
        ["0", "1", "4"], [*SIMULATE_EDGES[:1], *SIMULATE_EDGES[2:],
                          str(experiment_module.MAX_OVERRIDE_DEPTH + 1)],
    ),
    "--parallelism": (["1", "2"], SIMULATE_EDGES),
    "--azuma-n": (["1", "1,2"], ["", ",", "0", "-1", "9", "nan", "1,,x"]),
    "--azuma-eps": (["4", "0.5,8"], ["", "0", "-1", "nan", "inf", "1e400", "x"]),
    "--format": (["json", "csv"], ["JSON", "xml", ""]),
    "--config": (["cfg.json"], ["missing.json", "."]),
    "--out-dir": (["out"], ["file"]),
}


# simulate's switches, each present or not.
SWITCHES = st.sets(st.sampled_from(["--allow-cheat", "--no-enforce"]))


class TestSimulateArguments:
    """Every simulate command line ends in a documented exit code: 0, 1
    with a last stderr line that names the error, or 2."""

    @staticmethod
    def check(options, switches):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "cfg.json").write_text('{"players": 2, "trials": 2}', encoding="utf-8")
            (tmp / "file").write_text("", encoding="utf-8")
            argv = list(switches)
            # An --out-dir always, so that nothing is written elsewhere, and
            # without a config, a small run in place of simulate's default
            # 64 players and 1000 trials.
            defaults = {"--out-dir": "out"}
            if "--config" not in options:
                defaults.update({"--players": "2", "--trials": "2"})
            for flag, value in {**defaults, **options}.items():
                if flag in ("--config", "--out-dir"):
                    value = str(tmp / value)
                argv += [flag, value]
            code, err = exit_and_stderr(["simulate", *argv])
        check_exit(code, err, (0, 1, 2), (
            "config error: ", "output error: ", "nsgames simulate: error: ",
        ))

    @settings(max_examples=60, deadline=None)
    @given(flag_options(SIMULATE_ARGS, always=("--strategy",)), SWITCHES)
    @example({"--strategy": "cheat", "--players": "8", "--trials": "20"}, {"--allow-cheat"})
    @example({"--strategy": "fns", "--players": "1", "--trials": str(10**30)}, set())
    @example({"--strategy": "constant:0", "--out-dir": "file"}, set())
    def test_any_arguments_exit_cleanly(self, options, switches):
        self.check(options, sorted(switches))

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(flag_options(SIMULATE_ARGS, always=("--strategy",)), SWITCHES)
    def test_many_arguments_exit_cleanly(self, options, switches):
        self.check(options, sorted(switches))


# The behavior files verify-behavior is pointed at: exact and float boxes,
# no-signaling and signaling, one past the budget; then a missing file, a
# directory, and files that are empty, malformed JSON, not UTF-8, or nested
# past the decoder's recursion limit.
BEHAVIOR_FILES = {
    "pr.json": json.dumps(BEHAVIOR_BOXES[0]),
    "signaling.json": json.dumps(BEHAVIOR_BOXES[1]),
    "float.json": json.dumps(BEHAVIOR_BOXES[2]),
    "budget.json": json.dumps(BEHAVIOR_BOXES[4]),
    "empty.json": "",
    "bad.json": "{",
    "latin1.json": "\udcff",
    "nested.json": RAW_LITERALS["\0nested"],
}
# verify-behavior's flags and its file argument ("path"): each one's
# in-range values, then its edge values.
VERIFY_ARGS = {
    "path": (
        ["pr.json", "signaling.json", "float.json", "budget.json"],
        ["missing.json", ".", "empty.json", "bad.json", "latin1.json", "nested.json"],
    ),
    "--tol": (["0", "1e-9", "0.25"], ["-1", "0.5", "0.6", "1e308", "nan", "inf", "", "x"]),
    "--format": (["text", "json"], ["JSON", "xml", ""]),
}


class TestVerifyArguments:
    """Every verify-behavior command line ends in a documented exit code:
    0, 1 with a last stderr line that names the error, or 3."""

    @staticmethod
    def check(options, strict):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, text in BEHAVIOR_FILES.items():
                (tmp / name).write_bytes(text.encode("utf-8", "surrogateescape"))
            argv = ["--strict"] if strict else []
            for flag, value in options.items():
                argv += [str(tmp / value)] if flag == "path" else [flag, value]
            code, err = exit_and_stderr(["verify-behavior", *argv])
        check_exit(code, err, (0, 1, 3), (
            "input error: ", "budget error: ", "nsgames verify-behavior: error: ",
        ))

    @settings(max_examples=60, deadline=None)
    @given(flag_options(VERIFY_ARGS, always=("path",)), st.booleans())
    @example({"path": "nested.json", "--tol": "nan"}, True)
    @example({"path": "float.json", "--tol": "0.5", "--format": "json"}, False)
    @example({}, False)
    def test_any_arguments_exit_cleanly(self, options, strict):
        self.check(options, strict)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(flag_options(VERIFY_ARGS, always=("path",)), st.booleans())
    def test_many_arguments_exit_cleanly(self, options, strict):
        self.check(options, strict)


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
        # The package uses no scipy; only the tests take it as a reference.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = "import sys, nsgames, nsgames.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @staticmethod
    def _modules_after(code: str, *packages: str) -> list[str]:
        """The modules of the given top-level packages loaded once `code` has
        run in a fresh interpreter."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code += (
            "\nimport json, sys\n"
            f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r})))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    @staticmethod
    def _cli_code(*argv: str) -> str:
        """Code that runs ``python -m nsgames`` on argv and checks it exits 0."""
        return (
            "import runpy, sys\n"
            f"sys.argv = ['nsgames', *{list(argv)!r}]\n"
            "try:\n"
            "    runpy.run_module('nsgames', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "else:\n"
            "    raise AssertionError('the CLI did not exit')\n"
        )

    def test_import_loads_no_scipy(self):
        assert self._modules_after("import nsgames, nsgames.cli", "scipy") == []

    def test_import_loads_no_process_pool(self):
        assert self._modules_after("import nsgames, nsgames.cli", *POOL_PACKAGES) == []

    def test_cli_simulate_loads_no_process_pool(self, tmp_path):
        # cheat has no batch kernel, so every trial takes the scalar path.
        code = self._cli_code(
            "simulate", "--strategy", "cheat", "--allow-cheat", "--no-enforce",
            "--players", "4", "--trials", "8", "--parallelism", "2",
            "--out-dir", str(tmp_path),
        )
        assert self._modules_after(code, *POOL_PACKAGES) == []
        assert (tmp_path / "trials.jsonl").read_text().count("\n") == 8

    _INVARIANCE_CALL = (
        "from nsgames.experiment import invariance_test\n"
        "assert invariance_test(samples=1600, bins=16, seed=0).passed\n"
    )

    def test_invariance_test_leaves_scipy_stats_unloaded(self):
        # The p-value's tail is computed without scipy: no scipy module loads.
        assert self._modules_after(self._INVARIANCE_CALL, "scipy") == []

    def test_cli_invariance_test_leaves_scipy_stats_unloaded(self):
        code = self._cli_code("invariance-test", "--samples", "1600", "--bins", "16")
        assert self._modules_after(code, "scipy") == []

    @pytest.mark.parametrize("call", ["library", "cli"])
    def test_invariance_test_runs_with_scipy_blocked(self, call):
        # With sys.modules["scipy"] set to None, every import of scipy raises
        # ImportError; that None is the one scipy entry left at the end.
        if call == "library":
            code = self._INVARIANCE_CALL
        else:
            code = self._cli_code("invariance-test", "--samples", "1600", "--bins", "16")
        code = "import sys\nsys.modules['scipy'] = None\n" + code
        assert self._modules_after(code, "scipy") == ["scipy"]

    def test_no_command_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1
