"""The benchmark workloads.

Each workload builds its inputs from the seed once, then runs one
fixed-size round per call to ``run_round``.  A round drives the library only
through its public functions, checks every output that can be checked
exactly, and returns the SHA-256 digests of the report JSON and the trial
log it produced, so that runs of the same code and seed can be compared
byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from nsgames import cli
from nsgames.behavior import (
    Behavior,
    check_functional_locality_equivalence,
    check_no_signaling,
)
from nsgames.experiment import (
    ADVERSARIAL,
    UNIFORM,
    ExperimentConfig,
    azuma_report,
    invariance_test,
    martingale_audit,
    run_experiment,
    win_rate_report,
    wilson_interval,
)
from nsgames.game import TrialRecord
from nsgames.strategies import build_strategy

# The nine NS-local strategies of the acceptance suite.
NS_LOCAL_SUITE = (
    {"name": "constant", "value": 0},
    {"name": "local-table", "table": [0, 1]},
    {"name": "local-table", "table": [1, 0]},
    {"name": "local-table", "table": [0, 1, 1, 0]},
    {"name": "local-table", "table": [1, 1, 1, 0, 0, 1, 0, 0]},
    {"name": "local-random", "p": 0.3},
    {"name": "local-random", "p": 0.5},
    {"name": "local-random", "p": 0.9},
    {
        "name": "shared-mixture",
        "tables": [[0, 1], [1, 0], [0, 1, 1, 0]],
        "weights": [0.5, 0.3, 0.2],
    },
)
LOCAL_TRIALS = 200
LOCAL_PLAYERS = 64

FNS_DEPTHS = (0, 8)
FNS_TRIALS = 10
FNS_PLAYERS = 1024

POOL_TRIALS = 6000
POOL_PLAYERS = 16
POOL_PARALLELISM = 2

ENUMERATIONS = (((4, 2), (2, 2)), ((2, 2, 2), (2, 2, 1)))
NS_BOXES = 2
BOX_PARTIES = 3
BOX_INPUTS = 4
BOX_OUTPUTS = 3
BOX_WEIGHTS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
INVARIANCE_SAMPLES = 10**6
INVARIANCE_BINS = 256
INVARIANCE_RUNS = ((1, UNIFORM), (16, UNIFORM), (1, ADVERSARIAL))
INVARIANCE_P = 1e-6

# Wilson half-width, in standard errors, for the pooled local win rate.
POOLED_Z = 5.0


@dataclass
class Checks:
    """Counts the checks a run attempted and names the first failures."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(name)


@dataclass(frozen=True)
class RoundOutput:
    report_sha256: str
    log_sha256: str


class Workload:
    """One seeded workload.  ``items`` is the work one round completes.

    ``guesses`` is the number of scored player-guesses in a round (0 for
    workloads that play no game); per-guess layer ratios divide by it.
    ``pooled`` marks rounds that run worker processes.  ``span`` is
    replaced by the tracer while a round is traced.
    """

    name = "?"
    items = 0
    guesses = 0
    pooled = False

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()

    def run_round(self, checks: Checks) -> RoundOutput:
        raise NotImplementedError

    def serial_variant(self) -> "Workload | None":
        """The same work without a process pool, when the round uses one."""
        return None


def _digests(report, log) -> RoundOutput:
    return RoundOutput(report.hexdigest(), log.hexdigest())


def _record_arrays(records):
    s = np.array([r.s for r in records], dtype=np.int64)
    outputs = np.array([r.outputs for r in records], dtype=np.int64)
    trajectory = np.array([r.trajectory for r in records], dtype=np.int64)
    thresholds = np.array([r.threshold for r in records], dtype=np.int64)
    return s, outputs, trajectory, thresholds


def _last_losing_index(s: np.ndarray) -> np.ndarray:
    losing = s < 0
    players = s.shape[1]
    last = players - np.argmax(losing[:, ::-1], axis=1)
    return np.where(losing.any(axis=1), last, 0)


class LocalSuite(Workload):
    """The NS-local strategy suite, run serially, with report, log and audit."""

    name = "local-suite"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.configs = [
            ExperimentConfig(
                strategy=build_strategy(spec),
                players=LOCAL_PLAYERS,
                trials=LOCAL_TRIALS,
                master_seed=seed,
            )
            for spec in NS_LOCAL_SUITE
        ]
        self.items = self.guesses = len(self.configs) * LOCAL_TRIALS * LOCAL_PLAYERS

    def run_round(self, checks: Checks) -> RoundOutput:
        report_hash, log_hash = hashlib.sha256(), hashlib.sha256()
        for cfg in self.configs:
            label = json.dumps(cfg.strategy.spec(), sort_keys=True)
            with self.span("run_experiment"):
                result = run_experiment(cfg)
            with self.span("render_json"):
                report = result.render_json()
            with self.span("trial_log"):
                log = result.trial_log()
            with self.span("martingale_audit"):
                audit = martingale_audit(result.records)
            report_hash.update(report.encode())
            log_hash.update(log.encode())
            with self.span("checks"):
                self._check(checks, label, result.records, json.loads(report), audit)
        return _digests(report_hash, log_hash)

    @staticmethod
    def _check(checks: Checks, label: str, records, report: dict, audit) -> None:
        s, outputs, trajectory, thresholds = _record_arrays(records)
        checks.check(f"{label}: outputs are bits", bool(np.isin(outputs, (0, 1)).all()))
        checks.check(
            f"{label}: trajectory is the cumsum of s",
            bool(np.array_equal(np.cumsum(s, axis=1), trajectory)),
        )
        checks.check(
            f"{label}: threshold is the last losing index",
            bool(np.array_equal(_last_losing_index(s), thresholds)),
        )
        win = report["win_rate"]
        reported = [p["wins"] for p in win["per_player"]]
        checks.check(
            f"{label}: reported wins equal the count of s>0",
            reported == (s > 0).sum(axis=0).tolist(),
        )
        wins = int((s > 0).sum())
        lo, hi = wilson_interval(wins, s.size, z=POOLED_Z)
        checks.check(f"{label}: pooled win rate is 1/2 within z=5", lo <= 0.5 <= hi)
        checks.check(f"{label}: martingale increments are +-1", audit.increments_ok)


class FnsOracle(Workload):
    """The choice-oracle strategy at many players and two override depths."""

    name = "fns-oracle"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.configs = [
            ExperimentConfig(
                strategy=build_strategy({"name": "fns"}),
                players=FNS_PLAYERS,
                trials=FNS_TRIALS,
                master_seed=seed,
                override_depth=depth,
            )
            for depth in FNS_DEPTHS
        ]
        self.items = self.guesses = len(self.configs) * FNS_TRIALS * FNS_PLAYERS

    def run_round(self, checks: Checks) -> RoundOutput:
        report_hash, log_hash = hashlib.sha256(), hashlib.sha256()
        for cfg in self.configs:
            depth = cfg.override_depth
            with self.span("run_experiment"):
                result = run_experiment(cfg)
            with self.span("render_json"):
                report_hash.update(result.render_json().encode())
            with self.span("trial_log"):
                log_hash.update(result.trial_log().encode())
            with self.span("checks"):
                s, _, _, thresholds = _record_arrays(result.records)
                checks.check(
                    f"fns depth {depth}: every player beyond the depth wins",
                    bool((s[:, depth:] == 1).all()),
                )
                checks.check(
                    f"fns depth {depth}: threshold <= depth",
                    bool((thresholds <= depth).all()),
                )
        return _digests(report_hash, log_hash)


class PoolLog(Workload):
    """``nsgames simulate`` through a process pool, then the log read back."""

    name = "pool-log"

    def __init__(self, seed: int, out_dir: Path, parallelism: int = POOL_PARALLELISM) -> None:
        self.seed = seed
        self.pooled = parallelism > 1
        self.out_dir = out_dir / f"pool-log-p{parallelism}"
        self.argv = [
            "simulate",
            "--strategy", "constant:0",
            "--players", str(POOL_PLAYERS),
            "--trials", str(POOL_TRIALS),
            "--seed", str(seed),
            "--parallelism", str(parallelism),
            "--out-dir", str(self.out_dir),
        ]
        self.items = self.guesses = POOL_TRIALS * POOL_PLAYERS
        self.records: list[TrialRecord] = []
        self.bytes_written = 0

    def serial_variant(self) -> "PoolLog":
        return PoolLog(self.seed, self.out_dir.parent, parallelism=1)

    def run_round(self, checks: Checks) -> RoundOutput:
        with self.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        checks.check("simulate exits with code 0", code == 0)
        with self.span("read_back"):
            report_text = (self.out_dir / "report.json").read_text(encoding="utf-8")
            log_text = (self.out_dir / "trials.jsonl").read_text(encoding="utf-8")
            records = [TrialRecord.from_json_line(line) for line in log_text.splitlines()]
        self.records = records
        self.bytes_written = len(report_text.encode()) + len(log_text.encode())
        report = json.loads(report_text)
        config = report["config"]
        with self.span("win_rate_report"):
            win = win_rate_report(records, config["players"])
        with self.span("azuma_report"):
            azuma = azuma_report(records, config["azuma_n"], config["azuma_eps"])
        with self.span("martingale_audit"):
            audit = martingale_audit(records)
        with self.span("checks"):
            checks.check("log holds one record per trial", len(records) == POOL_TRIALS)
            checks.check(
                "read-back win_rate_report equals report.json",
                _canonical(win.to_json()) == _canonical(report["win_rate"]),
            )
            checks.check(
                "read-back azuma_report equals report.json",
                _canonical(azuma.to_json()) == _canonical(report["azuma"]),
            )
            checks.check("martingale increments are +-1", audit.increments_ok)
        return RoundOutput(
            hashlib.sha256(report_text.encode()).hexdigest(),
            hashlib.sha256(log_text.encode()).hexdigest(),
        )


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def random_ns_box(rng: random.Random) -> Behavior:
    """A mixture of random deterministic local boxes: exact and no-signaling.

    The weights are fixed, so that every seed asks for the same amount of
    exact arithmetic.
    """
    table: dict = {}
    for weight in BOX_WEIGHTS:
        responses = [
            [rng.randrange(BOX_OUTPUTS) for _ in range(BOX_INPUTS)]
            for _ in range(BOX_PARTIES)
        ]
        for x in itertools.product(range(BOX_INPUTS), repeat=BOX_PARTIES):
            a = tuple(responses[k][x[k]] for k in range(BOX_PARTIES))
            table[(x, a)] = table.get((x, a), Fraction(0)) + weight
    return Behavior(
        parties=BOX_PARTIES,
        inputs=(BOX_INPUTS,) * BOX_PARTIES,
        outputs=(BOX_OUTPUTS,) * BOX_PARTIES,
        table=table,
    )


def signaling_perturbation(box: Behavior, rng: random.Random) -> Behavior:
    """Move one cell's mass to the cell that differs in party 1's output.

    The row stays normalized, but party 1's marginal now changes with the
    other parties' inputs, so the strict check must reject it.
    """
    cells = sorted(cell for cell, p in box.table.items() if p > 0)
    x, a = cells[rng.randrange(len(cells))]
    moved = ((a[0] + 1) % BOX_OUTPUTS,) + a[1:]
    table = dict(box.table)
    mass = table.pop((x, a))
    table[(x, moved)] = table.get((x, moved), Fraction(0)) + mass
    return Behavior(box.parties, box.inputs, box.outputs, table)


class Verifiers(Workload):
    """Behavior verification and shift invariance; no game is played."""

    name = "verifiers"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        rng = random.Random(f"verifiers:{seed}")
        self.boxes = [random_ns_box(rng) for _ in range(NS_BOXES)]
        self.perturbed = [signaling_perturbation(box, rng) for box in self.boxes]
        self.items = sum(
            math.prod(o ** math.prod(i) for o in o_sizes) for i, o_sizes in ENUMERATIONS
        )

    def run_round(self, checks: Checks) -> RoundOutput:
        report: dict = {"enumerations": [], "ns": [], "invariance": []}
        log = []
        for inputs, outputs in ENUMERATIONS:
            with self.span("check_functional_locality_equivalence"):
                eq = check_functional_locality_equivalence(inputs, outputs)
            report["enumerations"].append(eq.to_json())
            grid = math.prod(inputs)
            label = f"enumeration {inputs}/{outputs}"
            checks.check(f"{label}: total", eq.total == math.prod(o**grid for o in outputs))
            local = math.prod(o**i for i, o in zip(inputs, outputs))
            checks.check(f"{label}: fns count", eq.fns_count == local)
            checks.check(f"{label}: factored count", eq.factored_count == local)
            checks.check(f"{label}: classifications coincide", eq.coincide)
        for i, (box, bad) in enumerate(zip(self.boxes, self.perturbed)):
            with self.span("check_no_signaling"):
                good_report = check_no_signaling(box, strict=True)
                bad_report = check_no_signaling(bad, strict=True)
            checks.check(f"box {i}: mixture of local boxes passes", good_report.passed)
            checks.check(f"box {i}: signaling perturbation fails", not bad_report.passed)
            report["ns"].append([good_report.passed, len(bad_report.violations)])
            log.extend(str(v) for v in bad_report.violations)
        for iterations, sampler in INVARIANCE_RUNS:
            with self.span("invariance_test"):
                inv = invariance_test(
                    INVARIANCE_SAMPLES,
                    INVARIANCE_BINS,
                    self.seed,
                    iterations=iterations,
                    sampler=sampler,
                )
            report["invariance"].append(inv.to_json())
            label = f"invariance {sampler} x{iterations}"
            if sampler == UNIFORM:
                checks.check(f"{label}: p > {INVARIANCE_P}", inv.pvalue > INVARIANCE_P)
            else:
                checks.check(f"{label}: p < {INVARIANCE_P}", inv.pvalue < INVARIANCE_P)
        return RoundOutput(
            hashlib.sha256(_canonical(report).encode()).hexdigest(),
            hashlib.sha256("\n".join(log).encode()).hexdigest(),
        )


WORKLOADS = {w.name: w for w in (LocalSuite, FnsOracle, PoolLog, Verifiers)}
