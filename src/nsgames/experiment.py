"""Monte Carlo harness and statistical audits.

Runs batches of independent trials under hierarchical counter-based
seeding, so any (config, master seed) pair reproduces byte-identical
reports at every parallelism degree.  Aggregation works on integer
counts first and converts to floats once, in a fixed order.

Trials run in contiguous chunks.  A chunk of a strategy with a batch
kernel is one array computation over the chunk's root bits; any other
chunk plays each trial through ``run_trial``, the scalar reference.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

import numpy as np
from scipy import stats

from .bitstream import BitStream
from .game import GameSpec, TrialRecord, run_trial, score_batch
from .oracle import ChoiceOracle
from .seeding import (
    DOMAIN_INVARIANCE,
    DOMAIN_ROOT,
    DOMAIN_TRIAL,
    child_seed,
    child_seed_np,
    derive,
)
from .strategies import Strategy

SCHEMA_VERSION = 2

UNIFORM = "uniform"
ADVERSARIAL = "adversarial"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to replay an experiment bit-for-bit."""

    strategy: Strategy
    players: int
    trials: int
    master_seed: int
    override_depth: int = 0
    azuma_n: tuple[int, ...] | None = None
    azuma_eps: tuple[float, ...] = (4.0, 8.0, 16.0)
    parallelism: int = 1
    enforce_contracts: bool = True
    enable_backdoor: bool = False

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.players < 1:
            raise ValueError(f"players must be >= 1, got {self.players}")
        if self.override_depth < 0:
            raise ValueError("override depth must be >= 0")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.azuma_n is None:
            clipped = tuple(n for n in (16, 32, 64) if n <= self.players)
            object.__setattr__(self, "azuma_n", clipped or (self.players,))
        for n in self.azuma_n:
            if not 1 <= n <= self.players:
                raise ValueError(f"azuma n={n} outside 1..players={self.players}")
        for eps in self.azuma_eps:
            if not (math.isfinite(eps) and eps > 0):
                raise ValueError(f"azuma epsilon must be finite and > 0, got {eps}")

    def to_json(self) -> dict:
        # parallelism is deliberately absent: it is an execution knob with
        # no effect on results, and reports must not depend on it.
        return {
            "players": self.players,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "strategy": self.strategy.spec(),
            "override_depth": self.override_depth,
            "azuma_n": list(self.azuma_n),
            "azuma_eps": list(self.azuma_eps),
            "enforce_contracts": self.enforce_contracts,
            "enable_backdoor": self.enable_backdoor,
        }


def trial_root(master_seed: int, index: int, override_depth: int = 0) -> BitStream:
    """The root for trial `index`: a fresh generator stream, with the first
    `override_depth` bits flipped so the root provably disagrees with its
    pristine class representative exactly there."""
    seed = derive(master_seed, DOMAIN_ROOT, index)
    base = BitStream.generator(seed)
    if override_depth == 0:
        return base
    flips = {i: 1 - base.bit_at(i) for i in range(1, override_depth + 1)}
    return BitStream.generator(seed, overrides=flips)


def _run_one(cfg: ExperimentConfig, index: int) -> TrialRecord:
    spec = GameSpec(
        players=cfg.players,
        root=trial_root(cfg.master_seed, index, cfg.override_depth),
        strategy=cfg.strategy,
        oracle=ChoiceOracle(),
        trial_seed=derive(cfg.master_seed, DOMAIN_TRIAL, index),
        enforce_contracts=cfg.enforce_contracts,
        enable_backdoor=cfg.enable_backdoor,
    )
    return run_trial(spec)


# Most cells (trials x players) one chunk holds: bounds the arrays of the
# batch path whatever the size of the run.
CHUNK_CELLS = 1 << 16


def _root_bits(cfg: ExperimentConfig, start: int, stop: int, width: int) -> np.ndarray:
    """Root bits 1..width of trials start..stop-1, override flips applied.

    A uint8 array of shape [stop - start, width] whose column i - 1 holds
    bit i of ``trial_root``: bit i of a generator root is bit (i-1) % 64 of
    hash word 2 * ((i-1) // 64), so whole rows come from a few array hashes.
    """
    seeds = child_seed_np(child_seed(cfg.master_seed, DOMAIN_ROOT), np.arange(start, stop))
    words = child_seed_np(seeds[:, None], 2 * np.arange(-(-width // 64)))
    bits = (words[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    bits = bits.astype(np.uint8).reshape(stop - start, -1)[:, :width]
    bits[:, : cfg.override_depth] ^= 1
    return bits


def _run_chunk(cfg: ExperimentConfig, start: int, stop: int) -> list[TrialRecord]:
    """Records of trials start..stop-1, in order.

    Uses the strategy's batch kernel when it has one, and ``run_trial``
    for each trial otherwise.
    """
    width = max(cfg.players + (cfg.strategy.view_bits or 0), cfg.override_depth)
    bits = _root_bits(cfg, start, stop, width)
    trial_seeds = child_seed_np(child_seed(cfg.master_seed, DOMAIN_TRIAL), np.arange(start, stop))
    outputs = cfg.strategy.guess_batch(bits, trial_seeds, cfg.players)
    if outputs is None:
        return [_run_one(cfg, t) for t in range(start, stop)]
    roots = [
        trial_root(cfg.master_seed, t, cfg.override_depth).to_json()
        for t in range(start, stop)
    ]
    return score_batch(roots, outputs, bits[:, : cfg.players])


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _plan(cfg: ExperimentConfig) -> tuple[list[tuple[int, int]], int]:
    """The contiguous (start, stop) trial chunks of a run, in trial order,
    and the number of worker processes to run them on (1: no pool).

    Workers never outnumber the requested parallelism, the usable CPUs or
    the chunks; the chunks are split evenly over the workers.
    """
    workers = min(cfg.parallelism, _cpu_count())
    size = min(max(1, CHUNK_CELLS // cfg.players), -(-cfg.trials // workers))
    chunks = [
        (start, min(start + size, cfg.trials)) for start in range(0, cfg.trials, size)
    ]
    return chunks, min(workers, len(chunks))


@dataclass(frozen=True)
class PlayerRate:
    player: int
    wins: int
    trials: int
    freq: float | None
    lo: float
    hi: float


@dataclass(frozen=True)
class WinRateReport:
    players: int
    scored_trials: int
    invalid_trials: int
    invalid_raw_success_rate: float | None
    per_player: tuple[PlayerRate, ...]
    pooled_freq: float | None
    pooled_lo: float
    pooled_hi: float
    threshold_hist: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "players": self.players,
            "scored_trials": self.scored_trials,
            "invalid_trials": self.invalid_trials,
            "invalid_raw_success_rate": self.invalid_raw_success_rate,
            "per_player": [
                {
                    "player": r.player,
                    "wins": r.wins,
                    "trials": r.trials,
                    "freq": r.freq,
                    "lo": r.lo,
                    "hi": r.hi,
                }
                for r in self.per_player
            ],
            "pooled_freq": self.pooled_freq,
            "pooled_lo": self.pooled_lo,
            "pooled_hi": self.pooled_hi,
            "threshold_hist": [list(pair) for pair in self.threshold_hist],
        }

    def to_csv(self) -> str:
        lines = ["player,wins,trials,freq,lo,hi"]
        for r in self.per_player:
            freq = "" if r.freq is None else repr(r.freq)
            lines.append(f"{r.player},{r.wins},{r.trials},{freq},{r.lo!r},{r.hi!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AzumaPoint:
    n: int
    epsilon: float
    exceed: int
    trials: int
    freq: float | None
    bound: float
    margin: float
    violation: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "epsilon": self.epsilon,
            "exceed": self.exceed,
            "trials": self.trials,
            "freq": self.freq,
            "bound": self.bound,
            "margin": self.margin,
            "violation": self.violation,
        }


@dataclass(frozen=True)
class AzumaReport:
    points: tuple[AzumaPoint, ...]

    @property
    def violations(self) -> int:
        return sum(p.violation for p in self.points)

    def to_json(self) -> dict:
        return {
            "points": [p.to_json() for p in self.points],
            "violations": self.violations,
        }

    def to_csv(self) -> str:
        lines = ["n,epsilon,exceed,trials,freq,bound,margin,violation"]
        for p in self.points:
            freq = "" if p.freq is None else repr(p.freq)
            lines.append(
                f"{p.n},{p.epsilon!r},{p.exceed},{p.trials},{freq},"
                f"{p.bound!r},{p.margin!r},{int(p.violation)}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: tuple[TrialRecord, ...]
    win: WinRateReport
    azuma: AzumaReport

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_json(),
            "win_rate": self.win.to_json(),
            "azuma": self.azuma.to_json(),
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    def trial_log(self) -> str:
        return "".join(r.to_json_line() + "\n" for r in self.records)


def wilson_interval(successes: int, trials: int, z: float = 3.0) -> tuple[float, float]:
    """Wilson score interval; stays put at frequency 0 and 1."""
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    # The endpoints are exactly 0 and 1 at the boundary frequencies; snap
    # them there so float rounding cannot leak a sliver past the boundary.
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def azuma_bound(n: int, epsilon: float) -> float:
    """Concentration bound 2 exp(-eps^2 / (2 n)) for |increments| <= 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    return 2.0 * math.exp(-(epsilon * epsilon) / (2.0 * n))


def win_rate_report(records: Sequence[TrialRecord], players: int, z: float = 3.0) -> WinRateReport:
    valid = [r for r in records if r.valid]
    invalid = [r for r in records if not r.valid]
    if invalid:
        raw = np.array([r.s for r in invalid], dtype=np.int8)
        invalid_raw = float((raw > 0).mean())
    else:
        invalid_raw = None

    scored = len(valid)
    if scored:
        s = np.array([r.s for r in valid], dtype=np.int8)
        wins = (s > 0).sum(axis=0)
    else:
        wins = np.zeros(players, dtype=np.int64)

    per_player = []
    for k in range(players):
        w = int(wins[k])
        lo, hi = wilson_interval(w, scored, z)
        per_player.append(
            PlayerRate(
                player=k + 1,
                wins=w,
                trials=scored,
                freq=(w / scored) if scored else None,
                lo=lo,
                hi=hi,
            )
        )

    total_wins = int(wins.sum())
    total = scored * players
    pooled_lo, pooled_hi = wilson_interval(total_wins, total, z)
    hist: dict[int, int] = {}
    for r in valid:
        hist[r.threshold] = hist.get(r.threshold, 0) + 1
    return WinRateReport(
        players=players,
        scored_trials=scored,
        invalid_trials=len(invalid),
        invalid_raw_success_rate=invalid_raw,
        per_player=tuple(per_player),
        pooled_freq=(total_wins / total) if total else None,
        pooled_lo=pooled_lo,
        pooled_hi=pooled_hi,
        threshold_hist=tuple(sorted(hist.items())),
    )


def azuma_report(
    records: Sequence[TrialRecord],
    grid_n: Iterable[int],
    grid_eps: Iterable[float],
    z: float = 3.0,
) -> AzumaReport:
    valid = [r for r in records if r.valid]
    trials = len(valid)
    trajectories = (
        np.array([r.trajectory for r in valid], dtype=np.int64)
        if trials
        else None
    )
    points = []
    for n in grid_n:
        for eps in grid_eps:
            bound = azuma_bound(n, eps)
            if trajectories is not None:
                exceed = int((trajectories[:, n - 1] >= eps).sum())
                freq = exceed / trials
                _, hi = wilson_interval(exceed, trials, z)
                margin = hi - freq
                violation = freq > bound + margin
            else:
                exceed, freq, margin, violation = 0, None, 1.0, False
            points.append(
                AzumaPoint(
                    n=n,
                    epsilon=float(eps),
                    exceed=exceed,
                    trials=trials,
                    freq=freq,
                    bound=bound,
                    margin=margin,
                    violation=violation,
                )
            )
    return AzumaReport(points=tuple(points))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full trial ensemble and aggregate the standard reports.

    Trial records are merged in trial-index order whatever the parallelism,
    and every derived quantity is a pure function of the ordered records,
    which is what makes reports byte-identical across worker counts.
    """
    chunks, workers = _plan(cfg)
    worker = partial(_run_chunk, cfg)
    starts, stops = zip(*chunks)
    if workers == 1:
        parts = list(map(worker, starts, stops))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(worker, starts, stops))
    records = tuple(itertools.chain.from_iterable(parts))
    return ExperimentResult(
        config=cfg,
        records=records,
        win=win_rate_report(records, cfg.players),
        azuma=azuma_report(records, cfg.azuma_n, cfg.azuma_eps),
    )


@dataclass(frozen=True)
class MartingaleBin:
    s_value: int
    count: int
    mean: float
    margin: float
    ok: bool

    def to_json(self) -> dict:
        return {
            "s_value": self.s_value,
            "count": self.count,
            "mean": self.mean,
            "margin": self.margin,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class MartingaleReport:
    trials: int
    increments_ok: bool
    bins: tuple[MartingaleBin, ...]
    bins_tested: int

    @property
    def passed(self) -> bool:
        return self.increments_ok and all(b.ok for b in self.bins)

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "increments_ok": self.increments_ok,
            "bins": [b.to_json() for b in self.bins],
            "bins_tested": self.bins_tested,
            "passed": self.passed,
        }


def martingale_audit(
    records: Sequence[TrialRecord],
    min_bin_count: int = 100,
    z: float = 3.0,
) -> MartingaleReport:
    """Check the defining martingale properties on a trial log.

    Verifies every trajectory moves by exactly +-1, then estimates the
    conditional mean of the next step given the current partial sum by
    binning on the value of S_n, pooled over n.  Under any local strategy
    the mean in every bin should vanish; a drift (the FNS signature) shows
    up as bins far outside their sampling margin.
    """
    if not records:
        raise ValueError("empty trial log")
    if any(not r.valid for r in records):
        raise ValueError("log contains SIGNALING-INVALID trials; audit refused")

    s = np.array([r.s for r in records], dtype=np.int64)
    traj = np.array([r.trajectory for r in records], dtype=np.int64)
    increments_ok = bool(np.array_equal(np.cumsum(s, axis=1), traj)) and bool(
        (np.abs(s) == 1).all()
    )

    bins: list[MartingaleBin] = []
    tested = 0
    if records[0].s and len(records[0].s) > 1:
        condition = traj[:, :-1].ravel()
        step = s[:, 1:].ravel()
        offset = condition - condition.min()
        counts = np.bincount(offset)
        sums = np.bincount(offset, weights=step.astype(np.float64))
        for pos in np.nonzero(counts)[0]:
            v = int(pos + condition.min())
            count = int(counts[pos])
            mean = float(sums[pos] / count)
            margin = z / math.sqrt(count)
            if count < min_bin_count:
                continue
            tested += 1
            bins.append(
                MartingaleBin(
                    s_value=v,
                    count=count,
                    mean=mean,
                    margin=margin,
                    ok=abs(mean) <= margin,
                )
            )
    return MartingaleReport(
        trials=len(records),
        increments_ok=increments_ok,
        bins=tuple(bins),
        bins_tested=tested,
    )


@dataclass(frozen=True)
class InvarianceReport:
    samples: int
    bins: int
    iterations: int
    sampler: str
    statistic: float
    pvalue: float
    alpha: float

    @property
    def passed(self) -> bool:
        return self.pvalue > self.alpha

    def to_json(self) -> dict:
        return {
            "samples": self.samples,
            "bins": self.bins,
            "iterations": self.iterations,
            "sampler": self.sampler,
            "statistic": self.statistic,
            "pvalue": self.pvalue,
            "alpha": self.alpha,
            "passed": self.passed,
        }


def _bit_reversal_table(width: int) -> np.ndarray:
    size = 1 << width
    rev = np.zeros(size, dtype=np.int64)
    for v in range(size):
        r = 0
        for t in range(width):
            r = (r << 1) | ((v >> t) & 1)
        rev[v] = r
    return rev


def _sample_seed(seed: int, index: int) -> int:
    return child_seed(child_seed(seed, DOMAIN_INVARIANCE), index)


def _invariance_counts(
    samples: int, width: int, seed: int, iterations: int, sampler: str
) -> np.ndarray:
    """Histogram of the first `width` image bits over sampled roots.

    Vectorized path; reproduces _invariance_counts_reference exactly (the
    reference walks the public stream API and is cross-checked in tests).
    """
    if iterations + width > 64:
        return _invariance_counts_reference(samples, width, seed, iterations, sampler)
    roots = child_seed_np(child_seed(seed, DOMAIN_INVARIANCE), np.arange(samples))
    words = child_seed_np(roots, 0)
    window = (words >> np.uint64(iterations)) & np.uint64((1 << width) - 1)
    if sampler == ADVERSARIAL:
        low = window & np.uint64(1)
        window = (window & ~np.uint64(2)) | (low << np.uint64(1))
    rev = _bit_reversal_table(width)
    return np.bincount(rev[window.astype(np.int64)], minlength=1 << width)


def _invariance_counts_reference(
    samples: int, width: int, seed: int, iterations: int, sampler: str
) -> np.ndarray:
    counts = np.zeros(1 << width, dtype=np.int64)
    for i in range(samples):
        root = BitStream.generator(_sample_seed(seed, i))
        if sampler == ADVERSARIAL:
            copied = root.bit_at(iterations + 1)
            root = BitStream.generator(
                root.seed, overrides={iterations + 2: copied}
            )
        stream = root
        for _ in range(iterations):
            stream = stream.baker_shift()
        idx = 0
        for b in stream.bits(width):
            idx = (idx << 1) | b
        counts[idx] += 1
    return counts


def invariance_test(
    samples: int,
    bins: int,
    seed: int,
    iterations: int = 1,
    sampler: str = UNIFORM,
    alpha: float = 1e-3,
) -> InvarianceReport:
    """Chi-square test that the shifted image of a uniform root stays uniform.

    Draws roots, applies the shift `iterations` times, bins the leading
    log2(bins) bits of the image, and tests the histogram against the flat
    distribution.  The adversarial sampler duplicates one sampled bit into
    its neighbor, a deliberately non-uniform source the test must reject.
    """
    if bins < 2 or bins & (bins - 1):
        raise ValueError(f"bins must be a power of two >= 2, got {bins}")
    if samples < 100 * bins:
        raise ValueError(f"need at least {100 * bins} samples for {bins} bins")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if sampler not in (UNIFORM, ADVERSARIAL):
        raise ValueError(f"unknown sampler: {sampler!r}")
    width = bins.bit_length() - 1
    if sampler == ADVERSARIAL and width < 2:
        raise ValueError("adversarial sampler needs at least 4 bins")
    counts = _invariance_counts(samples, width, seed, iterations, sampler)
    statistic, pvalue = stats.chisquare(counts)
    return InvarianceReport(
        samples=samples,
        bins=bins,
        iterations=iterations,
        sampler=sampler,
        statistic=float(statistic),
        pvalue=float(pvalue),
        alpha=alpha,
    )
