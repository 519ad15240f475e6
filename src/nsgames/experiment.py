"""Monte Carlo harness and statistical audits.

Runs batches of independent trials under hierarchical counter-based
seeding, so any (config, master seed) pair reproduces byte-identical
reports at every parallelism degree.  Aggregation works on integer
counts first and converts to floats once, in a fixed order.

Trials run in contiguous chunks, and each chunk returns its trials as a
columnar ``TrialBlock``.  A chunk of a strategy with a batch kernel is one
array computation over the players' views and the chunk's seeds, scored
against root bits the kernel is never handed; any other chunk plays each
trial through ``run_trial``, the scalar reference, and packs the records
into the same block.  The reports and the trial log are computed from the
merged block; the record-based builders (``win_rate_report``,
``azuma_report``, ``TrialRecord.to_json_line``) stay as their reference.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import cached_property, partial
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bitstream import GENERATOR, BitStream, generator_bits
from .game import GameSpec, TrialRecord, last_losing_index, run_trial, score_batch
from .seeding import (
    DOMAIN_INVARIANCE,
    DOMAIN_ROOT,
    DOMAIN_TRIAL,
    GOLDEN,
    MASK64,
    _mix64_inplace,
    child_seed,
    child_seed_np,
    derive,
)
from .strategies import Strategy

SCHEMA_VERSION = 2

UNIFORM = "uniform"
ADVERSARIAL = "adversarial"

# Half-width, in standard errors, of every report interval and margin.
Z = 3.0
# Fewest steps a martingale-audit bin needs before its mean is tested.
MIN_BIN_COUNT = 100


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
        trial_seed=derive(cfg.master_seed, DOMAIN_TRIAL, index),
        enforce_contracts=cfg.enforce_contracts,
        enable_backdoor=cfg.enable_backdoor,
    )
    return run_trial(spec)


# Most cells (trials x players) one chunk holds: bounds the arrays of the
# batch path whatever the size of the run.
CHUNK_CELLS = 1 << 16


def _root_seeds(cfg: ExperimentConfig, start: int, stop: int) -> np.ndarray:
    """Seeds of the roots of trials start..stop-1, as ``trial_root`` derives
    them, in a uint64 array."""
    return child_seed_np(child_seed(cfg.master_seed, DOMAIN_ROOT), np.arange(start, stop))


def _root_bits(cfg: ExperimentConfig, root_seeds: np.ndarray, width: int) -> np.ndarray:
    """Root bits 1..width of the trials with these root seeds, override
    flips applied: row t, column i - 1 holds bit i of the trial's
    ``trial_root``."""
    bits = generator_bits(root_seeds, width)
    bits[:, : cfg.override_depth] ^= 1
    return bits


@dataclass(frozen=True, eq=False)
class TrialBlock:
    """Consecutive trials of a run as columns, one row per trial.

    ``flips`` holds root bits 1..override_depth, which are the root's
    overrides (see ``trial_root``).  The trajectories and thresholds
    follow from ``s`` and ``valid``.
    """

    root_seeds: np.ndarray  # uint64[trials]
    flips: np.ndarray  # uint8[trials, override_depth]
    outputs: np.ndarray  # uint8[trials, players]
    s: np.ndarray  # int8[trials, players]
    valid: np.ndarray  # bool[trials]

    @classmethod
    def concatenate(cls, blocks: Sequence["TrialBlock"]) -> "TrialBlock":
        names = [f.name for f in fields(cls)]
        return cls(*(np.concatenate([getattr(b, name) for b in blocks]) for name in names))


def _run_chunk(cfg: ExperimentConfig, start: int, stop: int) -> TrialBlock:
    """Trials start..stop-1, in order.

    Uses the strategy's batch kernel when it has one, and ``run_trial``
    for each trial otherwise.  The kernel gets only the players' read-only
    views (see ``Strategy.guess_batch``), not the root bits scored here.
    """
    m = cfg.strategy.view_bits
    width = max(cfg.players + m, cfg.override_depth)
    root_seeds = _root_seeds(cfg, start, stop)
    bits = _root_bits(cfg, root_seeds, width)
    views = sliding_window_view(bits[:, 1:], m, axis=1)[:, : cfg.players]
    trial_seeds = child_seed_np(child_seed(cfg.master_seed, DOMAIN_TRIAL), np.arange(start, stop))
    outputs = cfg.strategy.guess_batch(views, trial_seeds, root_seeds)
    if outputs is None:
        records = [_run_one(cfg, t) for t in range(start, stop)]
        outputs = np.array([r.outputs for r in records], dtype=np.uint8)
        s = np.array([r.s for r in records], dtype=np.int8)
        valid = np.array([r.valid for r in records], dtype=bool)
    else:
        s = np.where(outputs == bits[:, : cfg.players], 1, -1).astype(np.int8)
        valid = np.ones(stop - start, dtype=bool)
    return TrialBlock(root_seeds, bits[:, : cfg.override_depth], outputs, s, valid)


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _plan(cfg: ExperimentConfig) -> tuple[list[tuple[int, int]], int]:
    """The contiguous (start, stop) trial chunks of a run, in trial order,
    and the number of worker processes to run them on (1: no pool).

    Workers never outnumber the requested parallelism, the usable CPUs or
    the chunks; the chunks are split evenly over the workers.  A strategy
    with its own batch kernel gets one worker: its chunks take less time
    than starting a pool and sending them back.
    """
    workers = min(cfg.parallelism, _cpu_count())
    if type(cfg.strategy).guess_batch is not Strategy.guess_batch:
        workers = 1
    size = min(max(1, CHUNK_CELLS // cfg.players), -(-cfg.trials // workers))
    chunks = [
        (start, min(start + size, cfg.trials)) for start in range(0, cfg.trials, size)
    ]
    return chunks, min(workers, len(chunks))


_encode_str = json.encoder.encode_basestring_ascii
_CONSTANT_TEXT = {True: "true", False: "false", None: "null"}.__getitem__


def _float_text(value: float) -> str:
    """A float as ``json.dumps`` spells it."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key: str) -> str:
    # encode_basestring_ascii raises TypeError for a key that is not a str.
    return _encode_str(key) + ": "


class _TextMemo(dict):
    """``spell(value)``, computed once per distinct value.  Falsy values
    are spelled every time: ``-0.0 == 0.0``, but the two print differently."""

    def __init__(self, spell) -> None:
        super().__init__()
        self.spell = spell

    def __missing__(self, value) -> str:
        text = self.spell(value)
        if value:
            self[value] = text
        return text


def dumps_indented(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte.

    ``json.dumps`` falls back to its pure-Python encoder whenever ``indent``
    is set; this writer joins each container's items at once instead.
    Keys must be str, and values of exactly the types json writes natively
    (dict, list, tuple, str, int, float, bool, None); any other key or
    value, value subclasses included, raises ``TypeError``.  A report repeats the
    same few keys and floats, so their text is kept for the call.

    A list or tuple is a table when every item is a non-empty dict (exactly
    ``dict``), all items have the same keys and every cell is a scalar.  A
    table is spelled one column at a time: its keys are sorted once, each
    column's types are read once and a single-type column is spelled with
    one ``map``; each row is then one join of constant key texts and its
    cells.  Any other list, one that stops being a table partway through
    included, is written item by item.
    """
    key_text = _TextMemo(_key_text).__getitem__
    # Each scalar type's spelling, looked up by exact type.
    scalars = {
        str: _encode_str,
        int: int.__repr__,
        float: _TextMemo(_float_text).__getitem__,
        bool: _CONSTANT_TEXT,
        type(None): _CONSTANT_TEXT,
    }

    def table(rows, indent: str) -> list[str] | None:
        """The texts of a table's rows, or None when ``rows`` is not a table."""
        keys = rows[0].keys()
        if not keys or not all(type(row) is dict and row.keys() == keys for row in rows):
            return None
        names = sorted(keys)
        columns = []
        for name in names:
            column = list(map(itemgetter(name), rows))
            kinds = set(map(type, column))
            if not kinds.issubset(scalars):
                return None
            if len(kinds) == 1:
                columns.append(map(scalars[kinds.pop()], column))
            else:
                columns.append([scalars[type(cell)](cell) for cell in column])
        inner = indent + "  "
        prefixes = ["," + inner + key_text(name) for name in names]
        prefixes[0] = "{" + inner + key_text(names[0])
        # parts[0::2] are the prefixes and the closing brace; parts[1::2]
        # take each row's cells in turn.
        parts = [text for prefix in prefixes for text in (prefix, "")] + [indent + "}"]
        texts = []
        for cells in zip(*columns):
            parts[1::2] = cells
            texts.append("".join(parts))
        return texts

    def write(value, indent: str) -> str:
        kind = type(value)
        text = scalars.get(kind)
        if text is not None:
            return text(value)
        inner = indent + "  "
        if kind is dict:
            if not value:
                return "{}"
            items = []
            for key, item in sorted(value.items()):
                text = scalars.get(type(item))
                items.append(key_text(key) + (text(item) if text else write(item, inner)))
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        if kind is list or kind is tuple:
            if not value:
                return "[]"
            items = table(value, inner) if type(value[0]) is dict else None
            if items is None:
                items = []
                for item in value:
                    text = scalars.get(type(item))
                    items.append(text(item) if text else write(item, inner))
            return "[" + inner + ("," + inner).join(items) + indent + "]"
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    return write(doc, "\n")


def _row(report) -> dict:
    """A report's fields by name, in declaration order."""
    return vars(report).copy()


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    return repr(value)


def _line(values: Iterable) -> str:
    """One CSV line of cells."""
    return ",".join(map(_cell, values))


def _csv(row_class: type, lines: Iterable[str]) -> str:
    """A header of the row class's field names, then the given lines."""
    return "\n".join([",".join(f.name for f in fields(row_class)), *lines]) + "\n"


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
    """Per-player win counts over the scored trials, kept as columns.

    ``wins[k - 1]`` is player k's number of won scored trials, a Python
    int.  ``intervals`` holds ``(count, lo, hi)``, the Wilson interval of
    each distinct count, by ascending count: the players of a run share a
    few counts, so each interval is computed once, when the report is
    built.  A player's row follows from its count: ``(player, wins,
    trials, freq, lo, hi)``, with ``trials`` the scored trials and ``freq``
    their share of wins.  ``to_json`` and ``to_csv`` write the rows from
    these columns; ``per_player`` builds them as ``PlayerRate`` on each read.
    """

    players: int
    scored_trials: int
    invalid_trials: int
    invalid_raw_success_rate: float | None
    wins: tuple[int, ...]
    intervals: tuple[tuple[int, float, float], ...]
    pooled_freq: float | None
    pooled_lo: float
    pooled_hi: float
    threshold_hist: tuple[tuple[int, int], ...]

    def _rates(self) -> dict[int, tuple]:
        """Each distinct count's ``PlayerRate`` fields after ``player``."""
        n = self.scored_trials
        return {w: (w, n, (w / n) if n else None, lo, hi) for w, lo, hi in self.intervals}

    @property
    def per_player(self) -> tuple[PlayerRate, ...]:
        rates = self._rates()
        return tuple(PlayerRate(k, *rates[w]) for k, w in enumerate(self.wins, 1))

    def to_json(self) -> dict:
        _, *names = (f.name for f in fields(PlayerRate))
        rows = {w: dict(zip(names, rate)) for w, rate in self._rates().items()}
        return {
            "players": self.players,
            "scored_trials": self.scored_trials,
            "invalid_trials": self.invalid_trials,
            "invalid_raw_success_rate": self.invalid_raw_success_rate,
            "per_player": [{"player": k, **rows[w]} for k, w in enumerate(self.wins, 1)],
            "pooled_freq": self.pooled_freq,
            "pooled_lo": self.pooled_lo,
            "pooled_hi": self.pooled_hi,
            "threshold_hist": [list(pair) for pair in self.threshold_hist],
        }

    def to_csv(self) -> str:
        tails = {w: _line(rate) for w, rate in self._rates().items()}
        return _csv(PlayerRate, (f"{k},{tails[w]}" for k, w in enumerate(self.wins, 1)))


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


@dataclass(frozen=True)
class AzumaReport:
    points: tuple[AzumaPoint, ...]

    @property
    def violations(self) -> int:
        return sum(p.violation for p in self.points)

    def to_json(self) -> dict:
        return {"points": [_row(p) for p in self.points], "violations": self.violations}

    def to_csv(self) -> str:
        return _csv(AzumaPoint, (_line(vars(p).values()) for p in self.points))


@dataclass(frozen=True)
class ExperimentResult:
    """A run's config and its trials as one block, in trial order.

    The reports and the martingale audit are computed from the block's
    arrays on first use, and the trial log on each call.  ``records``
    rebuilds the per-trial records, as ``run_trial`` returns them, only
    when it is read.
    """

    config: ExperimentConfig
    block: TrialBlock

    @cached_property
    def win(self) -> WinRateReport:
        return _block_win_rate(self.block, self.config.players)

    @cached_property
    def azuma(self) -> AzumaReport:
        return _block_azuma(self.block, self.config.azuma_n, self.config.azuma_eps)

    @cached_property
    def martingale(self) -> MartingaleReport:
        return _block_martingale(self.block)

    @cached_property
    def records(self) -> tuple[TrialRecord, ...]:
        b = self.block
        roots = [
            BitStream(seed=seed, overrides=tuple(enumerate(flips, 1))).to_json()
            for seed, flips in zip(b.root_seeds.tolist(), b.flips.tolist())
        ]
        return tuple(score_batch(roots, b.outputs, b.s, b.valid))

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_json(),
            "win_rate": self.win.to_json(),
            "azuma": self.azuma.to_json(),
        }

    def render_json(self) -> str:
        return dumps_indented(self.to_json()) + "\n"

    def trial_log(self) -> str:
        return _block_log(self.block)


def wilson_interval(successes: int, trials: int, z: float = Z) -> tuple[float, float]:
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


def _win_rate(
    players: int,
    wins: np.ndarray,
    scored: int,
    invalid: int,
    invalid_raw: float | None,
    hist: Iterable[tuple[int, int]],
) -> WinRateReport:
    """The report of per-player win counts over the scored trials."""
    counts = wins.tolist()
    # One interval per distinct count: players of a run share a few counts.
    intervals = tuple((w, *wilson_interval(w, scored)) for w in sorted(set(counts)))
    total_wins = sum(counts)
    total = scored * players
    pooled_lo, pooled_hi = wilson_interval(total_wins, total)
    return WinRateReport(
        players=players,
        scored_trials=scored,
        invalid_trials=invalid,
        invalid_raw_success_rate=invalid_raw,
        wins=tuple(counts),
        intervals=intervals,
        pooled_freq=(total_wins / total) if total else None,
        pooled_lo=pooled_lo,
        pooled_hi=pooled_hi,
        threshold_hist=tuple(hist),
    )


def win_rate_report(records: Sequence[TrialRecord], players: int) -> WinRateReport:
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

    hist: dict[int, int] = {}
    for r in valid:
        hist[r.threshold] = hist.get(r.threshold, 0) + 1
    return _win_rate(players, wins, scored, len(invalid), invalid_raw, sorted(hist.items()))


def _block_win_rate(block: TrialBlock, players: int) -> WinRateReport:
    """``win_rate_report`` of a block's trials, from its arrays."""
    s, raw = block.s[block.valid], block.s[~block.valid]
    invalid_raw = float((raw > 0).mean()) if len(raw) else None
    thresholds, counts = np.unique(last_losing_index(s), return_counts=True)
    hist = zip(thresholds.tolist(), counts.tolist())
    return _win_rate(players, (s > 0).sum(axis=0), len(s), len(raw), invalid_raw, hist)


def _azuma(
    trajectories: np.ndarray, grid_n: Iterable[int], grid_eps: Iterable[float]
) -> AzumaReport:
    """The Azuma exceedance report of a [trials, players] trajectory array."""
    trials = len(trajectories)
    points = []
    for n in grid_n:
        for eps in grid_eps:
            bound = azuma_bound(n, eps)
            if trials:
                exceed = int((trajectories[:, n - 1] >= eps).sum())
                freq = exceed / trials
                _, hi = wilson_interval(exceed, trials)
                margin = hi - freq
                violation = freq > bound + margin
            else:
                exceed, freq, margin, violation = 0, None, 1.0, False
            points.append(
                AzumaPoint(n, float(eps), exceed, trials, freq, bound, margin, violation)
            )
    return AzumaReport(points=tuple(points))


def azuma_report(
    records: Sequence[TrialRecord], grid_n: Iterable[int], grid_eps: Iterable[float]
) -> AzumaReport:
    trajectories = np.array([r.trajectory for r in records if r.valid], dtype=np.int64)
    return _azuma(trajectories, grid_n, grid_eps)


def _block_azuma(
    block: TrialBlock, grid_n: Iterable[int], grid_eps: Iterable[float]
) -> AzumaReport:
    """``azuma_report`` of a block's trials, from its arrays."""
    return _azuma(np.cumsum(block.s[block.valid], axis=1, dtype=np.int64), grid_n, grid_eps)


def _block_log(block: TrialBlock) -> str:
    """The trial log of a block: each trial's ``TrialRecord.to_json_line``,
    and a newline, written from the arrays with one fixed format, a slice of
    at most CHUNK_CELLS cells at a time."""
    trials, players = block.s.shape
    # token[v + players] is str(v); every output, step and partial sum is
    # in -players..players.
    token = np.array([str(v) for v in range(-players, players + 1)], dtype=object)

    def joined(values: np.ndarray) -> Iterable[str]:
        return map(",".join, token[values.astype(np.int64) + players].tolist())

    # sort_keys orders the override keys as strings: "1", "10", "2", ...
    order = np.array(sorted(range(1, block.flips.shape[1] + 1), key=str), dtype=np.intp)
    pairs = np.array([[f'"{i}":0', f'"{i}":1'] for i in order], dtype=object).reshape(-1, 2)
    line = (
        '{{"S":[{}],"outputs":[{}],"root":{{"kind":"' + GENERATOR + '","overrides":{{{}}},'
        '"seed":{},"shift":0}},"s":[{}],"threshold":{},"valid":{}}}\n'
    )
    step = max(1, CHUNK_CELLS // players)
    parts = []
    for start in range(0, trials, step):
        rows = slice(start, start + step)
        s, valid = block.s[rows], block.valid[rows].tolist()
        thresholds = last_losing_index(s).tolist()
        parts.append("".join(map(
            line.format,
            joined(np.cumsum(s, axis=1, dtype=np.int64)),
            joined(block.outputs[rows]),
            map(",".join, pairs[np.arange(len(order)), block.flips[rows, order - 1]].tolist()),
            block.root_seeds[rows].tolist(),
            joined(s),
            [t if ok else "null" for t, ok in zip(thresholds, valid)],
            ["true" if ok else "false" for ok in valid],
        )))
    return "".join(parts)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full trial ensemble.

    The chunks' blocks are merged in trial-index order whatever the
    parallelism, and every derived quantity is a pure function of the
    merged block, which is what makes reports and trial logs byte-identical
    across worker counts.  Only scalar-path runs use worker processes (see
    ``_plan``).
    """
    chunks, workers = _plan(cfg)
    worker = partial(_run_chunk, cfg)
    starts, stops = zip(*chunks)
    if workers == 1:
        blocks = list(map(worker, starts, stops))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(worker, starts, stops))
    return ExperimentResult(cfg, TrialBlock.concatenate(blocks))


@dataclass(frozen=True)
class MartingaleBin:
    s_value: int
    count: int
    mean: float
    margin: float
    ok: bool


@dataclass(frozen=True)
class MartingaleReport:
    trials: int
    increments_ok: bool
    bins: tuple[MartingaleBin, ...]

    @property
    def bins_tested(self) -> int:
        return len(self.bins)

    @property
    def passed(self) -> bool:
        return self.increments_ok and all(b.ok for b in self.bins)

    def to_json(self) -> dict:
        return {
            **_row(self),
            "bins": [_row(b) for b in self.bins],
            "bins_tested": self.bins_tested,
            "passed": self.passed,
        }


def _martingale(s: np.ndarray, trajectories: np.ndarray) -> MartingaleReport:
    """The martingale report of [trials, players] steps and their partial
    sums (see ``martingale_audit``)."""
    increments_ok = bool(np.array_equal(np.cumsum(s, axis=1), trajectories)) and bool(
        (np.abs(s) == 1).all()
    )

    bins: list[MartingaleBin] = []
    if s.shape[1] > 1:
        condition = trajectories[:, :-1].ravel()
        step = s[:, 1:].ravel()
        offset = condition - condition.min()
        counts = np.bincount(offset)
        sums = np.bincount(offset, weights=step.astype(np.float64))
        for pos in np.nonzero(counts >= MIN_BIN_COUNT)[0]:
            count = int(counts[pos])
            mean = float(sums[pos] / count)
            margin = Z / math.sqrt(count)
            s_value = int(pos + condition.min())
            bins.append(MartingaleBin(s_value, count, mean, margin, abs(mean) <= margin))
    return MartingaleReport(trials=len(s), increments_ok=increments_ok, bins=tuple(bins))


_INVALID_AUDIT = "log contains SIGNALING-INVALID trials; audit refused"


def martingale_audit(records: Sequence[TrialRecord]) -> MartingaleReport:
    """Check the defining martingale properties on a trial log.

    Verifies every trajectory moves by exactly +-1, then estimates the
    conditional mean of the next step given the current partial sum by
    binning on the value of S_n, pooled over n.  Bins of at least
    MIN_BIN_COUNT steps are tested against a margin of Z standard errors.
    Under any local strategy the mean in every bin should vanish; a drift
    (the FNS signature) shows up as bins far outside their sampling margin.
    """
    if not records:
        raise ValueError("empty trial log")
    if any(not r.valid for r in records):
        raise ValueError(_INVALID_AUDIT)
    s = np.array([r.s for r in records], dtype=np.int64)
    return _martingale(s, np.array([r.trajectory for r in records], dtype=np.int64))


def _block_martingale(block: TrialBlock) -> MartingaleReport:
    """``martingale_audit`` of a block's trials, from its arrays."""
    if not block.valid.all():
        raise ValueError(_INVALID_AUDIT)
    return _martingale(block.s, np.cumsum(block.s, axis=1, dtype=np.int64))


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
        return {**_row(self), "passed": self.passed}


def _bit_reversal_table(width: int) -> np.ndarray:
    """rev[v] is v with its `width` low bits in reverse order."""
    values = np.arange(1 << width, dtype=np.int64)
    rev = np.zeros_like(values)
    for t in range(width):
        rev |= ((values >> t) & 1) << (width - 1 - t)
    return rev


def _sample_seed(seed: int, index: int) -> int:
    return child_seed(child_seed(seed, DOMAIN_INVARIANCE), index)


# Roots hashed per block of the invariance histogram, so that its arrays
# stay at a few hundred KiB however many samples are drawn.
INVARIANCE_BLOCK = 1 << 16
# Most bins invariance_test accepts.  The counts and the bit-reversal
# table take 8 bytes a bin each, 128 MiB apiece at this bound, and a run
# draws at least 100 samples a bin.
MAX_INVARIANCE_BINS = 1 << 24


def _invariance_counts(
    samples: int, width: int, seed: int, iterations: int, sampler: str
) -> np.ndarray:
    """Histogram of the first `width` image bits over sampled roots.

    Vectorized path; reproduces _invariance_counts_reference exactly (the
    reference walks the public stream API and is cross-checked in tests).
    The image bits are root bits iterations+1 .. iterations+width, read from
    the one or two hash words that hold them, INVARIANCE_BLOCK roots at a
    time.  Each block is hashed in three buffers allocated once: root i is
    ``mix64(base + (i+1)·GOLDEN)``, and its word 2q is ``mix64(root +
    (2q+1)·GOLDEN)``, so the offsets are summed as Python ints and wrapped
    once, however large `iterations` is.  The windows are counted least
    significant bit first, with ``np.add.at`` so that a block costs the same
    at any bin count, and the bit reversal is applied once to the counts.
    """
    base = child_seed(seed, DOMAIN_INVARIANCE)
    q, r = divmod(iterations, 64)
    first = np.uint64((2 * q + 1) * GOLDEN & MASK64)
    second = np.uint64((2 * q + 3) * GOLDEN & MASK64)
    mask = np.uint64((1 << width) - 1)
    size = min(samples, INVARIANCE_BLOCK)
    steps = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    roots, windows, scratch = (np.empty(size, dtype=np.uint64) for _ in range(3))
    counts = np.zeros(1 << width, dtype=np.int64)
    for start in range(0, samples, INVARIANCE_BLOCK):
        n = min(size, samples - start)
        root, window, tmp = roots[:n], windows[:n], scratch[:n]
        np.add(steps[:n], np.uint64((base + start * GOLDEN) & MASK64), out=root)
        _mix64_inplace(root, tmp)
        np.add(root, first, out=window)
        _mix64_inplace(window, tmp)
        window >>= np.uint64(r)
        if r + width > 64:
            # r >= 1 here (width < 64), so the shift below stays under 64.
            root += second
            _mix64_inplace(root, tmp)
            root <<= np.uint64(64 - r)
            window |= root
        window &= mask
        if sampler == ADVERSARIAL:
            # The root's bit iterations+1 is copied onto bit iterations+2.
            np.bitwise_and(window, np.uint64(1), out=tmp)
            tmp <<= np.uint64(1)
            window &= ~np.uint64(2)
            window |= tmp
        np.add.at(counts, window.view(np.int64), 1)
    return counts[_bit_reversal_table(width)]


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
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    if bins < 2 or bins & (bins - 1):
        raise ValueError(f"bins must be a power of two >= 2, got {bins}")
    if bins > MAX_INVARIANCE_BINS:
        raise ValueError(f"bins must be at most {MAX_INVARIANCE_BINS}, got {bins}")
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
    # Imported here: scipy.stats is most of the package's import time, and
    # this is its only use.
    from scipy import stats

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
