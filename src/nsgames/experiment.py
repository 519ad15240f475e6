"""Monte Carlo harness and statistical audits.

Runs batches of independent trials under hierarchical counter-based
seeding, so any (config, master seed) pair reproduces byte-identical
reports at every chunk size.  Aggregation works on integer counts first
and converts to floats once, in a fixed order.

Trials run in the calling process, in contiguous chunks taken in trial
order, and each chunk returns its trials as two columns: the successes and
the validity flags, the only parts of a trial its seeds do not determine.
A chunk of a strategy with a batch kernel is one array computation over
the players' views and the chunk's seeds, scored against root bits the
kernel is never handed; any other chunk plays each trial on those seeds
through ``run_trial``, the scalar reference.  Each chunk is copied into
the two columns allocated for the run.  The reports are computed from
them, and the trial log from them and the roots regenerated from the
seeds; the record-based builders (``win_rate_report``, ``azuma_report``,
``TrialRecord.to_json_line``) stay as their reference.  Every pass reads
the columns in the run's chunks: the win and Azuma reports in one walk that
keeps only integer totals, the martingale audit in another, and the log
is built a chunk at a time, so that a writer can stream it to a file:
each slice is one byte matrix, a row per trial, gathered from small
tables of NUL-padded fixed-width byte strings, and its text is the
matrix's bytes with the NULs removed.  No number is spelled by hand:
numpy casts the log's ints to byte strings, and json writes every
document, a report's per-player rows once for each distinct win count.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bitstream import GENERATOR, BitStream, generator_bits, generator_json
from .game import GameSpec, TrialRecord, last_losing_index, run_trial, unit_steps
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
from .strategies import Strategy, is_finite_number

SCHEMA_VERSION = 2

UNIFORM = "uniform"
ADVERSARIAL = "adversarial"

# Half-width, in standard errors, of every Wilson interval a report holds.
Z = 3.0
# The martingale audit's false-alarm level: the most probability with which
# it flags any bin of a fair log, split evenly, before any step is seen,
# over the 2·players − 1 values a partial sum can take.
MARTINGALE_ALPHA = 1e-3
# The precision of the normal mixture behind each bin's boundary (see
# ``mixture_boundary``).  In standard errors the boundary is tightest near
# 20·ρ to 30·ρ steps, 5.3 of them at 64 players, and it stays within 6 of
# them from 10^3 to 10^6 steps; a bin of only up-steps fails from about 60.
MARTINGALE_RHO = 100.0


def _require_int(name: str, value) -> None:
    """Raise a ``ValueError`` naming the field unless the value is an
    integer: one that ``operator.index`` takes, and not a bool."""
    try:
        if not isinstance(value, bool):
            operator.index(value)
            return
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
    enforce_contracts: bool = True
    enable_backdoor: bool = False

    def __post_init__(self) -> None:
        for name in ("players", "trials", "master_seed", "override_depth"):
            _require_int(name, getattr(self, name))
        for n in self.azuma_n or ():
            _require_int("azuma_n entry", n)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed <= MASK64:
            raise ValueError(f"seed must be in 0..{MASK64}, got {self.master_seed}")
        if not 1 <= self.players <= MAX_PLAYERS:
            raise ValueError(f"players must be in 1..{MAX_PLAYERS}, got {self.players}")
        if not 0 <= self.override_depth <= MAX_OVERRIDE_DEPTH:
            raise ValueError(
                f"override depth must be in 0..{MAX_OVERRIDE_DEPTH}, got {self.override_depth}"
            )
        if self.azuma_n is None:
            clipped = tuple(n for n in (16, 32, 64) if n <= self.players)
            object.__setattr__(self, "azuma_n", clipped or (self.players,))
        for n in self.azuma_n:
            if not 1 <= n <= self.players:
                raise ValueError(f"azuma n={n} outside 1..players={self.players}")
        for eps in self.azuma_eps:
            if not (is_finite_number(eps) and eps > 0):
                raise ValueError(f"azuma epsilon must be finite and > 0, got {eps}")

    def to_json(self) -> dict:
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
    pristine class representative exactly there.  ``_roots`` is tested against it."""
    seed = derive(master_seed, DOMAIN_ROOT, index)
    base = BitStream.generator(seed)
    if override_depth == 0:
        return base
    flips = {i: 1 - base.bit_at(i) for i in range(1, override_depth + 1)}
    return BitStream.generator(seed, overrides=flips)


# Most cells (trials x max(players, override depth)) one chunk holds; every
# pass over a run's columns walks these chunks (see ``_chunks``).
CHUNK_CELLS = 1 << 16
# Most players and deepest root override a run accepts.  Whatever the
# chunk size, a run plays its trials at least one at a time, and a trial's
# row of root bits is as wide as the larger of the two; the trial log also
# builds one table of override pairs per run, and holds it with a slice of
# one trial at about 80 bytes an index, whatever the trial count.
MAX_PLAYERS = MAX_OVERRIDE_DEPTH = 1 << 20


def _chunks(cfg: ExperimentConfig) -> Iterator[tuple[int, int]]:
    """The (start, stop) trials of each chunk of a run, in trial order: at
    most CHUNK_CELLS cells of max(players, override_depth) a row, and at
    least one trial."""
    size = max(1, CHUNK_CELLS // max(cfg.players, cfg.override_depth))
    for start in range(0, cfg.trials, size):
        yield start, min(start + size, cfg.trials)


def _roots(cfg: ExperimentConfig, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The roots of trials start..stop-1, as ``trial_root`` builds them.

    Returns their seeds, a uint64 array, and their bits 1..width with the
    override flips applied, a uint8 array whose row t, column i - 1 holds
    bit i of the trial's root: every target, view bit and override.
    """
    seeds = child_seed_np(child_seed(cfg.master_seed, DOMAIN_ROOT), np.arange(start, stop))
    width = max(cfg.players + cfg.strategy.view_bits, cfg.override_depth)
    bits = generator_bits(seeds, width)
    bits[:, : cfg.override_depth] ^= 1
    return seeds, bits


def _run_chunk(cfg: ExperimentConfig, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Trials start..stop-1, in order, as ``s`` and ``valid`` columns.

    Uses the strategy's batch kernel when it has one, and ``run_trial`` on
    the chunk's roots and shared seeds otherwise.  The kernel gets only the
    players' read-only views (see ``Strategy.guess_batch``), not the root
    bits scored here.
    """
    m = cfg.strategy.view_bits
    root_seeds, bits = _roots(cfg, start, stop)
    views = sliding_window_view(bits[:, 1:], m, axis=1)[:, : cfg.players]
    trial_seeds = child_seed_np(child_seed(cfg.master_seed, DOMAIN_TRIAL), np.arange(start, stop))
    outputs = cfg.strategy.guess_batch(views, trial_seeds, root_seeds)
    if outputs is not None:
        # int8 scalars: no int64 block is built, then cast.
        s = np.where(outputs == bits[:, : cfg.players], np.int8(1), np.int8(-1))
        return s, np.ones(stop - start, dtype=bool)
    flips = bits[:, : cfg.override_depth].tolist()
    records = [
        run_trial(GameSpec(
            players=cfg.players,
            root=BitStream(seed, overrides=tuple(enumerate(row, 1))),
            strategy=cfg.strategy,
            trial_seed=trial_seed,
            enforce_contracts=cfg.enforce_contracts,
            enable_backdoor=cfg.enable_backdoor,
        ))
        for seed, row, trial_seed in zip(root_seeds.tolist(), flips, trial_seeds.tolist())
    ]
    s = np.array([r.s for r in records], dtype=np.int8)
    return s, np.array([r.valid for r in records], dtype=bool)


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


def _csv(header: Iterable[str], lines: Iterable[str]) -> str:
    """A header of the given names, then the given lines."""
    return "\n".join([",".join(header), *lines]) + "\n"


# The names of a win-rate report's per-player row, in order.
_PLAYER_ROW = ("player", "wins", "trials", "freq", "lo", "hi")


@dataclass(frozen=True)
class WinRateReport:
    """Per-player win counts over the scored trials, kept as columns.

    ``wins[k - 1]`` is player k's number of won scored trials, a Python
    int.  ``intervals`` holds ``(count, lo, hi)``, the Wilson interval of
    each distinct count, by ascending count: the players of a run share a
    few counts, so each interval is computed once, when the report is
    built.  A player's row follows from its count: ``(player, wins,
    trials, freq, lo, hi)``, with ``trials`` the scored trials and ``freq``
    their share of wins, as ``_PLAYER_ROW`` names them.  ``to_json`` and
    ``to_csv`` write the rows from these columns, and
    ``ExperimentResult.render_json`` has json write one row a distinct
    count (see ``_player_rows``).
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
        """Each distinct count's row values after ``player``."""
        n = self.scored_trials
        return {w: (w, n, (w / n) if n else None, lo, hi) for w, lo, hi in self.intervals}

    def to_json(self) -> dict:
        rows = {w: dict(zip(_PLAYER_ROW[1:], rate)) for w, rate in self._rates().items()}
        return self._document([{"player": k, **rows[w]} for k, w in enumerate(self.wins, 1)])

    def _document(self, per_player) -> dict:
        """The report's JSON document, with the given ``per_player`` value."""
        return {
            "players": self.players,
            "scored_trials": self.scored_trials,
            "invalid_trials": self.invalid_trials,
            "invalid_raw_success_rate": self.invalid_raw_success_rate,
            "per_player": per_player,
            "pooled_freq": self.pooled_freq,
            "pooled_lo": self.pooled_lo,
            "pooled_hi": self.pooled_hi,
            "threshold_hist": [list(pair) for pair in self.threshold_hist],
        }

    def to_csv(self) -> str:
        tails = {w: _line(rate) for w, rate in self._rates().items()}
        return _csv(_PLAYER_ROW, (f"{k},{tails[w]}" for k, w in enumerate(self.wins, 1)))


# render_json's stand-in for the per-player rows: json writes its NUL as
# \u0000, which no other string of a report holds.
_PER_PLAYER = "\0per_player"


def _player_rows(report: WinRateReport, indent: str) -> str:
    """``json.dumps(..., sort_keys=True, indent=2)`` of a report's
    ``to_json()["per_player"]``, its closing bracket at ``indent``.

    json writes each distinct count's row once, as player 0's, and the row
    is split at that player number, so player k's row is ``heads[w] +
    str(k) + tails[w]``.
    """
    inner = indent + "  "
    comma = "," + inner + "  "
    # With no indent, json's C encoder writes the row on one line; the item
    # separator breaks it as indent=2 would.
    encode = json.JSONEncoder(sort_keys=True, separators=(comma, ": ")).encode
    player, *names = _PLAYER_ROW
    key = f'"{player}": '
    heads, tails = {}, {}
    for w, rate in report._rates().items():
        head, tail = encode({player: 0, **dict(zip(names, rate))})[1:-1].split(key + "0")
        heads[w] = "{" + comma[1:] + head + key
        tails[w] = tail + inner + "}"
    rows = [heads[w] + str(k) + tails[w] for k, w in enumerate(report.wins, 1)]
    return "[" + inner + ("," + inner).join(rows) + indent + "]"


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
        header = (f.name for f in fields(AzumaPoint))
        return _csv(header, (_line(vars(p).values()) for p in self.points))


@dataclass(frozen=True, eq=False)  # == must never compare the arrays
class ExperimentResult:
    """A run's config and its trials as two columns, one row per trial in
    trial order: ``s``, int8[trials, players], and ``valid``, bool[trials].

    The columns keep only what the seeds do not determine.  Everything else
    is regenerated from the config by ``_roots``: a root's overrides are its
    bits 1..override_depth, and each output is its player's root bit,
    flipped where ``s`` is -1, since that is how ``run_trial`` scores it.
    The trajectories and thresholds follow from ``s`` and ``valid``.

    The win and Azuma reports are computed in one walk of the columns when
    either is first read, the martingale audit when it is read, and the
    trial log on each call, with the roots and outputs regenerated from the
    config's seeds.  ``records`` rebuilds the per-trial records, as
    ``run_trial`` returns them, the same way, only when it is read.
    """

    config: ExperimentConfig
    s: np.ndarray
    valid: np.ndarray

    @cached_property
    def _reports(self) -> tuple[WinRateReport, AzumaReport]:
        return _block_reports(self.config, self.s, self.valid)

    @property
    def win(self) -> WinRateReport:
        return self._reports[0]

    @property
    def azuma(self) -> AzumaReport:
        return self._reports[1]

    @cached_property
    def martingale(self) -> MartingaleReport:
        cfg = self.config
        if not self.valid.all():
            raise ValueError(_INVALID_AUDIT)
        return _martingale((self.s[i:j] for i, j in _chunks(cfg)), cfg.trials, cfg.players)

    @cached_property
    def records(self) -> tuple[TrialRecord, ...]:
        """The per-trial records, as ``run_trial`` returns them, rebuilt a
        chunk and a column at a time.  Each of a chunk's columns becomes
        Python objects with one ``tolist``: the roots' documents, by
        ``generator_json``; the outputs, the steps and their int64 partial
        sums, a tuple a trial; the thresholds, ``None`` for a quarantined
        trial; and the validity flags.  Each record is made from its row of
        them by ``TrialRecord._make``."""
        cfg, records = self.config, []
        for start, stop in _chunks(cfg):
            seeds, bits = _roots(cfg, start, stop)
            s, valid = self.s[start:stop], self.valid[start:stop]
            outputs = bits[:, : cfg.players] ^ (s < 0)
            sums = np.cumsum(s, axis=1, dtype=np.int64)
            records += map(TrialRecord._make, zip(
                generator_json(seeds, bits[:, : cfg.override_depth]),
                *(map(tuple, column.tolist()) for column in (outputs, s, sums)),
                np.where(valid, last_losing_index(s), None).tolist(),
                valid.tolist(),
            ))
        return tuple(records)

    def to_json(self) -> dict:
        return self._document(self.win.to_json())

    def _document(self, win_rate) -> dict:
        """The run's JSON document, with the given ``win_rate`` value."""
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_json(),
            "win_rate": win_rate,
            "azuma": self.azuma.to_json(),
        }

    def render_json(self) -> str:
        """``json.dumps(self.to_json(), sort_keys=True, indent=2) + "\\n"``,
        with the per-player rows spelled by ``_player_rows`` in the place of
        a placeholder."""
        win = self.win
        text = json.dumps(self._document(win._document(_PER_PLAYER)), sort_keys=True, indent=2)
        return text.replace(json.dumps(_PER_PLAYER), _player_rows(win, "\n    "), 1) + "\n"

    def trial_log(self) -> str:
        return "".join(self.trial_log_slices())

    def trial_log_slices(self) -> Iterator[str]:
        """The trial log in consecutive pieces, each built as it is asked
        for, so that a writer holds one slice of it at a time."""
        return _block_log(self.config, self.s, self.valid)


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


def _stacked(rows: Sequence[tuple], dtype) -> np.ndarray | None:
    """Equal-length tuples of steps, one a trial, as the rows of one
    [trials, width] array of ``dtype``, or None if a step is not 1 or -1
    (``unit_steps``), so that no step is coerced.

    Raises a ``ValueError`` naming the first trial whose tuple's length
    differs from trial 0's.
    """
    lengths = list(map(len, rows))
    width = lengths[0] if lengths else 0
    if lengths.count(width) != len(lengths):
        t = next(t for t, n in enumerate(lengths) if n != width)
        raise ValueError(f"trial {t} has {lengths[t]} steps, trial 0 has {width}")
    flat = list(chain.from_iterable(rows))
    if not unit_steps(flat):
        return None
    return np.fromiter(flat, dtype, len(flat)).reshape(len(rows), width)


def win_rate_report(records: Sequence[TrialRecord], players: int) -> WinRateReport:
    """The win-rate report of trial records: the reference for
    ``ExperimentResult.win``.  Their steps are read by ``_stacked``; a step
    that is not 1 or -1 is a ``ValueError`` naming the first such trial."""
    s = _stacked([r.s for r in records], np.int8)
    if s is None:
        t = next(t for t, r in enumerate(records) if not unit_steps(r.s))
        raise ValueError(f"trial {t} has a step that is not 1 or -1: {records[t].s!r}")
    valid = np.fromiter((r.valid for r in records), bool, len(records))
    invalid = len(records) - int(np.count_nonzero(valid))
    invalid_raw = float((s[~valid] > 0).mean()) if invalid else None

    scored = len(records) - invalid
    wins = (s[valid] > 0).sum(axis=0) if scored else np.zeros(players, dtype=np.int64)

    hist = sorted(Counter(r.threshold for r in records if r.valid).items())
    return _win_rate(players, wins, scored, invalid, invalid_raw, hist)


def _azuma(
    grid_n: Sequence[int], grid_eps: Sequence[float], exceed: Sequence[Sequence[int]], trials: int
) -> AzumaReport:
    """The Azuma exceedance report of ``trials`` scored trials, of which
    ``exceed[j][i]``, a Python int, have S_n >= eps for n = ``grid_n[j]`` and
    eps = ``grid_eps[i]``."""
    points = []
    for n, row in zip(grid_n, exceed):
        for eps, count in zip(grid_eps, row):
            bound = azuma_bound(n, eps)
            if trials:
                freq = count / trials
                _, hi = wilson_interval(count, trials)
                margin = hi - freq
                violation = freq > bound + margin
            else:
                freq, margin, violation = None, 1.0, False
            points.append(
                AzumaPoint(n, float(eps), count, trials, freq, bound, margin, violation)
            )
    return AzumaReport(points=tuple(points))


def azuma_report(
    records: Sequence[TrialRecord], grid_n: Iterable[int], grid_eps: Iterable[float]
) -> AzumaReport:
    grid_n, grid_eps = tuple(grid_n), tuple(grid_eps)
    trajectories = [r.trajectory for r in records if r.valid]
    need = max(grid_n, default=0)
    if min(map(len, trajectories), default=need) < need:
        t = next(t for t, r in enumerate(records) if r.valid and len(r.trajectory) < need)
        short = len(records[t].trajectory)
        raise ValueError(f"trial {t} has {short} partial sums, fewer than n={need}")
    exceed = []
    for n in grid_n:
        s_n = np.fromiter(map(itemgetter(n - 1), trajectories), np.int64, len(trajectories))
        exceed.append([int((s_n >= eps).sum()) for eps in grid_eps])
    return _azuma(grid_n, grid_eps, exceed, len(trajectories))


def _block_reports(
    cfg: ExperimentConfig, s: np.ndarray, valid: np.ndarray
) -> tuple[WinRateReport, AzumaReport]:
    """``win_rate_report`` and ``azuma_report`` of a run's ``s`` and
    ``valid`` columns, from integer totals taken in one walk of their chunks
    (see ``_chunks``): each player's sum of steps, the threshold histogram
    and, for each (n, eps) of the Azuma grid, the scored trials with S_n >=
    eps.  Every step is 1 or -1, so a player's wins are half of the scored
    trials plus its sum.
    """
    players, scored, raw_wins = cfg.players, 0, 0
    sums = np.zeros(players, dtype=np.int64)
    hist = Counter()
    exceed = [[0] * len(cfg.azuma_eps) for _ in cfg.azuma_n]
    for start, stop in _chunks(cfg):
        rows, ok = s[start:stop], valid[start:stop]
        if not ok.all():
            raw_wins += int((rows[~ok] > 0).sum())
            rows = rows[ok]
        scored += len(rows)
        sums += rows.sum(axis=0, dtype=np.int64)
        thresholds, counts = np.unique(last_losing_index(rows), return_counts=True)
        hist.update(dict(zip(thresholds.tolist(), counts.tolist())))
        for row, n in zip(exceed, cfg.azuma_n):
            s_n = rows[:, :n].sum(axis=1, dtype=np.int64)
            for i, eps in enumerate(cfg.azuma_eps):
                row[i] += int(np.count_nonzero(s_n >= eps))
    invalid = cfg.trials - scored
    invalid_raw = raw_wins / (invalid * players) if invalid else None
    sums += scored
    sums //= 2
    win = _win_rate(players, sums, scored, invalid, invalid_raw, sorted(hist.items()))
    return win, _azuma(cfg.azuma_n, cfg.azuma_eps, exceed, scored)


def _decimal_cells(values: np.ndarray, before: bytes) -> np.ndarray:
    """A table of each integer's ``str`` after a glue, as fixed-width byte
    strings: entry i is ``before`` joined to numpy's cast of ``values[i]``
    to a byte string, NUL-padded on the right to the width of the longest.
    With a NUL-free ``before``, it is ``before + str(values[i])`` once its
    NULs are removed.
    """
    return np.char.add(before, np.array(values.tolist(), dtype="S"))


def _override_pairs(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The overrides 1..depth of a root, in the order ``sort_keys`` writes
    their keys: as strings, "1", "10", "2", ...

    Returns ``columns`` and ``pairs``: the key ranked r is ``columns[r] +
    1``, and ``pairs[2 * r + bit]`` is the text of its pair with that bit,
    ``,"key":bit``, with no comma at r = 0.
    """
    digits = len(str(depth))
    # A key is NUL-padded on the right, and NUL sorts before every digit,
    # so the fixed-width texts sort as the keys do.
    keys = np.arange(1, depth + 1).astype(f"S{digits}")
    columns = np.argsort(keys)
    pairs = np.empty((depth, 2, digits + 5), dtype=np.uint8)
    pairs[:, :, :2] = np.frombuffer(b',"', dtype=np.uint8)
    pairs[:, :, 2:-3] = keys[columns].view(np.uint8).reshape(depth, 1, digits)
    pairs[:, :, -3:-1] = np.frombuffer(b'":', dtype=np.uint8)
    pairs[:, :, -1] = np.frombuffer(b"01", dtype=np.uint8)
    pairs[:1, :, 0] = 0
    return columns, pairs.view(f"S{digits + 5}").ravel()


def _heads(glue: str, first: Iterable[int]) -> np.ndarray:
    """A table of the glue before a list, each entry with one first value."""
    return np.array([f"{glue}{v}".encode() for v in first])


# A list's first cell carries the glue before it; each other cell is a
# comma and a value.  Outputs index their cells by the output, and partial
# sums and steps their heads, and steps their cells, by the step plus 1.
_S_HEADS = _heads('{"S":[', (-1, 0, 1))
_OUTPUT_HEADS = _heads('],"outputs":[', (0, 1))
_OUTPUT_CELLS = np.array([b",0", b",1"])
_STEP_HEADS = _heads(',"shift":0},"s":[', (-1, 0, 1))
_STEP_CELLS = np.array([b",-1", b"", b",1"])
_ROOT_GLUE = np.array([b'],"root":{"kind":"' + GENERATOR.encode() + b'","overrides":{'])
_SEED_GLUE = np.array([b'},"seed":'])


def _block_log(cfg: ExperimentConfig, s: np.ndarray, valid: np.ndarray) -> Iterator[str]:
    """The trial log of a run's ``s`` and ``valid`` columns, one slice a
    chunk (see ``_chunks``): each trial's ``TrialRecord.to_json_line`` and a
    newline.

    Each slice's roots and outputs are regenerated from the seeds (see
    ``ExperimentResult``).  Its text is one uint8 matrix with a row per trial,
    made of fixed-width sections in line order: the partial sums, the
    outputs, the root glue, the override pairs, the seed glue, the seed,
    the steps, and the threshold and validity.  Each section is gathered
    with one ``np.take`` from a small table of byte strings, NUL-padded to
    one width: a list's first cell carries the glue before it, and its
    others are a comma and a value, the partial sums' made for the range
    of values the slice holds (see ``_decimal_cells``).  numpy spells each
    number: a partial sum is its cast of the Python int to bytes, a seed
    its cast of the int to ``S20``.  A
    NUL byte stands for no byte: it pads a text narrower than its cell,
    and takes the place of the first override pair's comma.  The slice's
    text is the matrix's bytes with the NULs removed, in one call.
    """
    players, depth = cfg.players, cfg.override_depth
    columns, pairs = _override_pairs(depth)
    pair_base = 2 * np.arange(depth)
    for start, stop in _chunks(cfg):
        seeds, bits = _roots(cfg, start, stop)
        rows = s[start:stop]
        steps = np.add(rows, 1, dtype=np.intp)
        outputs = np.bitwise_xor(bits[:, :players], rows < 0, dtype=np.intp)
        S = np.cumsum(rows, axis=1, dtype=np.intp)
        lo = int(S.min())
        sums = _decimal_cells(np.arange(lo, int(S.max()) + 1), b",")
        S -= lo
        # A threshold of -1 stands for a quarantined trial's null.
        thresholds = np.where(valid[start:stop], last_losing_index(rows), -1)
        tails, tail = np.unique(thresholds, return_inverse=True)
        glue = np.zeros((stop - start, 1), dtype=np.intp)
        sections = [
            (_S_HEADS, steps[:, :1]),
            (sums, S[:, 1:]),
            (_OUTPUT_HEADS, outputs[:, :1]),
            (_OUTPUT_CELLS, outputs[:, 1:]),
            (_ROOT_GLUE, glue),
            (pairs, np.add(bits[:, columns], pair_base, dtype=np.intp)),
            (_SEED_GLUE, glue),
            (np.array(seeds.tolist(), dtype="S20"), np.arange(stop - start)[:, None]),
            (_STEP_HEADS, steps[:, :1]),
            (_STEP_CELLS, steps[:, 1:]),
            (
                np.array([
                    f'],"threshold":{t},"valid":true}}\n'.encode() if t >= 0
                    else b'],"threshold":null,"valid":false}\n'
                    for t in tails.tolist()
                ]),
                tail[:, None],
            ),
        ]
        bounds = [0]
        for table, index in sections:
            bounds.append(bounds[-1] + table.itemsize * index.shape[1])
        out = np.empty((stop - start, bounds[-1]), dtype=np.uint8)
        for (table, index), a, b in zip(sections, bounds, bounds[1:]):
            table.take(index, out=out[:, a:b].view(table.dtype))
        yield out.tobytes().translate(None, b"\0").decode("ascii")


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full trial ensemble in the calling process.

    The trials run in the chunks of ``_chunks``, one after another in trial
    order.  Each chunk's columns are copied into the run's, allocated once,
    as the chunk finishes, and every derived quantity is a pure function of
    the run's columns, which is what makes reports and trial logs
    byte-identical across chunk sizes.
    """
    try:
        s = np.empty((cfg.trials, cfg.players), dtype=np.int8)
    except ValueError as exc:  # a size past numpy's index type
        raise MemoryError(f"{cfg.trials} x {cfg.players} cells: {exc}") from None
    valid = np.empty(cfg.trials, dtype=bool)
    for start, stop in _chunks(cfg):
        s[start:stop], valid[start:stop] = _run_chunk(cfg, start, stop)
    return ExperimentResult(cfg, s, valid)


@dataclass(frozen=True)
class MartingaleBin:
    """The steps out of one value of the partial sum: their number, their
    mean, and the bin's boundary on the mean, ``mixture_boundary / count``,
    which the mean stays strictly inside when the bin is ``ok``."""

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


def mixture_boundary(count: int, alpha: float) -> float:
    """Robbins' two-sided normal-mixture boundary at ``count`` steps.

    For fair, independent +-1 steps, the chance that the absolute sum of the
    first c ever reaches sqrt((c + ρ)·ln((c + ρ) / (ρ·alpha²))), at any c,
    with ρ = MARTINGALE_RHO, is at most ``alpha`` (Robbins, Ann. Math.
    Statist. 41, 1397, 1970; Howard et al., Ann. Statist. 49, 1055, 2021).  The bound holds at every
    count at once, so a count that is itself random needs no correction.
    """
    rho = MARTINGALE_RHO
    return math.sqrt((count + rho) * math.log((count + rho) / (rho * alpha * alpha)))


def _martingale(steps: Iterable[np.ndarray], trials: int, players: int) -> MartingaleReport:
    """The martingale report of trials' steps, given as consecutive
    [trials, players] integer arrays of 1 and -1 (see ``martingale_audit``).

    Each step but a trial's first is counted, in integers, at the place
    S + players - 1 of the partial sum S before it, and among the up-steps
    there if it is 1.  Every place with a step is a bin, which fails
    when its sum of steps, 2·ups − count, reaches ``mixture_boundary`` at
    MARTINGALE_ALPHA / (2·players − 1).
    """
    # moves[2 * place + up], up to 4 players - 3: the steps out of each place.
    moves = np.zeros(4 * players, dtype=np.int64)
    code_type = np.int16 if players <= 8192 else np.int32
    for s in steps:
        code = s[:, :-1].astype(code_type)
        np.cumsum(code, axis=1, out=code)
        code += players - 1
        code *= 2
        code += s[:, 1:] > 0
        # Unlike bincount, add.at reads a small index type in place.
        np.add.at(moves, code, 1)
        del code  # before the next chunk's
    ups = moves[1::2]
    counts = moves[::2] + ups
    alpha = MARTINGALE_ALPHA / (2 * players - 1)
    bins = []
    for place in np.flatnonzero(counts).tolist():
        count, up = int(counts[place]), int(ups[place])
        drift = 2 * up - count
        boundary = mixture_boundary(count, alpha)
        bins.append(MartingaleBin(
            place - players + 1, count, drift / count, boundary / count, abs(drift) < boundary
        ))
    return MartingaleReport(trials=trials, increments_ok=True, bins=tuple(bins))


_INVALID_AUDIT = "log contains SIGNALING-INVALID trials; audit refused"


def martingale_audit(records: Sequence[TrialRecord]) -> MartingaleReport:
    """Check the defining martingale properties on a trial log.

    Verifies every trajectory moves by exactly +-1, then tests the
    conditional mean of the next step given the current partial sum by
    binning on the value of S_n, pooled over n.  Taken in trial order and
    then time order, the steps out of one value are fair and independent
    under any local strategy, however many there are, so each bin's sum
    stays inside its ``mixture_boundary`` but with probability at most
    MARTINGALE_ALPHA over all bins; a drift (the FNS signature) crosses it.

    The steps are read by ``_stacked``; steps of different lengths are a
    ``ValueError`` naming the first such trial, and a step that is not 1 or
    -1 makes the increments broken, with no bins.  The partial sums are
    compared, as Python tuples, with the running sums of the steps, so
    each is compared as Python compares it: 1.0 equals 1, and 1.5, "1",
    None or a tuple of another length are broken increments.
    """
    if not records:
        raise ValueError("empty trial log")
    if any(not r.valid for r in records):
        raise ValueError(_INVALID_AUDIT)
    s = _stacked([r.s for r in records], np.int64)
    if s is None:
        return MartingaleReport(trials=len(records), increments_ok=False, bins=())
    report = _martingale([s], len(s), s.shape[1])
    if [r.trajectory for r in records] == list(map(tuple, np.cumsum(s, axis=1).tolist())):
        return report
    return MartingaleReport(report.trials, False, report.bins)


@dataclass(frozen=True)
class InvarianceReport:
    samples: int
    bins: int
    seed: int
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


def _sample_seed(seed: int, index: int) -> int:
    return child_seed(child_seed(seed, DOMAIN_INVARIANCE), index)


# Roots hashed per block of the invariance histogram, so that its arrays
# stay bounded however many samples are drawn: four buffers of 2^15 uint64
# words, 1 MiB in all, which fits in a 2 MiB L2 cache.
INVARIANCE_BLOCK = 1 << 15
# Most bins invariance_test accepts.  The counts take 8 bytes a bin, 128 MiB
# at this bound (twice that while their bins are reversed), and a run draws
# at least 100 samples a bin.
MAX_INVARIANCE_BINS = 1 << 24


def _invariance_counts(
    samples: int, width: int, seed: int, iterations: int, sampler: str
) -> np.ndarray:
    """Histogram of the first `width` image bits over sampled roots.

    Vectorized path; reproduces _invariance_counts_reference exactly (the
    reference walks the public stream API and is cross-checked in tests).
    The image bits are root bits iterations+1 .. iterations+width, read from
    the one or two hash words that hold them, INVARIANCE_BLOCK roots at a
    time.  Each block is hashed in four buffers of INVARIANCE_BLOCK words
    allocated once (steps, roots, windows and scratch): root i is
    ``mix64(base + (i+1)·GOLDEN)``, and its word 2q is ``mix64(root +
    (2q+1)·GOLDEN)``, so the offsets are summed as Python ints and wrapped
    once, however large `iterations` is.  The windows are counted least
    significant bit first, with ``np.add.at`` so that a block costs the same
    at any bin count.  Both remaps of a window depend on its value alone, so
    they act once on the counts, not on each sample: the adversarial copy of
    the window's bit 0 onto its bit 1 moves each bin's count onto the bin
    with both bits equal, and the bit reversal reorders the bins.
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
        np.add.at(counts, window.view(np.int64), 1)
    if sampler == ADVERSARIAL:
        # The root's bit iterations+1 is copied onto bit iterations+2: bins
        # [hi, b1, b0] move to [hi, b0, b0].
        cells = counts.reshape(-1, 2, 2)
        cells[:, 0, 0] += cells[:, 1, 0]
        cells[:, 1, 1] += cells[:, 0, 1]
        cells[:, 1, 0] = cells[:, 0, 1] = 0
    # Reshaped, axis t is a bin's bit width-1-t; .T reverses the axes, so ravel reverses the bits.
    return counts.reshape((2,) * width).T.ravel()


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


# The unit roundoff of a float.
_EPS = 2.0**-53
# ½·log(2π), and Stirling's series for log Γ(a) − (a − ½)·log a + a −
# ½·log(2π): its coefficients of 1/a, 1/a³, ..., 1/a¹¹.
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _stirling_tail(a: float) -> float:
    """log Γ(a) − (a − ½)·log a + a − ½·log(2π), for a ≥ ½: by Stirling's
    series from a = 10, where its first omitted term is below 1e-15, and from
    Γ itself below that."""
    if a < 10:
        return math.log(math.gamma(a) / (a ** (a - 0.5) * math.exp(-a))) - _HALF_LOG_2PI
    r, total = 1 / (a * a), 0.0
    for c in reversed(_STIRLING):
        total = total * r + c
    return total / a


def _log1pmx(t: float) -> float:
    """log(1 + t) − t for |t| < ½, by its power series, so that it keeps its
    relative precision where the two terms nearly cancel."""
    term, total, n = t, 0.0, 1
    while True:
        n += 1
        term *= -t
        total += term / n
        if abs(term) <= n * _EPS * abs(total):
            return total


def _chi2_sf(df: int, statistic: float) -> float:
    """P(χ² ≥ statistic) at df degrees of freedom: the regularized upper
    incomplete gamma function Q(a, x) at a = df/2, x = statistic/2.

    Below x = a + 1, Q is 1 − P by P's power series, whose terms are all
    positive; from there on, Legendre's continued fraction for Q, by Lentz's
    method.  Both are scaled by x^a·e^−x / Γ(a), taken as the exponential of
    ½·log(a / 2π) − tail(a) + a·(log(1 + t) − t) with t = (x − a) / a, so that
    no term of size a cancels (Temme 1979; DiDonato & Morris, ACM TOMS 12,
    377, 1986).  Measured against a 45-digit reference, for df = 2^w − 1,
    w = 1..24, its relative error is below 1e-13 from 6 standard deviations
    below df to 12 above, and below 1e-12 to the underflow.
    """
    a, x = df / 2, statistic / 2
    if x < 2.0**-120:
        return 1.0  # P(a, x) < 2·√x < 2**−59 at every a ≥ ½
    t = (x - a) / a
    power = a * (_log1pmx(t) if abs(t) < 0.5 else math.log(x / a) - t)
    scale = math.exp(0.5 * math.log(a) - _HALF_LOG_2PI - _stirling_tail(a) + power)
    if x < a + 1:
        term = total = 1 / a
        n = a
        # Stop once the rest, below a geometric series of ratio x / (n + 1),
        # is negligible.
        while term * x > _EPS * total * (n + 1 - x):
            n += 1
            term *= x / n
            total += term
        return 1 - scale * total
    # At x >= a + 1, both of Lentz's i-th denominators exceed x - a + i + 1
    # (by induction on i), so neither vanishes and no floor is needed.
    b = x + 1 - a
    c, d = math.inf, 1 / b
    h, i = d, 0
    while True:
        i += 1
        an = i * (a - i)
        b += 2
        d = 1 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        # A converged factor is 1 to within its own few rounding errors.
        if abs(delta - 1) <= 4 * _EPS:
            return scale * h


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
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be in 0..{MASK64}, got {seed}")
    if sampler not in (UNIFORM, ADVERSARIAL):
        raise ValueError(f"unknown sampler: {sampler!r}")
    width = bins.bit_length() - 1
    if sampler == ADVERSARIAL and width < 2:
        raise ValueError("adversarial sampler needs at least 4 bins")
    counts = _invariance_counts(samples, width, seed, iterations, sampler)
    # The statistic follows scipy.stats.chisquare step for step, so it equals
    # its result bit for bit.  The tail is _chi2_sf, built on the math module,
    # so the package needs no scipy (whose import cost about 23 MiB of
    # resident memory and 0.3 s).
    observed = counts.astype(np.float64)
    expected = np.mean(observed, keepdims=True)
    statistic = float(np.sum((observed - expected) ** 2 / expected))
    return InvarianceReport(
        samples=samples,
        bins=bins,
        seed=seed,
        iterations=iterations,
        sampler=sampler,
        statistic=statistic,
        pvalue=_chi2_sf(bins - 1, statistic),
        alpha=alpha,
    )
