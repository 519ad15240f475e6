"""Tracing for the benchmark, installed from outside the library.

Three instruments, all in memory until the run ends:

* ``Tracer`` records a span (name, start, end, parent, round) around each
  benchmark-level call a workload makes.
* ``Probes`` wraps two public functions thinly: ``run_trial`` as the
  experiment module calls it, for per-trial latency, and
  ``BitStream.pad_prefix_zeros``, for the override pairs it builds.
* ``layer_metrics`` reads exact call counts and self and cumulative times
  per library function out of a ``cProfile`` run.

Pool workers are never profiled: a traced run profiles the serial variant
of a pooled workload instead.
"""

from __future__ import annotations

import contextlib
import math
import os
import time

import nsgames.experiment as experiment
from nsgames.bitstream import BitStream


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.round = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append({
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "round": self.round,
        })
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        totals: dict[str, float] = {}
        for s in self.spans:
            duration = s["end"] - s["start"]
            totals[s["name"]] = totals.get(s["name"], 0.0) + duration
            if s["parent"] is not None:
                parent = self.spans[s["parent"]]["name"]
                totals[parent] = totals.get(parent, 0.0) - duration
        return totals


class Probes:
    """Thin wrappers on public functions; ``remove`` restores the originals."""

    def __init__(self) -> None:
        self.trial_s: list[float] = []
        self.pad_pairs = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        run_trial = experiment.run_trial
        pad_prefix_zeros = BitStream.pad_prefix_zeros

        def timed_run_trial(spec):
            start = time.perf_counter()
            record = run_trial(spec)
            self.trial_s.append(time.perf_counter() - start)
            return record

        def counted_pad_prefix_zeros(stream, k):
            padded = pad_prefix_zeros(stream, k)
            self.pad_pairs += len(padded.overrides)
            return padded

        self._patch(experiment, "run_trial", timed_run_trial)
        self._patch(BitStream, "pad_prefix_zeros", counted_pad_prefix_zeros)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _is(key: tuple, module: str, name: str) -> bool:
    path, _, func = key
    return func == name and path.endswith(os.path.join("nsgames", f"{module}.py"))


def _function(stats: dict, module: str, name: str) -> tuple[int, float, float]:
    """(calls, self seconds, cumulative seconds) of nsgames.<module>.<name>."""
    calls, self_s, cum_s = 0, 0.0, 0.0
    for key, (_, nc, tt, ct, _) in stats.items():
        if _is(key, module, name):
            calls += nc
            self_s += tt
            cum_s += ct
    return calls, self_s, cum_s


def _called_from(stats: dict, module: str, name: str, caller: tuple[str, str]):
    """(calls, cumulative seconds) of <module>.<name> along edges from caller."""
    calls, cum_s = 0, 0.0
    for key, (_, _, _, _, callers) in stats.items():
        if not _is(key, module, name):
            continue
        for caller_key, (nc, _, _, ct) in callers.items():
            if _is(caller_key, *caller):
                calls += nc
                cum_s += ct
    return calls, cum_s


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]


def layer_metrics(stats: dict, rounds: int, guesses: int, scale: float) -> dict[str, float]:
    """Per-round layer numbers from a profile that covered `rounds` rounds.

    Times are multiplied by the calibration `scale`.  Ratios "per guess"
    divide by the scored guesses of one round and read 0 on workloads that
    make no guesses.
    """

    def per_round(value):
        return value / rounds

    def seconds(value):
        return value * scale / rounds

    def per_guess(count):
        return count / rounds / guesses if guesses else 0.0

    mix64 = _function(stats, "seeding", "mix64")
    bit_at = _function(stats, "bitstream", "bit_at")
    guess_calls, guess_cum = _called_from(stats, "strategies", "guess", ("game", "run_trial"))
    draws = _function(stats, "seeding", "next_uint64")
    representative = _function(stats, "oracle", "representative")
    check_fns = _function(stats, "behavior", "check_fns")
    cum = {
        "bitstream.baker_shift.cum_s": ("bitstream", "baker_shift"),
        "bitstream.pad_prefix_zeros.cum_s": ("bitstream", "pad_prefix_zeros"),
        "game.run_trial.cum_s": ("game", "run_trial"),
        "game.to_json_line.cum_s": ("game", "to_json_line"),
        "game.from_json_line.cum_s": ("game", "from_json_line"),
        "experiment.trial_root.cum_s": ("experiment", "trial_root"),
        "experiment.win_rate_report.cum_s": ("experiment", "win_rate_report"),
        "experiment.azuma_report.cum_s": ("experiment", "azuma_report"),
        "experiment.martingale_audit.cum_s": ("experiment", "martingale_audit"),
        "experiment.trial_log.cum_s": ("experiment", "trial_log"),
        "experiment.invariance_test.cum_s": ("experiment", "invariance_test"),
        "behavior.is_factored.cum_s": ("behavior", "is_factored"),
        "behavior.check_no_signaling.cum_s": ("behavior", "check_no_signaling"),
    }
    metrics = {
        "seeding.mix64.calls_per_guess": per_guess(mix64[0]),
        "seeding.mix64.self_s": seconds(mix64[1]),
        "bitstream.bit_at.calls_per_guess": per_guess(bit_at[0]),
        "bitstream.bit_at.self_s": seconds(bit_at[1]),
        "oracle.representative.calls": per_round(representative[0]),
        "oracle.representative.cum_s": seconds(representative[2]),
        "strategies.guess.calls": per_round(guess_calls),
        "strategies.guess.cum_s": seconds(guess_cum),
        "strategies.rng_draws_per_guess": per_guess(draws[0]),
        "behavior.check_fns.calls": per_round(check_fns[0]),
        "behavior.check_fns.cum_s": seconds(check_fns[2]),
    }
    for metric, (module, name) in cum.items():
        metrics[metric] = seconds(_function(stats, module, name)[2])
    return metrics

