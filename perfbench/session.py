"""One benchmark session: set up a workload, then time or trace its rounds.

run.py starts this script with the repository's ``src`` first on
PYTHONPATH.  As soon as set-up (imports and input generation) is done it
prints ``READY <monotonic time> <seconds in slices> <import seconds>
<slice times>``, calibration slices having run during set-up as during
rounds, and, unless ``--setup-only``, one ``RESULT <json>`` line at the
end.

The first round of every session is a warm-up: it is checked but not timed.
Every round's digests must equal the warm-up round's.  While rounds are
timed, calibration slices run interleaved with them and are kept out of the
measured time.  Each round's times are normalized by the slices that ran
during it (see calibration.py), and a phase reports the mean over its
rounds with the fastest and slowest tenth left out.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import pickle
import pstats
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibration

MIN_ROUNDS = 3
TRIM = 0.1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


@dataclass(frozen=True)
class Sample:
    """Raw seconds of one timed round."""

    wall: float
    parent_cpu: float
    children_cpu: float

    @property
    def cpu(self) -> float:
        return self.parent_cpu + self.children_cpu


def trimmed_mean(values: list[float]) -> float:
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


@dataclass
class Phase:
    """Consecutive rounds of one kind, each with the calibration slices that
    ran during it."""

    samples: list[Sample] = field(default_factory=list)
    slices: list[list[float]] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """One factor for the whole phase, from all its slices."""
        return calibration.scale([t for round_slices in self.slices for t in round_slices])

    def normalized(self, field: str, scale: float | None = None) -> float:
        """Trimmed mean over the rounds of a time in normalized seconds.

        Each round is scaled by its own slices, or by `scale` when given.
        """
        values = []
        for sample, round_slices in zip(self.samples, self.slices):
            factor = scale
            if factor is None:
                factor = calibration.scale(round_slices) if round_slices else self.scale
            values.append(getattr(sample, field) * factor)
        return trimmed_mean(values)

    def raw(self) -> dict:
        return {
            "wall_s": [s.wall for s in self.samples],
            "cpu_s": [s.cpu for s in self.samples],
            "calibration_s": self.slices,
        }


def _cpu_times() -> tuple[float, float]:
    """User+system CPU seconds of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


class Session:
    def __init__(self, workload, checks) -> None:
        self.workload = workload
        self.checks = checks
        self.output = None

    def run_round(self, workload, tracer=None, profile=None) -> tuple[float, float, float]:
        """One round; returns raw (wall s, parent CPU s, children CPU s)."""
        before, start = _cpu_times(), time.perf_counter()
        if profile is not None:
            profile.enable()
        if tracer is not None:
            with tracer.span("round"):
                output = workload.run_round(self.checks)
            tracer.round += 1
        else:
            output = workload.run_round(self.checks)
        if profile is not None:
            profile.disable()
        wall, after = time.perf_counter() - start, _cpu_times()
        if self.output is None:
            self.output = output
        else:
            self.checks.check(
                f"{workload.name}: digests equal the warm-up round's", output == self.output
            )
        return wall, after[0] - before[0], after[1] - before[1]

    def run_rounds(self, workload, seconds, min_rounds, profile=None, **kwargs) -> Phase:
        """Rounds until `seconds` of measured time have run.

        Calibration slices interleave with the rounds, except under the
        profiler, which would time the slices too, and except in rounds that
        run pool workers, where the slices would compete with the workers
        for the CPUs: those rounds get a burst of slices just before and
        just after instead.
        """
        phase = Phase()
        interleave = profile is None and not workload.pooled
        sampler = calibration.Sampler()
        with sampler if interleave else contextlib.nullcontext():
            while sum(s.wall for s in phase.samples) < seconds or len(phase.samples) < min_rounds:
                before = [] if interleave or profile else calibration.burst()
                paused, first = sampler.paused, len(sampler.slices)
                wall, parent, children = self.run_round(workload, profile=profile, **kwargs)
                paused = sampler.paused - paused
                after = [] if interleave or profile else calibration.burst()
                phase.samples.append(Sample(wall - paused, parent - paused, children))
                phase.slices.append(before + sampler.slices[first:] + after)
        return phase


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def timed(session: Session, seconds: float) -> dict:
    workload = session.workload
    phase = session.run_rounds(workload, seconds, MIN_ROUNDS)
    wall = phase.normalized("wall")
    return {
        "metrics": {
            "wall_s": wall,
            "items_per_s": workload.items / wall,
            "cpu_s": phase.normalized("cpu"),
            "peak_rss_mb": peak_rss_mib(),
        },
        "rounds": phase.raw(),
    }


def traced(session: Session, seconds: float, out_dir: Path) -> dict:
    """Untraced rounds, then rounds under the probes, then under the profiler.

    A pooled workload's layer numbers come from its serial variant, which
    also gives the pool's speed-up; the pool workers themselves are never
    profiled.  Profiled rounds run without calibration slices; their times,
    like the probe latencies, are normalized by all the probe rounds' slices.
    """
    from tracing import Probes, Tracer, layer_metrics, percentile

    workload = session.workload
    base = session.run_rounds(workload, 0.4 * seconds, 2)
    serial = workload.serial_variant()
    profiled, untraced = workload, base
    if serial is not None:
        profiled = serial
        untraced = session.run_rounds(serial, 0.3 * seconds, 2)

    tracer, probes, profile = Tracer(), Probes(), cProfile.Profile()
    profiled.span = tracer.span
    probes.install()
    try:
        light = session.run_rounds(profiled, 0.2 * seconds, 1, tracer=tracer)
        trial_s, pad_pairs = list(probes.trial_s), probes.pad_pairs
        heavy = session.run_rounds(
            profiled, 0.4 * seconds, 1, tracer=tracer, profile=profile
        )
    finally:
        probes.remove()
        del profiled.span

    stats = pstats.Stats(profile).stats
    guesses = profiled.guesses
    metrics = layer_metrics(stats, len(heavy.samples), guesses, light.scale)
    metrics.update({
        "bitstream.pad_prefix_zeros.pairs_per_guess": (
            pad_pairs / len(light.samples) / guesses if guesses else 0.0
        ),
        "game.trial_p50_ms": percentile(trial_s, 50) * light.scale * 1e3,
        "game.trial_p99_ms": percentile(trial_s, 99) * light.scale * 1e3,
        "game.trial_samples": len(trial_s),
        "experiment.pool.speedup": 0.0,
        "experiment.pool.parent_cpu_s": 0.0,
        "experiment.pool.children_cpu_s": 0.0,
        "experiment.pool.pickled_mb": 0.0,
        "cli.bytes_written_mb": 0.0,
        "trace.overhead": heavy.normalized("wall", light.scale) / untraced.normalized("wall"),
    })
    if serial is not None:
        metrics.update({
            "experiment.pool.speedup": untraced.normalized("wall") / base.normalized("wall"),
            "experiment.pool.parent_cpu_s": base.normalized("parent_cpu"),
            "experiment.pool.children_cpu_s": base.normalized("children_cpu"),
            "experiment.pool.pickled_mb": len(pickle.dumps(serial.records)) / 2**20,
            "cli.bytes_written_mb": serial.bytes_written / 2**20,
        })

    trace_doc = {
        "workload": workload.name,
        "profiled": "serial variant" if serial is not None else "workload",
        "untraced_rounds": untraced.raw(),
        "probe_rounds": light.raw(),
        "profiled_rounds": heavy.raw(),
        "span_self_s": tracer.self_times(),
        "spans": tracer.spans,
        "top_functions": _top_functions(stats, 40),
    }
    trace_path = out_dir / f"trace-{workload.name}.json"
    trace_path.write_text(json.dumps(trace_doc, indent=1) + "\n", encoding="utf-8")
    return {"metrics": metrics, "rounds": base.raw(), "trace_file": str(trace_path)}


def _top_functions(stats: dict, count: int) -> list[dict]:
    rows = [
        {"function": f"{Path(path).name}:{line}:{name}", "calls": nc,
         "self_s": tt, "cum_s": ct}
        for (path, line, name), (_, nc, tt, ct, _) in stats.items()
    ]
    rows.sort(key=lambda r: r["cum_s"], reverse=True)
    return rows[:count]


def main(argv=None) -> int:
    args = parse_args(argv)
    with calibration.Sampler() as sampler:
        start = time.perf_counter()
        import nsgames

        import_s = time.perf_counter() - start - sampler.paused
        source = Path("src").resolve()
        if source not in Path(nsgames.__file__).resolve().parents:
            print(f"session: nsgames imported from {nsgames.__file__}, not from {source}",
                  file=sys.stderr)
            return 2

        from workloads import WORKLOADS, Checks

        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[args.workload](args.seed, out_dir)
    ready = time.monotonic()
    print(f"READY {ready!r} {sampler.paused!r} {import_s!r} {json.dumps(sampler.slices)}",
          flush=True)
    if args.setup_only:
        return 0

    checks = Checks()
    session = Session(workload, checks)
    session.run_round(workload)
    if args.trace:
        result = traced(session, args.seconds, out_dir)
    else:
        result = timed(session, args.seconds)
    result.update({
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "digests": {
            "report_sha256": session.output.report_sha256,
            "log_sha256": session.output.log_sha256,
        },
        "items_per_round": workload.items,
    })
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
