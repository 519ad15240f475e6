"""Aggregation, concentration bounds, the martingale audit, invariance."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsgames.experiment as experiment
from nsgames.bitstream import BitStream
from nsgames.experiment import (
    ADVERSARIAL,
    MARTINGALE_ALPHA,
    MARTINGALE_RHO,
    UNIFORM,
    ExperimentConfig,
    ExperimentResult,
    MartingaleBin,
    azuma_bound,
    azuma_report,
    invariance_test,
    martingale_audit,
    run_experiment,
    trial_root,
    wilson_interval,
    win_rate_report,
    _invariance_counts,
    _invariance_counts_reference,
    _sample_seed,
)
from nsgames.game import TrialRecord, last_losing_index
from nsgames.strategies import Strategy, build_strategy

from helpers import assert_same_text, record_chunks


def ref_wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Interval endpoints as roots of (p-hat)^2 = z^2 p(1-p)/t, solved
    numerically rather than via the closed form under test."""
    p_hat = successes / trials
    z2 = z * z / trials
    roots = np.roots([1 + z2, -(2 * p_hat + z2), p_hat * p_hat])
    lo, hi = sorted(float(r.real) for r in roots)
    return max(0.0, lo), min(1.0, hi)


class GuessOnly(Strategy):
    """A strategy with no batch kernel: every trial goes through run_trial."""

    name = "guess-only"

    def guess(self, ctx):
        return ctx.view.bit_at(1)


def config_of(s: np.ndarray) -> ExperimentConfig:
    """A run's config of the steps' shape, for the reports read from them."""
    trials, players = s.shape
    return ExperimentConfig(
        strategy=build_strategy({"name": "constant"}),
        players=players,
        trials=trials,
        master_seed=0,
    )


def tally_bins(s: np.ndarray) -> tuple[MartingaleBin, ...]:
    """The martingale bins of a block's steps, tallied in plain Python: each
    step but a trial's first, and whether it goes up, by the partial sum
    before it.  A bin fails when its sum of steps reaches the normal-mixture
    boundary at the audit's level split over the 2·players − 1 places."""
    steps, ups = Counter(), Counter()
    for row in s.tolist():
        total = 0
        for step, following in zip(row, row[1:]):
            total += step
            steps[total] += 1
            ups[total] += following == 1
    alpha = MARTINGALE_ALPHA / (2 * s.shape[1] - 1)
    rho = MARTINGALE_RHO
    bins = []
    for value in sorted(steps):
        count = steps[value]
        drift = ups[value] - (count - ups[value])
        boundary = math.sqrt((count + rho) * math.log((count + rho) / (rho * alpha**2)))
        bins.append(
            MartingaleBin(value, count, drift / count, boundary / count, abs(drift) < boundary)
        )
    return tuple(bins)


def make_record(s, valid=True):
    traj = tuple(itertools.accumulate(s))
    losing = [k for k, v in enumerate(s, start=1) if v < 0]
    threshold = (max(losing) if losing else 0) if valid else None
    return TrialRecord(
        root={"kind": "generator", "seed": 0, "shift": 0},
        outputs=tuple(1 if v > 0 else 0 for v in s),
        s=tuple(s),
        trajectory=traj,
        threshold=threshold,
        valid=valid,
    )


class TestBounds:
    def test_azuma_frozen_values(self):
        assert azuma_bound(50, 30.0) == pytest.approx(2.468196081733591e-4, rel=1e-12)
        assert azuma_bound(1, 2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
        assert azuma_bound(64, 16.0) == pytest.approx(0.2706705664732254, rel=1e-12)

    def test_azuma_monotone(self):
        assert azuma_bound(32, 8.0) < azuma_bound(32, 4.0)
        assert azuma_bound(16, 8.0) < azuma_bound(64, 8.0)

    def test_azuma_rejects_bad_args(self):
        with pytest.raises(ValueError):
            azuma_bound(0, 1.0)
        with pytest.raises(ValueError):
            azuma_bound(10, 0.0)
        with pytest.raises(ValueError):
            azuma_bound(10, math.nan)
        with pytest.raises(ValueError):
            azuma_bound(10, math.inf)

    def test_wilson_matches_quadratic_roots(self):
        for s, t, z in [(5, 10, 3.0), (0, 10, 3.0), (10, 10, 3.0),
                        (499, 1000, 2.0), (1, 7, 1.0)]:
            lo, hi = wilson_interval(s, t, z)
            ref_lo, ref_hi = ref_wilson(s, t, z)
            assert lo == pytest.approx(ref_lo, abs=1e-12)
            assert hi == pytest.approx(ref_hi, abs=1e-12)

    def test_wilson_edges(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0 < hi < 0.1
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and 0.8 < lo < 1
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    def test_wilson_contains_frequency(self):
        rng = random.Random(3)
        for _ in range(50):
            t = rng.randint(1, 500)
            s = rng.randint(0, t)
            lo, hi = wilson_interval(s, t)
            assert lo <= s / t <= hi


class TestWinRateReport:
    def test_hand_built_counts(self):
        records = [
            make_record((1, 1, -1)),
            make_record((1, -1, 1)),
            make_record((1, 1, 1)),
            make_record((-1, 1, 1)),
        ]
        rep = win_rate_report(records, players=3)
        assert rep.scored_trials == 4
        assert rep.invalid_trials == 0
        assert rep.wins == (3, 3, 3)
        assert rep.pooled_freq == pytest.approx(9 / 12)
        assert rep.threshold_hist == ((0, 1), (1, 1), (2, 1), (3, 1))

    def test_pooled_equals_mean_of_players(self):
        rng = random.Random(9)
        records = [
            make_record(tuple(rng.choice((-1, 1)) for _ in range(5)))
            for _ in range(40)
        ]
        rep = win_rate_report(records, players=5)
        assert rep.pooled_freq == pytest.approx(
            sum(p["freq"] for p in rep.to_json()["per_player"]) / 5
        )

    def test_invalid_trials_segregated(self):
        records = [
            make_record((1, 1)),
            make_record((1, 1), valid=False),
            make_record((1, -1), valid=False),
        ]
        rep = win_rate_report(records, players=2)
        assert rep.scored_trials == 1
        assert rep.invalid_trials == 2
        assert rep.invalid_raw_success_rate == pytest.approx(3 / 4)
        assert all(p["trials"] == 1 for p in rep.to_json()["per_player"])
        assert rep.threshold_hist == ((0, 1),)

    def test_csv_shape(self):
        rep = win_rate_report([make_record((1, -1))], players=2)
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "player,wins,trials,freq,lo,hi"
        assert len(lines) == 3

    def test_empty_log(self):
        rep = win_rate_report([], players=2)
        assert rep.wins == (0, 0) and type(rep.wins[0]) is int
        assert rep.pooled_freq is None
        assert all(p["freq"] is None for p in rep.to_json()["per_player"])

    def test_ragged_steps_name_the_trial(self):
        # Trial 2 is quarantined: the trials are counted over the whole log.
        records = [
            make_record((1, -1)),
            make_record((1, 1)),
            make_record((1, 1, 1), valid=False),
        ]
        with pytest.raises(ValueError, match=r"^trial 2 has 3 steps, trial 0 has 2$"):
            win_rate_report(records, players=2)

    @pytest.mark.parametrize("step", ["1", 1.9, 300, None])
    def test_step_not_unit_names_the_trial(self, step):
        # A record built in code, not read from a log: the step is refused,
        # not coerced to 1 nor past int8 into numpy's OverflowError.
        good = make_record((1, 1, 1))
        records = [good] * 2 + [good._replace(s=(1, step, 1))]
        with pytest.raises(ValueError, match=r"^trial 2 has a step that is not 1 or -1: "):
            win_rate_report(records, players=3)

    def test_one_interval_per_distinct_count(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            experiment, "wilson_interval",
            lambda *args: calls.append(args) or wilson_interval(*args),
        )
        records = [make_record((1, 1, -1, 1)), make_record((1, -1, -1, 1))]
        rep = win_rate_report(records, players=4)
        # Counts 2, 1, 0, 2 and the pooled 5 of 8.
        assert sorted(calls) == [(0, 2), (1, 2), (2, 2), (5, 8)]
        assert [(p["lo"], p["hi"]) for p in rep.to_json()["per_player"]] == [
            wilson_interval(w, 2) for w in rep.wins
        ]


@st.composite
def win_columns(draw):
    """A run whose scored trials give a drawn win count to each of 1-40
    players, 0-12 scored trials and 0-3 quarantined ones in a drawn order,
    with a drawn Azuma grid and chunk size: ``(wins, scored, cells,
    result)``, where ``cells`` is the ``CHUNK_CELLS`` to read it at.

    Some of the grid's epsilons, as ints or floats, equal an S_n that a
    scored trial reaches, so that a count of S_n > eps would differ."""
    scored = draw(st.integers(0, 12))
    wins = draw(st.lists(st.integers(0, scored), min_size=1, max_size=40))
    rows = scored + draw(st.integers(0 if scored else 1, 3))
    # Player k wins the first wins[k - 1] of the scored trials.
    s = np.where(np.arange(rows)[:, None] < np.array(wins), 1, -1).astype(np.int8)
    s[scored:] = draw(st.sampled_from([1, -1]))
    order = np.array(draw(st.permutations(range(rows))), dtype=np.intp)
    grid_n = draw(st.lists(st.integers(1, len(wins)), min_size=1, max_size=3))
    S = np.cumsum(s[:scored], axis=1)
    reached = sorted({v for n in grid_n for v in S[:, n - 1].tolist() if v > 0})
    eps = st.floats(0.25, 41.0)
    if reached:
        eps |= st.sampled_from(reached) | st.sampled_from(reached).map(float)
    cfg = ExperimentConfig(
        strategy=build_strategy({"name": "constant"}), players=len(wins), trials=rows,
        master_seed=0, azuma_n=tuple(grid_n),
        azuma_eps=tuple(draw(st.lists(eps, min_size=1, max_size=4))),
    )
    result = ExperimentResult(cfg, s[order], order < scored)
    return wins, scored, draw(st.integers(1, 120)), result


class TestRenderJson:
    """``render_json`` spells the per-player rows once per distinct win
    count; ``json.dumps`` of ``to_json()`` is its reference."""

    @staticmethod
    def check(result):
        reference = json.dumps(result.to_json(), sort_keys=True, indent=2) + "\n"
        assert_same_text(result.render_json(), reference)

    @pytest.mark.parametrize("spec, players, trials, depth, seed, distinct", [
        ({"name": "local-random", "p": 0.5}, 1, 5, 0, 0, 1),
        # Players 1-8 win no trial: their cells are 0 and 0.0.
        ({"name": "fns"}, 1100, 10, 8, 1, 2),
        # Every trial quarantined: no scored trial, and freq is null.
        ({"name": "cheat"}, 6, 4, 0, 2, 1),
        # Every player has a win count of its own.
        ({"name": "local-random", "p": 0.5}, 8, 60, 0, 7, 8),
    ])
    def test_matches_the_plain_document(self, spec, players, trials, depth, seed, distinct):
        result = run_experiment(ExperimentConfig(
            strategy=build_strategy(spec), players=players, trials=trials,
            master_seed=seed, override_depth=depth, enable_backdoor=True,
        ))
        assert len(result.win.intervals) == distinct
        assert (result.win.scored_trials == 0) == (spec["name"] == "cheat")
        self.check(result)

    @settings(max_examples=100, deadline=None)
    @given(win_columns())
    def test_random_win_columns(self, run):
        wins, scored, cells, result = run
        cfg = result.config
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiment, "CHUNK_CELLS", cells)
            assert result.win.wins == tuple(wins)
            assert result.win.scored_trials == scored
            assert result.win == win_rate_report(result.records, cfg.players)
            assert result.azuma == azuma_report(result.records, cfg.azuma_n, cfg.azuma_eps)
        self.check(result)


class TestAzumaReport:
    def test_all_win_trajectory_exceeds_everywhere(self):
        records = [make_record((1,) * 16) for _ in range(20)]
        rep = azuma_report(records, grid_n=(16,), grid_eps=(4.0, 8.0, 16.0))
        assert all(p.freq == 1.0 for p in rep.points)
        # The (n=16, eps=4) bound is 2 exp(-1/2) > 1, vacuous: no frequency
        # can violate it.  The two informative points must both fire.
        assert [p.violation for p in rep.points] == [False, True, True]
        assert rep.violations == 2

    def test_balanced_trajectories_stay_inside(self):
        rng = random.Random(2)
        records = [
            make_record(tuple(rng.choice((-1, 1)) for _ in range(32)))
            for _ in range(500)
        ]
        rep = azuma_report(records, grid_n=(16, 32), grid_eps=(8.0, 16.0))
        assert rep.violations == 0

    def test_short_trajectory_names_the_trial(self):
        # Trial 1 is quarantined and never read; trial 2 is the first scored
        # trial without an S_16.
        records = [
            make_record((1,) * 16),
            make_record((1,) * 4, valid=False),
            make_record((1,) * 15),
        ]
        with pytest.raises(ValueError, match=r"^trial 2 has 15 partial sums, fewer than n=16$"):
            azuma_report(records, grid_n=(8, 16), grid_eps=(4.0,))
        assert azuma_report(records, grid_n=(8, 15), grid_eps=(4.0,)).points[0].trials == 2

    def test_csv_shape(self):
        rep = azuma_report([make_record((1,) * 16)], grid_n=(16,), grid_eps=(4.0,))
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "n,epsilon,exceed,trials,freq,bound,margin,violation"
        assert len(lines) == 2


class TestMartingaleAudit:
    def test_iid_log_passes(self):
        rng = random.Random(17)
        records = [
            make_record(tuple(rng.choice((-1, 1)) for _ in range(64)))
            for _ in range(600)
        ]
        rep = martingale_audit(records)
        assert rep.increments_ok
        assert rep.bins_tested > 0
        assert rep.passed

    def test_drift_detected(self):
        records = [make_record((1,) * 32) for _ in range(200)]
        rep = martingale_audit(records)
        assert rep.increments_ok
        assert not rep.passed
        assert all(b.mean == 1.0 for b in rep.bins)

    def test_sign_flip_strategy_detected(self):
        # Next step always opposes the current sum: increments are fair
        # marginally, but conditionally deterministic.
        records = []
        rng = random.Random(5)
        for _ in range(400):
            s = [rng.choice((-1, 1))]
            for _ in range(31):
                s.append(-1 if s[-1] > 0 else 1)
            records.append(make_record(tuple(s)))
        rep = martingale_audit(records)
        assert not rep.passed

    def test_refuses_invalid_and_empty(self):
        with pytest.raises(ValueError):
            martingale_audit([])
        with pytest.raises(ValueError):
            martingale_audit([make_record((1, 1), valid=False)])

    def test_broken_increments_flagged(self):
        good = make_record((1, -1, 1))
        bad = TrialRecord(
            root=good.root,
            outputs=good.outputs,
            s=good.s,
            trajectory=(1, 0, 5),
            threshold=good.threshold,
            valid=True,
        )
        rep = martingale_audit([bad] * 200)
        assert not rep.increments_ok
        assert not rep.passed
        # Steps other than +-1, with trajectories that are their sums: a
        # partial sum past the players has no bin, so none is reported.
        jump = make_record((1, 5, -1))
        rep = martingale_audit([jump] * 200)
        assert (rep.increments_ok, rep.passed, rep.bins) == (False, False, ())
        # So are steps of records built in code, with the partial sums of
        # (1, 1, 1): none is read as 1, nor past the audit's integer type.
        ones = make_record((1, 1, 1))
        for step in ("1", 1.9, 300, None):
            rep = martingale_audit([ones, ones._replace(s=(1, step, 1))] * 100)
            assert (rep.increments_ok, rep.passed, rep.bins) == (False, False, ())

    def test_ragged_steps_name_the_trial(self):
        records = [make_record((1, -1, 1))] * 3 + [make_record((1, -1))]
        with pytest.raises(ValueError, match=r"^trial 3 has 2 steps, trial 0 has 3$"):
            martingale_audit(records)

    def test_ragged_trajectories_are_broken_increments(self):
        good = make_record((1, -1, 1))
        short = good._replace(trajectory=(1, 0))
        for records in ([good, short] * 100, [short, good] * 100, [short] * 200):
            rep = martingale_audit(records)
            assert (rep.increments_ok, rep.passed) == (False, False)
            assert rep.bins == martingale_audit([good] * 200).bins
        # A partial sum is compared as Python compares it: 1.0 equals 1, and
        # 1.5 or "1" equals none of the sums.
        assert martingale_audit([good._replace(trajectory=(1.0, 0, 1))] * 200).increments_ok
        for bad in (1.5, "1", None):
            rep = martingale_audit([good._replace(trajectory=(bad, 0, 1))] * 200)
            assert not rep.increments_ok

    @pytest.mark.parametrize("step", ['"1"', "1.9", "300", "null"])
    def test_read_back_steps_must_be_unit(self, step):
        # A log line whose first step is not 1 or -1 as Python compares them
        # never reaches the readers: the audit would have read "1" and 1.9
        # as 1, and the win-rate report would have counted them as wins.
        good = make_record((1, -1, 1))
        line = good.to_json_line()
        assert '"s":[1,' in line
        bad = line.replace('"s":[1,', f'"s":[{step},')
        with pytest.raises(ValueError, match=r"^step .* is not 1 or -1$"):
            TrialRecord.from_json_line(bad)
        # 1.0 equals 1, and reads back as the same record.
        assert TrialRecord.from_json_line(bad.replace(f"[{step},", "[1.0,")) == good

    def test_single_player_log(self):
        records = [make_record((1,)) for _ in range(150)]
        rep = martingale_audit(records)
        assert rep.increments_ok
        assert rep.bins_tested == 0
        assert rep.passed

    def test_every_place_with_a_step_is_a_bin(self):
        rng = random.Random(1)
        records = [
            make_record(tuple(rng.choice((-1, 1)) for _ in range(4)))
            for _ in range(20)
        ]
        # 20 trials x 3 conditioned steps: each value a step leaves from is
        # a bin, and none of so few steps reaches its boundary.
        rep = martingale_audit(records)
        places = sorted({total for r in records for total in r.trajectory[:-1]})
        assert [b.s_value for b in rep.bins] == places
        assert sum(b.count for b in rep.bins) == 60 and rep.passed
        # Two-step trials put their one conditioned step in the bin S = 1:
        # at two players, 50 up-steps there reach its boundary, 49 do not.
        full = [make_record((1, 1))] * 50
        assert [(b.count, b.ok) for b in martingale_audit(full).bins] == [(50, False)]
        assert [(b.count, b.ok) for b in martingale_audit(full[1:]).bins] == [(49, True)]

    @pytest.mark.parametrize("alpha", [0.5, 0.2])
    def test_boundary_bounds_the_crossing_chance(self, alpha):
        # The exact law of a fair +-1 walk over 4000 steps, with the paths
        # that reach the boundary taken out as they reach it: together they
        # have at most alpha of the probability, and not much less.
        steps = 4000
        values = np.arange(-steps, steps + 1)
        p = np.zeros(len(values))
        p[steps] = 1.0
        crossed = 0.0
        for count in range(1, steps + 1):
            p[1:-1] = 0.5 * (p[:-2] + p[2:])
            hit = np.abs(values) >= experiment.mixture_boundary(count, alpha)
            crossed += p[hit].sum()
            p[hit] = 0.0
        assert alpha / 2 < crossed <= alpha

    @pytest.mark.parametrize(
        "table, players, trials, bins, passed",
        [
            (None, 1, 150, 0, True),  # no step follows another
            ([0, 1, 1, 0], 2, 300, 2, True),
            (None, 64, 100, 63, False),  # fns: every bin of 100 steps, every mean 1
            ([0, 1, 1, 0], 256, 120, 82, True),  # every place a walk left, down to one step
        ],
    )
    def test_run_matches_a_plain_tally(self, table, players, trials, bins, passed):
        spec = {"name": "fns"} if table is None else {"name": "local-table", "table": table}
        cfg = ExperimentConfig(
            strategy=build_strategy(spec), players=players, trials=trials, master_seed=3
        )
        result = run_experiment(cfg)
        report = result.martingale
        assert report.bins == tally_bins(result.s)
        assert (report.bins_tested, report.passed) == (bins, passed)
        assert report.increments_ok and report.trials == trials

    @pytest.mark.parametrize("depth", [0, 2, 8])
    def test_fns_flagged_at_a_hundred_trials(self, depth):
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "fns"}),
            players=64,
            trials=100,
            master_seed=1,
            override_depth=depth,
        )
        report = run_experiment(cfg).martingale
        assert report.increments_ok and not report.passed

    def test_audit_reads_the_block_a_chunk_at_a_time(self):
        # The partial sums are counted a chunk at a time, two bytes a step:
        # the whole block's int64 cumsum and float64 weights are never built.
        s = np.random.default_rng(2).choice(np.array([-1, 1], dtype=np.int8), (4096, 256))
        result = ExperimentResult(config_of(s), s, np.ones(len(s), dtype=bool))
        tracemalloc.start()
        try:
            report = result.martingale
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * s.nbytes
        assert report.trials == 4096 and report.increments_ok

    @pytest.mark.slow
    def test_large_run_audited_in_a_small_peak(self):
        # 10^5 trials of 256 players: the audit's tracemalloc peak was
        # 803 MiB above the 24.4 MiB block while it built whole-block arrays.
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "local-table", "table": [0, 1, 1, 0]}),
            players=256,
            trials=10**5,
            master_seed=1,
        )
        result = run_experiment(cfg)
        tracemalloc.start()
        try:
            report = result.martingale
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        # The oracle: float64 bincounts of the steps by the partial sum
        # before them, 1000 trials at a time.
        counts = np.zeros(2 * 256 - 1, dtype=np.int64)
        sums = np.zeros(2 * 256 - 1)
        for start in range(0, cfg.trials, 1000):
            s = result.s[start : start + 1000]
            before = np.cumsum(s, axis=1, dtype=np.int64)[:, :-1].ravel() + 255
            counts += np.bincount(before, minlength=len(counts))
            sums += np.bincount(before, s[:, 1:].ravel().astype(np.float64), len(sums))
        tested = np.flatnonzero(counts)
        assert [b.s_value for b in report.bins] == (tested - 255).tolist()
        assert [b.count for b in report.bins] == counts[tested].tolist()
        assert [b.mean for b in report.bins] == (sums[tested] / counts[tested]).tolist()
        assert (len(report.bins), sum(not b.ok for b in report.bins)) == (141, 0)


# Histogram widths the fast invariance path is checked at.
INVARIANCE_WIDTHS = (2, 4, 8)


class TestInvariance:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 2.0, 1.0, 0.0, -1.0])
    def test_alpha_validated(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            invariance_test(samples=1600, bins=16, seed=0, alpha=alpha)

    @pytest.mark.parametrize("iterations", [1, 3, 60, 61, 64, 127, 200])
    @pytest.mark.parametrize("sampler", [UNIFORM, ADVERSARIAL])
    def test_fast_path_matches_reference(self, iterations, sampler):
        # Width 2 is the narrowest adversarial histogram; at width 8,
        # iterations 60, 61 and 127 read the window across two hash words.
        # Width 1 (uniform only) and 16 check the bit reversal's transpose
        # at one axis and at many.
        widths = ((1,) if sampler == UNIFORM else ()) + INVARIANCE_WIDTHS + (16,)
        for width in widths:
            fast = _invariance_counts(512, width, 77, iterations, sampler)
            slow = _invariance_counts_reference(512, width, 77, iterations, sampler)
            assert np.array_equal(fast, slow), width

    @pytest.mark.parametrize("sampler", [UNIFORM, ADVERSARIAL])
    def test_bins_reversed_in_one_copy(self, sampler):
        # At width 20 the counts take 8 MiB.  Reversing the bins copies them
        # once; a 2^width index table, and the arrays that build it, would
        # take as much again apiece.
        tracemalloc.start()
        try:
            counts = _invariance_counts(1000, 20, 5, 3, sampler)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * counts.nbytes + 2**20
        assert counts.sum() == 1000

    @pytest.mark.parametrize(
        "sampler, samples",
        [
            # 512 roots in blocks of 100: five full blocks and a remainder.
            pytest.param(UNIFORM, 512, id=UNIFORM),
            pytest.param(ADVERSARIAL, 512, id=ADVERSARIAL),
            pytest.param(UNIFORM, 500, id="exact-multiple"),
            pytest.param(ADVERSARIAL, 60, id="one-short-block"),
            pytest.param(UNIFORM, 101, id="block-plus-one"),
        ],
    )
    def test_blocks_sum_to_the_reference(self, monkeypatch, sampler, samples):
        monkeypatch.setattr(experiment, "INVARIANCE_BLOCK", 100)
        for width in INVARIANCE_WIDTHS:
            fast = experiment._invariance_counts(samples, width, 77, 61, sampler)
            slow = _invariance_counts_reference(samples, width, 77, 61, sampler)
            assert np.array_equal(fast, slow), width

    @pytest.mark.parametrize("offset", [5, 62])
    def test_iterations_beyond_64_bits(self, offset):
        # Hash word 2q with 2q >= 2**64 is still addressed exactly; offset
        # 62 puts the 4-bit window across two words.  The scalar stream
        # reads the same bits at shift `iterations` (no shift loop).
        iterations = 2**70 + offset
        expected = np.zeros(16, dtype=np.int64)
        for i in range(300):
            stream = BitStream.generator(_sample_seed(9, i), shift=iterations)
            expected[int("".join(map(str, stream.bits(4))), 2)] += 1
        fast = _invariance_counts(300, 4, 9, iterations, UNIFORM)
        assert np.array_equal(fast, expected)

    def test_seed_in_64_bits(self):
        assert invariance_test(samples=1600, bins=16, seed=2**64 - 1).samples == 1600
        for seed in (2**64, -1):
            with pytest.raises(ValueError, match=f"^seed must be in 0..{2**64 - 1}, got {seed}$"):
                invariance_test(samples=1600, bins=16, seed=seed)

    def test_bins_bounded_before_allocation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("histogram allocated")

        monkeypatch.setattr(experiment, "_invariance_counts", refuse)
        bins = 2 * experiment.MAX_INVARIANCE_BINS
        with pytest.raises(ValueError, match=f"at most {experiment.MAX_INVARIANCE_BINS}"):
            invariance_test(samples=100 * bins, bins=bins, seed=0)
        with pytest.raises(ValueError, match="at most"):
            invariance_test(samples=100 * 2**40, bins=2**40, seed=0)

    @pytest.mark.parametrize("iterations", [61, 64, 200])
    def test_deep_windows_stay_vectorized(self, monkeypatch, iterations):
        # Windows reaching past the first hash word are read from two words,
        # never from the per-sample stream loop.
        expected = _invariance_counts_reference(256, 4, 3, iterations, UNIFORM)

        def refuse(*args):
            raise AssertionError("per-sample reference path taken")

        monkeypatch.setattr(experiment, "_invariance_counts_reference", refuse)
        fast = experiment._invariance_counts(256, 4, 3, iterations, UNIFORM)
        assert np.array_equal(fast, expected)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 14),
        st.sampled_from(["uniform", "skewed", "all-equal", "one-bin"]),
        st.integers(0, 2**32 - 1),
    )
    def test_chi_square_matches_scipy_stats(self, width, shape, rng_seed):
        # scipy.stats.chisquare is the reference, imported by this test
        # alone.  The library computes the statistic by the same steps, so it
        # is equal bit for bit; its tail is _chi2_sf, not scipy's chdtrc.
        # At these bin counts, against a 45-digit reference, chdtrc's own
        # relative error reaches 1e-12 where the tail is above 1e-30 and
        # 1.7e-11 below, where _chi2_sf's stays under 7e-14 and 6e-13; so
        # the two differ by up to 1.2e-12 and 1.8e-11 there.
        from scipy import stats

        bins = 1 << width
        rng = np.random.default_rng(rng_seed)
        if shape == "uniform":
            counts = rng.integers(0, 1000, size=bins)
        elif shape == "skewed":
            counts = rng.geometric(rng.uniform(0.001, 0.9), size=bins) - 1
            counts[rng.integers(bins)] += 1
        elif shape == "all-equal":
            counts = np.full(bins, rng.integers(1, 10**6))
        else:
            counts = np.zeros(bins, dtype=np.int64)
            counts[rng.integers(bins)] = rng.integers(1, 10**6)
        counts = counts.astype(np.int64)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiment, "_invariance_counts", lambda *args: counts)
            rep = invariance_test(samples=100 * bins, bins=bins, seed=0)
        expected = stats.chisquare(counts)
        assert rep.statistic.hex() == float(expected.statistic).hex()
        ref = float(expected.pvalue)
        rel = 2e-12 if ref >= 1e-30 else 3e-11
        assert abs(rep.pvalue - ref) <= rel * ref + 1e-300

    @pytest.mark.parametrize("width", range(1, 25))
    def test_chi2_sf_matches_chdtrc_on_a_grid(self, width):
        # Statistics from 6 standard deviations below df to 12 above, and
        # 0, 1e-12, 1e-3 and 50·df.  Against a 45-digit reference, _chi2_sf is
        # within 6e-14 on this whole grid.  chdtrc is within 1e-12 except
        # below df at 2^21..2^24 bins, where its own relative error reaches
        # 2.6e-8 (its tail there is near 1); so the bound there is 3e-8.
        from scipy.special import chdtrc

        df = (1 << width) - 1
        sigma = math.sqrt(2 * df)
        points = [df + k * sigma for k in np.arange(-6, 12.25, 0.5)]
        points = sorted([x for x in points if x >= 0] + [0.0, 1e-12, 1e-3, 50.0 * df])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [experiment._chi2_sf(df, x) for x in points]
        assert got[0] == 1.0  # at statistic 0
        assert all(1 >= p >= q >= 0 for p, q in zip(got, got[1:]))
        for x, p in zip(points, got):
            ref = float(chdtrc(df, x))
            rel = 3e-8 if width > 20 and x < df else 1e-12
            assert abs(p - ref) <= rel * ref + 1e-300, (x, p, ref)

    def test_uniform_sampler_accepted(self):
        rep = invariance_test(samples=100_000, bins=64, seed=5)
        assert rep.pvalue > 1e-3
        assert rep.passed

    def test_iteration_composition_accepted(self):
        rep = invariance_test(samples=50_000, bins=16, seed=6, iterations=16)
        assert rep.passed

    def test_adversarial_sampler_rejected(self):
        rep = invariance_test(samples=100_000, bins=64, seed=5, sampler=ADVERSARIAL)
        assert rep.pvalue < 1e-6
        assert not rep.passed

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            invariance_test(samples=1000, bins=3, seed=0)
        with pytest.raises(ValueError):
            invariance_test(samples=100, bins=16, seed=0)
        with pytest.raises(ValueError):
            invariance_test(samples=1000, bins=2, seed=0, sampler=ADVERSARIAL)
        with pytest.raises(ValueError):
            invariance_test(samples=1000, bins=4, seed=0, sampler="biased")
        with pytest.raises(ValueError):
            invariance_test(samples=1000, bins=4, seed=0, iterations=0)


class TestTrialRoot:
    def test_depth_zero_is_pristine(self):
        root = trial_root(42, 0)
        assert root.overrides == ()

    def test_flips_disagree_with_base(self):
        pristine = trial_root(42, 3)
        flipped = trial_root(42, 3, override_depth=4)
        for i in range(1, 5):
            assert flipped.bit_at(i) == 1 - pristine.bit_at(i)
        assert flipped.bit_at(5) == pristine.bit_at(5)

    def test_roots_vary_by_index(self):
        a, b = trial_root(42, 0), trial_root(42, 1)
        assert a.seed != b.seed


# A child process that runs 10^5 trials of 256 players and prints the minor
# page faults its run took, and the bytes of its block of steps.
_FAULT_COUNT = """
import resource
from nsgames.experiment import ExperimentConfig, run_experiment
from nsgames.strategies import build_strategy
cfg = ExperimentConfig(
    strategy=build_strategy({"name": "local-table", "table": [0, 1, 1, 0]}),
    players=256, trials=10**5, master_seed=1,
)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
result = run_experiment(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, result.s.nbytes)
"""


class TestRunExperiment:
    @pytest.mark.slow
    def test_chunk_temporaries_not_faulted_in_again(self):
        # Each chunk's temporaries stay below glibc's 128 KiB mmap threshold,
        # so the heap reuses them: the run faults in little more than its
        # block.  An int64 score block and an intp table index, 512 KiB each a
        # chunk, were mapped and unmapped for every chunk: 88k faults.
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", _FAULT_COUNT],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        ).stdout
        faults, nbytes = map(int, out.split())
        assert faults < 2 * (nbytes // 4096)

    def test_reports_computed_once_from_the_records(self, monkeypatch):
        calls = []
        block_reports = experiment._block_reports
        monkeypatch.setattr(
            experiment, "_block_reports", lambda *args: calls.append(args) or block_reports(*args)
        )
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "constant"}), players=4, trials=3, master_seed=1
        )
        result = run_experiment(cfg)
        for _ in range(2):
            assert result.azuma == azuma_report(result.records, cfg.azuma_n, cfg.azuma_eps)
            assert result.win == win_rate_report(result.records, cfg.players)
        assert calls == [(cfg, result.s, result.valid)]

    @pytest.mark.parametrize("azuma_n", [(7,), (24, 3, 10)])
    @pytest.mark.parametrize("spec", [{"name": "local-random", "p": 0.5}, {"name": "cheat"}])
    def test_azuma_grid_of_any_length_and_order(self, spec, azuma_n):
        # cheat's trials are all quarantined, so its grid counts no trial.
        cfg = ExperimentConfig(
            strategy=build_strategy(spec), players=24, trials=40, master_seed=3,
            azuma_n=azuma_n, azuma_eps=(2.0, 4.0), enable_backdoor=True,
        )
        result = run_experiment(cfg)
        assert [p.n for p in result.azuma.points] == [n for n in azuma_n for _ in range(2)]
        assert azuma_report(result.records, azuma_n, cfg.azuma_eps) == result.azuma

    @pytest.mark.parametrize("azuma_n, azuma_eps", [((24, 3), ()), ((), (2.0,)), ((5,), (4.0, 2))])
    def test_azuma_grid_empty_or_of_int_epsilons(self, azuma_n, azuma_eps):
        # The CLI accepts an empty list for either axis, and integer epsilons.
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "local-random", "p": 0.5}), players=24, trials=40,
            master_seed=3, azuma_n=azuma_n, azuma_eps=azuma_eps,
        )
        result = run_experiment(cfg)
        points = result.azuma.points
        assert [(p.n, p.epsilon) for p in points] == [(n, e) for n in azuma_n for e in azuma_eps]
        assert all(type(p.exceed) is int for p in points)
        assert azuma_report(result.records, azuma_n, azuma_eps) == result.azuma
        assert json.loads(result.render_json())["azuma"] == result.azuma.to_json()

    @pytest.mark.parametrize("spec, depth", [
        ({"name": "fns"}, 3), ({"name": "local-random", "p": 0.5}, 0),
    ])
    def test_win_report_columns(self, spec, depth):
        cfg = ExperimentConfig(
            strategy=build_strategy(spec), players=24, trials=7, master_seed=5, override_depth=depth
        )
        result = run_experiment(cfg)
        win = result.win
        rendered, csv = result.render_json(), win.to_csv()
        assert all(type(w) is int for w in win.wins)
        assert all(type(w) is int for w, _, _ in win.intervals)
        # Reading the derived rows leaves nothing behind that a report shows.
        assert [p["wins"] for p in win.to_json()["per_player"]] == list(win.wins)
        assert (result.render_json(), win.to_csv()) == (rendered, csv)
        assert win_rate_report(result.records, cfg.players) == win

    def test_local_random_half(self):
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "local-random", "p": 0.5}),
            players=8,
            trials=400,
            master_seed=7,
        )
        result = run_experiment(cfg)
        assert result.win.pooled_lo <= 0.5 <= result.win.pooled_hi
        assert result.win.invalid_trials == 0
        assert result.azuma.violations == 0

    def test_fns_all_win(self):
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "fns"}),
            players=16,
            trials=50,
            master_seed=3,
        )
        result = run_experiment(cfg)
        assert result.win.pooled_freq == 1.0
        assert result.win.threshold_hist == ((0, 50),)
        # Deterministic all-win trajectories sit on S_n = n, far outside
        # any non-vacuous concentration envelope; the audit must say so.
        assert all(p.violation for p in result.azuma.points if p.bound < 1.0)
        assert result.azuma.violations >= 2

    def test_fns_override_depth(self):
        depth = 8
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "fns"}),
            players=16,
            trials=30,
            master_seed=3,
            override_depth=depth,
        )
        result = run_experiment(cfg)
        for p in result.win.to_json()["per_player"]:
            assert p["freq"] == (0.0 if p["player"] <= depth else 1.0)
        assert result.win.threshold_hist == ((depth, 30),)

    def test_config_bounds_players(self):
        def config(players):
            return ExperimentConfig(
                strategy=build_strategy({"name": "constant"}),
                players=players,
                trials=3,
                master_seed=0,
            )

        # Constructed, not run: a run at the bound holds a 1 MiB row a trial.
        assert config(experiment.MAX_PLAYERS).players == 1 << 20
        bound = str(experiment.MAX_PLAYERS)
        for players in (experiment.MAX_PLAYERS + 1, 10**10, 0):
            with pytest.raises(ValueError, match=bound):
                config(players)

    @pytest.mark.parametrize("trials, players", [(4096, 256), (10**5, 256), (10**5, 16)])
    def test_reports_held_in_a_flat_peak(self, trials, players):
        # The walk keeps integer totals and one chunk's temporaries, so its
        # tracemalloc peak stays put as the trials grow: about 0.13 MiB here,
        # where whole-run arrays of thresholds and S_n took 2.3 MiB at 10^5
        # trials.  A tenth of the trials are quarantined.
        rng = np.random.default_rng(2)
        s = (2 * rng.integers(0, 2, (trials, players), dtype=np.int8) - 1).astype(np.int8)
        valid = rng.random(trials) < 0.9
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "constant"}), players=players, trials=trials,
            master_seed=0, azuma_eps=(4.0, 8, 16.0),
        )
        result = ExperimentResult(cfg, s, valid)
        tracemalloc.start()
        try:
            win, report = result.win, result.azuma
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 2**20
        scored = s[valid]
        assert win.wins == tuple((scored > 0).sum(axis=0).tolist())
        assert win.invalid_raw_success_rate == float((s[~valid] > 0).mean())
        expected = Counter(last_losing_index(scored).tolist())
        assert win.threshold_hist == tuple(sorted(expected.items()))
        exceed = [
            [int((scored[:, :n].sum(axis=1) >= eps).sum()) for eps in cfg.azuma_eps]
            for n in cfg.azuma_n
        ]
        assert report == experiment._azuma(cfg.azuma_n, cfg.azuma_eps, exceed, len(scored))
        assert sum(p.exceed for p in report.points) > 0

    def test_one_wide_trial_reported_in_its_columns(self):
        # One trial of 2^20 players is one chunk.  The peak, 24 MiB, is the
        # per-player int64 sums, halved in place into the wins, and the list
        # and tuple of the wins as Python ints.
        s = np.ones((1, experiment.MAX_PLAYERS), dtype=np.int8)
        s[0, 5] = -1
        result = ExperimentResult(config_of(s), s, np.ones(1, dtype=bool))
        tracemalloc.start()
        try:
            win, report = result.win, result.azuma
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * 2**20
        assert win.threshold_hist == ((6, 1),) and win.wins.count(0) == 1
        # S_16 = 14 falls short of epsilon 16 alone.
        assert [p.exceed for p in report.points] == [1, 1, 0, 1, 1, 1, 1, 1, 1]

    def test_config_bounds_override_depth(self):
        def config(depth):
            return ExperimentConfig(
                strategy=build_strategy({"name": "fns"}),
                players=4,
                trials=3,
                master_seed=0,
                override_depth=depth,
            )

        # Constructed, not run: a run at the bound builds a large log.
        assert config(experiment.MAX_OVERRIDE_DEPTH).override_depth == 1 << 20
        bound = str(experiment.MAX_OVERRIDE_DEPTH)
        for depth in (experiment.MAX_OVERRIDE_DEPTH + 1, -1):
            with pytest.raises(ValueError, match=bound):
                config(depth)

    @pytest.mark.parametrize("field, value", [
        ("players", 2.0),
        ("players", True),
        ("trials", 2.5),
        ("trials", "3"),
        ("master_seed", 1.5),
        ("master_seed", False),
        ("override_depth", 1.0),
        ("azuma_n", (1.0,)),
        ("azuma_n", (2, True)),
    ])
    def test_config_rejects_a_non_integer(self, field, value):
        # Refused when built: a run would fail late, with a TypeError from
        # numpy or from the seed hash.
        settings = {"players": 4, "trials": 2, "master_seed": 0, field: value}
        name = "azuma_n entry" if field == "azuma_n" else field
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            ExperimentConfig(strategy=build_strategy({"name": "constant"}), **settings)

    def test_config_seed_in_64_bits(self):
        def config(seed):
            return ExperimentConfig(
                strategy=build_strategy({"name": "constant"}), players=4, trials=2,
                master_seed=seed,
            )

        assert config(2**64 - 1).master_seed == 2**64 - 1
        for seed in (2**64, -1):
            with pytest.raises(ValueError, match=f"^seed must be in 0..{2**64 - 1}, got {seed}$"):
                config(seed)

    def test_config_takes_numpy_integers(self):
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "constant"}),
            players=np.int64(4),
            trials=np.int32(2),
            master_seed=np.uint64(7),
            azuma_n=(np.int8(2),),
        )
        assert cfg.players == 4 and cfg.azuma_n == (2,)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_config_rejects_bad_epsilon(self, eps):
        with pytest.raises(ValueError):
            ExperimentConfig(
                strategy=build_strategy({"name": "constant"}),
                players=4,
                trials=1,
                master_seed=0,
                azuma_eps=(4.0, eps),
            )

    def test_chunks_tile_the_run(self, monkeypatch):
        recorded = record_chunks(monkeypatch)

        def chunks_of(trials, players=64, depth=0, strategy=build_strategy({"name": "constant"})):
            recorded.clear()
            run_experiment(ExperimentConfig(
                strategy=strategy,
                players=players,
                trials=trials,
                master_seed=0,
                override_depth=depth,
            ))
            return list(recorded)

        # Contiguous chunks from 0 to the trial count, each of at most
        # CHUNK_CELLS cells; an override depth past the players widens a row.
        for trials, players, depth in ((10**4, 64, 0), (200, 4, 1000)):
            chunks = chunks_of(trials, players, depth)
            assert chunks[0][0] == 0 and chunks[-1][1] == trials
            assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
            width = max(players, depth)
            assert all(width * (stop - start) <= experiment.CHUNK_CELLS for start, stop in chunks)
        assert chunks_of(3) == [(0, 3)]
        assert chunks_of(6000, players=16) == [(0, 4096), (4096, 6000)]
        assert chunks_of(200, players=4, depth=1000) == [(0, 65), (65, 130), (130, 195), (195, 200)]
        assert chunks_of(5, strategy=GuessOnly()) == [(0, 5)]
        assert chunks_of(1, players=10**6) == [(0, 1)]

    @pytest.mark.parametrize("depth, chunks", [(3, 5), (30, 16)])
    def test_every_pass_walks_the_run_chunks(self, monkeypatch, depth, chunks):
        # The win and Azuma reports walk the chunks the run played once
        # between them, and the martingale audit and the trial log read the
        # block in those chunks too, whether the 10 players or an override
        # depth past them set a row's width.
        monkeypatch.setattr(experiment, "CHUNK_CELLS", 100)
        played = record_chunks(monkeypatch)
        walked, read = [], []
        cut, martingale = experiment._chunks, experiment._martingale

        def walk(cfg):
            for chunk in cut(cfg):
                walked.append(chunk)
                yield chunk

        def audit(steps, trials, players):
            steps = list(steps)
            read.extend(len(s) for s in steps)
            return martingale(steps, trials, players)

        monkeypatch.setattr(experiment, "_chunks", walk)
        monkeypatch.setattr(experiment, "_martingale", audit)
        result = run_experiment(ExperimentConfig(
            strategy=build_strategy({"name": "local-table", "table": [0, 1, 1, 0]}),
            players=10,
            trials=47,
            master_seed=2,
            override_depth=depth,
        ))
        assert len(played) == chunks
        walked.clear()
        result.win, result.azuma, result.win
        assert walked == played
        result.martingale
        assert read == [stop - start for start, stop in played]
        assert [text.count("\n") for text in result.trial_log_slices()] == read

    @pytest.mark.parametrize(
        "spec", [None, {"name": "cheat"}, {"name": "local-table", "table": [1, 0, 0, 1]}]
    )
    def test_outputs_independent_of_chunks_and_workers(self, monkeypatch, spec):
        """report.json, the CSVs and trials.jsonl, at two chunk sizes, on
        the scalar path (GuessOnly, cheat) and on a batch kernel.  Every run
        plays in the calling process, so no worker count is left to vary."""
        strategy = GuessOnly() if spec is None else build_strategy(spec)
        chunks = record_chunks(monkeypatch)

        def outputs():
            cfg = ExperimentConfig(
                strategy=strategy,
                players=10,
                trials=30,
                master_seed=12,
                override_depth=3,
                enable_backdoor=True,
                enforce_contracts=False,
            )
            chunks.clear()
            result = run_experiment(cfg)
            return len(chunks), (
                result.render_json(),
                result.win.to_csv(),
                result.azuma.to_csv(),
                result.trial_log(),
            )

        default = outputs()
        monkeypatch.setattr(experiment, "CHUNK_CELLS", 100)
        small = outputs()
        assert (default[0], small[0]) == (1, 3)
        assert default[1] == small[1]

    def test_quarantine_counted(self):
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "cheat"}),
            players=4,
            trials=6,
            master_seed=2,
            enable_backdoor=True,
        )
        result = run_experiment(cfg)
        assert result.win.invalid_trials == 6
        assert result.win.scored_trials == 0
        assert result.win.invalid_raw_success_rate == 1.0
