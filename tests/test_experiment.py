"""Aggregation, concentration bounds, the martingale audit, invariance."""

import itertools
import math
import random

import numpy as np
import pytest

import nsgames.experiment as experiment
from nsgames.experiment import (
    ADVERSARIAL,
    UNIFORM,
    ExperimentConfig,
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
)
from nsgames.game import TrialRecord
from nsgames.strategies import build_strategy


def ref_wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Interval endpoints as roots of (p-hat)^2 = z^2 p(1-p)/t, solved
    numerically rather than via the closed form under test."""
    p_hat = successes / trials
    z2 = z * z / trials
    roots = np.roots([1 + z2, -(2 * p_hat + z2), p_hat * p_hat])
    lo, hi = sorted(float(r.real) for r in roots)
    return max(0.0, lo), min(1.0, hi)


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
        assert [p.wins for p in rep.per_player] == [3, 3, 3]
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
            sum(p.freq for p in rep.per_player) / 5
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
        assert all(p.trials == 1 for p in rep.per_player)
        assert rep.threshold_hist == ((0, 1),)

    def test_csv_shape(self):
        rep = win_rate_report([make_record((1, -1))], players=2)
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "player,wins,trials,freq,lo,hi"
        assert len(lines) == 3

    def test_empty_log(self):
        rep = win_rate_report([], players=2)
        assert rep.pooled_freq is None
        assert all(p.freq is None for p in rep.per_player)


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

    def test_single_player_log(self):
        records = [make_record((1,)) for _ in range(150)]
        rep = martingale_audit(records)
        assert rep.increments_ok
        assert rep.bins_tested == 0
        assert rep.passed

    def test_min_bin_count_gates_small_logs(self):
        rng = random.Random(1)
        records = [
            make_record(tuple(rng.choice((-1, 1)) for _ in range(4)))
            for _ in range(20)
        ]
        rep = martingale_audit(records, min_bin_count=100)
        assert rep.bins_tested == 0


class TestInvariance:
    @pytest.mark.parametrize("iterations", [1, 3])
    @pytest.mark.parametrize("sampler", [UNIFORM, ADVERSARIAL])
    def test_fast_path_matches_reference(self, iterations, sampler):
        fast = _invariance_counts(512, 4, 77, iterations, sampler)
        slow = _invariance_counts_reference(512, 4, 77, iterations, sampler)
        assert np.array_equal(fast, slow)

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


class TestRunExperiment:
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
        for p in result.win.per_player:
            assert p.freq == (0.0 if p.player <= depth else 1.0)
        assert result.win.threshold_hist == ((depth, 30),)

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

    def test_parallelism_does_not_change_bytes(self):
        def run(par):
            cfg = ExperimentConfig(
                strategy=build_strategy({"name": "local-table", "table": [0, 1, 1, 0]}),
                players=8,
                trials=64,
                master_seed=11,
                parallelism=par,
            )
            result = run_experiment(cfg)
            return result.render_json(), result.trial_log()

        assert run(1) == run(2)

    def test_plan_clamps_workers(self, monkeypatch):
        monkeypatch.setattr(experiment, "_cpu_count", lambda: 4)

        def plan(parallelism, trials, players=64):
            cfg = ExperimentConfig(
                strategy=build_strategy({"name": "constant"}),
                players=players,
                trials=trials,
                master_seed=0,
                parallelism=parallelism,
            )
            return experiment._plan(cfg)

        # No pool is started here: the plan is computed, never run.
        chunks, workers = plan(10**6, 10**4)
        assert workers == 4
        assert chunks[0][0] == 0 and chunks[-1][1] == 10**4
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert all(64 * (stop - start) <= experiment.CHUNK_CELLS for start, stop in chunks)
        assert plan(10**6, 3) == ([(0, 1), (1, 2), (2, 3)], 3)
        assert plan(2, 6000, players=16) == ([(0, 3000), (3000, 6000)], 2)
        assert plan(1, 5) == ([(0, 5)], 1)
        assert plan(3, 1, players=10**6) == ([(0, 1)], 1)

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
