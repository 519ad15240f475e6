"""Aggregation, concentration bounds, the martingale audit, invariance."""

import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsgames.experiment as experiment
from nsgames.bitstream import BitStream
from nsgames.experiment import (
    ADVERSARIAL,
    UNIFORM,
    ExperimentConfig,
    azuma_bound,
    azuma_report,
    dumps_indented,
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
from nsgames.game import TrialRecord
from nsgames.strategies import STRATEGY_PARAMS, Strategy, build_strategy


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
        assert rep.wins == (0, 0) and type(rep.wins[0]) is int
        assert rep.pooled_freq is None
        assert all(p.freq is None for p in rep.per_player)

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
        assert [(p.lo, p.hi) for p in rep.per_player] == [
            wilson_interval(p.wins, 2) for p in rep.per_player
        ]


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**64) - 1, 10**300]),
    st.floats(),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16]),
    st.text(),
    st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f\n\t", "\u00e9\u2028", "\U0001f600"]),
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(st.text(), children),
    ),
    max_leaves=25,
)

# The cells of one table column: a single type, or a mix of types.
table_columns = st.sampled_from([
    st.floats(),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.one_of(st.floats(), st.none()),
    st.one_of(st.booleans(), st.integers()),
    json_scalars,
])


@st.composite
def json_tables(draw):
    """A list (or tuple) of 1-40 dicts with the same keys and scalar cells,
    each row's keys inserted in an order of its own."""
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=5, unique=True))
    columns = {key: draw(table_columns) for key in keys}
    rows = [
        {key: draw(columns[key]) for key in draw(st.permutations(keys))}
        for _ in range(draw(st.integers(1, 40)))
    ]
    return draw(st.sampled_from([list, tuple]))(rows)


class TestDumpsIndented:
    @settings(max_examples=150, deadline=None)
    @given(json_trees)
    def test_matches_json_dumps(self, doc):
        assert dumps_indented(doc) == json.dumps(doc, sort_keys=True, indent=2)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        json_tables(),
        st.dictionaries(st.text(max_size=3), json_tables(), min_size=1, max_size=3),
        st.builds(lambda t, n: {"outer": {"table": t, "n": n}}, json_tables(), st.integers()),
    ))
    def test_tables_match_json_dumps(self, doc):
        assert dumps_indented(doc) == json.dumps(doc, sort_keys=True, indent=2)

    @pytest.mark.parametrize("doc", [
        {}, [], (), {"a": []}, [{}], {"b": 1, "a": {"d": [], "c": -0.0}},
        [0.0, -0.0, 0.0, -0.0], [0.1, 0.1, -0.1], ["", "", ""],
        # Tables, and lists that stop being one partway through.
        [{"b": 1, "a": -0.0}, {"a": 0.0, "b": True}, {"b": None, "a": 0.0}],
        [{"a": 1, "b": 2}, {"a": 3, "b": 4, "c": 5}],
        [{"a": 1, "b": 2}, {"a": 3}],
        [{"a": 1, "b": 2}, {"a": 3, "c": 4}],
        [{"a": 1}, {"a": [1, {"b": 2}]}],
        [{"a": 1}, {"a": {}}],
        [{"a": 1}, 2],
        [{"a": 1}, [{"a": 1}]],
        [{"a": 1}, {}],
        {"t": [{"x": 0.5}, {"x": 0.5}], "u": [{"y": "z"}]},
    ])
    def test_edge_cases(self, doc):
        assert dumps_indented(doc) == json.dumps(doc, sort_keys=True, indent=2)

    @pytest.mark.parametrize("doc", [
        {1, 2}, b"x", np.int64(3), np.float64(0.5), {1: 2}, {"a": 1, 2: 3}, [{"a": {None: 0}}],
        [object()],
        [{"a": 1}, {"a": np.int64(3)}], [{"a": np.float64(0.5)}], [{1: 2}, {1: 3}],
    ])
    def test_other_types_raise(self, doc):
        with pytest.raises(TypeError):
            dumps_indented(doc)


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
        # 20 trials x 3 conditioned steps: no bin reaches 100.
        rep = martingale_audit(records)
        assert rep.bins_tested == 0
        # Two-step trials put their one conditioned step in the bin S = 1:
        # 100 of them fill it, 99 do not.
        full = [make_record((1, 1))] * 100
        assert martingale_audit(full).bins_tested == 1
        assert martingale_audit(full[1:]).bins_tested == 0


class TestInvariance:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 2.0, 1.0, 0.0, -1.0])
    def test_alpha_validated(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            invariance_test(samples=1600, bins=16, seed=0, alpha=alpha)

    @pytest.mark.parametrize("iterations", [1, 3, 60, 61, 64, 127, 200])
    @pytest.mark.parametrize("sampler", [UNIFORM, ADVERSARIAL])
    def test_fast_path_matches_reference(self, iterations, sampler):
        fast = _invariance_counts(512, 4, 77, iterations, sampler)
        slow = _invariance_counts_reference(512, 4, 77, iterations, sampler)
        assert np.array_equal(fast, slow)

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
        fast = experiment._invariance_counts(samples, 4, 77, 61, sampler)
        slow = _invariance_counts_reference(samples, 4, 77, 61, sampler)
        assert np.array_equal(fast, slow)

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

    def test_bins_bounded_before_allocation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("histogram allocated")

        monkeypatch.setattr(experiment, "_invariance_counts", refuse)
        monkeypatch.setattr(experiment, "_bit_reversal_table", refuse)
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
    def test_reports_computed_once_from_the_records(self, monkeypatch):
        calls = []

        def counted(builder):
            return lambda *args: calls.append(builder) or builder(*args)

        block_win_rate, block_azuma = experiment._block_win_rate, experiment._block_azuma
        monkeypatch.setattr(experiment, "_block_win_rate", counted(block_win_rate))
        monkeypatch.setattr(experiment, "_block_azuma", counted(block_azuma))
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "constant"}), players=4, trials=3, master_seed=1
        )
        result = run_experiment(cfg)
        for _ in range(2):
            assert result.win == win_rate_report(result.records, cfg.players)
            assert result.azuma == azuma_report(result.records, cfg.azuma_n, cfg.azuma_eps)
        assert calls == [block_win_rate, block_azuma]

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
        assert [p.wins for p in win.per_player] == list(win.wins)
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

        def plan(parallelism, trials, players=64, strategy=GuessOnly()):
            cfg = ExperimentConfig(
                strategy=strategy,
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
        # A strategy with a batch kernel runs in the calling process.
        params = {"local-table": {"table": [0, 1]}, "local-random": {"p": 0.5},
                  "shared-mixture": {"tables": [[0, 1]]}}
        for name in sorted(set(STRATEGY_PARAMS) - {"cheat"}):
            strategy = build_strategy({"name": name, **params.get(name, {})})
            assert plan(10**6, 10**4, strategy=strategy)[1] == 1, name
            assert plan(2, 6000, players=16, strategy=strategy) == ([(0, 4096), (4096, 6000)], 1)
        assert plan(2, 6000, players=16, strategy=build_strategy({"name": "cheat"}))[1] == 2

    @pytest.mark.parametrize(
        "spec", [None, {"name": "cheat"}, {"name": "local-table", "table": [1, 0, 0, 1]}]
    )
    def test_outputs_independent_of_chunks_and_workers(self, monkeypatch, spec):
        """report.json, the CSVs and trials.jsonl, at parallelism 1 and 2 and
        at two chunk sizes.  Only the scalar-path strategies get 2 workers."""
        monkeypatch.setattr(experiment, "_cpu_count", lambda: 2)
        strategy = GuessOnly() if spec is None else build_strategy(spec)
        pooled = spec is None or spec["name"] == "cheat"

        def outputs():
            runs = []
            for parallelism in (1, 2):
                cfg = ExperimentConfig(
                    strategy=strategy,
                    players=10,
                    trials=30,
                    master_seed=12,
                    override_depth=3,
                    parallelism=parallelism,
                    enable_backdoor=True,
                    enforce_contracts=False,
                )
                assert experiment._plan(cfg)[1] == (parallelism if pooled else 1)
                result = run_experiment(cfg)
                runs.append((
                    result.render_json(),
                    result.win.to_csv(),
                    result.azuma.to_csv(),
                    result.trial_log(),
                ))
            return runs

        default = outputs()
        monkeypatch.setattr(experiment, "CHUNK_CELLS", 100)
        small = outputs()
        assert default[0] == default[1] == small[0] == small[1]

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
