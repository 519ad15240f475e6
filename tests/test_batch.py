"""The batch path against its scalar reference.

Strategies with a batch kernel play whole chunks of trials as array
computations; run_trial plays one trial at a time.  For every config the
two must write the same trial log and report, byte for byte.
"""

import contextlib
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nsgames.experiment as experiment
import nsgames.strategies as strategies
from nsgames.bitstream import BitStream
from nsgames.experiment import ExperimentConfig, martingale_audit, run_experiment
from nsgames.game import GameSpec, TrialRecord, run_trial
from nsgames.seeding import GOLDEN, MASK64, _mix64_inplace, child_seed, child_seed_np, mix64
from nsgames.strategies import (
    STRATEGY_PARAMS,
    FnsStrategy,
    LocalTableStrategy,
    Strategy,
    build_strategy,
)

from helpers import assert_same_text, record_chunks

tables = st.integers(0, 3).flatmap(
    lambda m: st.lists(st.integers(0, 1), min_size=1 << m, max_size=1 << m)
)


def _mixture(components):
    tables_, weights = zip(*components)
    return {"name": "shared-mixture", "tables": list(tables_), "weights": list(weights)}


batch_specs = st.one_of(
    st.just({"name": "fns"}),
    st.builds(lambda v: {"name": "constant", "value": v}, st.integers(0, 1)),
    st.builds(lambda t: {"name": "local-table", "table": t}, tables),
    st.builds(lambda p: {"name": "local-random", "p": p}, st.floats(0.0, 1.0)),
    st.builds(
        _mixture,
        st.lists(st.tuples(tables, st.floats(0.01, 1.0)), min_size=1, max_size=4),
    ),
)


def assert_same_bytes(result, reference):
    assert_same_text(result.trial_log(), reference.trial_log())
    assert_same_text(result.render_json(), reference.render_json())


def record_lines(result):
    """The trial log as the records' to_json_line writes it."""
    return "".join(r.to_json_line() + "\n" for r in result.records)


def kernel_args(trials, players, m):
    views = np.zeros((trials, players, m), dtype=np.uint8)
    seeds = np.zeros(trials, dtype=np.uint64)
    return views, seeds, seeds


class ViewRecorder(Strategy):
    """Answers 0 everywhere and keeps the views its kernel was handed."""

    def __init__(self, m):
        self.view_bits = m
        self.views = None

    def guess(self, ctx):
        return 0

    def guess_batch(self, views, trial_seeds, root_seeds):
        self.views = views
        return np.zeros(views.shape[:2], dtype=np.uint8)


class SometimesCheat(Strategy):
    """Reads its target through the backdoor in odd-seeded trials only, so
    quarantined and scored trials share a block."""

    name = "sometimes-cheat"

    def guess(self, ctx):
        return ctx.root_bit(ctx.player) if ctx.shared_seed % 2 else 0


class TestArrayHash:
    def test_mix64_matches_scalar(self):
        rng = random.Random(5)
        words = [rng.getrandbits(64) for _ in range(2000)]
        words += [0, 1, MASK64, MASK64 - 1, 1 << 63, GOLDEN]
        z = np.array(words, dtype=np.uint64)
        got = _mix64_inplace(z, np.empty_like(z))
        assert got is z and got.dtype == np.uint64
        assert got.tolist() == [mix64(w) for w in words]

    def test_child_seed_matches_scalar_including_wrap(self):
        rng = random.Random(6)
        seeds = [rng.getrandbits(64) for _ in range(1000)]
        indices = [rng.getrandbits(64) for _ in range(1000)]
        # Seeds and indices near 2**64: seed + (index + 1) * GOLDEN wraps.
        seeds += [MASK64, MASK64 - GOLDEN, 0, MASK64]
        indices += [0, 1, MASK64, MASK64 - 1]
        got = child_seed_np(np.array(seeds, dtype=np.uint64), np.array(indices, dtype=np.uint64))
        assert got.tolist() == [child_seed(s, i) for s, i in zip(seeds, indices)]

    def test_scalar_arguments_broadcast_without_warning(self):
        # A single seed is kept an array, so the wrap is silent (the suite
        # turns RuntimeWarnings into errors).
        got = child_seed_np(MASK64, np.arange(4))
        assert got.tolist() == [child_seed(MASK64, i) for i in range(4)]
        assert child_seed_np(MASK64, 3).tolist() == [child_seed(MASK64, 3)]

    def test_inputs_left_unchanged(self):
        # child_seed_np hashes in place on a fresh array, never on its
        # arguments; the kernel writes only its two buffers, and a view of
        # one hashes only its own words.
        words = np.array([0, 1, MASK64, GOLDEN, 5], dtype=np.uint64)
        seeds = np.array([3, MASK64], dtype=np.uint64)
        indices = np.array([0, 7], dtype=np.uint64)
        kept = words.copy(), seeds.copy(), indices.copy()
        _mix64_inplace(words[:4], np.empty(4, dtype=np.uint64))
        assert words.tolist() == [*(mix64(int(z)) for z in kept[0][:4]), 5]
        child_seed_np(seeds, indices)
        child_seed_np(seeds[:, None], indices)
        for arg, copy in zip((seeds, indices), kept[1:]):
            assert np.array_equal(arg, copy)

    def test_zero_dimensional_inputs(self):
        # A 0-d array hashes without warning on the wrap (the suite turns
        # RuntimeWarnings into errors), and child_seed_np keeps its result
        # an array.
        word = np.array(MASK64, dtype=np.uint64)
        assert _mix64_inplace(word, np.empty_like(word)).tolist() == mix64(MASK64)
        seed = np.array(MASK64, dtype=np.uint64)
        got = child_seed_np(seed, np.array(5, dtype=np.uint64))
        assert got.tolist() == [child_seed(MASK64, 5)]
        assert child_seed_np(np.uint64(GOLDEN), 0).tolist() == [child_seed(GOLDEN, 0)]
        assert seed == MASK64

    def test_column_by_row_broadcast(self):
        # The [T, 1] x [W] grid generator_bits hashes: seed t, word 2w.
        rng = random.Random(7)
        seeds = [rng.getrandbits(64) for _ in range(50)] + [0, MASK64]
        words = 2 * np.arange(3)
        got = child_seed_np(np.array(seeds, dtype=np.uint64)[:, None], words)
        assert got.shape == (len(seeds), 3)
        assert got.tolist() == [[child_seed(s, int(w)) for w in words] for s in seeds]


class TestBatchEqualsScalar:
    # cheat, under the backdoor, is quarantined on every trial.
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(batch_specs, st.just({"name": "cheat"})),
        st.integers(1, 140),
        st.integers(1, 24),
        st.integers(0, MASK64),
        st.integers(0, 70),
    )
    @example({"name": "local-table", "table": [0, 1, 1, 0]}, 5, 3, 1, 12)
    @example({"name": "cheat"}, 5, 3, 1, 12)
    def test_random_configs(self, scalar_reference, spec, players, trials, seed, depth):
        cfg = ExperimentConfig(
            strategy=build_strategy(spec),
            players=players,
            trials=trials,
            master_seed=seed,
            override_depth=depth,
            enable_backdoor=spec["name"] == "cheat",
        )
        result, reference = run_experiment(cfg), scalar_reference(cfg)
        assert_same_bytes(result, reference)
        # repr also tells the override keys' order, and an int from a numpy
        # integer.
        assert result.records == reference.records
        assert repr(result.records) == repr(reference.records)
        if result.valid.all():
            assert result.martingale == martingale_audit(reference.records)

    def test_many_chunks(self, scalar_reference, monkeypatch):
        monkeypatch.setattr(experiment, "CHUNK_CELLS", 100)
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "local-table", "table": [1, 1, 1, 0, 0, 1, 0, 0]}),
            players=30,
            trials=50,
            master_seed=4,
            override_depth=2,
        )
        chunks = record_chunks(monkeypatch)
        assert_same_bytes(run_experiment(cfg), scalar_reference(cfg))
        assert len(chunks) == 17

    def test_deep_overrides_keep_chunks_bounded(self, monkeypatch):
        # Override depth beyond the player count widens every row of root
        # bits; the chunks shrink so that each stays within CHUNK_CELLS.
        sizes = []
        generator_bits = experiment.generator_bits

        def recording(seeds, width):
            bits = generator_bits(seeds, width)
            sizes.append(bits.size)
            return bits

        monkeypatch.setattr(experiment, "generator_bits", recording)
        chunks = record_chunks(monkeypatch)
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "fns"}),
            players=4,
            trials=16384,
            master_seed=5,
            override_depth=2048,
        )
        result = run_experiment(cfg)
        assert len(sizes) == len(chunks) == 512
        assert max(sizes) <= experiment.CHUNK_CELLS
        # The run keeps s and valid alone: the 2048 override flips of each
        # root are regenerated from its seed.
        assert result.s.nbytes + result.valid.nbytes == 16384 * 5
        assert result.win.wins == (0, 0, 0, 0)

    @pytest.mark.parametrize("spec", [{"name": "fns"}, {"name": "local-table", "table": [1, 0]}])
    def test_deep_overrides_independent_of_chunk_cells(self, scalar_reference, monkeypatch, spec):
        cfg = ExperimentConfig(
            strategy=build_strategy(spec),
            players=4,
            trials=40,
            master_seed=6,
            override_depth=50,
        )
        reference = scalar_reference(cfg)
        for cells in (experiment.CHUNK_CELLS, 200, 100, 37):
            monkeypatch.setattr(experiment, "CHUNK_CELLS", cells)
            assert_same_bytes(run_experiment(cfg), reference)

    def test_root_bits_match_trial_root(self):
        # A row of 130 bits, max(players + view_bits, override_depth), spans
        # three 64-bit hash words.
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "constant"}),
            players=130,
            trials=5,
            master_seed=8,
            override_depth=3,
        )
        seeds, bits = experiment._roots(cfg, 2, 5)
        assert bits.shape == (3, 130)
        for seed, row, t in zip(seeds.tolist(), bits.tolist(), range(2, 5)):
            root = experiment.trial_root(cfg.master_seed, t, cfg.override_depth)
            assert seed == root.seed
            assert row == root.bits(130)
        # A kernel's views are read-only windows of these bits: player k's
        # is root bits k + 1..k + m, so its own target, bit k, is never in it.
        for depth in (0, 3):
            for m in range(4):
                recorder = ViewRecorder(m)
                cfg = ExperimentConfig(
                    strategy=recorder, players=4, trials=5, master_seed=8,
                    override_depth=depth,
                )
                experiment._run_chunk(cfg, 2, 5)
                views = recorder.views
                assert views.shape == (3, 4, m)
                assert not views.flags.writeable
                for t in range(2, 5):
                    root = experiment.trial_root(cfg.master_seed, t, depth)
                    for k in range(1, 5):
                        assert views[t - 2, k - 1, :].tolist() == root.bits(m, start=k + 1)

    @pytest.mark.parametrize("depth", [0, 3])
    def test_fns_unchanged(self, scalar_reference, monkeypatch, depth):
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "fns"}),
            players=20,
            trials=5,
            master_seed=9,
            override_depth=depth,
        )
        reference = scalar_reference(cfg)

        def refuse(spec):
            raise AssertionError("a trial left the batch path")

        monkeypatch.setattr(experiment, "run_trial", refuse)
        assert_same_bytes(run_experiment(cfg), reference)

    def test_fns_kernel_ignores_root_bits(self):
        # The flips live in the view bits; the kernel reads only seeds.
        seeds = np.array([3, MASK64], dtype=np.uint64)
        strategy = build_strategy({"name": "fns"})
        assert strategy.view_bits == 0
        zeros = np.zeros((2, 40, 2), dtype=np.uint8)
        out = strategy.guess_batch(zeros, seeds, seeds)
        assert np.array_equal(out, strategy.guess_batch(1 - zeros, seeds, seeds))
        assert out.tolist() == [BitStream.generator(s).bits(40) for s in seeds.tolist()]


class TestKernelIsolation:
    def test_writing_kernel_cannot_raise_its_score(self, scalar_reference):
        players = 32

        class Overwriter(Strategy):
            """Tries to zero whatever array it is handed first, targets
            included, then answers 0 everywhere."""

            view_bits = 1

            def guess(self, ctx):
                return 0

            def guess_batch(self, data, *seeds):
                with contextlib.suppress(ValueError):
                    data[...] = 0
                return np.zeros((data.shape[0], players), dtype=np.uint8)

        cfg = ExperimentConfig(
            strategy=Overwriter(), players=players, trials=200, master_seed=1
        )
        result = run_experiment(cfg)
        assert result.win.invalid_trials == 0
        assert result.win.pooled_freq < 0.55
        assert_same_bytes(result, scalar_reference(cfg))


class TestScalarOnly:
    def test_only_cheat_has_no_kernel(self):
        params = {"local-table": {"table": [0, 1]}, "local-random": {"p": 0.5},
                  "shared-mixture": {"tables": [[0, 1]]}}
        for name in STRATEGY_PARAMS:
            strategy = build_strategy({"name": name, **params.get(name, {})})
            outputs = strategy.guess_batch(*kernel_args(1, 4, strategy.view_bits))
            assert (outputs is None) == (name == "cheat"), name

    def test_fns_reference_asks_oracle_once_per_player(self, monkeypatch):
        asked, handles = [], []
        class_of = strategies.class_of
        canonical_representative = strategies.canonical_representative

        def class_spy(member):
            asked.append(member)
            return class_of(member)

        def representative_spy(handle):
            handles.append(handle)
            return canonical_representative(handle)

        monkeypatch.setattr(strategies, "class_of", class_spy)
        monkeypatch.setattr(strategies, "canonical_representative", representative_spy)
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "fns"}),
            players=7,
            trials=3,
            master_seed=5,
            override_depth=2,
        )
        root = experiment.trial_root(cfg.master_seed, 1, cfg.override_depth)
        run_trial(GameSpec(cfg.players, root, cfg.strategy))
        # Player k's padded view: the root's seed at shift 0, k zeros first.
        assert [(m.seed, m.shift, m.zero_prefix) for m in asked] == [
            (root.seed, 0, k) for k in range(1, 8)
        ]
        assert [(h.seed, h.shift) for h in handles] == [(root.seed, 0)] * 7

    def test_fns_subclass_overriding_guess_stays_scalar(self, scalar_reference):
        class Contrary(FnsStrategy):
            def guess(self, ctx):
                return 1 - super().guess(ctx)

        strategy = Contrary()
        assert strategy.guess_batch(*kernel_args(1, 4, 0)) is None
        cfg = ExperimentConfig(strategy=strategy, players=8, trials=4, master_seed=3)
        result = run_experiment(cfg)
        assert_same_bytes(result, scalar_reference(cfg))
        assert all(set(r.s) == {-1} for r in result.records)

    def test_subclass_overriding_guess_stays_scalar(self, scalar_reference):
        class Inverted(LocalTableStrategy):
            def guess(self, ctx):
                return 1 - super().guess(ctx)

        strategy = Inverted([0, 1])
        assert strategy.guess_batch(*kernel_args(1, 4, 1)) is None
        cfg = ExperimentConfig(strategy=strategy, players=8, trials=6, master_seed=1)
        result = run_experiment(cfg)
        assert_same_bytes(result, scalar_reference(cfg))
        plain = run_experiment(
            ExperimentConfig(
                strategy=LocalTableStrategy([0, 1]), players=8, trials=6, master_seed=1
            )
        )
        flipped = [tuple(1 - a for a in r.outputs) for r in plain.records]
        assert [r.outputs for r in result.records] == flipped

    def test_subclass_defining_both_keeps_its_kernel(self):
        class Both(Strategy):
            def guess(self, ctx):
                return 0

            def guess_batch(self, views, trial_seeds, root_seeds):
                return np.zeros(views.shape[:2], dtype=np.uint8)

        outputs = Both().guess_batch(*kernel_args(2, 3, 0))
        assert outputs.shape == (2, 3)

    def test_quarantined_cheat_unchanged(self, scalar_reference):
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "cheat"}),
            players=5,
            trials=4,
            master_seed=2,
            enable_backdoor=True,
        )
        assert_same_bytes(run_experiment(cfg), scalar_reference(cfg))


class TestTrialLogWriter:
    """The fixed-format writer against the records' to_json_line."""

    @staticmethod
    def check(scalar_reference, spec, players=12, trials=6, **kwargs):
        strategy = spec if isinstance(spec, Strategy) else build_strategy(spec)
        cfg = ExperimentConfig(
            strategy=strategy, players=players, trials=trials, master_seed=21, **kwargs
        )
        result = run_experiment(cfg)
        log = result.trial_log()
        assert_same_text(log, record_lines(result))
        assert_same_bytes(result, scalar_reference(cfg))
        return result, [json.loads(line) for line in log.splitlines()]

    @pytest.mark.parametrize("depth", [0, 9, 10, 12])
    def test_override_depths(self, scalar_reference, depth):
        _, docs = self.check(
            scalar_reference, {"name": "local-table", "table": [0, 1, 1, 0]}, override_depth=depth
        )
        for doc in docs:
            keys = list(doc["root"]["overrides"])
            assert keys == sorted(str(i) for i in range(1, depth + 1))

    @pytest.mark.parametrize(
        "spec, depth",
        [({"name": "local-table", "table": [0, 1, 1, 0]}, 12), ({"name": "cheat"}, 0),
         (SometimesCheat(), 20)],
        ids=["local-table", "cheat", "sometimes-cheat"],
    )
    def test_log_reads_back_as_the_records(self, spec, depth):
        strategy = spec if isinstance(spec, Strategy) else build_strategy(spec)
        cfg = ExperimentConfig(
            strategy=strategy, players=12, trials=20, master_seed=21,
            override_depth=depth, enable_backdoor=True,
        )
        result = run_experiment(cfg)
        lines = result.trial_log().splitlines()
        assert [TrialRecord.from_json_line(line) for line in lines] == list(result.records)

    @pytest.mark.parametrize("players", [1, 1024])
    def test_player_counts(self, scalar_reference, players):
        _, docs = self.check(scalar_reference, {"name": "local-random", "p": 0.5}, players, 3)
        assert all(len(doc["S"]) == players for doc in docs)

    def test_four_digit_partial_sums(self):
        # fns wins every round at depth 0: each S climbs to 1100, and every
        # threshold is 0.  The run_trial reference is too slow at this width.
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "fns"}), players=1100, trials=2, master_seed=21
        )
        result = run_experiment(cfg)
        assert_same_text(result.trial_log(), record_lines(result))
        assert [r.trajectory[-1] for r in result.records] == [1100, 1100]
        assert {r.threshold for r in result.records} == {0}

    @pytest.mark.parametrize("depth", [0, 10010])
    def test_five_digit_partial_sums_and_thresholds(self, depth):
        # fns wins every round past the override depth and loses every round
        # up to it, so at depth 0 each S climbs to 10050 and each threshold is
        # 0, and at depth 10010 each S falls to -10010 and each threshold is
        # 10010.
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "fns"}),
            players=10050,
            trials=2,
            master_seed=21,
            override_depth=depth,
        )
        result = run_experiment(cfg)
        assert_same_text(result.trial_log(), record_lines(result))
        assert {min(r.trajectory) for r in result.records} == {-depth if depth else 1}
        assert {r.trajectory[-1] for r in result.records} == {10050 - 2 * depth}
        assert {r.threshold for r in result.records} == {depth}

    def test_three_digit_negative_sums(self):
        # constant:1 wins where its target bit is 1: a fair walk, which at
        # this seed falls past -100 in one of the four trials.
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "constant", "value": 1}),
            players=2000,
            trials=4,
            master_seed=5,
        )
        result = run_experiment(cfg)
        assert_same_text(result.trial_log(), record_lines(result))
        assert min(min(r.trajectory) for r in result.records) <= -100

    @settings(max_examples=200, deadline=None)
    @given(
        st.builds(
            lambda v: np.array(v, dtype=np.int64),
            st.lists(st.integers(-experiment.MAX_PLAYERS, experiment.MAX_PLAYERS), min_size=1),
        )
    )
    @example(np.array([0, 9, 10, -9, -10], dtype=np.int64))
    @example(np.array([0, 10**10 - 1, 1 - 10**10], dtype=np.int64))
    def test_decimal_cells_spell_str(self, values):
        def stripped(cells):
            return [cell.replace(b"\0", b"").decode() for cell in cells.tolist()]

        texts = [str(v) for v in values.tolist()]
        assert stripped(experiment._decimal_cells(values, b"")) == texts
        cells = experiment._decimal_cells(values, b",")
        assert stripped(cells) == ["," + text for text in texts]
        # The glue, then as many columns as the longest text has characters.
        assert cells.dtype.itemsize == 1 + max(map(len, texts))

    def test_deep_overrides_cost_a_bounded_number_of_bytes_an_index(self):
        # The override keys and pairs, and the slice of one trial, are held
        # at once: about 80 bytes an index.  Building every key as a Python
        # str took about 194.
        depth = 1 << 17
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "constant", "value": 0}),
            players=1,
            trials=1,
            master_seed=21,
            override_depth=depth,
        )
        result = run_experiment(cfg)
        tracemalloc.start()
        try:
            lengths = [len(text) for text in result.trial_log_slices()]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * depth
        assert lengths == [len(record_lines(result))]

    def test_depth_past_the_players(self, scalar_reference):
        result, docs = self.check(scalar_reference, {"name": "fns"}, 5, override_depth=40)
        assert all(len(doc["root"]["overrides"]) == 40 for doc in docs)
        # Every target is flipped away from the representative fns guesses.
        assert all(doc["S"] == [-1, -2, -3, -4, -5] for doc in docs)

    def test_negative_trajectories(self, scalar_reference):
        _, docs = self.check(scalar_reference, {"name": "constant", "value": 1}, 300, 4)
        assert min(min(doc["S"]) for doc in docs) <= -10

    def test_quarantined_trials(self, scalar_reference):
        result, docs = self.check(scalar_reference, {"name": "cheat"}, enable_backdoor=True)
        assert result.win.invalid_trials == len(docs)
        assert all('"threshold":null,"valid":false' in line
                   for line in result.trial_log().splitlines())

    # Each case runs at override depths 0 and 20, past the 12 players: the
    # regenerated outputs and overrides of run_trial-scored trials meet the
    # scalar reference at both.  A loop, not a parameter, keeps the test ids.
    def test_quarantined_and_scored_trials_mixed(self, scalar_reference):
        for depth in (0, 20):
            result, docs = self.check(
                scalar_reference,
                SometimesCheat(),
                trials=20,
                enable_backdoor=True,
                override_depth=depth,
            )
            assert 0 < result.win.invalid_trials < 20
            assert {doc["valid"] for doc in docs} == {True, False}
            assert all(len(doc["root"]["overrides"]) == depth for doc in docs)
            with pytest.raises(ValueError, match="SIGNALING-INVALID trials; audit refused"):
                result.martingale

    @pytest.mark.parametrize("strategy", [{"name": "cheat"}, SometimesCheat()])
    def test_no_enforce(self, scalar_reference, strategy):
        for depth in (0, 20):
            result, docs = self.check(
                scalar_reference,
                strategy,
                enable_backdoor=True,
                enforce_contracts=False,
                override_depth=depth,
            )
            assert result.win.invalid_trials == 0
            assert all(doc["valid"] and doc["threshold"] is not None for doc in docs)
            assert all(len(doc["root"]["overrides"]) == depth for doc in docs)
