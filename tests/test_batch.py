"""The batch path against its scalar reference.

Strategies with a batch kernel play whole chunks of trials as array
computations; run_trial plays one trial at a time.  For every config the
two must write the same trial log and report, byte for byte.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsgames.experiment as experiment
from nsgames.experiment import ExperimentConfig, run_experiment
from nsgames.seeding import GOLDEN, MASK64, child_seed, child_seed_np, mix64, mix64_np
from nsgames.strategies import (
    LocalTableStrategy,
    Strategy,
    build_strategy,
)

tables = st.integers(0, 3).flatmap(
    lambda m: st.lists(st.integers(0, 1), min_size=1 << m, max_size=1 << m)
)


def _mixture(components):
    tables_, weights = zip(*components)
    return {"name": "shared-mixture", "tables": list(tables_), "weights": list(weights)}


batch_specs = st.one_of(
    st.builds(lambda v: {"name": "constant", "value": v}, st.integers(0, 1)),
    st.builds(lambda t: {"name": "local-table", "table": t}, tables),
    st.builds(lambda p: {"name": "local-random", "p": p}, st.floats(0.0, 1.0)),
    st.builds(
        _mixture,
        st.lists(st.tuples(tables, st.floats(0.01, 1.0)), min_size=1, max_size=4),
    ),
)


def assert_same_bytes(result, reference):
    assert result.trial_log() == reference.trial_log()
    assert result.render_json() == reference.render_json()


class TestArrayHash:
    def test_mix64_matches_scalar(self):
        rng = random.Random(5)
        words = [rng.getrandbits(64) for _ in range(2000)]
        words += [0, 1, MASK64, MASK64 - 1, 1 << 63, GOLDEN]
        got = mix64_np(np.array(words, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [mix64(z) for z in words]

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


class TestBatchEqualsScalar:
    @settings(max_examples=60, deadline=None)
    @given(
        batch_specs,
        st.integers(1, 140),
        st.integers(1, 24),
        st.integers(0, MASK64),
        st.integers(0, 70),
    )
    def test_random_configs(self, scalar_reference, spec, players, trials, seed, depth):
        cfg = ExperimentConfig(
            strategy=build_strategy(spec),
            players=players,
            trials=trials,
            master_seed=seed,
            override_depth=depth,
        )
        assert_same_bytes(run_experiment(cfg), scalar_reference(cfg))

    def test_many_chunks(self, scalar_reference, monkeypatch):
        monkeypatch.setattr(experiment, "CHUNK_CELLS", 100)
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "local-table", "table": [1, 1, 1, 0, 0, 1, 0, 0]}),
            players=30,
            trials=50,
            master_seed=4,
            override_depth=2,
        )
        assert len(experiment._plan(cfg)[0]) == 17
        assert_same_bytes(run_experiment(cfg), scalar_reference(cfg))

    def test_root_bits_match_trial_root(self):
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "constant"}),
            players=4,
            trials=5,
            master_seed=8,
            override_depth=3,
        )
        bits = experiment._root_bits(cfg, 2, 5, 130)
        for row, t in zip(bits.tolist(), range(2, 5)):
            root = experiment.trial_root(cfg.master_seed, t, cfg.override_depth)
            assert row == root.bits(130)


class TestScalarOnly:
    def test_oracle_and_cheat_have_no_kernel(self):
        bits = np.zeros((1, 8), dtype=np.uint8)
        seeds = np.zeros(1, dtype=np.uint64)
        for name in ("fns", "cheat"):
            assert build_strategy({"name": name}).guess_batch(bits, seeds, 4) is None

    def test_subclass_overriding_guess_stays_scalar(self, scalar_reference):
        class Inverted(LocalTableStrategy):
            def guess(self, ctx):
                return 1 - super().guess(ctx)

        strategy = Inverted([0, 1])
        assert strategy.guess_batch(np.zeros((1, 8), np.uint8), np.zeros(1, np.uint64), 4) is None
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

            def guess_batch(self, bits, trial_seeds, players):
                return np.zeros((bits.shape[0], players), dtype=np.uint8)

        outputs = Both().guess_batch(np.zeros((2, 3), np.uint8), np.zeros(2, np.uint64), 3)
        assert outputs.shape == (2, 3)

    @pytest.mark.parametrize("depth", [0, 3])
    def test_fns_unchanged(self, scalar_reference, depth):
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "fns"}),
            players=20,
            trials=5,
            master_seed=9,
            override_depth=depth,
        )
        assert_same_bytes(run_experiment(cfg), scalar_reference(cfg))

    def test_quarantined_cheat_unchanged(self, scalar_reference):
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "cheat"}),
            players=5,
            trials=4,
            master_seed=2,
            enable_backdoor=True,
        )
        assert_same_bytes(run_experiment(cfg), scalar_reference(cfg))
