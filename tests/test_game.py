"""Referee: views, targets, scoring, quarantine."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgames.bitstream import BitStream
from nsgames.game import GameSpec, TrialRecord, run_trial, winner_threshold
from nsgames.strategies import (
    CheatStrategy,
    FnsStrategy,
    LocalTableStrategy,
    Strategy,
)

from helpers import truncated_value


def shifted(root: BitStream, k: int) -> BitStream:
    """The k-fold baker image of the root, by repeated single shifts."""
    for _ in range(k):
        root = root.baker_shift()
    return root


def eq5_target(root: BitStream, k: int, t: int = 48) -> int:
    """Predicate oracle: evaluate 2*x_{k-1} - x_k on t-bit truncations with
    exact rationals and round to the nearest integer."""
    x_prev = shifted(root, k - 1)
    diff = 2 * truncated_value(x_prev, t) - truncated_value(x_prev.baker_shift(), t)
    nearest = int(diff + Fraction(1, 2))
    assert abs(diff - nearest) <= Fraction(1, 1 << t)
    return nearest


class RecordingStrategy(Strategy):
    """Answers 0 and keeps what each player was shown."""

    name = "recording"

    def __init__(self) -> None:
        self.players: list[int] = []
        self.views: list[BitStream] = []

    def guess(self, ctx) -> int:
        self.players.append(ctx.player)
        self.views.append(ctx.view)
        return 0


def with_prefix(bits, seed=0) -> BitStream:
    """A generator root whose first len(bits) bits are `bits`."""
    return BitStream.generator(seed, overrides=dict(enumerate(bits, start=1)))


def recorded(root: BitStream, players: int) -> RecordingStrategy:
    strategy = RecordingStrategy()
    run_trial(GameSpec(players, root, strategy))
    return strategy


def scored_targets(root: BitStream, players: int) -> list[int]:
    """The bits the referee scored players 1..K against, read back from s:
    a constant-0 player wins exactly when its target is 0."""
    rec = run_trial(GameSpec(players, root, LocalTableStrategy([0])))
    return [0 if sk == 1 else 1 for sk in rec.s]


class TestInputsAndTargets:
    def test_period_two_inputs(self):
        root = with_prefix([1, 0] * 4)
        x1, x2 = recorded(root, 2).views
        assert x1.bits(6) == [0, 1, 0, 1, 0, 1]
        assert x2.bits(6) == root.bits(6)

    def test_quarter_root_single_input(self):
        root = with_prefix([0, 1] + [0] * 15)
        (x1,) = recorded(root, 1).views
        assert truncated_value(x1, 16) == Fraction(1, 2)

    @given(st.integers(0, 2**64 - 1), st.integers(1, 64))
    def test_input_shift_law(self, seed, k):
        root = BitStream.generator(seed)
        assert recorded(root, k).views[k - 1].bit_at(1) == root.bit_at(k + 1)

    def test_target_reads_expansion(self):
        root = with_prefix([1, 0, 1])
        assert scored_targets(root, 3) == [1, 0, 1]
        zeros = BitStream.generator(4).pad_prefix_zeros(17)
        assert scored_targets(zeros, 17)[16] == 0

    @settings(max_examples=30)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 32))
    def test_target_matches_exact_predicate_on_generator_roots(self, seed, k):
        root = BitStream.generator(seed)
        assert scored_targets(root, k)[k - 1] == eq5_target(root, k)

    @settings(max_examples=30)
    @given(
        st.integers(0, 2**64 - 1),
        st.dictionaries(st.integers(1, 20), st.integers(0, 1), max_size=6),
        st.integers(0, 8),
        st.integers(1, 16),
    )
    def test_target_matches_exact_predicate_on_edited_roots(self, seed, edits, pad, k):
        root = BitStream.generator(seed, overrides=edits).pad_prefix_zeros(pad)
        assert scored_targets(root, k)[k - 1] == eq5_target(root, k)


class TestPlayerView:
    def test_view_is_shifted_root(self):
        root = BitStream.generator(5)
        view = recorded(root, 8).views[2]
        assert view.bits(20) == root.bits(20, start=4)

    def test_first_player_sees_full_tail(self):
        root = BitStream.generator(5)
        assert recorded(root, 8).views[0].bits(10) == root.bits(10, start=2)

    def test_view_matches_generated_input(self):
        root = BitStream.generator(6)
        views = recorded(root, 8).views
        for k in (1, 4, 8):
            assert views[k - 1] == shifted(root, k)

    def test_forbidden_prefix_structurally_unreachable(self):
        # Every reachable index i >= 1 of the view resolves to root bit
        # k + i; the view object has no query that reaches bits <= k.
        root = BitStream.generator(7)
        k = 5
        view = recorded(root, 8).views[k - 1]
        assert view.shift == root.shift + k
        for i in range(1, 30):
            assert view.bit_at(i) == root.bit_at(k + i)
        with pytest.raises(ValueError):
            view.bit_at(0)

    def test_bounds_checked(self):
        # Exactly players 1..K are asked, once each and in order.
        assert recorded(BitStream.generator(1), 8).players == list(range(1, 9))


class TestWinnerThreshold:
    def test_all_win(self):
        assert winner_threshold([1, 1, 1]) == 0

    def test_last_loss_wins_out(self):
        assert winner_threshold([1, -1, 1, -1, 1, 1]) == 4

    def test_final_player_loss(self):
        assert winner_threshold([1, 1, -1]) == 3


class TestRunTrial:
    def test_fns_on_pristine_root_all_win(self):
        spec = GameSpec(
            64, BitStream.generator(42), FnsStrategy(), trial_seed=7,
        )
        rec = run_trial(spec)
        assert all(s == 1 for s in rec.s)
        assert rec.threshold == 0
        assert rec.trajectory[-1] == 64
        # Brute-force confirmation against the root bits.
        root = spec.root
        assert list(rec.outputs) == root.bits(64)

    def test_fns_with_flipped_prefix(self):
        base = BitStream.generator(42)
        root = BitStream.generator(
            42, overrides={1: 1 - base.bit_at(1), 2: 1 - base.bit_at(2)}
        )
        spec = GameSpec(64, root, FnsStrategy())
        rec = run_trial(spec)
        assert [k for k in range(1, 65) if rec.s[k - 1] == -1] == [1, 2]
        assert rec.threshold == 2

    @settings(max_examples=20)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 6))
    def test_fns_threshold_bounded_by_override_depth(self, seed, depth):
        base = BitStream.generator(seed)
        overrides = {i: 1 - base.bit_at(i) for i in range(1, depth + 1)}
        root = BitStream.generator(seed, overrides=overrides)
        spec = GameSpec(32, root, FnsStrategy())
        rec = run_trial(spec)
        assert rec.threshold <= depth
        assert all(s == 1 for s in rec.s[depth:])

    def test_constant_zero_on_zero_root(self):
        spec = GameSpec(
            16, BitStream.generator(8).pad_prefix_zeros(16), LocalTableStrategy([0])
        )
        rec = run_trial(spec)
        assert rec.threshold == 0
        assert all(s == 1 for s in rec.s)

    def test_trajectory_is_cumulative_sum(self):
        spec = GameSpec(20, BitStream.generator(8), LocalTableStrategy([0, 1]))
        rec = run_trial(spec)
        acc = 0
        for s, total in zip(rec.s, rec.trajectory):
            assert s in (-1, 1)
            acc += s
            assert total == acc

    def test_cheat_is_quarantined(self):
        spec = GameSpec(
            16, BitStream.generator(3), CheatStrategy(),
            enable_backdoor=True,
        )
        rec = run_trial(spec)
        assert not rec.valid
        assert rec.threshold is None
        assert all(s == 1 for s in rec.s)  # raw success still recorded

    def test_cheat_scored_with_enforcement_off(self):
        spec = GameSpec(
            16, BitStream.generator(3), CheatStrategy(),
            enable_backdoor=True, enforce_contracts=False,
        )
        rec = run_trial(spec)
        assert rec.valid
        assert rec.threshold == 0

    def test_fns_never_flagged(self):
        spec = GameSpec(
            16, BitStream.generator(3), FnsStrategy(), enable_backdoor=True,
        )
        assert run_trial(spec).valid

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GameSpec(0, BitStream.generator(1), LocalTableStrategy([0]))


class TestTrialRecordSerialization:
    def test_jsonl_roundtrip(self):
        spec = GameSpec(8, BitStream.generator(1), LocalTableStrategy([0, 1]))
        rec = run_trial(spec)
        line = rec.to_json_line()
        assert TrialRecord.from_json_line(line) == rec

    def test_a_tuple_of_its_fields(self):
        spec = GameSpec(6, BitStream.generator(2), LocalTableStrategy([0, 1]))
        rec = run_trial(spec)
        assert TrialRecord._fields == ("root", "outputs", "s", "trajectory", "threshold", "valid")
        root, outputs, s, trajectory, threshold, valid = rec
        assert rec == (root, outputs, s, trajectory, threshold, valid)
        assert (threshold, valid) == (winner_threshold(s), True)
        with pytest.raises(AttributeError):
            rec.valid = False

    @pytest.mark.parametrize("pad", ["", " ", "\n", " \t", "\r\n  "])
    def test_padded_lines_read_as_json_loads(self, pad):
        spec = GameSpec(5, BitStream.generator(3), CheatStrategy(), enable_backdoor=True)
        rec = run_trial(spec)
        line = pad + rec.to_json_line() + pad
        assert TrialRecord.from_json_line(line) == TrialRecord.from_json(json.loads(line)) == rec
        assert TrialRecord.from_json_line(line.encode()) == rec

    @pytest.mark.parametrize("spoil", [
        lambda line: "",
        lambda line: line[:1],
        lambda line: line[:40],
        lambda line: line[:-1],
        lambda line: line + "x",
        lambda line: line + " {}",
        lambda line: line + "\n[]",
        lambda line: "\ufeff" + line,
    ])
    def test_malformed_lines_raise_as_json_loads(self, spoil):
        # Cut short, trailing data, and a byte-order mark.
        bad = spoil(run_trial(GameSpec(3, BitStream.generator(4), FnsStrategy())).to_json_line())
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(bad)
        with pytest.raises(json.JSONDecodeError) as got:
            TrialRecord.from_json_line(bad)
        assert str(got.value) == str(want.value)

    def test_schema_keys(self):
        spec = GameSpec(4, BitStream.generator(1), LocalTableStrategy([0]))
        doc = run_trial(spec).to_json()
        assert set(doc) == {"root", "outputs", "s", "S", "threshold", "valid"}
        assert doc["root"]["kind"] == "generator"

    def test_invalid_trial_serializes_null_threshold(self):
        spec = GameSpec(
            4, BitStream.generator(1), CheatStrategy(), enable_backdoor=True
        )
        line = run_trial(spec).to_json_line()
        assert '"threshold":null' in line
