"""Strategy behavior, access contracts, and the exact 1/2 win rate."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgames.bitstream import BitStream
from nsgames.oracle import canonical_representative, class_of
from nsgames.seeding import DOMAIN_PLAYER, SplitRandom, derive
from nsgames.strategies import (
    BackdoorDisabledError,
    CheatStrategy,
    FnsStrategy,
    GuessContext,
    LocalRandomStrategy,
    LocalTableStrategy,
    SharedMixtureStrategy,
    all_tables,
    build_strategy,
    exact_table_win_probability,
    parse_strategy_arg,
)


def ref_table_win_probability(table) -> Fraction:
    """Window-enumeration oracle: walk every assignment of the root bits the
    table can see plus the target bit, all equally likely."""
    m = len(table).bit_length() - 1
    wins = 0
    total = 0
    for window in itertools.product((0, 1), repeat=m + 1):
        target, view = window[0], window[1:]
        idx = 0
        for b in view:
            idx = (idx << 1) | b
        wins += table[idx] == target
        total += 1
    return Fraction(wins, total)


def make_ctx(view, player=1, shared_seed=0, root=None):
    return GuessContext(player=player, view=view, shared_seed=shared_seed, root=root)


class TestLocalTable:
    def test_constant_tables(self):
        view = BitStream.generator(1)
        assert LocalTableStrategy([0]).guess(make_ctx(view)) == 0
        assert LocalTableStrategy([1]).guess(make_ctx(view)) == 1

    def test_identity_table_reads_first_view_bit(self):
        root = BitStream.generator(9)
        view = root.baker_shift()
        assert LocalTableStrategy([0, 1]).guess(make_ctx(view)) == root.bit_at(2)

    def test_table_index_is_big_endian_in_view_bits(self):
        view = BitStream.generator(1, overrides={1: 1, 2: 0})
        # View bits (1, 0) -> index 2.
        assert LocalTableStrategy([0, 0, 1, 0]).guess(make_ctx(view)) == 1

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            LocalTableStrategy([])
        with pytest.raises(ValueError):
            LocalTableStrategy([0, 1, 1])
        with pytest.raises(ValueError):
            LocalTableStrategy([0, 2])

    def test_declared_bit_budget(self):
        assert LocalTableStrategy([0]).view_bits == 0
        assert LocalTableStrategy([0, 1, 1, 0]).view_bits == 2


class TestExactWinProbability:
    def test_every_small_table_is_exactly_half(self):
        tables = list(all_tables(3))
        assert len(tables) == 2 + 4 + 16 + 256
        for table in tables:
            assert exact_table_win_probability(table) == Fraction(1, 2)

    def test_matches_window_enumeration_oracle(self):
        for table in all_tables(3):
            assert exact_table_win_probability(table) == ref_table_win_probability(table)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            exact_table_win_probability([0, 1, 1])


class TestLocalRandom:
    def test_degenerate_probabilities(self):
        view = BitStream.generator(1)
        assert LocalRandomStrategy(0.0).guess(make_ctx(view)) == 0
        assert LocalRandomStrategy(1.0).guess(make_ctx(view)) == 1

    def test_validates_probability(self):
        with pytest.raises(ValueError):
            LocalRandomStrategy(1.5)

    def test_private_randomness_reproducible_per_seed(self):
        view = BitStream.generator(1)
        s = LocalRandomStrategy(0.5)
        a = [s.guess(make_ctx(view, player=k, shared_seed=9)) for k in range(1, 65)]
        b = [s.guess(make_ctx(view, player=k, shared_seed=9)) for k in range(1, 65)]
        assert a == b
        assert 0 < sum(a) < 64
        # The private seed is a function of (shared seed, player) alone.
        expected = SplitRandom(derive(9, DOMAIN_PLAYER, 3)).random()
        assert make_ctx(view, player=3, shared_seed=9).rng.random() == expected

    def test_bernoulli_mean_tracks_p(self):
        view = BitStream.generator(1)
        s = LocalRandomStrategy(0.9)
        hits = sum(
            s.guess(make_ctx(view, player=k, shared_seed=1)) for k in range(1, 2001)
        )
        assert 1700 <= hits <= 1900


class TestSharedMixture:
    def test_players_of_a_trial_pick_the_same_component(self):
        # Components disagree everywhere, so any split across players would
        # show up immediately.
        mix = SharedMixtureStrategy([[0], [1]], weights=[0.5, 0.5])
        for shared_seed in range(40):
            view = BitStream.generator(123)
            guesses = {
                mix.guess(make_ctx(view, player=k, shared_seed=shared_seed))
                for k in range(1, 9)
            }
            assert len(guesses) == 1

    def test_mixture_actually_mixes(self):
        mix = SharedMixtureStrategy([[0], [1]], weights=[0.5, 0.5])
        view = BitStream.generator(123)
        picks = {
            mix.guess(make_ctx(view, shared_seed=seed)) for seed in range(50)
        }
        assert picks == {0, 1}

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            SharedMixtureStrategy([])
        with pytest.raises(ValueError):
            SharedMixtureStrategy([[0], [1]], weights=[0.5])
        with pytest.raises(ValueError):
            SharedMixtureStrategy([[0], [1]], weights=[0.0, 0.0])
        with pytest.raises(ValueError):
            SharedMixtureStrategy([[0], [1]], weights=[-1.0, 2.0])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                SharedMixtureStrategy([[0], [1]], weights=[1.0, bad])
        with pytest.raises(ValueError):
            SharedMixtureStrategy([[0], [1]], weights=[1e308, 1e308])

    def test_bit_budget_is_componentwise_max(self):
        mix = SharedMixtureStrategy([[0, 1], [0, 1, 1, 0]])
        assert mix.view_bits == 2


class TestFns:
    def test_guess_is_representative_bit(self):
        root = BitStream.generator(77)
        view = root.baker_shift().baker_shift().baker_shift()
        guess = FnsStrategy().guess(make_ctx(view, player=3))
        assert guess == root.bit_at(3)

    def test_first_player_guess_is_first_representative_bit(self):
        root = BitStream.generator(77, overrides={1: 1, 2: 0})
        view = root.baker_shift()
        rep = canonical_representative(class_of(view.pad_prefix_zeros(1)))
        assert FnsStrategy().guess(make_ctx(view, player=1)) == rep.bit_at(1)

    @settings(max_examples=30)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 12))
    def test_guess_invariant_under_foreign_bit_edits(self, seed, k):
        # Edits to bits other players see (anything at index > k of the
        # root, i.e. inside the view, stays; here we edit bits <= k which
        # the view cannot contain) leave the padded class unchanged.
        root_plain = BitStream.generator(seed)
        root_edited = BitStream.generator(
            seed, overrides={i: 1 - root_plain.bit_at(i) for i in range(1, k + 1)}
        )
        views = []
        for root in (root_plain, root_edited):
            v = root
            for _ in range(k):
                v = v.baker_shift()
            views.append(v)
        guesses = [
            FnsStrategy().guess(make_ctx(v, player=k)) for v in views
        ]
        assert guesses[0] == guesses[1]


class TestCheat:
    def test_reads_target_and_trips_flag(self):
        root = BitStream.generator(5)
        ctx = make_ctx(root.baker_shift(), player=1, root=root)
        assert CheatStrategy().guess(ctx) == root.bit_at(1)
        assert ctx.forbidden_used

    def test_backdoor_disabled_raises(self):
        ctx = make_ctx(BitStream.generator(5).baker_shift(), player=1)
        with pytest.raises(BackdoorDisabledError):
            CheatStrategy().guess(ctx)

    def test_honest_strategies_never_trip_the_flag(self):
        root = BitStream.generator(5)
        for strategy in (LocalTableStrategy([0, 1]), LocalRandomStrategy(0.5),
                         FnsStrategy()):
            ctx = make_ctx(root.baker_shift(), player=1, root=root)
            strategy.guess(ctx)
            assert not ctx.forbidden_used


class TestRegistry:
    def test_build_known_strategies(self):
        assert build_strategy({"name": "fns"}).name == "fns"
        assert build_strategy({"name": "cheat"}).name == "cheat"
        assert build_strategy({"name": "constant", "value": 1}).table == (1,)
        s = build_strategy({"name": "local-table", "m": 2, "table": [0, 1, 1, 0]})
        assert s.table == (0, 1, 1, 0)
        assert build_strategy({"name": "local-random", "p": 0.3}).p == 0.3
        mix = build_strategy(
            {"name": "shared-mixture", "tables": [[0], [1]], "weights": [1, 3]}
        )
        assert mix.weights == (0.25, 0.75)

    def test_build_rejects_unknown_and_malformed(self):
        with pytest.raises(ValueError):
            build_strategy({"name": "telepathy"})
        with pytest.raises(ValueError):
            build_strategy({"name": "local-random"})
        with pytest.raises(ValueError):
            build_strategy({"name": "local-table", "m": 3, "table": [0, 1]})
        for spec in (
            {"name": "fns", "extra": 1},
            {"name": "constant", "value": 1, "extra": 1},
            {"name": "local-table", "table": [0, 1], "extra": 1},
            {"name": "local-random", "p": 0.5, "extra": 1},
            {"name": "shared-mixture", "tables": [[0]], "extra": 1},
        ):
            with pytest.raises(ValueError, match="'extra'"):
                build_strategy(spec)

    @pytest.mark.parametrize("spec", [
        {"name": "constant", "value": 1.7},
        {"name": "constant", "value": True},
        {"name": "local-table", "table": [True, False]},
        {"name": "local-table", "table": [0.0, 1.0]},
        {"name": "local-table", "table": [0, 1], "m": 1.0},
        {"name": "local-random", "p": True},
        {"name": "local-random", "p": "0.5"},
        {"name": "shared-mixture", "tables": [[0], [True]]},
        {"name": "shared-mixture", "tables": [[0], [1]], "weights": [1, False]},
    ])
    def test_build_requires_json_types(self, spec):
        with pytest.raises(ValueError, match="must be"):
            build_strategy(spec)

    def test_huge_m_rejected_at_once(self):
        with pytest.raises(ValueError, match="does not match m"):
            build_strategy({"name": "local-table", "m": 10**18, "table": [0, 1]})

    def test_parse_shorthands(self):
        assert parse_strategy_arg("fns").name == "fns"
        assert parse_strategy_arg("constant:1").table == (1,)
        assert parse_strategy_arg("local-random:0.25").p == 0.25
        assert parse_strategy_arg("local-table:0,1,1,0").table == (0, 1, 1, 0)
        blob = '{"name": "local-random", "p": 0.5}'
        assert parse_strategy_arg(blob).p == 0.5

    def test_parse_rejects_stray_argument(self):
        with pytest.raises(ValueError):
            parse_strategy_arg("fns:7")

    def test_spec_roundtrips_through_build(self):
        for spec in (
            {"name": "local-table", "m": 1, "table": [0, 1]},
            {"name": "local-random", "p": 0.3},
            {"name": "shared-mixture", "tables": [[0], [0, 1]], "weights": [0.5, 0.5]},
        ):
            strategy = build_strategy(spec)
            assert build_strategy(strategy.spec()).spec() == strategy.spec()
