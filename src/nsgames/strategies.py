"""Player strategies.

A strategy turns one player's context (its view stream and private
randomness) into a single output bit.  The referee quarantines trials in
which a strategy read the root through the test-only backdoor.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .behavior import is_int
from .bitstream import BitStream, generator_bits
from .oracle import canonical_representative, class_of
from .seeding import (
    DOMAIN_PLAYER,
    DOMAIN_SHARED,
    SplitRandom,
    child_seed_np,
    derive,
)


class BackdoorDisabledError(RuntimeError):
    """The root backdoor was requested but not enabled for this run."""


class GuessContext:
    """Everything player k may legitimately see while guessing.

    The private generator is seeded from (shared seed, player) and created
    lazily, so deterministic strategies never consume randomness.
    ``root_bit`` is a test-only backdoor: using it trips the contract flag
    that marks the trial SIGNALING-INVALID.
    """

    __slots__ = ("player", "view", "shared_seed", "_rng", "_root", "forbidden_used")

    def __init__(self, player: int, view: BitStream, shared_seed: int,
                 root: BitStream | None = None) -> None:
        self.player = player
        self.view = view
        self.shared_seed = shared_seed
        self._rng = None
        self._root = root
        self.forbidden_used = False

    @property
    def rng(self) -> SplitRandom:
        if self._rng is None:
            self._rng = SplitRandom(derive(self.shared_seed, DOMAIN_PLAYER, self.player))
        return self._rng

    def root_bit(self, i: int) -> int:
        if self._root is None:
            raise BackdoorDisabledError(
                "root backdoor is disabled; enable it explicitly for "
                "negative-control runs"
            )
        self.forbidden_used = True
        return self._root.bit_at(i)


class Strategy:
    """Base strategy: subclasses set `name` and implement guess.

    A strategy whose guess reads nothing but its first ``view_bits`` view
    bits, its view's seed and its private or shared randomness may also
    implement ``guess_batch``, the same function over a whole block of
    trials at once.  ``run_trial`` stays the reference; the batch kernel
    must reproduce it bit for bit.
    """

    name = "?"
    view_bits = 0

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A subclass that redefines guess would otherwise inherit a batch
        # kernel computing its parent's function; keep it on the scalar path.
        if "guess" in cls.__dict__ and "guess_batch" not in cls.__dict__:
            cls.guess_batch = Strategy.guess_batch

    def guess(self, ctx: GuessContext) -> int:
        raise NotImplementedError

    def guess_batch(
        self, views: np.ndarray, trial_seeds: np.ndarray, root_seeds: np.ndarray
    ) -> np.ndarray | None:
        """Outputs of every player over a block of trials, or None.

        ``views`` is a read-only uint8 array of shape [trials, players,
        view_bits]: ``views[t, k - 1, j - 1]`` is bit j of player k's view
        in trial t (``ctx.view.bit_at(j)`` on the scalar path), which is
        root bit k + j.  ``trial_seeds[t]`` is the trial's shared seed;
        ``root_seeds[t]`` is the seed of trial t's root, which every view of
        the trial carries (``ctx.view.seed``).  Returns a uint8 array of
        shape [trials, players].  None means the strategy has no batch
        kernel and every trial goes through ``run_trial``.
        """
        return None

    def params(self) -> dict:
        return {}

    def spec(self) -> dict:
        return {"name": self.name, **self.params()}


class FnsStrategy(Strategy):
    """Choice-oracle strategy.

    Pads the view back to root alignment with zeros, looks up the canonical
    representative of its class (the choice all players share), and answers
    with the representative's bit at the player's own index.  The padding
    fixes the class, so the guess depends on nothing outside the player's
    view.
    """

    name = "fns"

    def guess(self, ctx: GuessContext) -> int:
        padded = ctx.view.pad_prefix_zeros(ctx.player)
        rep = canonical_representative(class_of(padded))
        # Bit k of the representative = first bit after k-1 more shifts.
        return rep.bit_at(ctx.player)

    def guess_batch(self, views, trial_seeds, root_seeds):
        # Player k's padded view is back at shift 0, so its class is
        # (root seed, 0) and the representative is the pristine generator
        # of the root seed.  No view bit is read (view_bits is 0).
        return generator_bits(root_seeds, views.shape[1])


class LocalTableStrategy(Strategy):
    """Deterministic function of the first m view bits."""

    name = "local-table"

    def __init__(self, table: Sequence[int]) -> None:
        size = len(table)
        if size == 0 or size & (size - 1):
            raise ValueError(f"table length must be a power of two, got {size}")
        if any(b not in (0, 1) for b in table):
            raise ValueError("table entries must be bits")
        self.table = tuple(int(b) for b in table)
        self.view_bits = size.bit_length() - 1

    def guess(self, ctx: GuessContext) -> int:
        idx = 0
        for j in range(1, self.view_bits + 1):
            idx = (idx << 1) | ctx.view.bit_at(j)
        return self.table[idx]

    def guess_batch(self, views, trial_seeds, root_seeds):
        # The narrowest type that holds every index, so that a chunk's index
        # array stays small enough for the allocator to reuse its memory.
        idx = np.zeros(views.shape[:2], dtype=np.min_scalar_type(len(self.table) - 1))
        for j in range(self.view_bits):
            idx = (idx << 1) | views[:, :, j]
        return np.array(self.table, dtype=np.uint8)[idx]

    def params(self) -> dict:
        return {"m": self.view_bits, "table": list(self.table)}


class LocalRandomStrategy(Strategy):
    """Output 1 with probability p from private randomness; ignores the view."""

    name = "local-random"

    def __init__(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {p}")
        self.p = float(p)

    def guess(self, ctx: GuessContext) -> int:
        return ctx.rng.bernoulli(self.p)

    def guess_batch(self, views, trial_seeds, root_seeds):
        # The first draw of player k's SplitRandom; the 53-bit integer and
        # its scaling by 2**-53 are exact in float64, as in random().
        player_seeds = child_seed_np(
            child_seed_np(trial_seeds, DOMAIN_PLAYER)[:, None],
            np.arange(1, views.shape[1] + 1),
        )
        draws = child_seed_np(player_seeds, 0) >> np.uint64(11)
        return (draws.astype(np.float64) * 2.0**-53 < self.p).astype(np.uint8)

    def params(self) -> dict:
        return {"p": self.p}


class SharedMixtureStrategy(Strategy):
    """Convex combination of deterministic tables via shared randomness.

    All players of a trial draw the same component index from the
    trial-level shared seed, so this models classical shared correlation
    between the players (each still sees only its own view).
    """

    name = "shared-mixture"

    def __init__(self, tables: Sequence[Sequence[int]], weights: Sequence[float] | None = None) -> None:
        if not tables:
            raise ValueError("mixture needs at least one component table")
        self.components = tuple(LocalTableStrategy(t) for t in tables)
        if weights is None:
            weights = [1.0] * len(self.components)
        if len(weights) != len(self.components) or not all(
            is_finite_number(w) and w >= 0 for w in weights
        ):
            raise ValueError("weights must be finite and nonnegative, one per component")
        # Summed as floats: ints each in the float range may sum past it.
        total = sum(map(float, weights))
        if not 0 < total < math.inf:
            raise ValueError(f"weights must have a positive, finite sum, got {total}")
        self.weights = tuple(float(w) / total for w in weights)
        self.view_bits = max(c.view_bits for c in self.components)

    def _pick(self, shared_seed: int) -> int:
        # Stateless draw from the shared seed: every player of the trial
        # lands on the same component regardless of evaluation order.
        u = SplitRandom(derive(shared_seed, DOMAIN_SHARED)).random()
        acc = 0.0
        for i, w in enumerate(self.weights):
            acc += w
            if u < acc:
                return i
        return len(self.weights) - 1

    def guess(self, ctx: GuessContext) -> int:
        return self.components[self._pick(ctx.shared_seed)].guess(ctx)

    def guess_batch(self, views, trial_seeds, root_seeds):
        picks = np.array([self._pick(seed) for seed in trial_seeds.tolist()])
        out = np.empty(views.shape[:2], dtype=np.uint8)
        for i, component in enumerate(self.components):
            rows = picks == i
            out[rows] = component.guess_batch(
                views[rows], trial_seeds[rows], root_seeds[rows]
            )
        return out

    def params(self) -> dict:
        return {
            "tables": [list(c.table) for c in self.components],
            "weights": list(self.weights),
        }


class CheatStrategy(Strategy):
    """Negative control: reads its own target bit through the backdoor.

    Wins every round, and trips contract enforcement every round; used to
    validate that the harness actually quarantines signaling strategies.
    """

    name = "cheat"

    def guess(self, ctx: GuessContext) -> int:
        return ctx.root_bit(ctx.player)


# The parameters each strategy name accepts in its JSON blob.
STRATEGY_PARAMS = {
    "fns": (),
    "cheat": (),
    "constant": ("value",),
    "local-table": ("table", "m"),
    "local-random": ("p",),
    "shared-mixture": ("tables", "weights"),
}


def is_number(value) -> bool:
    """A JSON number: an int or a float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A JSON number that converts to a finite float: not NaN, not an
    infinity, and not an int past the float range, on which
    ``math.isfinite`` raises ``OverflowError``."""
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


def _list_of(ok):
    return lambda value: isinstance(value, (list, tuple)) and all(map(ok, value))


# What each parameter of a JSON blob must hold, and how to say so.  The
# constructors check ranges; these checks keep a bool or a float from being
# read as an integer.
PARAM_TYPES = {
    "value": (is_int, "an integer"),
    "m": (is_int, "an integer"),
    "p": (is_number, "a number"),
    "table": (_list_of(is_int), "a list of integers"),
    "tables": (_list_of(_list_of(is_int)), "a list of lists of integers"),
    "weights": (_list_of(is_number), "a list of numbers"),
}


def build_strategy(spec: dict) -> Strategy:
    """Construct a strategy from its JSON parameter blob."""
    spec = dict(spec)
    name = spec.pop("name", None)
    if name not in STRATEGY_PARAMS:
        raise ValueError(f"unknown strategy name: {name!r}")
    unknown = sorted(set(spec) - set(STRATEGY_PARAMS[name]))
    if unknown:
        names = ", ".join(repr(k) for k in unknown)
        raise ValueError(f"strategy {name!r} has unknown parameter {names}")
    for key, value in spec.items():
        ok, kind = PARAM_TYPES[key]
        if not ok(value):
            raise ValueError(f"strategy {name!r} parameter {key!r} must be {kind}, got {value!r}")
    try:
        if name == "fns":
            return FnsStrategy()
        if name == "cheat":
            return CheatStrategy()
        if name == "constant":
            return LocalTableStrategy([spec.get("value", 0)])
        if name == "local-table":
            table = spec["table"]
            m = spec.get("m")
            # Compared as a bit length: 1 << m is huge for a huge m.
            if m is not None and m != len(table).bit_length() - 1:
                raise ValueError(f"table length {len(table)} does not match m={m}")
            return LocalTableStrategy(table)
        if name == "local-random":
            return LocalRandomStrategy(spec["p"])
        return SharedMixtureStrategy(spec["tables"], spec.get("weights"))
    except KeyError as exc:
        raise ValueError(f"strategy {name!r} is missing parameter {exc}") from exc


def parse_strategy_arg(text: str) -> Strategy:
    """Parse a CLI strategy argument.

    Accepts a JSON blob ({"name": "local-table", "m": 2, "table": [0,1,1,0]})
    or a compact form: "fns", "cheat", "constant:1", "local-random:0.5",
    "local-table:0,1,1,0".
    """
    text = text.strip()
    if text.startswith("{"):
        return build_strategy(json.loads(text))
    name, _, arg = text.partition(":")
    if name == "constant":
        return build_strategy({"name": name, "value": int(arg or 0)})
    if name == "local-random":
        return build_strategy({"name": name, "p": float(arg or 0.5)})
    if name == "local-table":
        table = [int(b) for b in arg.split(",") if b != ""]
        return build_strategy({"name": name, "table": table})
    if arg:
        raise ValueError(f"strategy {name!r} takes no inline argument")
    return build_strategy({"name": name})


def exact_table_win_probability(table: Sequence[int]) -> Fraction:
    """Analytic per-player win probability of a lookup-table strategy.

    Enumerates every assignment of the target bit and the m view bits it
    reads, all uniform and independent, with exact rational weights: no
    sampling, and no reliance on the trial harness.
    """
    size = len(table)
    if size == 0 or size & (size - 1):
        raise ValueError(f"table length must be a power of two, got {size}")
    m = size.bit_length() - 1
    wins = 0
    for target in (0, 1):
        for window in range(size):
            if table[window] == target:
                wins += 1
    return Fraction(wins, 2 << m)


def all_tables(max_bits: int):
    """Yield every lookup table reading at most max_bits view bits."""
    for m in range(max_bits + 1):
        size = 1 << m
        for code in range(1 << size):
            yield [(code >> i) & 1 for i in range(size)]
