"""Referee logic for the guessing game.

The referee draws a root x_0 in [0, 1]; player k sees only the k-fold
baker-shifted tail (in the hat picture, the hats in front of position k)
and must output bit k of the root.  The hat and baker games share this
information structure, so one referee plays both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bitstream import BitStream
from .strategies import GuessContext, Strategy


@dataclass(frozen=True)
class GameSpec:
    """One trial's full configuration.

    enforce_contracts quarantines trials whose strategy used forbidden
    access; enable_backdoor arms the root backdoor for negative controls
    (off by default, so production runs cannot read targets).
    """

    players: int
    root: BitStream
    strategy: Strategy
    trial_seed: int = 0
    enforce_contracts: bool = True
    enable_backdoor: bool = False

    def __post_init__(self) -> None:
        if self.players < 1:
            raise ValueError(f"players must be >= 1, got {self.players}")


# A trial-log line is parsed with this decoder's raw_decode, which skips
# the whitespace and trailing-data checks of json.loads.
_raw_decode = json.JSONDecoder().raw_decode


class TrialRecord(NamedTuple):
    """Scored outcome of one trial.

    trajectory[n-1] holds S_n = sum of the first n success variables.
    threshold is the largest losing player index (0 when everyone won);
    it is None only for quarantined SIGNALING-INVALID trials, which are
    never scored.  A record is a tuple of its fields, in this order.
    """

    root: dict
    outputs: tuple[int, ...]
    s: tuple[int, ...]
    trajectory: tuple[int, ...]
    threshold: int | None
    valid: bool

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "outputs": list(self.outputs),
            "s": list(self.s),
            "S": list(self.trajectory),
            "threshold": self.threshold,
            "valid": self.valid,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, doc: dict) -> "TrialRecord":
        # In field order, through _make: no keyword or __new__ frame to bind.
        return cls._make((
            doc["root"],
            tuple(doc["outputs"]),
            tuple(doc["s"]),
            tuple(doc["S"]),
            doc["threshold"],
            doc["valid"],
        ))

    @classmethod
    def from_json_line(cls, line: str) -> "TrialRecord":
        """The record of one trial-log line, parsed as ``json.loads(line)``.

        A line that ``raw_decode`` does not read as one document spanning
        all of it, such as one with surrounding whitespace, bytes or a
        malformed line, goes through ``json.loads``, for its result or its
        error.
        """
        try:
            doc, end = _raw_decode(line)
            whole = end == len(line)
        except (TypeError, ValueError):
            whole = False
        if not whole:
            doc = json.loads(line)
        return cls.from_json(doc)


def winner_threshold(s: Sequence[int]) -> int:
    """Least t with every player k > t successful: the last losing index."""
    t = 0
    for k, sk in enumerate(s, start=1):
        if sk < 0:
            t = k
    return t


def run_trial(spec: GameSpec) -> TrialRecord:
    """Play one full round and score it.

    Each player gets a fresh context over its own view; its private
    generator is derived from (trial, player) on first use.  If contract
    enforcement is on and any player touched the backdoor, the trial is
    marked invalid; raw outputs and successes are still recorded so harness
    tests can verify the quarantine, but the threshold is withheld.
    """
    root = spec.root
    backdoor_root = root if spec.enable_backdoor else None
    outputs = []
    s = []
    trajectory = []
    running = 0
    forbidden = False
    view = root
    for k in range(1, spec.players + 1):
        view = view.baker_shift()
        ctx = GuessContext(player=k, view=view, shared_seed=spec.trial_seed,
                           root=backdoor_root)
        a = spec.strategy.guess(ctx)
        if a not in (0, 1):
            raise ValueError(f"strategy {spec.strategy.name!r} returned non-bit {a!r}")
        forbidden = forbidden or ctx.forbidden_used
        sk = 1 if a == root.bit_at(k) else -1
        outputs.append(a)
        s.append(sk)
        running += sk
        trajectory.append(running)
    valid = not (forbidden and spec.enforce_contracts)
    return TrialRecord(
        root=root.to_json(),
        outputs=tuple(outputs),
        s=tuple(s),
        trajectory=tuple(trajectory),
        threshold=winner_threshold(s) if valid else None,
        valid=valid,
    )


def last_losing_index(s: np.ndarray) -> np.ndarray:
    """``winner_threshold`` of every row of a [trials, players] array of
    success variables, each of them 1 or -1.

    A row's last losing index is the last place of its minimum, found with
    one ``argmin`` over the reversed rows, unless that minimum is 1.
    """
    last = s.shape[1] - np.argmin(s[:, ::-1], axis=1)
    lost = s[np.arange(len(s)), last - 1] < 0
    return np.where(lost, last, 0)

