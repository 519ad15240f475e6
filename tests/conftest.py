"""Shared fixtures."""

import json
from dataclasses import dataclass

import pytest

from nsgames.experiment import (
    SCHEMA_VERSION,
    ExperimentConfig,
    azuma_report,
    trial_root,
    win_rate_report,
)
from nsgames.game import GameSpec, TrialRecord, run_trial
from nsgames.seeding import DOMAIN_TRIAL, derive


@dataclass(frozen=True)
class ScalarResult:
    """A run's outputs rendered only through the record path: the record
    builders, ``TrialRecord.to_json_line`` and ``ExperimentResult.to_json``'s
    layout.  None of the columnar path's counting or log writing runs here,
    so comparing the two checks it."""

    config: ExperimentConfig
    records: tuple[TrialRecord, ...]

    def render_json(self) -> str:
        cfg = self.config
        doc = {
            "schema_version": SCHEMA_VERSION,
            "config": cfg.to_json(),
            "win_rate": win_rate_report(self.records, cfg.players).to_json(),
            "azuma": azuma_report(self.records, cfg.azuma_n, cfg.azuma_eps).to_json(),
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def trial_log(self) -> str:
        return "".join(r.to_json_line() + "\n" for r in self.records)


def _scalar_reference(cfg: ExperimentConfig) -> ScalarResult:
    """The experiment played one trial at a time through run_trial."""
    records = tuple(
        run_trial(
            GameSpec(
                players=cfg.players,
                root=trial_root(cfg.master_seed, t, cfg.override_depth),
                strategy=cfg.strategy,
                trial_seed=derive(cfg.master_seed, DOMAIN_TRIAL, t),
                enforce_contracts=cfg.enforce_contracts,
                enable_backdoor=cfg.enable_backdoor,
            )
        )
        for t in range(cfg.trials)
    )
    return ScalarResult(cfg, records)


@pytest.fixture(scope="session")
def scalar_reference():
    """A function mapping a config to its run_trial-by-run_trial result."""
    return _scalar_reference
