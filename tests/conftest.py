"""Shared fixtures."""

import pytest

from nsgames.experiment import ExperimentConfig, ExperimentResult, trial_root
from nsgames.game import GameSpec, run_trial
from nsgames.seeding import DOMAIN_TRIAL, derive


def _scalar_reference(cfg: ExperimentConfig) -> ExperimentResult:
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
    return ExperimentResult(cfg, records)


@pytest.fixture(scope="session")
def scalar_reference():
    """A function mapping a config to its run_trial-by-run_trial result."""
    return _scalar_reference
