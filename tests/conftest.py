"""Shared fixtures."""

import pytest

from nsgames.experiment import (
    ExperimentConfig,
    ExperimentResult,
    azuma_report,
    trial_root,
    win_rate_report,
)
from nsgames.game import GameSpec, run_trial
from nsgames.oracle import ChoiceOracle
from nsgames.seeding import DOMAIN_TRIAL, derive


def _scalar_reference(cfg: ExperimentConfig) -> ExperimentResult:
    """The experiment played one trial at a time through run_trial."""
    records = tuple(
        run_trial(
            GameSpec(
                players=cfg.players,
                root=trial_root(cfg.master_seed, t, cfg.override_depth),
                strategy=cfg.strategy,
                oracle=ChoiceOracle(),
                trial_seed=derive(cfg.master_seed, DOMAIN_TRIAL, t),
                enforce_contracts=cfg.enforce_contracts,
                enable_backdoor=cfg.enable_backdoor,
            )
        )
        for t in range(cfg.trials)
    )
    return ExperimentResult(
        config=cfg,
        records=records,
        win=win_rate_report(records, cfg.players),
        azuma=azuma_report(records, cfg.azuma_n, cfg.azuma_eps),
    )


@pytest.fixture(scope="session")
def scalar_reference():
    """A function mapping a config to its run_trial-by-run_trial result."""
    return _scalar_reference
