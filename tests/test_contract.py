"""Pinned output contract and the public import surface.

The digests below were taken from the scalar referee before any
refactor of the harness.  A refactor or a faster path must reproduce
them byte for byte: the trial log and the win-rate and Azuma report
blocks are the deterministic outputs of a (config, seed) pair.
"""

import hashlib
import json

import pytest

import nsgames
from nsgames.experiment import ExperimentConfig, run_experiment
from nsgames.strategies import build_strategy

GOLDEN = {
    "local-table": (
        dict(strategy={"name": "local-table", "table": [0, 1, 1, 0]},
             trials=16, players=256, master_seed=1),
        "83a0feac570ae6b1f9972f5b355907f97b87173b2827662a5f37e9ad548798d7",
        "e78135235290939ef2b86085a3dc8b9ad104b201ea25ed3572dd4392c931e1a9",
        "5e88f28e82d3532f846524744273dceaabfad91ba1f094c6be74d329ea16b5b5",
    ),
    "fns-depth-2-parallel": (
        dict(strategy={"name": "fns"}, trials=16, players=64, master_seed=2,
             override_depth=2, parallelism=2),
        "74acd6f5dac4f5cb030d4d835747fa0e1fe9ca727e71ab8176f7ef807aa422a4",
        "6cfb2478aa908ec7a7b4f2f041784ce151d5a5e3092c8f40af4c634eee3e775d",
        "090cf69564b476c28951974e3c9ba3ab70bcfe9a3b96e5023280d280101eec49",
    ),
    "local-random": (
        dict(strategy={"name": "local-random", "p": 0.3},
             trials=16, players=256, master_seed=3),
        "ec84640728d4e65ddcc2aa656645a1d10867894f6380068d5c8da1d0d35c360f",
        "bc6fb246d382b1820bb323de14436b6ce9ff0b9299c858decae63e2ade81a4f0",
        "4a9c2d7c467e3efe9c8098e4b31e2ce2e0f2f3334f298c7acbe97bf021ac23e0",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name):
    kwargs, log_digest, win_digest, azuma_digest = GOLDEN[name]
    kwargs = dict(kwargs, strategy=build_strategy(kwargs["strategy"]))
    result = run_experiment(ExperimentConfig(**kwargs))
    report = json.loads(result.render_json())
    assert sha256(result.trial_log()) == log_digest
    assert sha256(json.dumps(report["win_rate"], sort_keys=True)) == win_digest
    assert sha256(json.dumps(report["azuma"], sort_keys=True)) == azuma_digest


def test_every_export_resolves():
    for name in nsgames.__all__:
        assert hasattr(nsgames, name), name
