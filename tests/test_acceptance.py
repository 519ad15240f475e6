"""Acceptance gate: one test per headline guarantee, one printed line each.

Statistical criteria run at pinned seeds so the gate is deterministic; the
pinned runs were chosen once from a scan and are not tuned per criterion.
Run with -s to watch the lines appear live.
"""

import itertools
import math
from fractions import Fraction

import pytest

import nsgames.experiment as experiment
from nsgames.behavior import (
    check_functional_locality_equivalence,
    check_no_signaling,
    pr_box,
    signaling_box,
)
from nsgames.experiment import (
    ADVERSARIAL,
    ExperimentConfig,
    invariance_test,
    run_experiment,
)
from nsgames.strategies import build_strategy, exact_table_win_probability

MASTER_SEED = 1
INVARIANCE_SEED = 0

NS_LOCAL_SUITE = {
    "constant 0": {"name": "constant", "value": 0},
    "table [0,1]": {"name": "local-table", "table": [0, 1]},
    "table [1,0]": {"name": "local-table", "table": [1, 0]},
    "table [0,1,1,0]": {"name": "local-table", "table": [0, 1, 1, 0]},
    "table m=3": {"name": "local-table", "table": [1, 1, 1, 0, 0, 1, 0, 0]},
    "bernoulli 0.3": {"name": "local-random", "p": 0.3},
    "bernoulli 0.5": {"name": "local-random", "p": 0.5},
    "bernoulli 0.9": {"name": "local-random", "p": 0.9},
    "mixture": {
        "name": "shared-mixture",
        "tables": [[0, 1], [1, 0], [0, 1, 1, 0]],
        "weights": [0.5, 0.3, 0.2],
    },
}


def announce(capsys, ok: bool, line: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {line}")


@pytest.fixture(scope="module")
def suite_results():
    """The NS-local strategy ensemble: T=10^4 trials, 64 players each."""
    results = {}
    for label, spec in NS_LOCAL_SUITE.items():
        cfg = ExperimentConfig(
            strategy=build_strategy(spec),
            players=64,
            trials=10_000,
            master_seed=MASTER_SEED,
        )
        results[label] = run_experiment(cfg)
    return results


@pytest.fixture(scope="module")
def fns_results():
    """FNS runs at override depths 0, 2, 8: T=10^3 trials, 64 players."""
    results = {}
    for depth in (0, 2, 8):
        cfg = ExperimentConfig(
            strategy=build_strategy({"name": "fns"}),
            players=64,
            trials=1_000,
            master_seed=MASTER_SEED,
            override_depth=depth,
        )
        results[depth] = run_experiment(cfg)
    return results


def test_criterion_1_pooled_win_rate_half(suite_results, capsys):
    worst = 0.0
    ok = True
    for label, result in suite_results.items():
        freq = result.win.pooled_freq
        worst = max(worst, abs(freq - 0.5))
        if not 0.485 <= freq <= 0.515:
            ok = False
    announce(
        capsys, ok,
        f"pooled win rate 0.5 +/- 0.015 across {len(suite_results)} "
        f"strategies (worst deviation {worst:.5f})",
    )
    assert ok


def test_criterion_2_exact_half_by_enumeration(capsys):
    # Independent enumeration: win iff table(view window) == target bit,
    # averaged uniformly over all window-plus-target assignments.
    checked = 0
    ok = True
    for m in range(4):
        for bits in itertools.product((0, 1), repeat=1 << m):
            wins = 0
            for assign in itertools.product((0, 1), repeat=m + 1):
                target, window = assign[0], assign[1:]
                idx = 0
                for b in window:
                    idx = (idx << 1) | b
                wins += bits[idx] == target
            direct = Fraction(wins, 2 << m)
            library = exact_table_win_probability(list(bits))
            checked += 1
            if not direct == library == Fraction(1, 2):
                ok = False
    announce(
        capsys, ok,
        f"exact win probability 1/2 for all {checked} tables with m <= 3",
    )
    assert checked == 278
    assert ok


def test_criterion_3_fns_separation(fns_results, capsys):
    ok = True
    for depth, result in fns_results.items():
        for record in result.records:
            tail_ok = all(record.s[k - 1] == 1 for k in range(depth + 1, 65))
            if not (record.valid and tail_ok and record.threshold <= depth):
                ok = False
    announce(
        capsys, ok,
        "every player beyond the override depth wins on each of 10^3 FNS "
        "trials at depths 0, 2, 8 (zero tolerance)",
    )
    assert ok


def test_criterion_4_azuma_exceedance(suite_results, capsys):
    total = sum(len(r.azuma.points) for r in suite_results.values())
    flags = sum(r.azuma.violations for r in suite_results.values())
    announce(
        capsys, flags == 0,
        f"empirical exceedance within the concentration bound at all "
        f"{total} grid points (n in 16/32/64, eps in 4/8/16); "
        f"{flags} violations",
    )
    assert flags == 0


def test_criterion_5_martingale_audit(suite_results, fns_results, capsys):
    audits = {label: result.martingale for label, result in suite_results.items()}
    local_ok = all(a.increments_ok and a.passed for a in audits.values())
    fns_audits = [result.martingale for result in fns_results.values()]
    fns_flagged = all(a.increments_ok and not a.passed for a in fns_audits)
    announce(
        capsys, local_ok and fns_flagged,
        "unit increments plus conditional-mean bins inside a normal-mixture "
        f"boundary at false-alarm level {experiment.MARTINGALE_ALPHA:g} pass on "
        "all NS-local logs; the same audit flags the FNS logs at depths 0, 2, 8 "
        "(asserted)",
    )
    assert local_ok
    assert fns_flagged


def binomial_tail(n: int, p: float, k: int) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return 1.0 - sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k))


@pytest.mark.slow
def test_criterion_5_false_alarms_across_seeds():
    # Criterion 5's local runs at 200 seeds other than the pinned one: each
    # audit fails with probability at most MARTINGALE_ALPHA, so the count of
    # failing audits is at most Binomial(1800, alpha) in law; the test fails
    # only past its 10^-3 upper tail.
    seeds = range(1000, 1200)
    alarms = 0
    for seed in seeds:
        for spec in NS_LOCAL_SUITE.values():
            cfg = ExperimentConfig(
                strategy=build_strategy(spec), players=64, trials=10_000, master_seed=seed
            )
            audit = run_experiment(cfg).martingale
            assert audit.increments_ok
            alarms += not audit.passed
    audits = len(seeds) * len(NS_LOCAL_SUITE)
    assert binomial_tail(audits, experiment.MARTINGALE_ALPHA, alarms) > 1e-3, alarms


def test_criterion_6_measure_invariance(capsys):
    uniform = invariance_test(10**6, 256, INVARIANCE_SEED)
    iterated = invariance_test(10**6, 256, INVARIANCE_SEED, iterations=16)
    control = invariance_test(10**6, 256, INVARIANCE_SEED, sampler=ADVERSARIAL)
    ok = (
        uniform.pvalue > 0.001
        and iterated.pvalue > 0.001
        and control.pvalue < 1e-6
    )
    announce(
        capsys, ok,
        f"shift invariance over 256 bins, 10^6 samples: p={uniform.pvalue:.3f} "
        f"single, p={iterated.pvalue:.3f} 16-fold, adversarial control "
        f"p={control.pvalue:.2e}",
    )
    assert ok


def test_criterion_7_behavior_verifier(capsys):
    pr = check_no_signaling(pr_box())
    sig = check_no_signaling(signaling_box())
    witness_ok = (
        not sig.passed
        and sig.violations[0].subset == (1,)
        and sig.violations[0].x_first[0] != sig.violations[0].x_other[0]
    )
    enum = check_functional_locality_equivalence([2, 2], [2, 2])
    counts_ok = (
        enum.total == 256
        and enum.fns_count == 16
        and enum.factored_count == 16
        and enum.coincide
    )
    ok = pr.passed and witness_ok and counts_ok
    announce(
        capsys, ok,
        "PR box passes, signaling box fails with a located witness, and of "
        "256 deterministic tuples exactly 16 are FNS and factor",
    )
    assert ok


def test_criterion_8_reproducibility(scalar_reference, capsys, monkeypatch):
    def config(spec, depth=0):
        return ExperimentConfig(
            strategy=build_strategy(spec),
            players=16,
            trials=256,
            master_seed=MASTER_SEED,
            override_depth=depth,
        )

    def outputs(result):
        return result.render_json(), result.trial_log()

    table = config({"name": "local-table", "table": [0, 1, 1, 0]})
    default = outputs(run_experiment(table))
    scalar = outputs(scalar_reference(table))
    fns = config({"name": "fns"}, depth=2)
    fns_same = outputs(run_experiment(fns)) == outputs(scalar_reference(fns))
    # 100 cells a chunk: 43 chunks of at most 6 trials, against one chunk.
    monkeypatch.setattr(experiment, "CHUNK_CELLS", 100)
    small = outputs(run_experiment(table))
    ok = default == small == scalar and fns_same
    announce(
        capsys, ok,
        "byte-identical JSON report and trial log at the default chunk size "
        "and at 100-cell chunks, and from the batch path and the scalar "
        "run_trial reference (local table, and fns at override depth 2)",
    )
    assert ok
