"""Pinned output contract and the public import surface.

The digests below were taken from the scalar referee before any
refactor of the harness.  A refactor or a faster path must reproduce
them byte for byte: the trial log and the win-rate and Azuma report
blocks are the deterministic outputs of a (config, seed) pair.  The
CSV, martingale-audit and invariance digests were taken from the
hand-written serializers before the reports' JSON and CSV were read off
their dataclass fields.  The whole-report digests were taken from
``json.dumps(..., sort_keys=True, indent=2)`` of the whole document, so
they pin the indented layout as well as the values, including the
per-player rows that ``render_json`` now spells itself.
"""

import hashlib
import json
import math
import tracemalloc

import pytest

import nsgames
from nsgames.experiment import (
    ADVERSARIAL,
    INVARIANCE_BLOCK,
    UNIFORM,
    ExperimentConfig,
    azuma_report,
    invariance_test,
    martingale_audit,
    run_experiment,
    _invariance_counts,
)
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
             override_depth=2),
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


# win.csv, azuma.csv and the martingale audit's sorted JSON, per GOLDEN config.
# The audit's digests were re-taken when its bins lost their 100-step floor
# and took the normal-mixture boundary for their 3-sigma margin.  Each is
# paired with the one taken before, which ``fixed_margin_json`` of the same
# report still matches: only the rule moved, not a count or a mean.
GOLDEN_TABLES = {
    "local-table": (
        "032f70f56c49c57df646da8fee8148eebcee23890ea03e0edcdbcfd7a3c2f17c",
        "7b31fe2a5f165a4e7fe17c805a91b77efff400011f7170adbd38bcbce2e784c4",
        ("a2735729dbe1f7fcfcb323dacb8046ac4e11fb8bd20b9014cc66cd7f190a856b",
         "e6437295a1dc2fe8c1193f32419ad4a9bcaebcd488bd5bac4ec752dafe27f3ff"),
    ),
    "fns-depth-2-parallel": (
        "4d31e037f254f350fa78aea54a3c7ec101eeb71292ab8cb35503ee9fded5bbb9",
        "46e82779166ff5d33146a4fc8de7ad2bb69311b02d89ed9c4ea64b034f5d2ab4",
        ("bb990123fb0b780b80bb460155a0d2a710f6a8e92349e71d5eabdbee31a8093f",
         "5f222b69bc82bd920c9e01d17788d085fcfbf30ff759fd83e90ee91c8ab47261"),
    ),
    "local-random": (
        "b8014be7526a27debc68f79dac37cfa9d2b6e09b850bfbf4c01f843ef9e9e02b",
        "31b7706a4df04ccabd4ef244271cb552894a061adbd899efc830736525bb54e0",
        ("781f5cef64224fe66900fc1790e5170a030ed64e0047289a72f356276cae5e1a",
         "c06fc0ca01a35a9da7bb944714572b22e3f905c505b459af5a02319804eba0db"),
    ),
}

# The full render_json() text, per GOLDEN config.
REPORT_DIGESTS = {
    "local-table": "4d71e14d8a251428e292bd650aa8c870ff96b63ce21b8534856652e2ceb3ebe3",
    "fns-depth-2-parallel": "9d34e016561c8d75f11ed6e2a51b15011341d853cce98e0db749cf54824f2345",
    "local-random": "278d1bc5d49f047680cd37367372009a831b72b4a09e838739107b70309ccee1",
}

# render_json() and win.to_csv() of fns at 1024 players, 10 trials, seed 1
# and override depth 8: players 1-8 lose every trial and the rest win every
# one, so the report has only two distinct win counts.  Taken before the
# win-rate report kept its per-player rows as columns and before
# render_json spelled the rows once per distinct win count.
FNS_1024 = dict(strategy={"name": "fns"}, trials=10, players=1024, master_seed=1,
                override_depth=8)
FNS_1024_DIGESTS = (
    "6e00b579cfed6966d25efeb2ffe58137f7e2834db758b259b4b8e77b05974e61",
    "74d7f1dc8317cde9b58075a715185d364087c5ce21289f996da65cffb767efa9",
)

# The invariance digests were re-taken when the report gained its seed, so
# that a report names the run it came from.  Each digest is paired with the
# one taken before, of the same JSON without "seed", which pins that the
# added key is the only change.  Those earlier digests were re-taken when
# the p-value's tail moved from scipy's chdtrc to _chi2_sf.  Only the
# p-values moved then, each by at most 2 ulp (0.388728719042201 ->
# 0.38872871904220097, 0.7770278032043938 -> 0.777027803204394,
# 0.8654363193297757 -> 0.8654363193297755); the adversarial control's 0.0,
# and with it its digest, did not.
INVARIANCE_DIGEST = (
    "3e20f0ca5dd2572dc83152c612f6faeedf0e4c0aef572adc2613868ecaf42eb0",
    "1c58285ba4b9fe37ced9f80a56f0dfc8715ca79251ce69c9276a864847d6f23a",
)

# The sorted JSON of criterion 6's three reports, 10^6 samples x 256 bins at
# its seed 0, keyed by (iterations, sampler), with and without "seed" as
# above.  Their histograms are those taken before the invariance histogram
# was hashed in place.
CRITERION_6_DIGESTS = {
    (1, UNIFORM): (
        "307fabaec5fc9b236ddece79e45c9765cdfbf24163b02b4f1865942d9ea4b456",
        "160c908e2c7fd5a3550d02d82dd66b68896d57bd368a2dc0d5cabd1597eb703d",
    ),
    (16, UNIFORM): (
        "0120cd07382e508e6f74c03f433db1239f9bcb14583034b04a521c782c0070d7",
        "9e0843aead4d9f15eb1bf9f28b66fc01e7948c99e5aa1c64fc497f66d5aad3bc",
    ),
    (1, ADVERSARIAL): (
        "708ed256b181824e559bc3bd52d4c1ba7a950c4117a4d31e7e4cf5bff1283d63",
        "07364c69899af20e7c1dc065fcca96783fc36d33f7507d54ad4b34325c1ad6d0",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name):
    kwargs, log_digest, win_digest, azuma_digest = GOLDEN[name]
    kwargs = dict(kwargs, strategy=build_strategy(kwargs["strategy"]))
    result = run_experiment(ExperimentConfig(**kwargs))
    rendered = result.render_json()
    report = json.loads(rendered)
    assert sha256(rendered) == REPORT_DIGESTS[name]
    assert sha256(result.trial_log()) == log_digest
    assert sha256(json.dumps(report["win_rate"], sort_keys=True)) == win_digest
    assert sha256(json.dumps(report["azuma"], sort_keys=True)) == azuma_digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_table_digests(name):
    kwargs = GOLDEN[name][0]
    kwargs = dict(kwargs, strategy=build_strategy(kwargs["strategy"]))
    result = run_experiment(ExperimentConfig(**kwargs))
    win_csv, azuma_csv, audit = GOLDEN_TABLES[name]
    assert sha256(result.win.to_csv()) == win_csv
    assert sha256(result.azuma.to_csv()) == azuma_csv
    assert result.martingale == martingale_audit(result.records)
    report = result.martingale.to_json()
    assert sha256(json.dumps(report, sort_keys=True)) == audit[0]
    assert sha256(json.dumps(fixed_margin_json(result.martingale), sort_keys=True)) == audit[1]


def fixed_margin_json(report):
    """A martingale report's JSON under the audit's earlier rule: a bin of
    at least 100 steps is tested, and fails when its mean is more than 3
    standard errors from 0."""
    bins = []
    for b in report.bins:
        if b.count >= 100:
            margin = 3.0 / math.sqrt(b.count)
            bins.append({**vars(b), "margin": margin, "ok": abs(b.mean) <= margin})
    return {
        "trials": report.trials,
        "increments_ok": report.increments_ok,
        "bins": bins,
        "bins_tested": len(bins),
        "passed": report.increments_ok and all(b["ok"] for b in bins),
    }


def test_fns_1024_report_digests():
    kwargs = dict(FNS_1024, strategy=build_strategy(FNS_1024["strategy"]))
    result = run_experiment(ExperimentConfig(**kwargs))
    assert (sha256(result.render_json()), sha256(result.win.to_csv())) == FNS_1024_DIGESTS


def seeded_digests(report, seed):
    """The digest of a report's sorted JSON, then of the same JSON with its
    seed, which must be ``seed``, removed."""
    doc = report.to_json()
    digest = sha256(json.dumps(doc, sort_keys=True))
    assert doc.pop("seed") == seed
    return digest, sha256(json.dumps(doc, sort_keys=True))


def test_invariance_digest():
    report = invariance_test(samples=1600, bins=16, seed=7, iterations=3)
    assert seeded_digests(report, 7) == INVARIANCE_DIGEST


@pytest.mark.parametrize("iterations, sampler", sorted(CRITERION_6_DIGESTS))
def test_criterion_6_report_digests(iterations, sampler):
    report = invariance_test(10**6, 256, 0, iterations=iterations, sampler=sampler)
    assert seeded_digests(report, 0) == CRITERION_6_DIGESTS[iterations, sampler]


@pytest.mark.parametrize("sampler", [UNIFORM, ADVERSARIAL])
def test_invariance_memory_is_flat_in_samples(sampler):
    # The histogram kernel hashes each block in buffers it allocates once:
    # its peak is the same at two blocks and at 10^6 samples, and stays
    # under five blocks' worth of uint64 words.
    block_bytes = 8 * INVARIANCE_BLOCK
    peaks = []
    for samples in (2 * INVARIANCE_BLOCK, 10**6):
        tracemalloc.start()
        try:
            _invariance_counts(samples, 8, 0, 61, sampler)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 4096
    assert max(peaks) < 5 * block_bytes


def test_empty_azuma_grid_csv_is_the_header_alone():
    report = azuma_report([], grid_n=(), grid_eps=(4.0,))
    assert report.to_csv() == "n,epsilon,exceed,trials,freq,bound,margin,violation\n"


def test_every_export_resolves():
    for name in nsgames.__all__:
        assert hasattr(nsgames, name), name
