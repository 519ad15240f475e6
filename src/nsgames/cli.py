"""Command-line front end.

Thin driver over the library: run simulations, verify behavior tables,
run the measure-invariance test, and count FNS function tuples.

Exit codes are contract values: 0 success, 1 config, input or output
error, 2 simulate saw SIGNALING-INVALID trials, 3 a verification rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .behavior import (
    DEFAULT_BUDGET,
    Behavior,
    BudgetExceededError,
    check_fns,
    check_functional_locality_equivalence,
    check_no_signaling,
    functions_from_deterministic,
    is_deterministic_extremal,
)
from .experiment import (
    SCHEMA_VERSION,
    ExperimentConfig,
    invariance_test,
    run_experiment,
)
from .strategies import BackdoorDisabledError, is_int, is_number, parse_strategy_arg

OUT_DIR_ENV = "NSGAMES_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SIGNALING = 2
EXIT_REJECTED = 3

# Keys a simulate --config file may set; each mirrors the flag of that name.
CONFIG_KEYS = frozenset({
    "strategy", "players", "trials", "seed", "root-override-depth", "parallelism",
    "azuma-n", "azuma-eps", "allow-cheat", "no-enforce",
})
# Config keys whose values must be JSON integers (booleans are not).
INT_CONFIG_KEYS = ("players", "trials", "seed", "root-override-depth", "parallelism")
# Config keys whose values must be JSON booleans (strings are not).
BOOL_CONFIG_KEYS = ("allow-cheat", "no-enforce")


class _Parser(argparse.ArgumentParser):
    """argparse's default error exit code is 2, which this interface
    reserves for quarantined simulations; remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v != "")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v != "")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nsgames", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run a game experiment")
    sim.add_argument("--config", help="JSON config file; inline flags override it")
    sim.add_argument("--strategy", help='name, shorthand (e.g. local-table:0,1,1,0) or JSON blob')
    sim.add_argument("--players", type=int)
    sim.add_argument("--trials", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--root-override-depth", type=int)
    sim.add_argument("--parallelism", type=int,
                     help="accepted and ignored (it must be >= 1): every run "
                          "plays in the calling process")
    sim.add_argument("--azuma-n", type=_int_list, metavar="N1,N2,...")
    sim.add_argument("--azuma-eps", type=_float_list, metavar="E1,E2,...")
    sim.add_argument("--allow-cheat", action="store_true", default=None,
                     help="arm the root backdoor for negative-control strategies")
    sim.add_argument("--no-enforce", action="store_true", default=None,
                     help="score forbidden-access trials instead of quarantining")
    sim.add_argument("--format", choices=["json", "csv"], default="json")
    sim.add_argument("--out-dir", help=f"output directory (default ${OUT_DIR_ENV} or .)")

    ver = sub.add_parser("verify-behavior", help="check a behavior table")
    ver.add_argument("path", help="behavior JSON file")
    ver.add_argument("--tol", type=float, default=None,
                     help="tolerance, required for float tables")
    ver.add_argument("--strict", action="store_true",
                     help="check every party subset, not only single parties")
    ver.add_argument("--format", choices=["text", "json"], default="text")

    inv = sub.add_parser("invariance-test", help="chi-square shift-invariance test")
    inv.add_argument("--samples", type=int, default=10**6)
    inv.add_argument("--bins", type=int, default=256)
    inv.add_argument("--seed", type=int, default=0)
    inv.add_argument("--iterations", type=int, default=1)
    inv.add_argument("--sampler", choices=["uniform", "adversarial"], default="uniform")
    inv.add_argument("--alpha", type=float, default=1e-3)
    inv.add_argument("--out", help="also write the JSON report here")

    enu = sub.add_parser("enumerate-fns", help="count FNS vs factored function tuples")
    enu.add_argument("--inputs", type=_int_list, default=(2, 2), metavar="N1,N2,...")
    enu.add_argument("--outputs", type=_int_list, default=(2, 2), metavar="N1,N2,...")
    enu.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    return parser


def _config_problem(file_cfg) -> str | None:
    """Why a parsed --config document is unusable, or None if it is fine."""
    if not isinstance(file_cfg, dict):
        return "top level must be a JSON object"
    unknown = sorted(set(file_cfg) - CONFIG_KEYS)
    if unknown:
        return "unknown key " + ", ".join(repr(k) for k in unknown)
    if not isinstance(file_cfg.get("strategy", ""), (str, dict)):
        return f"'strategy' must be a string or an object, got {file_cfg['strategy']!r}"
    for key in INT_CONFIG_KEYS:
        if key in file_cfg and not is_int(file_cfg[key]):
            return f"{key!r} must be an integer, got {file_cfg[key]!r}"
    for key in BOOL_CONFIG_KEYS:
        if key in file_cfg and not isinstance(file_cfg[key], bool):
            return f"{key!r} must be true or false, got {file_cfg[key]!r}"
    lists = (("azuma-n", is_int, "integers"), ("azuma-eps", is_number, "numbers"))
    for key, ok, kind in lists:
        values = file_cfg.get(key)
        if values is not None and not (isinstance(values, list) and all(map(ok, values))):
            return f"{key!r} must be a list of {kind}, got {values!r}"
    return None


def _resolve(args, key: str, file_cfg: dict, default):
    flag = getattr(args, key.replace("-", "_"))
    return flag if flag is not None else file_cfg.get(key, default)


def _simulate(args) -> int:
    file_cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        # A ValueError is also bytes that are not UTF-8, or an integer past
        # Python's limit on int digits; a RecursionError is deep nesting.
        except (OSError, ValueError, RecursionError) as exc:
            print(f"config error: --config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        problem = _config_problem(file_cfg)
        if problem:
            print(f"config error: --config: {problem}", file=sys.stderr)
            return EXIT_CONFIG

    strategy_arg = _resolve(args, "strategy", file_cfg, None)
    if strategy_arg is None:
        print("config error: --strategy is required", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if isinstance(strategy_arg, dict):
            strategy_arg = json.dumps(strategy_arg)
        strategy = parse_strategy_arg(strategy_arg)
        # Still accepted from flag and file, so that existing scripts run;
        # checked, then ignored.
        parallelism = _resolve(args, "parallelism", file_cfg, 1)
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        # What neither a flag nor the file sets keeps ExperimentConfig's default.
        settings = {}
        for key, field in (
            ("root-override-depth", "override_depth"),
            ("azuma-n", "azuma_n"),
            ("azuma-eps", "azuma_eps"),
        ):
            value = _resolve(args, key, file_cfg, None)
            if value is not None:
                settings[field] = tuple(value) if isinstance(value, list) else value
        cfg = ExperimentConfig(
            strategy=strategy,
            players=_resolve(args, "players", file_cfg, 64),
            trials=_resolve(args, "trials", file_cfg, 1000),
            master_seed=_resolve(args, "seed", file_cfg, 0),
            enforce_contracts=not _resolve(args, "no-enforce", file_cfg, False),
            enable_backdoor=_resolve(args, "allow-cheat", file_cfg, False),
            **settings,
        )
    except (ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = run_experiment(cfg)
    except BackdoorDisabledError as exc:
        print(f"config error: {exc} (--allow-cheat)", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"config error: --trials x --players: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV, "."))
    if args.format == "json":
        outputs = {"report.json": result.render_json()}
    else:
        outputs = {"win.csv": result.win.to_csv(), "azuma.csv": result.azuma.to_csv()}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in outputs.items():
            (out_dir / name).write_text(text, encoding="utf-8")
        # The log, the bulk of the output, is written as it is built.
        with open(out_dir / "trials.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(result.trial_log_slices())
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    win = result.win
    pooled = "n/a" if win.pooled_freq is None else f"{win.pooled_freq:.6f}"
    print(f"trials={cfg.trials} players={cfg.players} strategy={strategy.name}")
    print(f"pooled win rate: {pooled}  scored={win.scored_trials} invalid={win.invalid_trials}")
    print(f"azuma violations: {result.azuma.violations}")
    if win.invalid_trials:
        raw = win.invalid_raw_success_rate
        print(f"SIGNALING-INVALID trials quarantined (raw success rate {raw:.4f})")
        return EXIT_SIGNALING
    return EXIT_OK


def _verify_behavior(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(
            f"input error: {args.path}: line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    # Bytes that are not UTF-8, an integer past Python's limit on int
    # digits, or nesting deeper than the decoder's recursion limit.
    except (ValueError, RecursionError) as exc:
        print(f"input error: {args.path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        behavior = Behavior.from_json(doc)
        ns = check_no_signaling(behavior, tol=args.tol, strict=args.strict)
        deterministic = is_deterministic_extremal(behavior, tol=args.tol)
        # A tolerance of 1/2 or more can make the reading ambiguous: no
        # certain outcome, or two, at some input.
        ft = functions_from_deterministic(behavior, tol=args.tol) if deterministic else None
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    fns = None if ft is None else check_fns(ft)

    if args.format == "json":
        print(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "no_signaling": ns.passed,
            "violations": [str(v) for v in ns.violations],
            "deterministic": deterministic,
            "fns": None if fns is None else fns.passed,
            "fns_violations": [] if fns is None else [str(v) for v in fns.violations],
        }, sort_keys=True, indent=2))
    else:
        print(f"NS: {'pass' if ns.passed else 'FAIL'}")
        for v in ns.violations:
            print(f"  {v}")
        print(f"deterministic: {'yes' if deterministic else 'no'}")
        if fns is not None:
            print(f"FNS: {'pass' if fns.passed else 'FAIL'}")
            for v in fns.violations:
                print(f"  {v}")
    return EXIT_OK if ns.passed else EXIT_REJECTED


def _invariance(args) -> int:
    try:
        report = invariance_test(
            samples=args.samples,
            bins=args.bins,
            seed=args.seed,
            iterations=args.iterations,
            sampler=args.sampler,
            alpha=args.alpha,
        )
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    doc = {"schema_version": SCHEMA_VERSION, **report.to_json()}
    if args.out:
        try:
            Path(args.out).write_text(
                json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    print(
        f"sampler={report.sampler} iterations={report.iterations} "
        f"bins={report.bins} samples={report.samples} seed={report.seed}"
    )
    print(f"chi-square p-value: {report.pvalue:.6g} "
          f"({'pass' if report.passed else 'REJECT'} at alpha={report.alpha:g})")
    return EXIT_OK if report.passed else EXIT_REJECTED


def _enumerate_fns(args) -> int:
    try:
        report = check_functional_locality_equivalence(
            args.inputs, args.outputs, budget=args.budget
        )
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    doc = {"schema_version": SCHEMA_VERSION, **report.to_json()}
    # The budget bounds the counts' digits, but not below Python's limit on
    # int-to-str conversion (4300 digits by default, from 3.10.7), which
    # json.dumps meets through int.__repr__: 15000 parties of one input and
    # two outputs have a 4516-digit total.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(json.dumps(doc, sort_keys=True, indent=2))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return EXIT_OK if report.coincide else EXIT_REJECTED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return _simulate(args)
    if args.command == "verify-behavior":
        return _verify_behavior(args)
    if args.command == "invariance-test":
        return _invariance(args)
    return _enumerate_fns(args)


if __name__ == "__main__":
    sys.exit(main())
