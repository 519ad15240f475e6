"""Run one workload of the nsgames benchmark and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload local-suite --seed 1 --seconds 20 --trace 0

The workloads and metrics are listed in BENCHMARK.json.  Set-up time is the
median over several fresh processes, each timed from its start until its
workload's inputs are built and normalized by the calibration slices that
ran inside it (see calibration.py).  One more process then runs the workload's rounds for ``--seconds``: with ``--trace 0`` it
reports the end-to-end metrics, with ``--trace 1`` the per-layer ones.  Every output is checked;
the report and trial-log digests must also equal those of every earlier run
of the same source and seed, which are kept in ``perfbench/out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
whenever that line is printed; it is non-zero, with no result line, when the
benchmark cannot run (for example outside a checkout with ``src/nsgames``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibration

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest(root: Path) -> str:
    """SHA-256 over the library's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path) -> dict:
    """What the numbers depend on besides the code.

    Numbers whose ``env_key`` differs were measured in different
    environments and are not comparable.
    """
    env = {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
    }
    env["env_key"] = hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:16]
    env["commit"] = _commit(root)
    return env


def _session(root: Path, args, deadline: float, setup_only: bool) -> tuple[float, float, dict | None]:
    """Start one session; returns normalized (set-up s, import s) and the
    result (None for a set-up probe)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, str(BENCH_DIR / "session.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(OUT_DIR),
    ]
    if setup_only:
        command.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"session for {args.workload} ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"session for {args.workload} exited with code {proc.returncode}")
    ready = result = None
    for line in stdout.splitlines():
        if line.startswith("READY "):
            ready = line.split(maxsplit=4)[1:]
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if ready is None or (result is None and not setup_only):
        raise BenchError(f"session for {args.workload} printed no result")
    ready_at, paused, import_s = (float(v) for v in ready[:3])
    scale = calibration.scale(json.loads(ready[3]))
    return (ready_at - started - paused) * scale, import_s * scale, result


def check_digests(key: str, digests: dict) -> bool:
    """Compare with the digests of earlier runs of the same source and seed."""
    path = OUT_DIR / "digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if key in known:
        return known[key] == digests
    known[key] = digests
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return True


def run(args, root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {workloads}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)

    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        setup_s, import_s, _ = _session(root, args, deadline, setup_only=True)
        setups.append(setup_s)
        imports.append(import_s)
    _, _, result = _session(root, args, deadline, setup_only=False)

    measured = dict(result["metrics"])
    measured["setup_s"] = statistics.median(setups)
    measured["setup.import_s"] = statistics.median(imports)
    source = source_digest(root)
    digests_ok = check_digests(f"{args.workload}|{args.seed}|{source}", result["digests"])
    attempted = result["attempted"] + 1
    failed = result["failed"] + (0 if digests_ok else 1)
    failures = result["failures"] + ([] if digests_ok else ["digests differ from an earlier run"])

    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None or not math.isfinite(value):
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root),
        "source_sha256": source,
        "digests": result["digests"],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup_samples_s": setups,
        "import_samples_s": imports,
        "metrics": metrics,
        "session": {k: v for k, v in result.items() if k not in ("metrics", "failures")},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    return detail


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn a termination request into an exception, so that the session
    # process is stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "nsgames" / "__init__.py").is_file():
        print("perfbench: no src/nsgames here; run from the repository root", file=sys.stderr)
        return 2
    try:
        detail = run(args, root)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env = detail["environment"]
    print(f"workload={detail['workload']} seed={detail['seed']} trace={detail['trace']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} affinity={env['affinity']} env_key={env['env_key']}")
    print(f"report_sha256={detail['digests']['report_sha256']}")
    print(f"log_sha256={detail['digests']['log_sha256']}")
    for failure in detail["failures"]:
        print(f"FAILED: {failure}")
    for name, m in detail["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": detail["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
