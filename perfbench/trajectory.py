"""Record and show the benchmark's trajectory: one entry per measured commit.

Run from the repository root:

    python3 perfbench/trajectory.py record --label "<what changed>"
    python3 perfbench/trajectory.py show

``record`` runs every workload at the tuning seed and at the held-out seed,
once untraced and once traced, and appends the numbers, the output digests
and the environment to perfbench/trajectory.json.  ``show`` prints the
end-to-end medians of every entry; an entry measured in another environment
than the newest one is marked "not comparable".
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
TRAJECTORY = BENCH_DIR / "trajectory.json"
TUNING_SEED = 1
HELDOUT_SEED = 7


def _load() -> list[dict]:
    if TRAJECTORY.exists():
        return json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    return []


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    detail = BENCH_DIR / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(detail.read_text(encoding="utf-8"))


def record(label: str) -> None:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    results: dict = {}
    entry: dict = {"label": label, "run_seconds": spec["run_seconds"], "results": results}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in (TUNING_SEED, HELDOUT_SEED):
            timed = _run(workload, seed, spec["run_seconds"], 0)
            traced = _run(workload, seed, spec["run_seconds"], 1)
            entry["environment"] = timed["environment"]
            entry["source_sha256"] = timed["source_sha256"]
            results.setdefault(workload, {})[str(seed)] = {
                "correct": timed["failed"] == 0 and traced["failed"] == 0,
                "attempted": timed["attempted"] + traced["attempted"],
                "failed": timed["failed"] + traced["failed"],
                "digests": timed["digests"],
                "digests_match_traced_run": timed["digests"] == traced["digests"],
                "end_to_end": {k: m["value"] for k, m in timed["metrics"].items()},
                "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            }
            print(f"{workload} seed {seed}: done", flush=True)
    entries = _load()
    entries.append(entry)
    TRAJECTORY.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


def show() -> None:
    entries = _load()
    if not entries:
        print("no entries")
        return
    newest = entries[-1]["environment"]["env_key"]
    for entry in entries:
        env = entry["environment"]
        note = "" if env["env_key"] == newest else "  NOT COMPARABLE (other environment)"
        print(f"== {entry['label']} commit={env['commit']} env_key={env['env_key']}{note}")
        for workload, seeds in entry["results"].items():
            for seed, r in seeds.items():
                numbers = " ".join(f"{k}={v:.4g}" for k, v in r["end_to_end"].items())
                print(f"  {workload:12s} seed={seed:>3s} correct={r['correct']} {numbers}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--label", required=True)
    sub.add_parser("show")
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.label)
    else:
        show()
    return 0


if __name__ == "__main__":
    sys.exit(main())
