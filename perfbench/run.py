"""Plan-building benchmark for baoc: ingest, solve and sweep workloads.

One workload run (untraced runs report the end-to-end metrics, traced runs
the per-layer metrics; the last stdout line is the JSON result):

    python3 perfbench/run.py --workload ingest --seed 0 --seconds 30 --trace 0

Every workload, each untraced and then traced, one process at a time:

    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the repository root; the package is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("ingest", "solve", "sweep")
# BLAS and OpenMP pools are pinned to one thread so that a run never uses
# more threads than it measures, and peak RSS belongs to one workload.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload untraced then traced, every run in its own process."""
    combined: dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"error: {workload} run (trace {trace}) exited with {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                combined[f"{workload}.{name}"] = metric
            print(flush=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "baoc" / "__init__.py").is_file():
        print(f"error: no baoc sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import harness

    outcome = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    units = harness.PER_LAYER_UNITS if args.trace else harness.END_TO_END_UNITS
    print("\n".join(outcome.report))
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in outcome.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
