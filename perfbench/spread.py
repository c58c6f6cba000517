"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``perfbench/run.py`` once per seed, one process at a time, and prints
for each metric the median of the runs and the distance between their first
and third quartiles as a share of the median, next to the metric's bound in
``BENCHMARK.json``:

    python3 perfbench/spread.py --workload sweep --seeds 0-9
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> float:
    """Interquartile distance over the median (0 when the median is 0)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range such as 0-9")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        cmd = [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"error: seed {seed} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        values = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"seed {seed}: correct {result['correct']} failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)
        for k, v in values.items():
            runs.setdefault(k, []).append(v)

    summary = {}
    for name, values in runs.items():
        summary[name] = {"median": statistics.median(values), "spread": spread(values), "bound": bounds.get(name)}
        print(f"{name}: median {summary[name]['median']:.5g}  spread {summary[name]['spread']:.3f}  "
              f"bound {bounds.get(name)}")
    print(json.dumps({"workload": args.workload, "seconds": seconds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
