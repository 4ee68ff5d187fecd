"""Run the benchmark several times and report each metric's spread.

    python3 perfbench/repeat.py --workload cli_small --seeds 1-10 [--trace 1]
        [--seconds 20] [--out summary.json]

Run from the repository root. For every metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread:
(Q3 - Q1) / median. With --out it also writes those figures as JSON, the
form perfbench/baseline.json keeps them in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = args.seconds or json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = 0
    for seed in args.seeds:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failed += result["failed"] + (not result["correct"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed} ({time.perf_counter() - start:.1f} s): "
              f"correct={result['correct']} " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
            flush=True)

    summary = {name: {**summarize(vals), "unit": units[name], "runs": len(vals)}
               for name, vals in values.items()}
    for name, figures in summary.items():
        print(f"{name}: median {figures['median']:.6g} {figures['unit']}, "
              f"Q1 {figures['q1']:.6g}, Q3 {figures['q3']:.6g}, "
              f"spread {figures['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seeds": args.seeds, "seconds": seconds,
            "trace": args.trace, "failed": failed, "metrics": summary}, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
