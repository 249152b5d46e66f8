"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload rerank-scale --seeds 1-10 [--out perfbench/baseline.json]

For every metric this prints the median over the runs and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json. Runs
go one at a time, each in its own process; the result lines are what
``run.py`` prints last. ``--out`` merges the medians and quartiles into a
JSON file keyed by workload, which is how ``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSON file to merge the summary into")
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}

    values: dict[str, list[float]] = {}
    runs = []
    provenance = None
    for seed in _seeds(args.seeds):
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        details = BENCH_DIR / ".work" / "results" / f"{args.workload}-seed{seed}-trace{args.trace}.json"
        provenance = provenance or json.loads(details.read_text())["provenance"]
        runs.append({"seed": seed, "correct": result["correct"], "failed": result["failed"]})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])

    summary = {}
    for key, series in sorted(values.items()):
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else float("nan")
        summary[key] = {"median": median, "q1": q1, "q3": q3, "iqr_share": spread, "n": len(series)}
        bound = bounds.get(key)
        verdict = "" if bound is None else f"  bound {bound}  {'ok' if spread <= bound / 3 else 'WIDE'}"
        print(f"{key:40s} median {median:12.6g}  iqr/median {spread:.4f}{verdict}")

    if args.out:
        out = Path(args.out)
        merged = json.loads(out.read_text()) if out.exists() else {}
        merged[args.workload] = {"seeds": args.seeds, "seconds": seconds, "trace": args.trace,
                                 "provenance": provenance, "runs": runs, "metrics": summary}
        out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
