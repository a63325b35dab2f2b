"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --workloads sample_small certify --seeds 1 2 3 \
        [--seconds 15] [--trace 0] [--out perfbench/out/summary.json]

Runs are sequential, one process at a time.  For each workload and metric
the summary gives the values, their median, quartiles (as
``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median, which BENCHMARK.json's bounds limit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    info = json.loads(lines[-2])
    info["wall_s"] = time.perf_counter() - start
    return {"info": info, "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary JSON here")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, args.trace))
            values = {k: round(m["value"], 4) for k, m in runs[-1]["result"]["metrics"].items()}
            print(f"{workload} seed {seed}: {values if args.trace == 0 else 'ok'}", file=sys.stderr, flush=True)
        names = runs[0]["result"]["metrics"]
        metrics = {}
        for name, first in names.items():
            metrics[name] = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = first["unit"]
            if args.trace == 0:
                metrics[name]["bound"] = bounds.get(name)
        summary["workloads"][workload] = {
            "metrics": metrics,
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "env": runs[0]["info"]["env"],
            "runs": [{k: v for k, v in r["info"].items() if k != "env"} for r in runs],
        }
        for name, m in metrics.items():
            if args.trace == 0:
                print(f"{workload:14s} {name:12s} median {m['median']:.4f} {m['unit']:3s} "
                      f"spread {m['spread']:.4f} (bound {m['bound']})", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
