"""framecrypt benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run reports the end-to-end metrics: the median
seconds per operation, the set-up time (median over fresh processes that
import framecrypt and finish their first, untimed operation) and the
process's peak resident memory.  With ``--trace 1`` it reports per-layer
metrics from a traced run, with spans written as JSON lines under
``perfbench/out/``.  Every operation's outputs are checked after its timer
stops; any failure makes the run exit nonzero.  The last stdout line is the
result object; the line before it records the run's environment and details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("sample_small", "sample_large", "certify", "exact_channel")
SETUP_SAMPLES = 3  # this process plus two fresh child processes
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# BLAS pinned to one thread before numpy loads, here and in child processes:
# one client on a small machine, and steadier timings
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def op_seed(seed: int, i: int) -> int:
    """Seed of operation i of a run with workload seed ``seed``."""
    return random.Random(f"{seed}:{i}").getrandbits(31)


def load_workload(name: str):
    """Import framecrypt from this checkout's sources and build the workload."""
    src = ROOT / "src"
    if not (src / "framecrypt" / "__init__.py").is_file():
        sys.exit(f"error: no framecrypt sources under {src}")
    sys.path.insert(0, str(src))
    import framecrypt

    if Path(framecrypt.__file__).resolve().parent != (src / "framecrypt").resolve():
        sys.exit(f"error: imported framecrypt from {framecrypt.__file__}, not from {src}")
    import workloads

    return workloads.WORKLOADS[name]()


def first_operation(name: str, seed: int):
    """Import framecrypt and run operation 0; returns (workload, result, seconds)."""
    start = time.perf_counter()
    workload = load_workload(name)
    result = workload.run(workload.inputs(op_seed(seed, 0)))
    return workload, result, time.perf_counter() - start


def child_setup(name: str, seed: int) -> None:
    """Entry point of a set-up sample process: report set-up seconds."""
    _, _, seconds = first_operation(name, seed)
    print(json.dumps({"setup_s": seconds}))


def child_setup_seconds(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-child"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up process failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
        "machine": platform.machine(),
    }


class Runner:
    """Closed loop over a workload's operations, checking each one."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.next_op = 1
        self.attempted = 0
        self.failures: list[str] = []
        self.gaps: list[float] = []
        self.stdout_bytes: list[int] = []

    def record(self, result, seed: int) -> None:
        """Count one operation and check its outputs (untimed)."""
        self.attempted += 1
        try:
            problems = self.workload.check(result, seed)
        except Exception as exc:  # a check that raises is a failed operation
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"op seed {seed}: " + "; ".join(problems))
            return
        self.stdout_bytes.append(self.workload.stdout_bytes(result))
        gap = self.workload.certified_gap(result)
        if gap is not None:
            self.gaps.append(gap)

    def loop(self, seconds: float, min_ops: int) -> list[float]:
        """Run operations for ``seconds`` (and at least ``min_ops`` of them);
        return the times of those that completed."""
        times = []
        deadline = time.perf_counter() + seconds
        for _ in range(min_ops):
            self.step(times)
        while time.perf_counter() < deadline:
            self.step(times)
        return times

    def paired_loop(self, seconds: float, tracer, min_pairs: int = 2) -> tuple[list[float], list[float]]:
        """Alternate untraced and traced operations for ``seconds``; return
        both lists of times.  Pairing keeps slow drifts of the machine out of
        the tracing overhead."""
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        while len(traced) < min_pairs or time.perf_counter() < deadline:
            self.step(plain)
            with tracer:
                self.step(traced, tracer)
        return plain, traced

    def step(self, times: list[float], tracer=None) -> None:
        seed = op_seed(self.seed, self.next_op)
        inputs = self.workload.inputs(seed)
        if tracer is not None:
            tracer.begin_op(self.next_op)
        self.next_op += 1
        start = time.perf_counter()
        try:
            result = self.workload.run(inputs)
        except Exception as exc:  # the operation failed; count it and go on
            self.attempted += 1
            self.failures.append(f"op seed {seed}: raised {type(exc).__name__}: {exc}")
            return
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
        times.append(elapsed)
        self.record(result, seed)


def per_layer_metrics(tracer, totals: dict, n_ops: int, runner: Runner, overhead: float) -> dict:
    """Per-operation calls, self time and computed counts of each layer."""
    metrics = {}
    for home, funcs in tracing.TARGETS:
        for func in funcs:
            name = tracing.span_name(home, func)
            entry = totals.get(name, {"calls": 0, "self_s": 0.0})
            metrics[f"{name}.calls"] = (entry["calls"] / n_ops, "count")
            metrics[f"{name}.self_s"] = (entry["self_s"] / n_ops, "s")
    for counter, unit, _ in tracing.RETURN_COUNTERS.values():
        metrics[counter] = (tracer.counters.get(counter, 0) / n_ops, unit)
    metrics["cli.stdout_bytes"] = (statistics.fmean(runner.stdout_bytes), "bytes")
    metrics["privacy.certified_gap"] = (statistics.fmean(runner.gaps) if runner.gaps else 0.0, "trace_norm")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def select(metrics: dict, listed: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, in its order; all must be measured,
    each in the unit the manifest gives it."""
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        sys.exit(f"error: metrics listed in BENCHMARK.json but not measured: {missing}")
    wrong = [(m["name"], metrics[m["name"]]["unit"], m["unit"]) for m in listed
             if metrics[m["name"]]["unit"] != m["unit"]]
    if wrong:
        sys.exit(f"error: metrics measured in another unit than BENCHMARK.json gives: {wrong}")
    return {m["name"]: metrics[m["name"]] for m in listed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_child:
        child_setup(args.workload, args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    setup = []
    if not args.trace:
        setup = [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    workload, first, first_s = first_operation(args.workload, args.seed)
    setup.append(first_s)
    runner = Runner(workload, args.seed)
    runner.record(first, op_seed(args.seed, 0))

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    metrics = {}
    if not args.trace:
        times = runner.loop(run_seconds, min_ops=3)
        info.update(ops=len(times), op_s=times, setup_s=setup)
        if times:
            metrics = select({
                "op_s_p50": {"value": statistics.median(times), "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
                },
            }, spec["end_to_end"])
    else:
        tracer = tracing.Tracer()
        plain, traced = runner.paired_loop(run_seconds, tracer)
        totals = tracer.totals()
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"trace_{args.workload}_{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        info.update(ops_untraced=len(plain), ops_traced=len(traced), spans=str(spans_path.relative_to(ROOT)))
        if plain and traced:
            overhead = statistics.median(traced) / statistics.median(plain)
            metrics = select(per_layer_metrics(tracer, totals, len(traced), runner, overhead),
                             spec["per_layer"])
            op_s = statistics.fmean(traced)
            shares = {name: e["self_s"] / len(traced) / op_s for name, e in totals.items()}
            info["self_share"] = {k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}
    if runner.gaps:
        info["certified_gap_mean"] = statistics.fmean(runner.gaps)
    info["failures"] = runner.failures
    info["env"] = environment()
    print(json.dumps(info))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 1 if runner.failures else 0


if __name__ == "__main__":
    sys.exit(main())
