"""mapscope benchmark: one run of one workload.

    python3 bench/run.py --workload {stream,count-verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; mapscope is imported from ./src.
One client, closed loop, no threads: each batch runs in a fresh Python
process (bench/worker.py), so the program's caches start cold as they do
for a CLI call, and the peak memory read belongs to that batch.  A run
starts batches for S seconds: it starts another batch while the run so far,
plus the mean cost of a batch so far, fits in S, and it runs at least
MIN_BATCHES (a traced run: at least one pair).

--trace 0 prints the end-to-end metrics: each timing is read per batch (or
per cold start, spread between the batches) and taken over them by
loaded().  --trace 1 runs pairs of untraced and traced batches on the same
inputs and prints the per-layer metrics (medians over the traced batches)
and the tracing overhead.  Before the
result, the run prints a machine header and the details behind the metrics;
the last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170.0
MIN_BATCHES = 3
SETUP_PER_BATCH = 2
SETUP_SAMPLES = 15

# (name, unit, better) of every end-to-end metric, in BENCHMARK.json's order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Tail percentiles tried, highest first; the first with at least ten
# samples beyond it is reported.
TAIL_GRID = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)

_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import mapscope, mapscope.cli
if not mapscope.__file__.startswith(sys.argv[1]):
    sys.exit(3)
mapscope.cli.build_parser()
sys.stdout.write(str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)))
"""


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MAPSCOPE_MAX_SIZE", None)  # the workloads fix their own sizes
    env["PYTHONHASHSEED"] = "0"
    return env


def remaining(started: float) -> float:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 1:
        raise BenchError("out of time")
    return left


def cold_start_s(started: float) -> float:
    """Fresh interpreter -> mapscope.cli imported and build_parser() done."""
    src = str(ROOT / "src")
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, src],
        capture_output=True, text=True, env=child_env(), timeout=remaining(started),
    )
    if proc.returncode != 0:
        raise BenchError(f"cold-start probe failed ({proc.returncode}): {proc.stderr[-500:]}")
    return (int(proc.stdout) - t0) / 1e9


def run_batch(args, batch: int, trace: bool, started: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--batch", str(batch),
    ]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=child_env(), timeout=remaining(started)
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr[-1500:]}")
    result = json.loads(lines[-1])
    for failure in result["failures"]:
        print(f"FAILED {args.workload} batch {batch}: {failure}", file=sys.stderr)
    return result


def tail_percentile(run: int, batch: int) -> float:
    """The highest percentile in TAIL_GRID, by nearest rank, with at least
    ten of the run's `run` samples beyond it and two of a batch's `batch`,
    so that no batch reads its slowest op or runner-up alone, which one
    hiccup of the machine can set; 50 if none has."""
    for p in TAIL_GRID:
        if run - math.ceil(p / 100 * run) >= 10 and batch - math.ceil(p / 100 * batch) >= 2:
            return p
    return 50.0


def nearest_rank(samples: list[float], p: float) -> float:
    xs = sorted(samples)
    return xs[max(1, math.ceil(p / 100 * len(xs))) - 1]


def loaded(samples: list[float], rate: bool = False) -> float:
    """The speed of a loaded shared machine: the upper quartile of times,
    or the lower quartile of rates.  Such a machine has bursts, when its
    neighbours go idle, in which batches run up to 1.5 times faster; the
    quartile ignores bursts that cover up to three quarters of a run, where
    the median moves with every burst longer than half of it."""
    if len(samples) == 1:
        return samples[0]
    low, _, high = statistics.quantiles(samples, n=4, method="inclusive")
    return low if rate else high


def another(args, started: float, done: int, at_least: int) -> bool:
    """Whether to start another batch (or traced pair): at least `at_least`,
    then more while the run so far plus its mean cost per batch fits in
    --seconds."""
    if done < at_least:
        return True
    spent = time.monotonic() - started
    return spent + spent / done <= args.seconds


def end_to_end(args, started: float) -> tuple[dict, dict, list[dict]]:
    # The cold starts are spread over the run, between batches, so that they
    # see the same machine as the batches do.  The first one only
    # warms the file cache and the bytecode cache.
    cold_start_s(started)
    probe, runs = [], []
    while another(args, started, len(runs), MIN_BATCHES):
        probe += [cold_start_s(started) for _ in range(SETUP_PER_BATCH)]
        runs.append(run_batch(args, len(runs), False, started))
    probe += [cold_start_s(started) for _ in range(SETUP_SAMPLES - len(probe))]
    # Latencies are read per batch and then taken over the batches by loaded().
    latencies = [r["latencies_s"] for r in runs if r["latencies_s"]]
    if not latencies:
        raise BenchError("no operation succeeded")
    samples = sum(map(len, latencies))
    p = tail_percentile(samples, min(map(len, latencies)))
    metrics = {
        "setup_s": loaded(probe),
        "wall_s": loaded([r["wall_s"] for r in runs]),
        "ops_per_s": loaded([len(r["latencies_s"]) / r["wall_s"] for r in runs], rate=True),
        "op_p50_ms": loaded([statistics.median(x) for x in latencies]) * 1e3,
        "op_tail_ms": loaded([nearest_rank(x, p) for x in latencies]) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    details = {
        "op_tail_percentile": p,
        "op_samples": samples,
        "failed_ratio": failed / attempted,
        "setup_samples_s": probe,
        "batch_wall_s": [r["wall_s"] for r in runs],
        "rss_before_calls_mb": statistics.median(r["rss_before_calls_mb"] for r in runs),
    }
    return metrics, details, runs


def per_layer(args, started: float) -> tuple[dict, dict, list[dict]]:
    plain, traced = [], []
    while another(args, started, len(plain), 1):
        k = len(plain)
        plain.append(run_batch(args, k, False, started))
        traced.append(run_batch(args, k, True, started))
    overheads = [t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced)]
    metrics = {
        name: statistics.median(t["layers"][name] for t in traced)
        for name, _, _ in spans.PER_LAYER
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = statistics.median(overheads)
    details = {
        "untraced_wall_s": [u["wall_s"] for u in plain],
        "traced_wall_s": [t["wall_s"] for t in traced],
        "spans_written_to": ".bench_out/",
    }
    return metrics, details, plain + traced


def machine_header(runs: list[dict]) -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "mpmath_dps_seen": sorted({r["mpmath_dps"] for r in runs}),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "mapscope" / "cli.py").is_file():
        print(f"run.py: no mapscope source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, details, runs = measure(args, started)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    units = {name: unit for name, unit, _ in (spans.PER_LAYER if args.trace else END_TO_END)}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"machine": machine_header(runs)}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "batches": len(runs), **details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
