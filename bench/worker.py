"""Run one batch of one workload in this (fresh) process and print its result.

    python3 bench/worker.py --workload NAME --seed N --batch K [--trace]

mapscope is imported from src/ of the checkout that holds this file.  With
--trace, the batch's aggregated spans go to .bench_out/ there.  Every CLI
command runs in-process
through `mapscope.cli.main`, with stdin, stdout and stderr replaced by
in-memory streams that stamp each line as the CLI takes or writes it.  The
outputs are checked against `refs` after the timed part.  The last stdout
line is one JSON object; run.py reads it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import refs  # noqa: E402
import spans  # noqa: E402

clock = time.perf_counter


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _Feed:
    """stdin stand-in: hands out lines and stamps when each is taken."""

    def __init__(self, lines):
        self._lines = iter(lines)
        self.stamps: list[float] = []

    def __iter__(self):
        return self

    def __next__(self) -> str:
        line = next(self._lines)
        self.stamps.append(clock())
        return line + "\n"


class _Sink:
    """stdout/stderr stand-in: keeps lines and stamps when each is complete."""

    def __init__(self):
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self._partial = ""

    def write(self, text: str) -> int:
        *done, self._partial = (self._partial + text).split("\n")
        if done:
            now = clock()
            self.lines.extend(done)
            self.stamps.extend([now] * len(done))
        return len(text)

    def flush(self) -> None:
        pass


class Call:
    def __init__(self, rc, out: _Sink, feed: _Feed, err: _Sink, elapsed: float, error: str):
        self.rc = rc
        self.lines = out.lines
        self.out_stamps = out.stamps
        self.in_stamps = feed.stamps
        self.stderr = "\n".join(err.lines + [err._partial]).strip()
        self.elapsed = elapsed
        self.error = error

    def service(self, i: int) -> float:
        """Time from taking input line i to writing its output line."""
        return self.out_stamps[i] - self.in_stamps[i]

    def problem(self) -> str:
        if self.error:
            return self.error
        if self.rc != 0:
            return f"exit code {self.rc}: {self.stderr[:200]}"
        return ""


def call_cli(main, argv, stdin_lines=()) -> Call:
    feed, out, err = _Feed(stdin_lines), _Sink(), _Sink()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = feed, out, err
    rc, error = None, ""
    start = clock()
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a traceback is a failed op, not a benchmark crash
        error = f"{type(exc).__name__}: {exc}"[:300]
    finally:
        elapsed = clock() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return Call(rc, out, feed, err, elapsed, error)


class Outcome:
    """Per-op latencies and failures of one batch."""

    def __init__(self):
        self.wall = 0.0
        self.peak_rss_mb = 0.0  # read after the CLI calls, before the checks
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, latency: float, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(problem)
        else:
            self.latencies.append(latency)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _legs_problem(calls, i: int) -> str | None:
    for c in calls:
        if c.problem():
            return c.problem()
        if i >= len(c.lines):
            return "no output"
    return None


def run_stream(main, seed: int, batch: int) -> Outcome:
    """Trees piped as users pipe them; an op is one object through its legs.

    The permutation legs run first, on the objects small enough for them,
    then the map and tree legs on all objects.  Each group's outputs are
    checked and dropped before the next group runs."""
    objs = inputs.stream_batch(seed, batch)
    scan = [o for o in objs if o.scan]
    result = Outcome()
    perm_done: list[tuple[float, str | None]] = []
    to_perm = call_cli(main, ("biject", "--from", "tree", "--to", "perm"), [o.text for o in scan])
    back = call_cli(main, ("biject", "--from", "perm", "--to", "tree"), to_perm.lines)
    perm_stats = call_cli(main, ("stats", "--object", "perm", "--format", "json"), to_perm.lines)
    result.peak_rss_mb = peak_rss_mb()
    calls = (to_perm, back, perm_stats)
    for k, o in enumerate(scan):
        problem = (
            _legs_problem(calls, k)
            or refs.check_perm_leg(o.text, o.nodes, to_perm.lines[k], back.lines[k])
            or refs.check_perm_stats(to_perm.lines[k], perm_stats.lines[k])
        )
        perm_done.append((0.0 if problem else sum(c.service(k) for c in calls), problem))
    result.wall = sum(c.elapsed for c in calls)
    del calls, to_perm, back, perm_stats

    to_map = call_cli(main, ("biject", "--from", "tree", "--to", "map"), [o.text for o in objs])
    map_stats = call_cli(main, ("stats", "--object", "map", "--format", "json"), to_map.lines)
    tree_stats = call_cli(main, ("stats", "--object", "tree", "--format", "json"), [o.text for o in objs])
    result.peak_rss_mb = peak_rss_mb()
    calls = (to_map, map_stats, tree_stats)
    result.wall += sum(c.elapsed for c in calls)
    perm_results = iter(perm_done)
    for i, o in enumerate(objs):
        problem = (
            _legs_problem(calls, i)
            or refs.check_map_stats(o.tree, to_map.lines[i], map_stats.lines[i])
            or refs.check_tree_stats(o.tree, o.text, tree_stats.lines[i])
        )
        latency = 0.0 if problem else sum(c.service(i) for c in calls)
        if o.scan:
            perm_latency, perm_problem = next(perm_results)
            problem = problem or perm_problem
            latency += perm_latency
        result.op(latency, problem and f"{o.text[:60]}: {problem}")
    return result


def _count_problem(q: inputs.CountQuery, lines: list[str]) -> str | None:
    if q.kind == "enumerate":
        return refs.check_count(refs.enumerate_reference(q.tree_nodes, q.filters), lines)
    fmt = q.argv[q.argv.index("--format") + 1]
    if q.kind == "series":
        if fmt == "csv":
            return refs.check_series_csv(q.name, q.n, lines)
        return refs.check_series_text(q.name, q.n, lines)
    return refs.check_asympt(q.name, q.n, fmt, lines)


def run_count(main, queries: list[inputs.CountQuery]) -> Outcome:
    """Counting queries; an op is one CLI command."""
    result = Outcome()
    done = [(q, call_cli(main, q.argv)) for q in queries]
    result.peak_rss_mb = peak_rss_mb()
    for q, c in done:
        result.wall += c.elapsed
        try:
            problem = c.problem() or _count_problem(q, c.lines)
        except (ValueError, IndexError, KeyError) as exc:
            problem = f"malformed output: {exc}"
        result.op(c.elapsed, problem and f"{' '.join(q.argv)}: {problem}")
    return result


def run_verify(main, commands: list[tuple[str, ...]]) -> Outcome:
    """The nine suites at a fixed size; an op is one suite."""
    result = Outcome()
    done = [(argv, call_cli(main, argv)) for argv in commands]
    result.peak_rss_mb = peak_rss_mb()
    for argv, c in done:
        result.wall += c.elapsed
        suite = argv[argv.index("--suite") + 1]
        try:
            problem = c.error or refs.check_suite(suite, inputs.VERIFY_MAX_SIZE, c.rc, c.lines)
        except (ValueError, IndexError, KeyError) as exc:
            problem = f"malformed report: {exc}"
        result.op(c.elapsed, problem and f"{suite}: {problem}")
    return result


def run_count_verify(main, seed: int, batch: int) -> Outcome:
    """The counting queries, then the suites, in one process; each part's
    outputs are checked and dropped before the next part runs."""
    queries, commands = inputs.count_verify_batch(seed, batch)
    result = run_count(main, queries)
    suites = run_verify(main, commands)
    result.wall += suites.wall
    result.peak_rss_mb = suites.peak_rss_mb  # ru_maxrss only grows
    result.latencies += suites.latencies
    result.attempted += suites.attempted
    result.failures += suites.failures
    return result


RUNNERS = {"stream": run_stream, "count-verify": run_count_verify}


def import_mapscope():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mapscope
    import mapscope.cli

    if Path(mapscope.__file__).resolve().parent != src / "mapscope":
        raise SystemExit(f"mapscope imported from {mapscope.__file__}, not {src}")
    return {
        name: sys.modules[f"mapscope.{name}"]
        for name in ("cli", "trees", "maps", "perms", "series", "verify")
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    modules = import_mapscope()
    import mpmath

    report = {"mpmath_dps": mpmath.mp.dps, "rss_before_calls_mb": peak_rss_mb()}
    tracer = originals = None
    if args.trace:
        tracer = spans.Tracer()
        originals = spans.install(tracer, modules)
    outcome = RUNNERS[args.workload](modules["cli"].main, args.seed, args.batch)
    report.update(
        wall_s=outcome.wall,
        latencies_s=outcome.latencies,
        attempted=outcome.attempted,
        failed=len(outcome.failures),
        failures=outcome.failures[:5],
        peak_rss_mb=outcome.peak_rss_mb,
    )
    if tracer is not None:
        report["layers"] = spans.layer_metrics(tracer, originals)
        out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}-batch{args.batch}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(spans.call_tree(tracer.spans), indent=1))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
