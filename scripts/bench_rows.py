"""Time the rows of the perf record; median of REPEAT runs, each the best of CALLS.

    python scripts/bench_rows.py [--skip ROW ...] LABEL=SRC [LABEL=SRC ...]

Each SRC is a directory that holds the `mapscope` package (a checkout's
`src`).  Each repeat runs every row of every label, each label in a fresh
interpreter, so two trees never share imports or caches; the labels take
turns, in alternating order, so a drift in machine speed reaches them all
alike.  A run of a row is the least of CALLS back-to-back calls, so one slow
moment of the machine does not set it.  Library rows run in-process, with
every `lru_cache` of `mapscope.series`, `mapscope.trees` and `mapscope.verify`
cleared before each call, the memoised recurrence steppers of
`mapscope.series` among them, so each call pays what a cold process pays (the
imports aside: the first call of a row may import mpmath).  A row named
"..., b3_singularity warm" runs `b3_singularity()` after the clearing and
before the timed call.  The per-object rows (map and perm stats lines,
tree -> perm -> tree and tree text round trips, the deep member's rows, the
seeded 22-node and 100-node tree and map lines, the caterpillar, the
expansions and reductions of class members) time only the calls: their
inputs are built once, before any row.  The CLI rows run
`python -m mapscope.cli` as a subprocess, interpreter start-up included;
the cold-start row runs `python -c "import mapscope.cli"`, start-up and
imports alone.  Every subprocess reads its bytecode from a fresh cache
directory of its worker (`PYTHONPYCACHEPREFIX`, so no `__pycache__` in the
timed tree or elsewhere is read or written), primed by one untimed run of
each command: the rows time a warm bytecode cache, whatever the trees hold
and whatever `PYTHONDONTWRITEBYTECODE` says.
`--skip ROW` (repeatable) leaves out the row of that name, e.g. one a tree
is too slow to run.
Prints one JSON document: a machine header, then per label and row the
median and every run, in seconds.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from functools import partial

CLI_ROWS = [
    ["series", "--name", "p", "--terms", "400"],
    ["enumerate", "--object", "trees", "--size", "9", "--filter", "labels-max=3",
     "--filter", "no-only-children", "--count-only"],
    ["enumerate", "--object", "trees", "--size", "10", "--count-only"],
    ["enumerate", "--object", "trees", "--size", "10", "--filter", "k-face-free=3", "--count-only"],
    ["enumerate", "--object", "trees", "--size", "11", "--filter", "primitive"],
    ["enumerate", "--object", "maps", "--size", "10", "--filter", "primitive", "--count-only"],
]
REPEAT = 5
CALLS = 3


def _random_tree_text(rng: random.Random, nodes: int) -> str:
    """A beta(1,0)-tree of `nodes` nodes as text.  Node i > 0 becomes the
    last child of a node drawn among 0..i-1; leaves carry 1, the root its
    children's sum, any other node a label drawn from 1..children's sum."""
    kids: list[list[int]] = [[] for _ in range(nodes)]
    for i in range(1, nodes):
        kids[rng.randrange(i)].append(i)
    labels, texts = [0] * nodes, [""] * nodes
    for i in reversed(range(nodes)):
        total = sum(labels[k] for k in kids[i])
        labels[i] = 1 if not kids[i] else total if i == 0 else rng.randint(1, total)
        texts[i] = "(" + " ".join([str(labels[i]), *(texts[k] for k in kids[i])]) + ")"
    return texts[0]


def _library_rows():
    # The package's `series` function shadows the submodule's name.
    series = importlib.import_module("mapscope.series")
    trees = importlib.import_module("mapscope.trees")
    verify = importlib.import_module("mapscope.verify")
    maps = importlib.import_module("mapscope.maps")
    perms = importlib.import_module("mapscope.perms")
    cli = importlib.import_module("mapscope.cli")
    # Inputs of the per-object rows, built before any row is timed.
    map_lines = [maps.format_map(maps.tree_to_map(t)) for t in trees.enumerate_trees(8)]
    nine = trees.enumerate_trees(9)
    nine_texts = [trees.format_tree(t) for t in nine]
    # The decreasing member of 1,000 letters and its tree, the path on 1,001 nodes.
    deep = tuple(range(1000, 0, -1))
    path = trees.parse_tree("(1" * 1001 + ")" * 1001)
    # 200 seeded 100-node tree lines, the size of the stream's slowest objects.
    rng = random.Random(21)
    hundred = [_random_tree_text(rng, 100) for _ in range(200)]
    hundred_maps = [maps.format_map(maps.tree_to_map(trees.parse_tree(t))) for t in hundred]
    # 200 seeded 22-node trees, the size of the stream's largest permutations.
    rng = random.Random(26)
    twenty_two = [trees.parse_tree(_random_tree_text(rng, 22)) for _ in range(200)]
    # Class members: Av(<= 5), Av(6) and Av(<= 7).
    av = [perms.generate_av(n) for n in range(8)]
    av_5, av_6, av_7 = sum(av[:6], []), av[6], sum(av, [])
    # The 2,000-node caterpillar with maximum labels: each spine node holds a
    # leaf and the rest of the spine, so every star is found a whole face away.
    caterpillar = trees.node(1, [trees.leaf()])
    for _ in range(999):
        caterpillar = trees.node(caterpillar.label + 1, [trees.leaf(), caterpillar])

    return {
        "check_asymptotics()": verify.check_asymptotics,
        "check_asymptotics(), b3_singularity warm": verify.check_asymptotics,
        'run_suite("all", 7)': lambda: verify.run_suite("all", 7),
        "p_coefficient(1000)": lambda: series.p_coefficient(1000),
        "primitive_maps_with_edges(1000)": lambda: series.primitive_maps_with_edges(1000),
        'series("P", 240)': lambda: series.series("P", 240),
        'series("P", 400)': lambda: series.series("P", 400),
        'series("P", 4000)': lambda: series.series("P", 4000),
        'series("A_FORMULA", 2000)': lambda: series.series("A_FORMULA", 2000),
        'series("B1", 1000)': lambda: series.series("B1", 1000),
        'series("B2", 1000)': lambda: series.series("B2", 1000),
        'series("B1", 10000)': lambda: series.series("B1", 10000),
        'series("B2", 10000)': lambda: series.series("B2", 10000),
        'series("B3", 800)': lambda: series.series("B3", 800),
        'series("B3", 10000)': lambda: series.series("B3", 10000),
        "solve_equation(B3_EQUATION, 800)": lambda: series.solve_equation(
            series.B3_EQUATION, 800
        ),
        'series("A_ZEIL", 800)': lambda: series.series("A_ZEIL", 800),
        "solve_equation(B3_EQUATION, 201)": lambda: series.solve_equation(
            series.B3_EQUATION, 201
        ),
        "b3_singularity(), cache cleared": series.b3_singularity,
        "count_trees(10)": lambda: trees.count_trees(10),
        "cli._map_stat_row, maps of all 8-node trees": lambda: [
            cli._map_stat_row(maps.parse_map(line)) for line in map_lines
        ],
        "tree_to_perm + perm_to_tree, all 9-node trees": lambda: [
            perms.perm_to_tree(perms.tree_to_perm(t)) for t in nine
        ],
        "in_class, decreasing 1,000-letter member": lambda: perms.in_class(deep),
        "perm_to_tree, decreasing 1,000-letter member": lambda: perms.perm_to_tree(deep),
        "tree_to_perm, 1,001-node path": lambda: perms.tree_to_perm(path),
        "tree_to_perm, 200 seeded 22-node trees": lambda: [
            perms.tree_to_perm(t) for t in twenty_two
        ],
        "cli._perm_stat_row, Av(<= 7)": lambda: [cli._perm_stat_row(pi) for pi in av_7],
        "one_step_expansions, Av(<= 5)": lambda: [
            perms.one_step_expansions(pi) for pi in av_5
        ],
        "reduce_to_primitive, Av(6)": lambda: [perms.reduce_to_primitive(pi) for pi in av_6],
        "parse_tree + format_tree, all 9-node trees": lambda: [
            trees.format_tree(trees.parse_tree(text)) for text in nine_texts
        ],
        "parse_tree, 200 seeded 100-node trees": lambda: [
            trees.parse_tree(text) for text in hundred
        ],
        "tree_to_map(parse_tree(.)), 200 seeded 100-node trees": lambda: [
            maps.tree_to_map(trees.parse_tree(text)) for text in hundred
        ],
        "cli._tree_stat_row(parse_tree(.)), 200 seeded 100-node trees": lambda: [
            cli._tree_stat_row(trees.parse_tree(text)) for text in hundred
        ],
        "cli._map_stat_row(parse_map(.)), maps of 200 seeded 100-node trees": lambda: [
            cli._map_stat_row(maps.parse_map(line)) for line in hundred_maps
        ],
        "tree_to_map, 2,000-node caterpillar with maximum labels": lambda: maps.tree_to_map(
            caterpillar
        ),
        "select_trees(11), consumed": lambda: deque(trees.select_trees(11), maxlen=0),
    }, [
        f
        for module in (series, trees, verify)
        for f in vars(module).values()
        if hasattr(f, "cache_clear")
    ], series.b3_singularity


def _best(fn, before) -> float:
    """Seconds of the fastest of CALLS calls of fn, each after before()."""
    best = float("inf")
    for _ in range(CALLS):
        before()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _time_rows(src: str, skip: list[str]) -> dict[str, float]:
    """Seconds of one run of every row not in `skip`."""
    sys.path.insert(0, src)
    rows, caches, b3_singularity = _library_rows()

    def clear(name):
        for cache in caches:
            cache.cache_clear()
        if name.endswith("b3_singularity warm"):
            b3_singularity()

    out = {
        name: _best(fn, partial(clear, name)) for name, fn in rows.items() if name not in skip
    }
    commands = {'python -c "import mapscope.cli"': ["-c", "import mapscope.cli"]}
    for args in CLI_ROWS:
        commands["mapscope " + " ".join(args)] = ["-m", "mapscope.cli", *args]
    with tempfile.TemporaryDirectory() as cache:
        env = {**os.environ, "PYTHONPATH": src, "PYTHONPYCACHEPREFIX": cache}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        for name, argv in commands.items():
            if name not in skip:
                run = partial(
                    subprocess.run,
                    [sys.executable, *argv],
                    env=env,
                    stdout=subprocess.DEVNULL,
                    check=True,
                )
                run()  # writes the bytecode this command imports into the cache
                out[name] = _best(run, lambda: None)
    return out


def _machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                line.split(":", 1)[1].strip() for line in info if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--skip", action="append", default=[], metavar="ROW",
                        help="leave out the row of this name")
    parser.add_argument("trees", nargs="*", metavar="LABEL=SRC")
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(_time_rows(args.worker, args.skip), sys.stdout)
        return 0
    if not args.trees or any("=" not in t for t in args.trees):
        parser.error("give at least one LABEL=SRC")
    trees = [tree.split("=", 1) for tree in args.trees]
    runs: dict[str, dict[str, list[float]]] = {label: {} for label, _ in trees}
    for repeat in range(REPEAT):
        for label, src in trees if repeat % 2 == 0 else trees[::-1]:
            done = subprocess.run(
                [sys.executable, __file__, "--worker", os.path.abspath(src),
                 *(f"--skip={row}" for row in args.skip)],
                capture_output=True,
                text=True,
                check=True,
            )
            for name, seconds in json.loads(done.stdout).items():
                runs[label].setdefault(name, []).append(seconds)
    out = {"machine": _machine(), "repeat": REPEAT, "timings": {
        label: {
            name: {"median_s": round(statistics.median(ts), 6), "runs_s": [round(t, 6) for t in ts]}
            for name, ts in rows.items()
        }
        for label, rows in runs.items()
    }}
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
