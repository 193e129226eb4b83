"""Seeded inputs for the two workloads.

Every batch is a pure function of (seed, batch index), so a run can be
repeated exactly, and the traced and untraced halves of a traced run see the
same inputs.  The mix of sizes and queries in a batch is fixed; the seed
chooses shapes, labels, order and a few cheap parameters.  That keeps the
cost of a batch nearly the same from seed to seed, so a change in a metric
comes from the program and not from the draw.  See README.md for why each
workload exists.

Trees here are the benchmark's own: nested tuples ``(label, children)``,
built and printed without mapscope, so that the checks in ``refs`` stay
independent of the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("stream", "count-verify")

# stream: most objects are desk-sized; one size of larger tree makes the
# O(n^4) membership scan of `biject --from perm` and `stats --object perm`
# show in the tail percentile (a single size, so the percentile reads one kind
# of object instead of the boundary between two); trees that go through the
# map and tree legs only can be much larger, because those legs run no scan.
# A batch lasts a few seconds, so that it averages over the short swings in
# speed of a shared machine.
DESK_SIZES = range(4, 13)
DESK_PER_SIZE = 132
SCAN_TAIL_SIZE = 22
SCAN_TAIL_PER_BATCH = 24
MAP_ONLY_SIZES = range(40, 120, 2)
MAP_ONLY_PER_SIZE = 3

# verify: suite sizes are capped with --max-size; the asymptotics suite has
# no size parameter and costs about 5 s on its own.
VERIFY_MAX_SIZE = 7


def batch_rng(seed: int, batch: int) -> random.Random:
    return random.Random(f"mapscope-bench:{seed}:{batch}")


# ---------------------------------------------------------------------------
# beta(1,0)-trees
# ---------------------------------------------------------------------------


def random_tree(rng: random.Random, nodes: int, is_root: bool = True) -> tuple:
    """A beta(1,0)-tree with exactly `nodes` nodes (not uniformly drawn).

    Leaves carry 1, the root carries its children's label sum, and every
    other internal node a label drawn from 1..children's sum.
    """
    if nodes == 1:
        return (1, ())
    kids = []
    left = nodes - 1
    while left:
        size = rng.randint(1, left)
        kids.append(random_tree(rng, size, False))
        left -= size
    total = sum(k[0] for k in kids)
    return (total if is_root else rng.randint(1, total), tuple(kids))


def format_tree(t: tuple) -> str:
    label, kids = t
    if not kids:
        return f"({label})"
    return f"({label} " + " ".join(format_tree(k) for k in kids) + ")"


@dataclass(frozen=True)
class StreamObject:
    tree: tuple
    text: str
    nodes: int
    scan: bool  # also runs the permutation legs


def stream_batch(seed: int, batch: int) -> list[StreamObject]:
    rng = batch_rng(seed, batch)
    plan = [(n, True) for n in DESK_SIZES for _ in range(DESK_PER_SIZE)]
    plan += [(SCAN_TAIL_SIZE, True)] * SCAN_TAIL_PER_BATCH
    plan += [(n, False) for n in MAP_ONLY_SIZES for _ in range(MAP_ONLY_PER_SIZE)]
    rng.shuffle(plan)
    out = []
    for nodes, scan in plan:
        t = random_tree(rng, nodes)
        out.append(StreamObject(t, format_tree(t), nodes, scan))
    return out


# ---------------------------------------------------------------------------
# count-verify, first part: counting queries
# ---------------------------------------------------------------------------

_KINDS = ("trees", "maps", "perms")

# (name, terms) per `series` query; p and pprime run through `compose`,
# which is cubic in the number of terms.
SERIES_TERMS = (
    ("a", 120),
    ("a-zeil", 60),
    ("a-hyp", 60),
    ("p", 40),
    ("pprime", 40),
    ("b1", 120),
    ("b2", 100),
    ("b3", 80),
)
ASYMPT_NAMES = ("a", "p", "pprime", "b1", "b2", "b3")
ASYMPT_RANGE = (1_000, 20_000)


@dataclass(frozen=True)
class CountQuery:
    argv: tuple[str, ...]
    kind: str  # "enumerate", "series", "asympt"
    tree_nodes: int = 0  # enumerate: nodes of the trees being counted
    filters: tuple[str, ...] = ()
    name: str = ""  # series / asympt
    n: int = 0  # series: terms; asympt: --at


def _enumerate_query(kind: str, tree_nodes: int, filters: tuple[str, ...]) -> CountQuery:
    size = tree_nodes - 1 if kind == "perms" else tree_nodes
    argv = ["enumerate", "--object", kind, "--size", str(size), "--count-only"]
    for f in filters:
        argv += ["--filter", f]
    return CountQuery(tuple(argv), "enumerate", tree_nodes, filters)


def count_batch(seed: int, batch: int) -> list[CountQuery]:
    rng = batch_rng(seed, batch)
    # The object kinds rotate in a fixed order, so every batch asks the same
    # enumerate queries; the seed draws the asympt queries and the order.
    slots = [(n, ()) for n in range(6, 11)]
    slots += [(n, ("primitive",)) for n in (7, 8, 9)]
    for cap, sizes in ((1, (8, 9)), (2, (8, 9)), (3, (9,))):
        slots += [(n, (f"labels-max={cap}", "no-only-children")) for n in sizes]
    queries = [_enumerate_query(_KINDS[i % 3], n, f) for i, (n, f) in enumerate(slots)]
    for name, terms in SERIES_TERMS:
        for fmt in ("text", "csv"):
            argv = ("series", "--name", name, "--terms", str(terms), "--format", fmt)
            queries.append(CountQuery(argv, "series", name=name, n=terms))
    for name in ASYMPT_NAMES:
        for _ in range(2):
            at = rng.randint(*ASYMPT_RANGE)
            fmt = rng.choice(("text", "json", "csv"))
            argv = ("asympt", "--name", name, "--at", str(at), "--format", fmt)
            queries.append(CountQuery(argv, "asympt", name=name, n=at))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# count-verify, second part: the nine suites, one CLI command each, in
# registry order
# ---------------------------------------------------------------------------

SUITES = (
    "counts",
    "table1",
    "theorem5",
    "kfacefree",
    "bounds",
    "primitive",
    "closure",
    "series",
    "asymptotics",
)


def verify_batch(seed: int, batch: int) -> list[tuple[str, ...]]:
    """The suites are exhaustive at a fixed size, so the seed changes nothing."""
    return [
        ("verify", "--suite", s, "--max-size", str(VERIFY_MAX_SIZE), "--format", "json")
        for s in SUITES
    ]


def count_verify_batch(seed: int, batch: int) -> tuple[list[CountQuery], list[tuple[str, ...]]]:
    return count_batch(seed, batch), verify_batch(seed, batch)


BATCHES = {"stream": stream_batch, "count-verify": count_verify_batch}
