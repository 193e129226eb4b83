"""Layer spans for the traced run, recorded from outside the program.

`install` wraps mapscope's public functions and rebinds each wrapper under
every name that a mapscope module imported it by (`cli` and `verify` use
`from .perms import in_class` and the like), and in `verify`'s suite
registry.  A wrapper records a span -- name, parent, start, end -- when a
call crosses from one layer into another.  The layer is the module, except
in `series` and `verify`, where each function group is a layer of its own:
their public functions call one another (a named series is built by
`compose` or `solve_equation`; `run_suite` runs the check suites, and
`check_closure` calls the oracle `brute_force_av`), and that split is what
their metrics ask about.  A call within a layer is counted but not timed
apart, so the membership scan that `perm_to_tree` runs through `in_class`
is part of `perm_to_tree`'s time.

Within trees, maps and perms a wrapper sits in the defining module only
where a metric counts calls made inside it (`validate_map`, `in_class`,
`occurrences`, the enumerators); elsewhere intra-module calls go straight
to the function and cost nothing extra.  Generator functions are not
wrapped: their work happens in the caller.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# module -> {function: group}.  A metric "<module>.<group>_s" is the self time
# of the group's spans.
TABLE = {
    "cli": {"main": "self"},
    "trees": {
        "enumerate_trees": "enumerate",
        "enumerate_restricted_trees": "enumerate",
        "count_trees": "enumerate",
        "parse_tree": "parse",
        "format_tree": "format",
        "tree_stats": "predicates",
        "is_primitive_tree": "predicates",
        "is_k_face_free_tree": "predicates",
        "mef_necessary": "predicates",
        "has_no_only_children": "predicates",
        "validate_tree": "validate",
        "is_valid_tree": "validate",
    },
    "maps": {
        "tree_to_map": "tree_to_map",
        "faces": "faces",
        "face_degrees": "faces",
        "vertex_orbits": "faces",
        "internal_2face_count": "faces",
        "canonical_code": "canonical_code",
        "is_nonseparable": "nonseparable",
        "has_multiple_edges": "nonseparable",
        "validate_map": "validate",
        "is_valid_map": "validate",
        "parse_map": "io",
        "format_map": "io",
    },
    "perms": {
        "in_class": "in_class",
        "perm_to_tree": "perm_to_tree",
        "tree_to_perm": "tree_to_perm",
        "occurrences": "occurrences",
        "occurrence_positions": "occurrences",
        "avoids": "occurrences",
        "generate_av": "generate_av",
        "parse_perm": "io",
        "format_perm": "io",
        "components": "other",
        "lr_maxima": "other",
        "is_indecomposable": "other",
        "is_primitive_perm": "other",
        "reduce_to_primitive": "other",
        "one_step_expansions": "other",
    },
    "series": {
        "series": "series",
        "solve_equation": "solve_equation",
        "compose": "compose",
        "asymptotic": "asymptotic",
        "exact_coefficient": "exact_coefficient",
        "b3_singularity": "b3_singularity",
        "primitive_maps_with_edges": "primitive_maps",
        "_b_series_coeffs": "int_path",
        "sqrt_series": "other",
        "tutte_count": "other",
        "maps_with_edges": "other",
        "p_coefficient": "other",
        "pprime_coefficient": "other",
        "b1_closed_form": "other",
        "b2_closed_form": "other",
    },
    "verify": {
        "run_suite": "other",
        "format_report": "other",
        "report_to_dict": "other",
        "brute_force_av": "brute_force_av",
        # the check_* functions are taken from the suite registry
    },
}

SPLIT_MODULES = ("series", "verify")
COUNTED_INSIDE = {
    "maps.validate_map",
    "perms.in_class",
    "perms.occurrences",
    "trees.enumerate_trees",
    "trees.enumerate_restricted_trees",
}
ENUMERATORS = ("trees.enumerate_trees", "trees.enumerate_restricted_trees")


@dataclass
class Span:
    name: str  # "module.function"
    parent: int  # index into the span list, -1 for none
    start: int  # ns
    end: int = 0


class Tracer:
    """Spans and counts of one traced batch, kept in memory."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.group_of: dict[str, str] = {}  # "module.function" -> "module.group"
        self.trees_built = 0
        self.occurrence_keys: set = set()
        self.suites: list[str] = []  # "verify.<suite>" groups
        self._stack: list[tuple[int, str]] = []  # (span index, layer)

    def wrap(self, fn, name: str, group: str, layer: str):
        self.group_of[name] = group
        spans, stack, calls, clock = self.spans, self._stack, self.calls, self.clock
        counts_result = name in ENUMERATORS
        keys = self.occurrence_keys if name == "perms.occurrences" else None

        def traced(*args, **kwargs):
            calls[name] += 1
            if keys is not None and len(args) == 2:
                keys.add((args[0], tuple(args[1])))
            if stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                span = Span(name, stack[-1][0] if stack else -1, clock())
                stack.append((len(spans), layer))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = clock()
                    stack.pop()
            if counts_result:
                self.trees_built += len(result)
            return result

        return traced


def install(tracer: Tracer, modules: dict) -> dict:
    """Wrap the functions in TABLE and the suite registry of `modules`
    ({"cli": module, "trees": module, ...}).  Returns {"module.function":
    original function}."""
    originals = {}
    verify = modules["verify"]
    table = {mod: dict(funcs) for mod, funcs in TABLE.items()}
    for suite, (func, _) in verify._SUITES.items():
        table["verify"][func.__name__] = suite
        tracer.suites.append(f"verify.{suite}")
    wrappers = {}
    for mod_name, funcs in table.items():
        home = modules[mod_name]
        for fn_name, group in funcs.items():
            fn = getattr(home, fn_name, None)
            if fn is None or inspect.isgeneratorfunction(fn):
                continue
            name = f"{mod_name}.{fn_name}"
            layer = f"{mod_name}.{group}" if mod_name in SPLIT_MODULES else mod_name
            wrapper = tracer.wrap(fn, name, f"{mod_name}.{group}", layer)
            originals[name] = fn
            wrappers[id(fn)] = wrapper
            inside = mod_name in SPLIT_MODULES or mod_name == "cli" or name in COUNTED_INSIDE
            for module in modules.values():
                if module is home and not inside:
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
    verify._SUITES = {
        suite: (wrappers[id(func)], defaults) for suite, (func, defaults) in verify._SUITES.items()
    }
    return originals


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part its child spans cover."""
    covered = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - covered[i] for i, s in enumerate(spans)]


def group_self_seconds(spans: list[Span], group_of: dict[str, str]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[group_of[s.name]] += own / 1e9
    return dict(out)


def call_tree(spans: list[Span]) -> list[dict]:
    """Spans aggregated by (parent name, name): what is written to disk."""
    agg: dict = {}
    for s, own in zip(spans, self_times(spans)):
        key = (spans[s.parent].name if s.parent >= 0 else "", s.name)
        row = agg.setdefault(key, [0, 0, 0])
        row[0] += 1
        row[1] += s.end - s.start
        row[2] += own
    return [
        {"parent": p, "name": n, "spans": c, "total_s": t / 1e9, "self_s": o / 1e9}
        for (p, n), (c, t, o) in sorted(agg.items(), key=lambda kv: -kv[1][1])
    ]


# (name, unit, better) of every per-layer metric, in BENCHMARK.json's order.
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("trees.enumerate_s", "s", "lower"),
    ("trees.enumerate_calls", "count", "lower"),
    ("trees.trees_built", "count", "lower"),
    ("trees.parse_s", "s", "lower"),
    ("trees.format_s", "s", "lower"),
    ("trees.predicates_s", "s", "lower"),
    ("trees.validate_s", "s", "lower"),
    ("maps.tree_to_map_s", "s", "lower"),
    ("maps.faces_s", "s", "lower"),
    ("maps.canonical_code_s", "s", "lower"),
    ("maps.nonseparable_s", "s", "lower"),
    ("maps.validate_s", "s", "lower"),
    ("maps.io_s", "s", "lower"),
    ("maps.validate_per_map", "ratio", "lower"),
    ("perms.in_class_s", "s", "lower"),
    ("perms.in_class_calls", "count", "lower"),
    ("perms.perm_to_tree_s", "s", "lower"),
    ("perms.tree_to_perm_s", "s", "lower"),
    ("perms.occurrences_s", "s", "lower"),
    ("perms.occurrences_repeat_ratio", "ratio", "lower"),
    ("perms.generate_av_s", "s", "lower"),
    ("perms.io_s", "s", "lower"),
    ("perms.other_s", "s", "lower"),
    ("series.series_s", "s", "lower"),
    ("series.solve_equation_s", "s", "lower"),
    ("series.compose_s", "s", "lower"),
    ("series.asymptotic_s", "s", "lower"),
    ("series.exact_coefficient_s", "s", "lower"),
    ("series.b3_singularity_s", "s", "lower"),
    ("series.primitive_maps_s", "s", "lower"),
    ("series.int_path_s", "s", "lower"),
    ("series.other_s", "s", "lower"),
    ("series.b3_singularity_hits", "count", "higher"),
    ("series.b3_singularity_misses", "count", "lower"),
    ("series.primitive_maps_hits", "count", "higher"),
    ("series.primitive_maps_misses", "count", "lower"),
    *[(f"verify.{suite}_s", "s", "lower") for suite in (
        "counts", "table1", "theorem5", "kfacefree", "bounds",
        "primitive", "closure", "series", "asymptotics",
    )],
    ("verify.oracle_s", "s", "lower"),
    ("verify.brute_force_av_s", "s", "lower"),
    ("verify.other_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _cache(originals: dict, name: str, field: str) -> int:
    fn = originals.get(name)
    return getattr(fn.cache_info(), field) if hasattr(fn, "cache_info") else 0


def layer_metrics(tracer: Tracer, originals: dict) -> dict[str, float]:
    """Every PER_LAYER value of one traced batch except trace.overhead_s.

    Group metrics are self times.  A verify suite's metric is its whole
    duration, and verify.oracle_s the suites' self time: the oracles and
    loops in verify.py, outside the library calls they check.
    """
    own = group_self_seconds(tracer.spans, tracer.group_of)
    whole: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        whole[tracer.group_of[s.name]] += (s.end - s.start) / 1e9
    calls = tracer.calls
    out = {name: own.get(name[: -len("_s")], 0.0) for name, unit, _ in PER_LAYER if unit == "s"}
    maps_built = calls["maps.tree_to_map"] + calls["maps.parse_map"]
    keys = tracer.occurrence_keys
    out.update({
        "trees.enumerate_calls": sum(calls[name] for name in ENUMERATORS),
        "trees.trees_built": tracer.trees_built,
        "maps.validate_per_map": calls["maps.validate_map"] / maps_built if maps_built else 0.0,
        "perms.in_class_calls": calls["perms.in_class"],
        "perms.occurrences_repeat_ratio": calls["perms.occurrences"] / len(keys) if keys else 0.0,
        "series.b3_singularity_hits": _cache(originals, "series.b3_singularity", "hits"),
        "series.b3_singularity_misses": _cache(originals, "series.b3_singularity", "misses"),
        "series.primitive_maps_hits": _cache(originals, "series.primitive_maps_with_edges", "hits"),
        "series.primitive_maps_misses": _cache(
            originals, "series.primitive_maps_with_edges", "misses"
        ),
        "verify.oracle_s": sum(own.get(g, 0.0) for g in tracer.suites),
    })
    for group in tracer.suites:
        out[group + "_s"] = whole[group]
    out.pop("trace.overhead_s")
    return out
