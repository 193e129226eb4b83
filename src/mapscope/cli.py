"""Command-line interface.

Subcommands: enumerate, biject, stats, series, asympt, verify.  Streams are
newline-delimited single objects; `--format json|text|csv` selects the
encoding everywhere.  Exit codes: 0 success (all suites passed), 1 a verify
suite failed, 2 usage or input error (one-line diagnostic on stderr).

Trees print as "(label child ...)", permutations in one-line notation
("e" for the empty one), maps as one-line JSON rotation systems; `biject`
and `stats` read the same formats from stdin, one object per line.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from functools import cache
from operator import itemgetter

from .series import ASYMPT_NAMES, SERIES_NAMES, _ASYMPTOTICS, asymptotic, series as build_series
from .maps import (
    format_map,
    has_multiple_edges,
    internal_2face_count,
    is_nonseparable,
    parse_map,
    tree_to_map,
)
from .perms import (
    M,
    components,
    format_perm,
    in_class,
    lr_maxima,
    occurrences,
    parse_perm,
    perm_to_tree,
    tree_to_perm,
)
from .trees import (
    TreeStats,
    _require_valid,
    count_trees,
    format_tree,
    parse_tree,
    select_trees,
    tree_stats,
)
from .verify import SUITE_NAMES, _env_max_size, _int, format_report, report_to_dict, run_suite


def _flag(name: str) -> str:
    """The --name flag of a series or estimate name; A_FORMULA's is plain "a"."""
    return name.lower().replace("_", "-").removesuffix("-formula")


SERIES_BY_FLAG = {_flag(name): name for name in SERIES_NAMES}
ASYMPT_BY_FLAG = {_flag(name): name for name in ASYMPT_NAMES}
# series flag -> the estimate in its CSV rows; every A route is estimated as A
_ESTIMATE_OF = {_flag(s): name for name, entry in _ASYMPTOTICS.items() for s in entry.estimates}


def _check_size_cap(size: int, cap) -> None:
    if cap is not None and size > cap:
        raise ValueError(f"size {size} exceeds MAPSCOPE_MAX_SIZE={cap}")


def _reader(kind: str):
    """line -> the `kind` object on it, held to MAPSCOPE_MAX_SIZE (read once,
    here) in `enumerate --size` units before any conversion."""
    parse, size_of = {
        # A parsed tree line holds one "(" per node: labels are ASCII digits.
        "tree": (parse_tree, lambda line, t: line.count("(")),
        "map": (parse_map, lambda line, m: m.n_darts // 2),
        "perm": (parse_perm, lambda line, pi: len(pi)),
    }[kind]
    cap = _env_max_size()

    def read(line: str):
        obj = parse(line)
        _check_size_cap(size_of(line, obj), cap)
        return obj

    return parse if cap is None else read


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _emit(rows, fields, fmt: str, text=None) -> None:
    """Write dict rows keyed by `fields` to stdout in `fmt`: a CSV header and
    the rows, one JSON object per line, or `text(row)` per line (default:
    key=value pairs).  A lone map is already a JSON object and is written as
    it stands."""
    out = sys.stdout
    if fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return
    if fmt == "json":
        text = itemgetter("map") if fields == ["map"] else json.dumps
    for row in rows:
        line = text(row) if text else " ".join(f"{k}={row[k]}" for k in fields)
        out.write(f"{line}\n")


# tree -> the text of the object of each kind that it maps to
_FROM_TREE = {
    "tree": format_tree,
    "map": lambda t: format_map(tree_to_map(t)),
    "perm": lambda t: format_perm(tree_to_perm(t)),
}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    size = args.size
    if args.object == "perms":
        if size < 0:
            raise ValueError("--size must be >= 0 for permutations")
        tree_nodes = size + 1
    else:
        if size < 1:
            raise ValueError("--size must be >= 1")
        tree_nodes = size
    _check_size_cap(size, _env_max_size())
    filters = args.filter or []  # on trees; maps and perms inherit them by bijection
    if args.count_only:
        key = "count"
        rows = [{key: count_trees(tree_nodes, filters)}]
    else:
        key = args.object[:-1]
        rows = ({key: _FROM_TREE[key](t)} for t in select_trees(tree_nodes, filters))
    _emit(rows, [key], args.format, itemgetter(key))
    return 0


def _map_stdin(convert):
    """convert(line) for each non-blank stdin line.

    A ValueError is re-raised with the number of its line, counting every
    physical line from 1.
    """
    for number, line in enumerate(sys.stdin, 1):
        line = line.strip()
        if not line:
            continue
        try:
            out = convert(line)
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        yield out


def _cmd_biject(args) -> int:
    src, dst = getattr(args, "from"), args.to
    read, to_text = _reader(src), _FROM_TREE[dst]

    def convert(line):
        obj = read(line)
        if src == "perm":
            obj = perm_to_tree(obj)
        elif dst == "tree":  # the other legs validate inside the bijections
            _require_valid(obj)
        return {dst: to_text(obj)}

    _emit(_map_stdin(convert), [dst], args.format, itemgetter(dst))
    return 0


_TREE_STAT_FIELDS = ["tree", *(f.name for f in dataclasses.fields(TreeStats)), "primitive"]
_MAP_STAT_FIELDS = [
    "map",
    "edges",
    "vertices",
    "faces",
    "root_face_degree",
    "internal_2faces",
    "nonseparable",
    "multiple_edges",
]
_PERM_STAT_FIELDS = [
    "perm",
    "length",
    "components",
    "lr_maxima",
    "m_occurrences",
    "indecomposable",
    "in_class",
    "primitive",
]


def _tree_stat_row(t) -> dict:
    st = tree_stats(t)
    values = (format_tree(t), *vars(st).values(), st.single_child_max_nodes == 0)
    return dict(zip(_TREE_STAT_FIELDS, values))


def _map_stat_row(m) -> dict:
    values = (
        format_map(m),
        m.n_darts // 2,
        len(m.vertices),
        len(m.faces),
        len(m.faces[0]),
        internal_2face_count(m),
        is_nonseparable(m),
        has_multiple_edges(m),
    )
    return dict(zip(_MAP_STAT_FIELDS, values))


def _perm_stat_row(pi) -> dict:
    member = in_class(pi)
    m_occurrences = occurrences(M, pi)
    n_components = len(components(pi))
    values = (
        format_perm(pi),
        len(pi),
        n_components,
        len(lr_maxima(pi)),
        m_occurrences,
        len(pi) > 0 and n_components == 1,
        member,
        member and m_occurrences == 0,
    )
    return dict(zip(_PERM_STAT_FIELDS, values))


_STATS = {
    "tree": (_tree_stat_row, _TREE_STAT_FIELDS),
    "map": (_map_stat_row, _MAP_STAT_FIELDS),
    "perm": (_perm_stat_row, _PERM_STAT_FIELDS),
}


def _cmd_stats(args) -> int:
    builder, stat_fields = _STATS[args.object]
    read = _reader(args.object)
    _emit(_map_stdin(lambda line: builder(read(line))), stat_fields, args.format)
    return 0


def _cmd_series(args) -> int:
    if args.terms < 1:
        raise ValueError("--terms must be >= 1")
    ser = build_series(SERIES_BY_FLAG[args.name], args.terms)
    rows = [{"n": n, "coefficient": ser[n]} for n in range(1, args.terms + 1)]
    if args.format == "csv":
        # CSV pairs each exact coefficient with the first-order estimate.
        import mpmath

        for row in rows:
            coeff, est = row["coefficient"], asymptotic(_ESTIMATE_OF[args.name], row["n"])
            row["asymptotic"] = mpmath.nstr(est, 12)
            row["relative_error"] = "" if coeff == 0 else mpmath.nstr(abs(est / coeff - 1), 6)
    # Coefficients pass CPython's int -> str digit limit (4300 by default)
    # from order 5,196 on (series a); lift it while writing them, and only
    # then: stdin parsing keeps it.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _emit(rows, list(rows[0]), args.format, itemgetter("coefficient"))
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def _cmd_asympt(args) -> int:
    if args.at < 1:
        raise ValueError("--at must be >= 1")
    import mpmath

    est = mpmath.nstr(asymptotic(ASYMPT_BY_FLAG[args.name], args.at), 12)
    row = {"name": args.name, "n": args.at, "estimate": est}
    _emit([row], list(row), args.format, itemgetter("estimate"))
    return 0


_REPORT_FIELDS = ["suite", "params", "status", "witnesses", "runtime"]


def _report_summary(r) -> dict:
    params = ";".join(f"{k}={v}" for k, v in r.params.items())
    values = (r.suite, params, r.status, len(r.witnesses), f"{r.runtime:.2f}")
    return dict(zip(_REPORT_FIELDS, values))


def _cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.max_size)
    if args.format == "text":  # the full report, witness lines included
        for r in reports:
            print(format_report(r))
    else:
        to_row = report_to_dict if args.format == "json" else _report_summary
        _emit(map(to_row, reports), _REPORT_FIELDS, args.format)
    return 1 if any(r.status == "fail" for r in reports) else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapscope",
        description="Exact combinatorics of rooted non-separable planar maps, "
        "beta(1,0)-trees, and (3142, 2-41-3)-avoiding permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("text", "json", "csv"),
            default="text",
            help="output encoding (default: text)",
        )

    p = sub.add_parser("enumerate", help="list or count objects of one size")
    p.add_argument("--object", choices=("trees", "maps", "perms"), required=True)
    p.add_argument("--size", type=_int, required=True,
                   help="nodes for trees, edges for maps, length for perms")
    p.add_argument(
        "--filter",
        action="append",
        metavar="NAME[=VALUE]",
        help="primitive | two-face-free | k-face-free=K | mef-necessary | "
        "no-only-children | labels-max=L (repeatable)",
    )
    p.add_argument("--count-only", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("biject", help="convert a stream of objects (stdin)")
    p.add_argument("--from", choices=("tree", "perm"), required=True, dest="from")
    p.add_argument("--to", choices=("tree", "map", "perm"), required=True)
    add_format(p)
    p.set_defaults(func=_cmd_biject)

    p = sub.add_parser("stats", help="per-object statistics (stdin)")
    p.add_argument("--object", choices=("tree", "map", "perm"), required=True)
    add_format(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("series", help="coefficients of a named series")
    p.add_argument("--name", choices=sorted(SERIES_BY_FLAG), required=True)
    p.add_argument("--terms", type=_int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("asympt", help="first-order coefficient estimate")
    p.add_argument("--name", choices=sorted(ASYMPT_BY_FLAG), required=True)
    p.add_argument("--at", type=_int, required=True, metavar="N")
    add_format(p)
    p.set_defaults(func=_cmd_asympt)

    p = sub.add_parser("verify", help="run a cross-check suite")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument("--max-size", type=_int, default=None,
                   help="shrink suite sizes (never grows them)")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # argparse reads sys.stdout, sys.stderr and the terminal width when it
    # prints, and makes a new Namespace per parse, so one parser serves every call.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # usage and input errors alike
        print(f"mapscope: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
