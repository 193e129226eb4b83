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
import json
import sys

import mpmath

from .series import (
    A_FORMULA,
    A_HYP,
    A_ZEIL,
    B1,
    B2,
    B3,
    P,
    PPRIME,
    asymptotic,
    series as build_series,
)
from .maps import (
    faces,
    format_map,
    has_multiple_edges,
    is_nonseparable,
    parse_map,
    tree_to_map,
    vertex_orbits,
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
    _require_valid,
    count_trees,
    format_tree,
    iter_subtrees,
    parse_tree,
    select_trees,
    tree_stats,
)
from .verify import SUITE_NAMES, _env_max_size, format_report, report_to_dict, run_suite

SERIES_BY_FLAG = {
    "a": A_FORMULA,
    "a-zeil": A_ZEIL,
    "a-hyp": A_HYP,
    "p": P,
    "pprime": PPRIME,
    "b1": B1,
    "b2": B2,
    "b3": B3,
}

ASYMPT_BY_FLAG = {
    "a": "A",
    "p": P,
    "pprime": PPRIME,
    "b1": B1,
    "b2": B2,
    "b3": B3,
}


def _check_size_cap(size: int, cap) -> None:
    if cap is not None and size > cap:
        raise ValueError(f"size {size} exceeds MAPSCOPE_MAX_SIZE={cap}")


def _reader(kind: str):
    """line -> the `kind` object on it, held to MAPSCOPE_MAX_SIZE (read once,
    here) in `enumerate --size` units before any conversion."""
    parse, size_of = {
        "tree": (parse_tree, lambda t: sum(1 for _ in iter_subtrees(t))),
        "map": (parse_map, lambda m: m.n_darts // 2),
        "perm": (parse_perm, len),
    }[kind]
    cap = _env_max_size()

    def read(line: str):
        obj = parse(line)
        _check_size_cap(size_of(obj), cap)
        return obj

    return parse if cap is None else read


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _emit_rows(rows, fieldnames, fmt: str, out) -> None:
    """rows: iterable of dicts sharing `fieldnames`."""
    if fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    elif fmt == "json":
        for row in rows:
            out.write(json.dumps(row, separators=(", ", ": ")) + "\n")
    else:
        for row in rows:
            out.write(" ".join(f"{k}={row[k]}" for k in fieldnames) + "\n")


def _emit_objects(texts, kind: str, fmt: str, out) -> None:
    """One object per line; `kind` names the column/key."""
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([kind])
        for text in texts:
            writer.writerow([text])
    elif fmt == "json":
        for text in texts:
            if kind == "map":
                out.write(text + "\n")  # already a JSON object
            else:
                out.write(json.dumps({kind: text}, separators=(", ", ": ")) + "\n")
    else:
        for text in texts:
            out.write(text + "\n")


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
        count = count_trees(tree_nodes, filters)
        if args.format == "json":
            print(json.dumps({"count": count}))
        elif args.format == "csv":
            print("count")
            print(count)
        else:
            print(count)
        return 0
    selected = select_trees(tree_nodes, filters)
    if args.object == "trees":
        texts = (format_tree(t) for t in selected)
        _emit_objects(texts, "tree", args.format, sys.stdout)
    elif args.object == "maps":
        texts = (format_map(tree_to_map(t)) for t in selected)
        _emit_objects(texts, "map", args.format, sys.stdout)
    else:
        texts = (format_perm(tree_to_perm(t)) for t in selected)
        _emit_objects(texts, "perm", args.format, sys.stdout)
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
    read = _reader(src)

    def convert(line):
        obj = read(line)
        t = obj if src == "tree" else perm_to_tree(obj)
        if dst == "map":
            return format_map(tree_to_map(t))
        if dst == "perm":
            return format_perm(tree_to_perm(t))
        if src == "tree":  # the other legs validate inside the bijections
            _require_valid(t)
        return format_tree(t)

    texts = _map_stdin(convert)
    _emit_objects(texts, dst, args.format, sys.stdout)
    return 0


_TREE_STAT_FIELDS = [
    "tree",
    "nodes",
    "leaves",
    "internal_nodes",
    "root_label",
    "single_child_max_nodes",
    "decomposable",
    "primitive",
]
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


def _tree_stat_row(line: str, parse=parse_tree) -> dict:
    t = parse(line)
    st = tree_stats(t)
    return {
        "tree": format_tree(t),
        "nodes": st.nodes,
        "leaves": st.leaves,
        "internal_nodes": st.internal_nodes,
        "root_label": st.root_label,
        "single_child_max_nodes": st.single_child_max_nodes,
        "decomposable": st.decomposable,
        "primitive": st.single_child_max_nodes == 0,
    }


def _map_stat_row(line: str, parse=parse_map) -> dict:
    m = parse(line)
    rep = faces(m)
    return {
        "map": format_map(m),
        "edges": m.n_darts // 2,
        "vertices": len(vertex_orbits(m)),
        "faces": len(rep.faces),
        "root_face_degree": rep.faces[rep.root_face_index][1],
        "internal_2faces": rep.internal_2faces,
        "nonseparable": is_nonseparable(m),
        "multiple_edges": has_multiple_edges(m),
    }


def _perm_stat_row(line: str, parse=parse_perm) -> dict:
    pi = parse(line)
    member = in_class(pi)
    m_occurrences = occurrences(M, pi)
    n_components = len(components(pi))
    return {
        "perm": format_perm(pi),
        "length": len(pi),
        "components": n_components,
        "lr_maxima": len(lr_maxima(pi)),
        "m_occurrences": m_occurrences,
        "indecomposable": len(pi) > 0 and n_components == 1,
        "in_class": member,
        "primitive": member and m_occurrences == 0,
    }


def _cmd_stats(args) -> int:
    row_of = {
        "tree": (_tree_stat_row, _TREE_STAT_FIELDS),
        "map": (_map_stat_row, _MAP_STAT_FIELDS),
        "perm": (_perm_stat_row, _PERM_STAT_FIELDS),
    }[args.object]
    builder, fields = row_of
    parse = _reader(args.object)
    rows = _map_stdin(lambda line: builder(line, parse))
    _emit_rows(rows, fields, args.format, sys.stdout)
    return 0


def _cmd_series(args) -> int:
    if args.terms < 1:
        raise ValueError("--terms must be >= 1")
    name = SERIES_BY_FLAG[args.name]
    ser = build_series(name, args.terms)
    if args.format == "csv":
        # CSV pairs each exact coefficient with the first-order estimate.
        asympt_name = "A" if name in (A_FORMULA, A_ZEIL, A_HYP) else name
        rows = []
        for n in range(1, args.terms + 1):
            coeff = ser[n]
            est = asymptotic(asympt_name, n)
            rel = "" if coeff == 0 else mpmath.nstr(abs(est / coeff - 1), 6)
            rows.append(
                {
                    "n": n,
                    "coefficient": coeff,
                    "asymptotic": mpmath.nstr(est, 12),
                    "relative_error": rel,
                }
            )
        _emit_rows(
            rows, ["n", "coefficient", "asymptotic", "relative_error"], "csv", sys.stdout
        )
        return 0
    rows = ({"n": n, "coefficient": ser[n]} for n in range(1, args.terms + 1))
    if args.format == "text":
        for row in rows:
            print(row["coefficient"])
    else:
        _emit_rows(rows, ["n", "coefficient"], args.format, sys.stdout)
    return 0


def _cmd_asympt(args) -> int:
    if args.at < 1:
        raise ValueError("--at must be >= 1")
    est = asymptotic(ASYMPT_BY_FLAG[args.name], args.at)
    text = mpmath.nstr(est, 12)
    if args.format == "json":
        print(
            json.dumps(
                {"name": args.name, "n": args.at, "estimate": text},
                separators=(", ", ": "),
            )
        )
    elif args.format == "csv":
        print("name,n,estimate")
        print(f"{args.name},{args.at},{text}")
    else:
        print(text)
    return 0


def _cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.max_size)
    if args.format == "json":
        for r in reports:
            print(json.dumps(report_to_dict(r), separators=(", ", ": ")))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["suite", "params", "status", "witnesses", "runtime"])
        for r in reports:
            params = ";".join(f"{k}={v}" for k, v in r.params.items())
            writer.writerow(
                [r.suite, params, r.status, len(r.witnesses), f"{r.runtime:.2f}"]
            )
    else:
        for r in reports:
            print(format_report(r))
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
    p.add_argument("--size", type=int, required=True,
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
    p.add_argument("--terms", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("asympt", help="first-order coefficient estimate")
    p.add_argument("--name", choices=sorted(ASYMPT_BY_FLAG), required=True)
    p.add_argument("--at", type=int, required=True, metavar="N")
    add_format(p)
    p.set_defaults(func=_cmd_asympt)

    p = sub.add_parser("verify", help="run a cross-check suite")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument("--max-size", type=int, default=None,
                   help="shrink suite sizes (never grows them)")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # usage and input errors alike
        print(f"mapscope: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
