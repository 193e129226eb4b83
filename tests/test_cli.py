"""Command-line interface: subcommands, output formats, exit codes."""

import io
import json
import os
import subprocess
import sys

import pytest

import mapscope
from mapscope.cli import _reader, build_parser, main
from mapscope.series import A_FORMULA, A_HYP, A_ZEIL, B1, B2, B3, P, PPRIME, series
from mapscope.trees import (
    enumerate_trees,
    format_tree,
    iter_subtrees,
    parse_tree,
    passes,
)

FOUR_NODE_TREES = [
    "(3 (1) (1) (1))",
    "(2 (1) (1 (1)))",
    "(2 (1 (1)) (1))",
    "(1 (1 (1) (1)))",
    "(2 (2 (1) (1)))",
    "(1 (1 (1 (1))))",
]
FOUR_NODE_PERMS = ["1 2 3", "1 3 2", "2 1 3", "3 1 2", "2 3 1", "3 2 1"]


def run(argv, capsys, monkeypatch=None, stdin=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_enumerate_trees(capsys):
    'Size-4 trees in enumeration order'
    code, out, err = run(["enumerate", "--object", "trees", "--size", "4"], capsys)
    assert code == 0
    assert out.splitlines() == FOUR_NODE_TREES
    assert err == ""


def test_enumerate_count_json(capsys):
    'Counting maps without listing them'
    code, out, _ = run(
        ["enumerate", "--object", "maps", "--size", "3", "--count-only",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {"count": 2}


def test_enumerate_perms_size_zero(capsys):
    'The empty permutation prints as "e"'
    code, out, _ = run(["enumerate", "--object", "perms", "--size", "0"], capsys)
    assert code == 0
    assert out == "e\n"


def test_enumerate_filters(capsys):
    'Tree-side predicates behind --filter'
    code, out, _ = run(
        ["enumerate", "--object", "trees", "--size", "5",
         "--filter", "two-face-free", "--count-only"],
        capsys,
    )
    assert (code, out) == (0, "6\n")
    code, out, _ = run(
        ["enumerate", "--object", "trees", "--size", "5",
         "--filter", "primitive", "--count-only"],
        capsys,
    )
    assert (code, out) == (0, "7\n")


@pytest.mark.parametrize(
    "filters, count", [([], "1"), (["two-face-free"], "0"), (["mef-necessary"], "0")]
)
def test_enumerate_count_empty_perm(filters, count, capsys):
    'The empty permutation is the one-node tree, which fails the root-label rules'
    argv = ["enumerate", "--object", "perms", "--size", "0", "--count-only"]
    code, out, err = run(argv + [a for f in filters for a in ("--filter", f)], capsys)
    assert (code, out, err) == (0, count + "\n", "")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("nope", "unknown filter: 'nope'"),
        ("labels-max=0", "labels-max filter requires a cap >= 1"),
        ("labels-max=x", "bad filter value: 'labels-max=x'"),
        ("labels-max=+2", "bad filter value: 'labels-max=+2'"),
        ("labels-max=\u0662", "bad filter value: 'labels-max=\u0662'"),
        ("k-face-free=0_3", "bad filter value: 'k-face-free=0_3'"),
        ("k-face-free= 3", "bad filter value: 'k-face-free= 3'"),
        ("k-face-free=5", "k-face-free filter supports k in {2, 3, 4}"),
    ],
)
@pytest.mark.parametrize("count_only", [[], ["--count-only"]])
def test_enumerate_bad_filter(spec, message, count_only, capsys):
    'A bad filter exits 2 with a one-line diagnostic, counted or listed'
    argv = ["enumerate", "--object", "perms", "--size", "0", "--filter", spec, *count_only]
    assert run(argv, capsys) == (2, "", f"mapscope: {message}\n")


def _listing(capsys, size, *filters):
    argv = ["enumerate", "--object", "trees", "--size", str(size)]
    for f in filters:
        argv += ["--filter", f]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    return out.splitlines()


def _labels_at_most(tree, cap):
    return all(s.label <= cap for c in tree.children for s in iter_subtrees(c))


@pytest.mark.parametrize(
    "filters, keep",
    [
        (["labels-max=2", "no-only-children"],
         lambda t: _labels_at_most(t, 2) and passes(t, ["no-only-children"])),
        (["labels-max=2"], lambda t: _labels_at_most(t, 2)),
        (["labels-max=3", "labels-max=1", "labels-max=2"], lambda t: _labels_at_most(t, 1)),
        (["labels-max=2", "primitive"],
         lambda t: _labels_at_most(t, 2) and passes(t, ["primitive"])),
    ],
)
def test_enumerate_pruning_filters(filters, keep, capsys):
    'labels-max and no-only-children prune generation; the listing equals the filtered one'
    for size in (6, 7):
        everything = [parse_tree(line) for line in _listing(capsys, size)]
        assert _listing(capsys, size, *filters) == [format_tree(t) for t in everything if keep(t)]


def test_enumerate_size_guard(capsys):
    'Trees and maps need a positive size'
    code, out, err = run(["enumerate", "--object", "trees", "--size", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("mapscope:")


def test_size_cap_env(capsys, monkeypatch):
    'MAPSCOPE_MAX_SIZE clamps enumeration sizes; a malformed value is a usage error'
    malformed = "MAPSCOPE_MAX_SIZE must be an integer, got "
    for value, message in (
        ("3", "size 4 exceeds MAPSCOPE_MAX_SIZE=3"),
        (" 3 ", "size 4 exceeds MAPSCOPE_MAX_SIZE=3"),
        ("x", malformed + "'x'"),
        # only an optional "-" and ASCII digits make an integer
        ("\u0663", malformed + "'\u0663'"),
        ("+3", malformed + "'+3'"),
        ("1_0", malformed + "'1_0'"),
    ):
        monkeypatch.setenv("MAPSCOPE_MAX_SIZE", value)
        code, _, err = run(["enumerate", "--object", "trees", "--size", "4"], capsys)
        assert (code, err) == (2, f"mapscope: {message}\n")


def test_biject_tree_to_perm(capsys, monkeypatch):
    'Trees stream through to their permutations'
    code, out, _ = run(
        ["biject", "--from", "tree", "--to", "perm"],
        capsys,
        monkeypatch,
        stdin="\n".join(FOUR_NODE_TREES) + "\n",
    )
    assert code == 0
    assert out.splitlines() == FOUR_NODE_PERMS


def test_biject_perm_to_tree(capsys, monkeypatch):
    'And back again'
    code, out, _ = run(
        ["biject", "--from", "perm", "--to", "tree"],
        capsys,
        monkeypatch,
        stdin="\n".join(FOUR_NODE_PERMS) + "\n",
    )
    assert code == 0
    assert out.splitlines() == FOUR_NODE_TREES


@pytest.mark.parametrize("perm", ["3 1 4 2", "2 4 1 3"])
def test_biject_rejects_non_members(perm, capsys, monkeypatch):
    'A permutation outside the class exits 2 with one line naming it'
    code, out, err = run(
        ["biject", "--from", "perm", "--to", "tree"], capsys, monkeypatch, stdin=perm + "\n"
    )
    assert (code, out, err) == (2, "", f"mapscope: line 1: not (3142,2-41-3)-avoiding: {perm}\n")


def test_biject_rejects_non_permutations(capsys, monkeypatch):
    code, out, err = run(
        ["biject", "--from", "perm", "--to", "tree"], capsys, monkeypatch, stdin="1 3 3\n"
    )
    assert (code, out, err) == (2, "", "mapscope: line 1: not a permutation of 1..3: '1 3 3'\n")


def test_deep_permutation_streams_through(capsys, monkeypatch):
    'The decreasing member of 1,000 letters passes stats and biject, exit 0'
    stdin = " ".join(map(str, range(1000, 0, -1))) + "\n"
    rows = _rows(["stats", "--object", "perm"], capsys, monkeypatch, stdin)
    assert [row.pop("perm") for row in rows] == [stdin.strip()]
    assert rows == [
        {"length": 1000, "components": 1, "lr_maxima": 1, "m_occurrences": 999,
         "indecomposable": True, "in_class": True, "primitive": False},
    ]
    code, out, err = run(["biject", "--from", "perm", "--to", "tree"], capsys, monkeypatch, stdin)
    assert (code, err) == (0, "")
    assert out == "(1 " * 1000 + "(1)" + ")" * 1000 + "\n"


def test_biject_tree_to_map(capsys, monkeypatch):
    'The one-node tree is the single-edge map'
    code, out, _ = run(
        ["biject", "--from", "tree", "--to", "map"],
        capsys,
        monkeypatch,
        stdin="(1)\n",
    )
    assert code == 0
    assert json.loads(out) == {
        "n_darts": 2, "alpha": [1, 0], "sigma": [0, 1], "root": 0,
    }


def test_stats_perm(capsys, monkeypatch):
    'One key=value row per permutation'
    code, out, _ = run(
        ["stats", "--object", "perm"], capsys, monkeypatch, stdin="2 5 3 1 4\n"
    )
    assert code == 0
    assert out == (
        "perm=2 5 3 1 4 length=5 components=1 lr_maxima=2 m_occurrences=1 "
        "indecomposable=True in_class=True primitive=False\n"
    )


def test_stats_map(capsys, monkeypatch):
    'Map rows include face and separability data'
    line = '{"n_darts": 2, "alpha": [1, 0], "sigma": [0, 1], "root": 0}\n'
    code, out, _ = run(["stats", "--object", "map"], capsys, monkeypatch, stdin=line)
    assert code == 0
    assert "edges=1 vertices=2 faces=1 root_face_degree=2" in out
    assert "internal_2faces=0 nonseparable=True multiple_edges=False" in out


def test_series_text(capsys):
    'Text mode prints one coefficient per line, n = 1 upward'
    code, out, _ = run(["series", "--name", "b3", "--terms", "5"], capsys)
    assert code == 0
    assert out.splitlines() == ["1", "0", "1", "1", "5"]


def test_series_csv(capsys):
    'CSV mode pairs coefficients with the first-order estimate'
    code, out, _ = run(
        ["series", "--name", "b1", "--terms", "3", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,coefficient,asymptotic,relative_error"
    assert lines[1] == "1,1,0.366451883927,0.633548"
    assert lines[2] == "2,0,0.388680918155,"
    assert lines[3] == "3,1,0.634713281491,0.365287"


def test_series_prints_coefficients_past_the_digit_limit(capsys):
    'Coefficients longer than the int -> str digit limit print; the limit comes back after'
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(["series", "--name", "b3", "--terms", "1200"], capsys)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(old)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1200 and len(lines[-1]) > 640


SERIES_FLAGS = {
    "a": A_FORMULA,
    "a-hyp": A_HYP,
    "a-zeil": A_ZEIL,
    "b1": B1,
    "b2": B2,
    "b3": B3,
    "p": P,
    "pprime": PPRIME,
}


def _name_choices(command):
    'The --name choices of one subcommand, as the parser holds them'
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return list(next(a.choices for a in sub.choices[command]._actions if a.dest == "name"))


def test_name_flags_are_pinned(capsys):
    'The --name flags derived from the registry: exactly these, each series flag prints its own series, and every A route is estimated as A'
    assert _name_choices("series") == list(SERIES_FLAGS)
    assert _name_choices("asympt") == ["a", "b1", "b2", "b3", "p", "pprime"]
    for flag, name in SERIES_FLAGS.items():
        code, out, _ = run(["series", "--name", flag, "--terms", "5"], capsys)
        assert code == 0
        assert tuple(map(int, out.split())) == series(name, 5)[1:], flag

    def estimates(flag):
        code, out, _ = run(["series", "--name", flag, "--terms", "5", "--format", "csv"], capsys)
        assert code == 0
        return [line.split(",")[2] for line in out.splitlines()[1:]]

    assert estimates("a-zeil") == estimates("a-hyp") == estimates("a")


def test_series_bad_terms(capsys):
    '--terms must be positive'
    code, _, err = run(["series", "--name", "a", "--terms", "0"], capsys)
    assert code == 2
    assert err.startswith("mapscope:")


def test_asympt_json(capsys):
    'Estimates serialize as strings to keep full precision'
    code, out, _ = run(
        ["asympt", "--name", "b2", "--at", "50", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out) == {
        "name": "b2", "n": 50, "estimate": "2.25499516757e+25",
    }


def test_verify_pass_exit0(capsys):
    'A green suite exits 0'
    code, out, _ = run(["verify", "--suite", "counts", "--max-size", "4"], capsys)
    assert code == 0
    assert out.startswith("counts: PASS (n_max=4)")


def test_verify_fail_exit1(capsys):
    'A suite with witnesses exits 1'
    code, out, _ = run(["verify", "--suite", "theorem5", "--max-size", "3"], capsys)
    assert code == 1
    assert out.startswith("theorem5: FAIL")
    assert "expected equal triple" in out


def test_verify_csv(capsys):
    'CSV summarizes one suite per row'
    code, out, _ = run(
        ["verify", "--suite", "counts", "--max-size", "4", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite,params,status,witnesses,runtime"
    assert lines[1].startswith("counts,n_max=4,pass,0,")


def test_verify_json(capsys):
    'JSON mode emits one report object per line'
    code, out, _ = run(
        ["verify", "--suite", "counts", "--max-size", "4", "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "counts"
    assert report["status"] == "pass"
    assert report["witnesses"] == []


@pytest.mark.parametrize(
    "max_size, message",
    [
        ("1", "mapscope: bounds: n_max is guarded to 2..10, got 1\n"),
        ("0", "mapscope: counts: n_max is guarded to 1..9, got 0\n"),
    ],
    ids=["bounds", "counts"],
)
def test_verify_size_diagnostic_names_the_suite(max_size, message, capsys):
    'A --max-size below a suite\'s range exits 2 naming that suite, with no report'
    code, out, err = run(["verify", "--suite", "all", "--max-size", max_size], capsys)
    assert code == 2
    assert out == ""
    assert err == message


def test_missing_subcommand(capsys):
    'argparse rejects an empty command line'
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_choice(capsys):
    'Unknown object kinds are rejected by the parser'
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--object", "widgets", "--size", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--object", "trees", "--size", "\u0663"],
        ["enumerate", "--object", "trees", "--count-only", "--size", "1_0"],
        ["enumerate", "--object", "trees", "--size", "+3"],
        ["series", "--name", "a", "--terms", "\u0663"],
        ["asympt", "--name", "a", "--at", "1_0"],
        ["verify", "--suite", "counts", "--max-size", "\u0663"],
    ],
)
def test_integer_options_are_ascii(argv, capsys):
    'Integer options take an optional "-" and ASCII digits only'
    flag, value = argv[-2:]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"argument {flag}: invalid int value: {value!r}\n")


def test_malformed_map_record(capsys, monkeypatch):
    'Floats, strings and booleans are not integers or lists in a map record; nor is deep nesting'
    for line in (
        '{"n_darts": 2.9, "alpha": "10", "sigma": [0, true], "root": false}\n',
        "[" * 100000 + "\n",
    ):
        code, out, err = run(["stats", "--object", "map"], capsys, monkeypatch, stdin=line)
        assert code == 2
        assert out == ""
        assert err.startswith("mapscope: line 1: malformed map record") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, line",
    [
        (["stats", "--object", "perm"], "(" * 100000),
        (["stats", "--object", "perm"], " ".join(map(str, [*range(1, 50001), 1]))),
        (["biject", "--from", "perm", "--to", "tree"],
         " ".join(map(str, [3, 1, 4, 2, *range(5, 20001)]))),
    ],
    ids=["malformed", "repeated-letter", "non-member"],
)
def test_long_bad_permutation_makes_one_short_line(argv, line, capsys, monkeypatch):
    'A bad permutation line of any length exits 2 with one stderr line under 200 bytes'
    code, out, err = run(argv, capsys, monkeypatch, stdin=line + "\n")
    assert (code, out) == (2, "")
    assert err.startswith("mapscope: line 1: ") and err.count("\n") == 1
    assert len(err.encode()) < 200
    assert err.endswith(" characters)\n")


def test_startup_loads_no_mpmath():
    'Commands without asymptotics never import mpmath; every submodule is loaded eagerly'
    code = (
        "import io, sys\n"
        "import mapscope, mapscope.cli\n"
        "from mapscope.cli import build_parser, main\n"
        "build_parser()\n"
        "sys.stdin = io.StringIO('(2 (1) (1))\\n')\n"
        "assert main(['biject', '--from', 'tree', '--to', 'perm']) == 0\n"
        "sys.stdin = io.StringIO('2 1 3\\n')\n"
        "assert main(['stats', '--object', 'perm']) == 0\n"
        "assert main(['enumerate', '--object', 'maps', '--size', '5', '--count-only']) == 0\n"
        "assert 'mpmath' not in sys.modules\n"
        "names = ('cli', 'trees', 'maps', 'perms', 'series', 'verify')\n"
        "assert all(f'mapscope.{n}' in sys.modules for n in names)\n"
        "assert main(['asympt', '--name', 'b3', '--at', '1000']) == 0\n"
    )
    src = os.path.dirname(os.path.dirname(mapscope.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "3.40280428783e+621"


def test_reused_parser_keeps_no_state(capsys, monkeypatch):
    'Successive main() calls in one process parse independently of each other'
    err = io.StringIO()
    monkeypatch.setattr(sys, "stderr", err)
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--object", "widgets", "--size", "3"])
    assert exc.value.code == 2 and "invalid choice: 'widgets'" in err.getvalue()
    monkeypatch.undo()
    count = ["enumerate", "--object", "trees", "--size", "6", "--count-only"]
    assert run(count + ["--filter", "primitive"], capsys) == (0, "25\n", "")
    assert run(count, capsys) == (0, "91\n", "")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: mapscope")
    assert run(count, capsys) == (0, "91\n", "")
    for size in (3, 4):
        code, out, _ = run(["verify", "--suite", "counts", "--max-size", str(size),
                            "--format", "json"], capsys)
        assert (code, json.loads(out)["params"]) == (0, {"n_max": size})


@pytest.mark.parametrize(
    "argv, good, bad",
    [
        (["stats", "--object", "tree"], "(1)", "(2 (1)"),
        (["biject", "--from", "tree", "--to", "map"], "(1)", "(1 (2))"),
        (["biject", "--from", "perm", "--to", "tree"], "1", "1 1"),
        (["stats", "--object", "map"], '{"n_darts": 2, "alpha": [1, 0], "sigma": [0, 1], "root": 0}',
         '{"n_darts": 2, "alpha": [1, 0], "sigma": [0, 1], "root": 2}'),
    ],
)
def test_stream_error_names_its_line(argv, good, bad, capsys, monkeypatch):
    'A bad third line exits 2 naming line 3; the blank second line counts'
    code, out, err = run(argv, capsys, monkeypatch, stdin=f"{good}\n\n{bad}\n{good}\n")
    assert code == 2
    assert len(out.splitlines()) == 1
    assert err.startswith("mapscope: line 3: ") and err.count("\n") == 1


def _rows(argv, capsys, monkeypatch, stdin):
    code, out, err = run(argv + ["--format", "json"], capsys, monkeypatch, stdin=stdin)
    assert (code, err) == (0, "")
    return [json.loads(line) for line in out.splitlines()]


def test_deep_and_wide_trees_stream_through(capsys, monkeypatch):
    'A path 3,000 levels deep and a star with 3,000 leaves pass every tree leg, exit 0'
    path = "(1 " * 2999 + "(1)" + ")" * 2999
    star = "(3000" + " (1)" * 3000 + ")"
    stdin = path.replace(" ", "") + "\n" + star + "\n"
    code, out, err = run(["biject", "--from", "tree", "--to", "tree"], capsys, monkeypatch, stdin)
    assert (code, err, out.splitlines()) == (0, "", [path, star])
    rows = _rows(["stats", "--object", "tree"], capsys, monkeypatch, stdin)
    assert [row.pop("tree") for row in rows] == [path, star]
    assert rows == [
        {"nodes": 3000, "leaves": 1, "internal_nodes": 2999, "root_label": 1,
         "single_child_max_nodes": 2999, "decomposable": False, "primitive": False},
        {"nodes": 3001, "leaves": 3000, "internal_nodes": 1, "root_label": 3000,
         "single_child_max_nodes": 0, "decomposable": True, "primitive": True},
    ]
    code, maps, err = run(["biject", "--from", "tree", "--to", "map"], capsys, monkeypatch, stdin)
    assert (code, err) == (0, "")
    rows = _rows(["stats", "--object", "map"], capsys, monkeypatch, maps)
    assert [row.pop("map") for row in rows] == maps.splitlines()
    assert rows == [
        {"edges": 3000, "vertices": 2, "faces": 3000, "root_face_degree": 2,
         "internal_2faces": 2999, "nonseparable": True, "multiple_edges": True},
        {"edges": 3001, "vertices": 3001, "faces": 2, "root_face_degree": 3001,
         "internal_2faces": 0, "nonseparable": True, "multiple_edges": False},
    ]
    # tree -> perm is quadratic on a path, so that leg runs at 1,500 levels.
    stdin = "(1" * 1500 + ")" * 1500 + "\n" + star + "\n"
    code, out, err = run(["biject", "--from", "tree", "--to", "perm"], capsys, monkeypatch, stdin)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        " ".join(map(str, range(1499, 0, -1))), " ".join(map(str, range(1, 3001)))
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "--object", "tree"],
        ["biject", "--from", "tree", "--to", "perm"],
        ["biject", "--from", "tree", "--to", "map"],
    ],
)
def test_deep_tree_exits_with_diagnostic(argv, capsys, monkeypatch):
    'A 3,000-level path with a bad deepest leaf exits 2 with one line naming that leaf'
    stdin = "(1" * 2999 + "(2" + ")" * 3000 + "\n"
    code, out, err = run(argv, capsys, monkeypatch, stdin=stdin)
    assert (code, out) == (2, "")
    assert err == "mapscope: line 1: invalid tree: root" + ".0" * 2999 + ": leaf label 2 != 1\n"


def test_biject_tree_to_tree_rejects_invalid_trees(capsys, monkeypatch):
    'tree -> tree validates each line like the other legs'
    for bad, why in [("(5)", "root: leaf label 5 != 1"),
                     ("(2 (3 (1)) (1))", "root: root label 2 != children sum 4")]:
        code, out, err = run(
            ["biject", "--from", "tree", "--to", "tree"], capsys, monkeypatch, stdin=f"(1)\n{bad}\n"
        )
        assert (code, out, err) == (2, "(1)\n", f"mapscope: line 2: invalid tree: {why}\n")


@pytest.mark.parametrize(
    "argv, small, big, size",
    [
        (["stats", "--object", "tree"], "(2 (1) (1))", "(3 (1) (1) (1))", 4),
        (["biject", "--from", "tree", "--to", "map"], "(2 (1) (1))", "(3 (1) (1) (1))", 4),
        (["stats", "--object", "perm"], "2 1 3", "1 2 3 4", 4),
        (["biject", "--from", "perm", "--to", "tree"], "2 1 3", "1 2 3 4", 4),
        (["stats", "--object", "map"],
         '{"n_darts": 6, "alpha": [1, 0, 3, 2, 5, 4], "sigma": [5, 2, 1, 4, 3, 0], "root": 4}',
         '{"n_darts": 8, "alpha": [1, 0, 3, 2, 5, 4, 7, 6], "sigma": [2, 5, 6, 1, 0, 7, 4, 3],'
         ' "root": 3}', 4),
    ],
)
def test_size_cap_applies_to_each_stdin_object(argv, small, big, size, capsys, monkeypatch):
    'MAPSCOPE_MAX_SIZE holds each line, in enumerate --size units, before any conversion'
    monkeypatch.setenv("MAPSCOPE_MAX_SIZE", "3")
    code, out, err = run(argv, capsys, monkeypatch, stdin=f"{small}\n{big}\n{small}\n")
    assert code == 2
    assert len(out.splitlines()) == 1
    assert err == f"mapscope: line 2: size {size} exceeds MAPSCOPE_MAX_SIZE=3\n"


def test_size_cap_counts_the_nodes_of_each_tree_line(monkeypatch):
    'A tree line is held to MAPSCOPE_MAX_SIZE by its node count, padded or not, <= 8 nodes'
    readers = {}
    for cap in range(1, 9):
        monkeypatch.setenv("MAPSCOPE_MAX_SIZE", str(cap))
        readers[cap] = _reader("tree")
    for n in range(1, 9):
        for t in enumerate_trees(n):
            text = format_tree(t)
            for line in (text, "  " + text.replace("(", "( ").replace(")", " ) ") + "\t"):
                assert readers[n](line) == t
                if n > 1:
                    with pytest.raises(ValueError) as err:
                        readers[n - 1](line)
                    assert str(err.value) == f"size {n} exceeds MAPSCOPE_MAX_SIZE={n - 1}"


MAP_2 = '{"n_darts": 4, "alpha": [1, 0, 3, 2], "sigma": [3, 2, 1, 0], "root": 2}'
MAP_2_CSV = '"{""n_darts"": 4, ""alpha"": [1, 0, 3, 2], ""sigma"": [3, 2, 1, 0], ""root"": 2}"'
MAP_3 = '{"n_darts": 6, "alpha": [1, 0, 3, 2, 5, 4], "sigma": [5, 2, 1, 4, 3, 0], "root": 4}'
MAP_3_CSV = (
    '"{""n_darts"": 6, ""alpha"": [1, 0, 3, 2, 5, 4], ""sigma"": [5, 2, 1, 4, 3, 0], '
    '""root"": 4}"'
)
TREE_STAT_HEADER = (
    "tree,nodes,leaves,internal_nodes,root_label,single_child_max_nodes,decomposable,primitive\n"
)
EXACT_OUTPUTS = [
    pytest.param("enumerate --object trees --size 3", "", {
        "text": "(2 (1) (1))\n(1 (1 (1)))\n",
        "json": '{"tree": "(2 (1) (1))"}\n{"tree": "(1 (1 (1)))"}\n',
        "csv": "tree\n(2 (1) (1))\n(1 (1 (1)))\n",
    }, id="enumerate-trees"),
    pytest.param("enumerate --object maps --size 2", "", {
        "text": MAP_2 + "\n",
        "json": MAP_2 + "\n",
        "csv": "map\n" + MAP_2_CSV + "\n",
    }, id="enumerate-maps"),
    pytest.param("enumerate --object perms --size 2", "", {
        "text": "1 2\n2 1\n",
        "json": '{"perm": "1 2"}\n{"perm": "2 1"}\n',
        "csv": "perm\n1 2\n2 1\n",
    }, id="enumerate-perms"),
    pytest.param("enumerate --object trees --size 4 --count-only", "", {
        "text": "6\n",
        "json": '{"count": 6}\n',
        "csv": "count\n6\n",
    }, id="enumerate-count-only"),
    pytest.param("biject --from tree --to map", "(1 (1))\n", {
        "text": MAP_2 + "\n",
        "json": MAP_2 + "\n",
        "csv": "map\n" + MAP_2_CSV + "\n",
    }, id="biject-tree-map"),
    pytest.param("biject --from perm --to tree", "2 1\n", {
        "text": "(1 (1 (1)))\n",
        "json": '{"tree": "(1 (1 (1)))"}\n',
        "csv": "tree\n(1 (1 (1)))\n",
    }, id="biject-perm-tree"),
    pytest.param("stats --object tree", "(1 (1))\n", {
        "text": "tree=(1 (1)) nodes=2 leaves=1 internal_nodes=1 root_label=1 "
                "single_child_max_nodes=1 decomposable=False primitive=False\n",
        "json": '{"tree": "(1 (1))", "nodes": 2, "leaves": 1, "internal_nodes": 1, '
                '"root_label": 1, "single_child_max_nodes": 1, "decomposable": false, '
                '"primitive": false}\n',
        "csv": TREE_STAT_HEADER + "(1 (1)),2,1,1,1,1,False,False\n",
    }, id="stats-tree"),
    pytest.param("stats --object map", MAP_3 + "\n", {
        "text": f"map={MAP_3} edges=3 vertices=3 faces=2 root_face_degree=3 "
                "internal_2faces=0 nonseparable=True multiple_edges=False\n",
        "json": '{"map": ' + json.dumps(MAP_3) + ', "edges": 3, "vertices": 3, "faces": 2, '
                '"root_face_degree": 3, "internal_2faces": 0, "nonseparable": true, '
                '"multiple_edges": false}\n',
        "csv": "map,edges,vertices,faces,root_face_degree,internal_2faces,nonseparable,"
               "multiple_edges\n" + MAP_3_CSV + ",3,3,2,3,0,True,False\n",
    }, id="stats-map"),
    pytest.param("stats --object perm", "2 1\n", {
        "text": "perm=2 1 length=2 components=1 lr_maxima=1 m_occurrences=1 "
                "indecomposable=True in_class=True primitive=False\n",
        "json": '{"perm": "2 1", "length": 2, "components": 1, "lr_maxima": 1, '
                '"m_occurrences": 1, "indecomposable": true, "in_class": true, '
                '"primitive": false}\n',
        "csv": "perm,length,components,lr_maxima,m_occurrences,indecomposable,in_class,"
               "primitive\n2 1,2,1,1,1,True,True,False\n",
    }, id="stats-perm"),
    pytest.param("stats --object tree", "", {
        "text": "",
        "json": "",
        "csv": TREE_STAT_HEADER,
    }, id="stats-empty-stdin"),
    pytest.param("series --name b1 --terms 3", "", {
        "text": "1\n0\n1\n",
        "json": '{"n": 1, "coefficient": 1}\n{"n": 2, "coefficient": 0}\n'
                '{"n": 3, "coefficient": 1}\n',
        "csv": "n,coefficient,asymptotic,relative_error\n1,1,0.366451883927,0.633548\n"
               "2,0,0.388680918155,\n3,1,0.634713281491,0.365287\n",
    }, id="series"),
    pytest.param("asympt --name a --at 5", "", {
        "text": "18.1445322032\n",
        "json": '{"name": "a", "n": 5, "estimate": "18.1445322032"}\n',
        "csv": "name,n,estimate\na,5,18.1445322032\n",
    }, id="asympt"),
    pytest.param("asympt --name p --at 1000", "", {
        "text": "2.51283501248e+751\n",
        "json": '{"name": "p", "n": 1000, "estimate": "2.51283501248e+751"}\n',
        "csv": "name,n,estimate\np,1000,2.51283501248e+751\n",
    }, id="asympt-p"),
    pytest.param("asympt --name pprime --at 1000", "", {
        "text": "1.44488013217e+755\n",
        "json": '{"name": "pprime", "n": 1000, "estimate": "1.44488013217e+755"}\n',
        "csv": "name,n,estimate\npprime,1000,1.44488013217e+755\n",
    }, id="asympt-pprime"),
    pytest.param("asympt --name b3 --at 100", "", {
        "text": "1.9538702269e+58\n",
        "json": '{"name": "b3", "n": 100, "estimate": "1.9538702269e+58"}\n',
        "csv": "name,n,estimate\nb3,100,1.9538702269e+58\n",
    }, id="asympt-b3"),
]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command, stdin, outputs", EXACT_OUTPUTS)
def test_exact_output_in_every_format(command, stdin, outputs, fmt, capsys, monkeypatch):
    'Each subcommand writes exactly these bytes as text, JSON and CSV'
    code, out, err = run(command.split() + ["--format", fmt], capsys, monkeypatch, stdin)
    assert (code, err) == (0, "")
    assert out == outputs[fmt]
