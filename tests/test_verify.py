"""Verification suites: small-size runs, report plumbing, oracle spot checks."""

import dataclasses
import itertools

import pytest

from mapscope import cli, verify
from mapscope.perms import INS1, INS2, M, M_PRIME, N, generate_av, occurrences
from mapscope.series import _ALGEBRAIC, _SERIES, _stepper, exact_coefficient
from mapscope.verify import (
    SUITE_NAMES,
    brute_force_av,
    check_asymptotics,
    check_bounds,
    check_closure,
    check_counts,
    check_kfacefree,
    check_primitive_series,
    check_series_identities,
    check_table1,
    check_theorem5,
    format_report,
    naive_mesh_occurrences,
    report_to_dict,
    run_suite,
)


def test_counts_suite_passes():
    'Tree / map / permutation counts agree with brute force'
    r = check_counts(7)
    assert r.status == "pass"
    assert r.witnesses == ()
    assert r.params == {"n_max": 7}


def test_table1_suite_passes():
    'Per-object statistics line up across the two bijections'
    r = check_table1(6)
    assert r.status == "pass"


def test_kfacefree_suite_passes():
    'k-face-free tree predicates match face-degree oracles'
    r = check_kfacefree(6)
    assert r.status == "pass"


def test_bounds_suite_passes():
    'Restricted enumerations are sandwiched by the label-cap classes'
    r = check_bounds(6, 8)
    assert r.status == "pass"


def test_primitive_suite_passes():
    'Primitive counts agree between trees, maps, and permutations'
    r = check_primitive_series(6)
    assert r.status == "pass"


def test_closure_suite_passes():
    'One-step expansions reach every non-primitive class member'
    r = check_closure(5)
    assert r.status == "pass"


def test_series_suite_passes():
    'Generating-function identities hold to the requested order'
    r = check_series_identities(12)
    assert r.status == "pass"


def _corrupt(entry):
    'entry with one table coefficient off by one: every table meets an inexact step at n = 1'
    rows = [list(row) for row in entry.rows]
    rows[-3][-1] += 1
    return dataclasses.replace(entry, rows=tuple(map(tuple, rows)))


@pytest.mark.parametrize("name", _ALGEBRAIC)
def test_series_suite_reports_an_inexact_step(name, monkeypatch, capsys):
    'A corrupt table is a witness, not a traceback, and leaves no memoised stepper behind'
    entry = _SERIES[name]
    want = exact_coefficient(name, 40)
    _stepper.cache_clear()
    monkeypatch.setitem(_SERIES, name, _corrupt(entry))
    message = "recurrence step n = 1 is inexact: corrupt table"
    assert check_series_identities().witnesses == ((f"{name} recurrence", "exact steps", message),)
    assert cli.main(["verify", "--suite", "series"]) == 1
    assert message in capsys.readouterr().out
    with pytest.raises(ArithmeticError, match="corrupt table"):
        exact_coefficient(name, 40)
    assert _stepper.cache_info().currsize == 0
    monkeypatch.setitem(_SERIES, name, entry)
    assert exact_coefficient(name, 40) == want


@pytest.mark.parametrize("name", _ALGEBRAIC)
def test_asymptotics_suite_reports_an_inexact_step(name, monkeypatch, capsys):
    'A corrupt table stops the asymptotics suite with a witness, alone and under --suite all, and leaves no memoised stepper behind'
    entry = _SERIES[name]
    want = exact_coefficient(name, 40)
    monkeypatch.setitem(_SERIES, name, _corrupt(entry))
    _stepper.cache_clear()
    message = "recurrence step n = 1 is inexact: corrupt table"
    witness = ("asymptotics", "exact arithmetic", message)
    assert check_asymptotics().witnesses == (witness,)
    assert _stepper.cache_info().currsize == 0
    for suite in ("asymptotics", "all"):
        assert cli.main(["verify", "--suite", suite, "--max-size", "2"]) == 1
        out = capsys.readouterr().out
        assert "asymptotics: FAIL" in out
        assert "  asymptotics: expected exact arithmetic, got " + message in out
        assert _stepper.cache_info().currsize == 0
    monkeypatch.setitem(_SERIES, name, entry)
    assert exact_coefficient(name, 40) == want


def test_theorem5_reports_the_break():
    'The claimed triple fails already at the two-node tree'
    r = check_theorem5(4)
    assert r.status == "fail"
    assert r.witnesses[0][0] == "(1 (1))"
    assert r.witnesses[0][2] == "M=0, tree=1, faces=1"
    # the summary witness gives the total
    assert any("mismatches" in w[2] for w in r.witnesses)


# suite -> {parameter: (default, lo, hi)}: the sizes each suite accepts.
SUITE_SIZES = {
    "counts": {"n_max": (9, 1, 9)},
    "table1": {"n_max": (9, 1, 10)},
    "theorem5": {"n_max": (9, 1, 10)},
    "kfacefree": {"n_max": (9, 1, 10)},
    "bounds": {"n_max": (8, 2, 10), "coeff_nodes": (12, 1, 13)},
    "primitive": {"n_max": (10, 2, 10)},
    "closure": {"n_max": (8, 1, 8)},
    "series": {"order": (30, 1, 30)},
    "asymptotics": {},
}


def test_suite_defaults():
    'Every suite registers the defaults of its signature'
    assert {name: defaults for name, (_, defaults) in verify._SUITES.items()} == {
        name: {k: default for k, (default, _, _) in sizes.items()}
        for name, sizes in SUITE_SIZES.items()
    }


@pytest.mark.parametrize(
    "suite, param, value, lo, hi",
    [
        (suite, param, value, lo, hi)
        for suite, sizes in SUITE_SIZES.items()
        for param, (_, lo, hi) in sizes.items()
        for value in (lo - 1, hi + 1)
    ],
)
def test_suite_guards(suite, param, value, lo, hi, monkeypatch):
    'A size outside its range is refused, naming the suite, before any work'
    def no_work(*args, **kwargs):
        pytest.fail(f"{suite} started work before its guard")

    for name in ("enumerate_trees", "series", "generate_av", "tutte_count"):
        monkeypatch.setattr(verify, name, no_work)
    check, defaults = verify._SUITES[suite]
    with pytest.raises(ValueError) as exc:
        check(**{**defaults, param: value})
    assert str(exc.value) == f"{suite}: {param} is guarded to {lo}..{hi}, got {value}"


def test_run_suite_all_refuses_before_any_suite_runs(monkeypatch):
    'run_suite("all") checks every suite\'s sizes before the first suite starts'
    def no_work(*args, **kwargs):
        pytest.fail("a suite started work before every size was checked")

    for name in ("enumerate_trees", "series", "generate_av", "tutte_count"):
        monkeypatch.setattr(verify, name, no_work)
    monkeypatch.delenv("MAPSCOPE_MAX_SIZE", raising=False)
    with pytest.raises(ValueError) as exc:
        run_suite("all", 1)
    assert str(exc.value) == "bounds: n_max is guarded to 2..10, got 1"


def test_brute_force_av_small():
    'The filter oracle agrees with the generator'
    for n in range(7):
        assert sorted(brute_force_av(n)) == sorted(generate_av(n))


def test_naive_mesh_matcher_agrees():
    'The region-counting matcher equals the O(n^2 k) scan on small input'
    perms = [
        pi for n in range(1, 5) for pi in itertools.permutations(range(1, n + 1))
    ]
    for pat in (M, M_PRIME, N, INS1, INS2):
        for pi in perms:
            assert occurrences(pat, pi) == naive_mesh_occurrences(
                pat.base, pat.shaded, pi
            )


def test_report_shapes():
    'Dict and text renderings carry the same fields'
    r = check_counts(5)
    d = report_to_dict(r)
    assert d["suite"] == "counts"
    assert d["status"] == "pass"
    assert d["params"] == {"n_max": 5}
    assert d["witnesses"] == []
    assert isinstance(d["runtime"], float)
    text = format_report(r)
    assert text.startswith("counts: PASS (n_max=5)")


def test_format_report_lists_witnesses():
    'Each witness becomes an expected/got line'
    r = check_theorem5(3)
    text = format_report(r)
    assert "expected equal triple, got M=0, tree=1, faces=1" in text


def test_run_suite_all():
    'The "all" meta-suite runs every registered suite once'
    reports = run_suite("all", 4)
    assert [r.suite for r in reports] == [
        "counts",
        "table1",
        "theorem5",
        "kfacefree",
        "bounds",
        "primitive",
        "closure",
        "series",
        "asymptotics",
    ]
    assert set(SUITE_NAMES) == {r.suite for r in reports} | {"all"}


def test_run_suite_caps_sizes():
    'max_size only ever shrinks a suite default'
    (r,) = run_suite("counts", 5)
    assert r.params == {"n_max": 5}
    (r,) = run_suite("counts", 99)
    assert r.params == {"n_max": 9}
    (r,) = run_suite("bounds", 6)
    assert r.params == {"n_max": 6, "coeff_nodes": 6}


def test_env_var_caps_sizes(monkeypatch):
    'MAPSCOPE_MAX_SIZE acts like --max-size'
    monkeypatch.setenv("MAPSCOPE_MAX_SIZE", "4")
    (r,) = run_suite("counts")
    assert r.params == {"n_max": 4}
    monkeypatch.setenv("MAPSCOPE_MAX_SIZE", "not a number")
    with pytest.raises(ValueError):
        run_suite("counts", 5)


def test_unknown_suite_rejected():
    'Suite names are validated'
    with pytest.raises(ValueError):
        run_suite("tables")
