import dataclasses
import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from fractions import Fraction

import mapscope
from mapscope.series import (
    A_FORMULA,
    A_HYP,
    A_ZEIL,
    B1,
    B2,
    B3,
    B1_EQUATION,
    B2_EQUATION,
    B3_EQUATION,
    P,
    P_EQUATION,
    PPRIME,
    SERIES_NAMES,
    ZEILBERGER_CUBIC,
    EquationSpec,
    asymptotic,
    b3_singularity,
    compose,
    exact_coefficient,
    maps_with_edges,
    p_coefficient,
    pprime_coefficient,
    primitive_maps_with_edges,
    series,
    solve_equation,
    tutte_count,
    _ALGEBRAIC,
    _B3_DISCRIMINANT,
    _SERIES,
    _mul,
    _stepper,
)
from mapscope.verify import check_asymptotics

import pytest

A_PREFIX = [2, 1, 2, 6, 22, 91, 408, 1938, 9614]
P_PREFIX = [2, 1, 1, 3, 9, 32, 122]
PPRIME_PREFIX = [2, -1, 0, 2, 6, 23, 90]
B1_PREFIX = [1, 0, 1, 1, 3, 6, 15, 36, 91, 232]     # x^1..x^10
B2_PREFIX = [1, 0, 1, 1, 5, 11, 39, 113, 377, 1207]
B3_PREFIX = [1, 0, 1, 1, 5, 13, 48, 160, 578, 2078]
PRIMITIVE_MAP_COUNTS = [1, 0, 1, 2, 7, 25, 97, 397, 1691, 7439]  # 1..10 edges


def test_tutte_count():
    assert tutte_count(0) == 2
    assert tutte_count(3) == 6
    assert tutte_count(5) == 91
    assert maps_with_edges(1) == 1
    assert maps_with_edges(4) == 6


@pytest.mark.parametrize("f", [p_coefficient, pprime_coefficient])
def test_negative_coefficient_index_refused(f):
    'A negative n is refused, not read from the end of the memoised coefficients'
    f(5)
    with pytest.raises(ValueError):
        f(-1)


def test_a_prefix():
    ser = series(A_FORMULA, 8)
    assert [int(ser[n]) for n in range(9)] == A_PREFIX


def test_a_formula_matches_factorials():
    'The term-ratio route of A_FORMULA against tutte_count, three factorials per term'
    assert series(A_FORMULA, 300) == tuple(map(tutte_count, range(301)))


def test_three_a_routes_agree():
    order = 15
    assert series(A_FORMULA, order) == series(A_ZEIL, order) == series(A_HYP, order)


def test_p_and_pprime_prefixes():
    'The substitution series keeps its boundary artifact at x^1'
    p = series(P, 6)
    assert [int(p[n]) for n in range(7)] == P_PREFIX
    pp = series(PPRIME, 6)
    assert [int(pp[n]) for n in range(7)] == PPRIME_PREFIX


def test_b_prefixes():
    for name, prefix in ((B1, B1_PREFIX), (B2, B2_PREFIX), (B3, B3_PREFIX)):
        ser = series(name, 10)
        assert [int(ser[n]) for n in range(1, 11)] == prefix
        assert ser[0] == 0


def test_primitive_map_counts():
    assert [primitive_maps_with_edges(m) for m in range(1, 11)] == PRIMITIVE_MAP_COUNTS
    for n in range(1, 10):
        assert p_coefficient(n) == PRIMITIVE_MAP_COUNTS[n] + PRIMITIVE_MAP_COUNTS[n - 1]


def _factorial_tutte(k):
    return 4 * math.factorial(3 * k) // (math.factorial(k) * math.factorial(2 * k + 2))


def _binomial_sum(values, n):
    'sum_{k=1..n} values[k] (-1)^(n-k) C(n-1, n-k), each binomial by math.comb'
    return sum(values[k] * (-1) ** (n - k) * math.comb(n - 1, n - k) for k in range(1, n + 1))


def test_binomial_transforms_match_factorial_reference():
    'P, PPRIME and 2-face-free counts against factorials and math.comb'
    tutte = [_factorial_tutte(k) for k in range(1001)]
    maps = [0, 1] + tutte[1:1000]  # maps_with_edges(m) = tutte(m - 1), m >= 2

    def p_ref(n):
        return 2 if n == 0 else _binomial_sum(tutte, n)

    for n in [*range(1, 41), 200, 1000]:
        assert p_coefficient(n) == p_ref(n)
        assert pprime_coefficient(n) == p_ref(n) - p_ref(n - 1)
        assert primitive_maps_with_edges(n) == _binomial_sum(maps, n)


def test_p_series_matches_composition():
    'series(P) and series(PPRIME) against A(x/(1+x)) built by compose'
    order = 60
    sub = (0, *((-1) ** k for k in range(order)))  # x/(1+x)
    composed = compose(series(A_FORMULA, order), sub)
    assert series(P, order) == composed
    assert solve_equation(P_EQUATION, order) == composed
    assert series(PPRIME, order) == _mul((1, -1) + (0,) * (order - 1), composed)


def _convolution_sqrt(coeffs):
    's_k = (f_k - sum_{0<i<k} s_i s_(k-i)) / 2, the schoolbook square root'
    s = [Fraction(1)]
    for k in range(1, len(coeffs)):
        s.append(Fraction(coeffs[k] - sum(s[i] * s[k - i] for i in range(1, k))) / 2)
    return s


def _divide(a, den):
    'a / den by long division over lists: q_k = (a_k - sum_{0<j<=k} den_j q_(k-j)) / den_0'
    q = []
    for k, v in enumerate(a):
        q.append((v - sum(d * q[k - j] for j, d in enumerate(den[1 : k + 1], 1))) / den[0])
    return q


def _closed_form(num, rad, den, order):
    '(num - sqrt(rad)) / den to the given order, the square root by `_convolution_sqrt`'
    def pad(p):
        return list(p) + [0] * (order + 1 - len(p))

    root = _convolution_sqrt(pad(rad))
    return tuple(_divide([a - r for a, r in zip(pad(num), root)], den))


def test_b1_b2_recurrences_match_printed_closed_forms():
    'series(B1) and series(B2), and the root of B1_EQUATION, against the printed closed forms'
    b1 = _closed_form([1, 1], [1, -2, -3], [2, 2], 300)
    assert series(B1, 300) == b1
    assert solve_equation(B1_EQUATION, 100) == b1[:101]
    assert series(B2, 300) == _closed_form([1, 3, 4], [1, -2, -7], [4, 8], 300)


@pytest.mark.parametrize(
    "name, digits, sha",
    [
        (B1, 949, "cf461ebf549ae5f6cdf4664813b0c21fec3c6de7bf2b2d9e904f48339a0fd442"),
        (B2, 1160, "68174a7e63e35b1816bf3f9a7d8e99076481a5198beebc812d305b6a2dffb765"),
    ],
    ids=[B1, B2],
)
def test_b1_b2_coefficient_2000_pinned(name, digits, sha):
    '[x^2000] of B1 and B2, pinned from the earlier closed forms as the SHA-256 of its digits'
    c = series(name, 2000)[2000]
    assert type(c) is int and len(str(c)) == digits
    assert hashlib.sha256(str(c).encode()).hexdigest() == sha


def test_zeilberger_cubic():
    'The cubic solution B satisfies 2 + xB = A'
    b = solve_equation(ZEILBERGER_CUBIC, 6)
    assert [int(b[n]) for n in range(7)] == [1, 2, 6, 22, 91, 408, 1938]


def test_b2_closed_form_equals_equation():
    order = 15
    eq = solve_equation(B2_EQUATION, order)
    assert eq == series(B2, order)


def test_b2_equation_at_high_order():
    'The recurrence behind series(B2) matches the equation far past the prefixes'
    assert exact_coefficient(B2, 200) == solve_equation(B2_EQUATION, 200)[200]


def test_solve_equation_with_rational_coefficients():
    'Q = y^2 - 2y + x (dQ/dy = -2 at the seed) has the solution 1 - sqrt(1 - x)'
    spec = EquationSpec.make({(0, 2): 1, (0, 1): -2, (1, 0): 1}, 0)
    root = _convolution_sqrt([1, -1] + [0] * 11)
    expected = (1 - root[0], *(-c for c in root[1:]))
    assert solve_equation(spec, 12) == expected
    assert expected[1] == Fraction(1, 2)


def _picard(seed, r_terms, order):
    'y = seed + x R(x, y) by fixed-point iteration over lists; each pass fixes one more coefficient'
    y = [seed] + [0] * order
    for _ in range(order):
        rhs = [seed] + [0] * order
        for (i, j), c in r_terms.items():
            power = [1] + [0] * order
            for _ in range(j):
                power = [sum(power[a] * y[k - a] for a in range(k + 1)) for k in range(order + 1)]
            for k in range(order - i):
                rhs[k + i + 1] += c * power[k]
        y = rhs
    return y


def test_solve_equation_matches_picard_iteration():
    'Q = -y + seed + x R(x, y) over ints and Fractions: the online solve equals fixed-point iteration'
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.one_of(
        st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=5)
    )
    r_terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 4)), coeff, max_size=6)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(coeff.filter(bool), r_terms, st.integers(0, 10))
    def solves(seed, r, order):
        q = {(i + 1, j): c for (i, j), c in r.items()}
        q[(0, 0)], q[(0, 1)] = seed, -1
        y = solve_equation(EquationSpec.make(q, seed), order)
        assert list(y) == _picard(seed, r, order)

    solves()


def test_squaring_equals_general_product():
    '_mul(a, a) (the symmetric path) equals a times an equal but distinct series'
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.one_of(
        st.integers(-10**30, 10**30), st.fractions(min_value=-5, max_value=5, max_denominator=9)
    )

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.lists(coeff, min_size=1, max_size=25))
    def squares(cs):
        a = tuple(cs)
        b = tuple(list(cs))
        assert b is not a
        assert _mul(a, a) == _mul(a, b) == _mul(b, a)
        assert list(_mul(a, a)) == [
            sum(Fraction(cs[i]) * cs[k - i] for i in range(k + 1)) for k in range(len(cs))
        ]

    squares()


def test_a_cubic_matches_closed_form_at_high_order():
    'The seed-1 cubic solve against the independent closed form, far past the prefixes'
    assert series(A_ZEIL, 400) == series(A_FORMULA, 400)


def test_b3_recurrence_matches_equation_solution():
    'The recurrence route against the online solve of the quartic, far past the prefixes'
    assert series(B3, 300) == solve_equation(B3_EQUATION, 300)


@pytest.mark.parametrize("name", _ALGEBRAIC)
def test_b3_recurrence_refuses_a_corrupt_table(name):
    'A table with one coefficient off by one meets an inexact division and raises'
    entry = _SERIES[name]
    rows = [list(row) for row in entry.rows]
    rows[-3][-1] += 1
    with pytest.raises(ArithmeticError, match="corrupt table"):
        dataclasses.replace(entry, rows=rows)(60)


def _horner_steps(table, seed, order):
    'The recurrence stepped naively: every c_s(n) by Horner\'s rule at every step'
    def at(row, n):
        v = 0
        for a in row:
            v = v * n + a
        return v

    pad = len(table) - len(seed)
    y = [0] * pad + list(seed)  # y_m at y[pad + m]
    for n in range(1, order - len(seed) + 2):
        acc = sum(at(row, n) * v for row, v in zip(table[:-1], y[n:]))
        q, r = divmod(-acc, at(table[-1], n))
        assert r == 0
        y.append(q)
    return y[pad : pad + order + 1]


@pytest.mark.parametrize("name", _ALGEBRAIC)
def test_stepper_matches_naive_horner_stepping(name):
    'The forward-difference stepper against Horner evaluation of every row at every step'
    entry = _SERIES[name]
    for order in [*range(1, 61), 1000]:
        assert entry(order) == _horner_steps(entry.rows, entry.seed, order)


def test_exact_coefficient_memo_in_any_order():
    'Asked in any order of n, the memoised steppers equal a fresh series and step only as far as asked'
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    query = st.tuples(st.sampled_from([PPRIME, B1, B2, B3]), st.integers(1, 300))

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(st.lists(query, min_size=1, max_size=10))
    def agrees(queries):
        _stepper.cache_clear()
        furthest = {}
        for name, n in queries:
            assert exact_coefficient(name, n) == series(name, n)[n]
            table = P if name == PPRIME else name
            furthest[table] = max(n, furthest.get(table, 0))
        for table, n in furthest.items():
            assert len(_stepper(table)[1]) == n + 1
        _, n = queries[-1]
        assert p_coefficient(n) == series(P, n)[n]

    agrees()


def test_asymptotics_steps_each_series_only_as_far_as_it_reads():
    'The asymptotics suite reads B3 to n = 800 and P, B1 and B2 to n = 1000'
    _stepper.cache_clear()
    check_asymptotics()
    reached = {name: len(_stepper(name)[1]) - 1 for name in (P, B1, B2, B3)}
    assert reached == {P: 1000, B1: 1000, B2: 1000, B3: 800}


def _derive_script():
    'scripts/derive_recurrences.py as a module; skips when sympy is missing'
    pytest.importorskip("sympy")
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "derive_recurrences.py")
    spec = importlib.util.spec_from_file_location("derive_recurrences", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", [name for name in _ALGEBRAIC if name != B3])
def test_recurrence_tables_match_a_fresh_derivation(name, monkeypatch):
    'derive_recurrences.py --check passes on the held table and fails on a corrupt one; B3 is left out, since --check B3 takes seconds'
    script = _derive_script()
    assert script.main(["--check", name]) == 0
    entry = _SERIES[name]
    corrupt = entry.rows[:-1] + (tuple(c + 1 for c in entry.rows[-1]),)
    monkeypatch.setitem(_SERIES, name, dataclasses.replace(entry, rows=corrupt))
    assert script.main(["--check", name]) == 1


def test_b3_discriminant_factor_matches_its_equation():
    'The held factor R of disc_y Q is the one the derive script finds for B3\'s registered equation'
    script = _derive_script()
    assert script.discriminant_factor(_SERIES[B3].equation) == list(_B3_DISCRIMINANT)


def test_b3_coefficient_800_pinned():
    '[x^800] B3, pinned from the earlier Newton solver as the SHA-256 of its digits'
    c = series(B3, 800)[800]
    assert type(c) is int and len(str(c)) == 497
    assert hashlib.sha256(str(c).encode()).hexdigest() == (
        "f2822f195bcb024c2fd267ccd53f8410acf3dc416582aebb2fab15eb9703211b"
    )


def test_integral_coefficients_are_ints():
    assert type(series(B3, 50)[50]) is int
    for name in (P, PPRIME, B1, B2):
        assert all(type(c) is int for c in series(name, 200))
    for f in (p_coefficient, pprime_coefficient, primitive_maps_with_edges):
        assert type(f(300)) is int
    for name in SERIES_NAMES:  # the CLI prints and JSON-encodes them as they are
        assert all(type(c) is int for c in series(name, 60)), name


def test_b3_equation_residual_and_seed():
    sol = solve_equation(B3_EQUATION, 12)
    assert sol[0] == 0
    assert [int(sol[n]) for n in range(1, 11)] == B3_PREFIX


def test_degenerate_seed_rejected():
    # Q = y^2 - x has Qy = 0 at the seed
    spec = EquationSpec(coeffs=(((1, 0), Fraction(-1)), ((0, 2), Fraction(1))), seed=Fraction(0))
    with pytest.raises(ValueError):
        solve_equation(spec, 4)


def test_series_arithmetic():
    'x/(1-x) composed with x/(1+x) is x'
    assert compose((0,) + (1,) * 10, (0, *((-1) ** k for k in range(10)))) == (0, 1) + (0,) * 9


def _naive_compose(f, g):
    'sum_k f_k g^k over lists, each power of g by a schoolbook product, to the shorter length'
    n = min(len(f), len(g))
    out, power = [0] * n, [1] + [0] * (n - 1)
    for c in f[:n]:
        out = [o + c * p for o, p in zip(out, power)]
        power = [sum(power[i] * g[k - i] for i in range(k + 1)) for k in range(n)]
    return out


def test_compose_matches_naive_substitution():
    'compose(f, g) over ints and Fractions equals term-by-term substitution, truncated to the shorter input'
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.one_of(
        st.integers(-10**12, 10**12), st.fractions(min_value=-5, max_value=5, max_denominator=9)
    )
    tail = st.lists(coeff, max_size=12)

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.lists(coeff, min_size=1, max_size=13), tail)
    def agrees(f, g_tail):
        g = (0, *g_tail)
        got = compose(tuple(f), g)
        assert len(got) == min(len(f), len(g))
        assert list(got) == _naive_compose(f, g)

    agrees()


def test_compose_truncates_to_the_shorter_input():
    assert compose((1, 2, 3, 4), (0, 1)) == (1, 2)
    assert compose((1, 2), (0, 1, 1, 1)) == (1, 2)
    assert compose((5, 0, 1), (0, 1, 1)) == (5, 0, 1)  # 5 + (x + x^2)^2 to x^2


@pytest.mark.parametrize("g0", [1, -2, Fraction(1, 3)])
def test_compose_refuses_a_nonzero_constant_term(g0):
    with pytest.raises(ValueError, match="g\\(0\\) = 0"):
        compose((1, 1, 1), (g0, 1, 1))


def test_exact_coefficients_match_series():
    for name in (B1, B2, B3):
        ser = series(name, 12)
        for n in (3, 7, 12):
            assert exact_coefficient(name, n) == int(ser[n])
    assert exact_coefficient("A", 6) == 91
    assert exact_coefficient("A", 5) == 22
    assert exact_coefficient(P, 4) == 2
    assert exact_coefficient(P, 6) == 25


def test_singularity_constants():
    'tau, rho and gamma to 25 digits, as the earlier two-dimensional Newton solver gave them'
    import mpmath

    est = b3_singularity()
    for value, expected in (
        (est.tau, "0.2852537875322924170185038012"),
        (est.rho, "4.241211543042104203547311171"),
        (est.gamma, "0.1234545708877394784264292128"),
    ):
        with mpmath.workdps(30):
            assert abs(value / mpmath.mpf(expected) - 1) < mpmath.mpf("1e-25")


def test_import_leaves_precision_alone():
    'Importing mapscope keeps mpmath at 15 digits, and the solver works at them'
    code = (
        "import mpmath, mapscope\n"
        "from mapscope.series import b3_singularity\n"
        "assert mpmath.mp.dps == 15, mpmath.mp.dps\n"
        "mpmath.mp.dps = 15\n"
        "est = b3_singularity()\n"
        "assert mpmath.mp.dps == 15, mpmath.mp.dps\n"
        "print(repr(float(est.tau)), repr(float(est.rho)), repr(float(est.gamma)))\n"
    )
    src = os.path.dirname(os.path.dirname(mapscope.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    tau, rho, gamma = map(float, done.stdout.split())
    assert abs(tau - 0.28525378753229241702) < 1e-12
    assert abs(rho - 4.2412115430421042035) < 1e-12
    assert abs(gamma - 0.12345457088773947843) < 1e-12


def test_b1_estimate_tracks_coefficients():
    err = abs(asymptotic(B1, 200) / exact_coefficient(B1, 200) - 1)
    assert err < 0.005


def test_a_estimate_tracks_map_counts():
    err = abs(asymptotic("A", 400) / exact_coefficient("A", 400) - 1)
    assert err < 0.01


def test_p_estimate_overshoots_three_fold():
    'The printed constant for the primitive series is three times the empirical one'
    ratio = asymptotic(P, 400) / exact_coefficient(P, 400)
    assert abs(ratio - 3) < 0.1
