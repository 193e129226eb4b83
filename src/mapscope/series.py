"""Exact truncated power series, functional equations, and asymptotics.

A series is a tuple of its coefficients, index n holding [x^n]; a product or
a composition truncates to the shorter operand.  `solve_equation` solves a
functional equation online, one coefficient at a time, each an int when it
is integral and a `fractions.Fraction` otherwise (every quotient goes
through `_div`).  Floating point appears only in the estimates and the
singularity solver, which run at 30 significant digits (mpmath) whatever
the caller's precision.

Named series (`series(name, N)`, all ints), one `_SERIES` entry each; the
registry is all that `SERIES_NAMES`, the CLI's `--name` flags, the `series`
verify suite and scripts/derive_recurrences.py read:

* A_FORMULA -- 4(3n)!/(n!(2n+2)!), each term from the last by its ratio
  (note [x^0] = 2, a series convention: there is exactly one map on one edge);
* A_ZEIL    -- 2 + x*B, B the root of the cubic `ZEILBERGER_CUBIC`;
* A_HYP     -- (2/3x)(F([-2/3,-1/3],[1/2],27x/4) - 1), term by term over the
  rationals;
* P         -- A(x/(1+x)), the root of the cubic `P_EQUATION` with y(0) = 2;
  PPRIME -- (1-x) P, P's first differences;
* B1        -- (1+x-sqrt(1-2x-3x^2))/(2(1+x)) (labels <= 1, no only
  children), B2 -- (1+3x+4x^2-sqrt(1-2x-7x^2))/(4+8x) (labels <= 2) and B3
  (labels <= 3), the roots of `B1_EQUATION`, `B2_EQUATION` and the quartic
  `B3_EQUATION` with y(0) = 0.
P and the B-series are `_Algebraic` entries: an equation and the
P-recurrence of its linear ODE, stepped by forward differences;
`solve_equation` of the equation is the independent route.
`p_coefficient`, `pprime_coefficient`, `primitive_maps_with_edges` and
`exact_coefficient` read one memoised stepper per series, advanced only as
far as the largest n asked so far; `series` steps afresh.  Estimates
(`asymptotic`): one `_ASYMPTOTICS` entry per name in `ASYMPT_NAMES`.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from operator import add, mul

__all__ = [
    "EquationSpec",
    "SingularityEstimate",
    "ZEILBERGER_CUBIC",
    "P_EQUATION",
    "B1_EQUATION",
    "B2_EQUATION",
    "B3_EQUATION",
    "SERIES_NAMES",
    "ASYMPT_NAMES",
    "tutte_count",
    "maps_with_edges",
    "primitive_maps_with_edges",
    "pprime_coefficient",
    "p_coefficient",
    "solve_equation",
    "series",
    "compose",
    "asymptotic",
    "b3_singularity",
    "exact_coefficient",
]


A_FORMULA = "A_FORMULA"
A_ZEIL = "A_ZEIL"
A_HYP = "A_HYP"
P = "P"
PPRIME = "PPRIME"
B1 = "B1"
B2 = "B2"
B3 = "B3"


def _exact(v) -> int | Fraction:
    """v as an int when it is integral, else as a Fraction."""
    if type(v) is int:
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _div(a, b) -> int | Fraction:
    """The exact quotient a / b: an int when it is integral, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _exact(Fraction(a) / b)


def _square_term(p, k: int) -> int | Fraction:
    """[x^k] of the square of the series with coefficients p: each symmetric
    pair p_i p_(k-i), i < k - i, is multiplied once and doubled."""
    h = (k + 1) // 2
    s = 2 * sum(map(mul, p, p[k : k - h : -1]))
    return s + p[h] ** 2 if k % 2 == 0 else s


def _mul(a: tuple, b: tuple) -> tuple:
    """The product of coefficient tuples a and b, truncated to the shorter;
    a square (a is b) takes each symmetric pair once."""
    if a is b:
        return tuple(_square_term(a, k) for k in range(len(a)))
    # map() stops at the end of the reversed slice
    return tuple(sum(map(mul, a, b[k::-1])) for k in range(min(len(a), len(b))))


def compose(f: tuple, g: tuple) -> tuple:
    """f(g(x)) for coefficient tuples f and g, truncated to the shorter;
    requires g(0) = 0."""
    if g[0] != 0:
        raise ValueError("compose requires g(0) = 0")
    n = min(len(f), len(g))
    acc = (f[n - 1],) + (0,) * (n - 1)
    for c in reversed(f[: n - 1]):  # Horner; g(0) = 0, so [x^0] of acc * g is 0
        acc = (c, *_mul(acc, g)[1:])
    return acc


# ---------------------------------------------------------------------------
# Functional equations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquationSpec:
    """Bivariate polynomial Q(x, y) = sum coeffs[(i, j)] x^i y^j, with seed y(0)."""

    coeffs: tuple[tuple[tuple[int, int], int | Fraction], ...]
    seed: int | Fraction

    @staticmethod
    def make(coeffs: dict[tuple[int, int], int | Fraction], seed) -> "EquationSpec":
        items = tuple(sorted((k, _exact(v)) for k, v in coeffs.items() if v))
        return EquationSpec(items, _exact(seed))

    def y_degree(self) -> int:
        return max(j for (_, j), _ in self.coeffs)

    def q_at_seed(self) -> tuple[int | Fraction, int | Fraction]:
        """(Q(0, seed), dQ/dy(0, seed))."""
        q = qy = 0
        for (i, j), c in self.coeffs:
            if i == 0:
                q += c * self.seed**j
                if j >= 1:
                    qy += c * j * self.seed ** (j - 1)
        return q, qy


# B(x) = 1 - 8x + 2x(5-6x)B - 2x^2(1+3x)B^2 - x^4 B^3, B(0) = 1.
ZEILBERGER_CUBIC = EquationSpec.make(
    {
        (0, 0): 1,
        (1, 0): -8,
        (1, 1): 10,
        (2, 1): -12,
        (0, 1): -1,
        (2, 2): -2,
        (3, 2): -6,
        (4, 3): -1,
    },
    1,
)

# x^2 P^3 + 2x(1+x) P^2 + (1-16x-17x^2) P + 25x^2 + 23x - 2 = 0, P(0) = 2:
# ZEILBERGER_CUBIC under B = (P - 2)/x and x -> x/(1+x), cleared of denominators.
P_EQUATION = EquationSpec.make(
    {
        (2, 3): 1,
        (1, 2): 2,
        (2, 2): 2,
        (0, 1): 1,
        (1, 1): -16,
        (2, 1): -17,
        (0, 0): -2,
        (1, 0): 23,
        (2, 0): 25,
    },
    2,
)

# (1+x) y^2 - (1+x) y + x = 0, the square of B1's closed form, y(0) = 0.
B1_EQUATION = EquationSpec.make({(0, 2): 1, (1, 2): 1, (0, 1): -1, (1, 1): -1, (1, 0): 1}, 0)

# y = x + y(y-x) + (y-x)^2 + x(2y-x)^2 collected, y(0) = 0.
B2_EQUATION = EquationSpec.make(
    {
        (1, 0): 1,
        (2, 0): 1,
        (3, 0): 1,
        (0, 1): -1,
        (1, 1): -3,
        (2, 1): -4,
        (0, 2): 2,
        (1, 2): 4,
    },
    0,
)

# Quartic for label cap 3, y(0) = 0.
B3_EQUATION = EquationSpec.make(
    {
        (1, 0): 1,
        (2, 0): 2,
        (3, 0): 4,
        (0, 1): -1,
        (1, 1): -5,
        (2, 1): -12,
        (0, 2): 3,
        (1, 2): 9,
        (2, 2): 1,
        (3, 2): 4,
        (1, 3): -1,
        (2, 3): -6,
        (3, 4): 1,
    },
    0,
)


def _online_solution(spec: EquationSpec, order: int, qy0) -> list:
    """[y_0, ..., y_order]; powers[j][k] holds [x^k] y^j.

    Step n first builds each power's n-th entry with y_n = 0 (even powers as
    squares, odd ones as y^(j-1) y), solves the linear [x^n] Q = 0 for y_n,
    then adds y_n's share j seed^(j-1) y_n to each power.
    """
    seed = spec.seed
    powers = [[seed**j] + [0] * order for j in range(spec.y_degree() + 1)]
    y = powers[1]
    for n in range(1, order + 1):
        for j in range(2, len(powers)):
            if j % 2 == 0:
                powers[j][n] = _square_term(powers[j // 2], n)
            else:
                powers[j][n] = sum(map(mul, powers[j - 1], y[n::-1]))
        yn = _div(-sum(c * powers[j][n - i] for (i, j), c in spec.coeffs if i <= n), qy0)
        for j in range(1, len(powers)):
            powers[j][n] += j * seed ** (j - 1) * yn
    return y


def solve_equation(spec: EquationSpec, order: int) -> tuple:
    """(y_0, ..., y_order) of the unique series y with y(0) = seed and
    Q(x, y) = 0 mod x^(order+1); each y_n an int when it is integral, else a
    Fraction.

    Solved online (van der Hoeven's relaxed solving, 2002): [x^n] Q(x, y) is
    linear in y_n with slope dQ/dy(0, seed), so each y_n costs about deg(Q, y)
    dot products.  The residual, rebuilt from series products, is asserted
    to vanish before returning.
    """
    q0, qy0 = spec.q_at_seed()
    if q0 != 0:
        raise ValueError("seed does not satisfy Q(0, y0) = 0")
    if qy0 == 0:
        raise ValueError("degenerate seed: dQ/dy(0, y0) = 0")
    y = tuple(map(_exact, _online_solution(spec, order, qy0)))
    powers = [(1,) + (0,) * order, y]
    for j in range(2, spec.y_degree() + 1):
        half = powers[j // 2]
        powers.append(_mul(half, half) if j % 2 == 0 else _mul(powers[j - 1], y))
    residual = [0] * (order + 1)
    for (i, j), c in spec.coeffs:
        for k, p in enumerate(powers[j][: max(order + 1 - i, 0)], i):
            residual[k] += c * p
    if any(residual):
        raise AssertionError("functional equation residual is nonzero")
    return y


def _recurrence_steps(table, seed):
    """y_0, y_1, ... without end, for sum_s c_s(n) y_(n+s) = 0 (n >= 1, y_m = 0
    for m < 0).

    table holds the rows c_s for s = h + 1 - len(table) .. h, h = len(seed) - 1,
    each c_s's integer coefficients highest power of n first.  diffs[k] holds
    the k-th forward differences of every row at n, so step n advances all rows
    to n + 1 in deg vector additions; y_(n+h) is minus the dot product of
    c_s(n) with y_(n+s) over s < h, divided by c_h(n).  A nonzero remainder
    means a corrupt table and raises.
    """
    deg = max(map(len, table)) - 1
    values = [
        [sum(a * n**e for e, a in enumerate(reversed(row))) for row in table]
        for n in range(1, deg + 2)
    ]
    diffs = []
    for _ in range(deg + 1):
        diffs.append(values[0])
        values = [[b - a for a, b in zip(u, v)] for u, v in zip(values, values[1:])]
    # y_(n+s) for s < h; map() stops at its end, before c_h(n).
    window = deque(([0] * (len(table) - len(seed)) + list(seed))[1:], len(table) - 1)
    yield from seed
    for n in count(1):
        q, r = divmod(-sum(map(mul, diffs[0], window)), diffs[0][-1])
        if r:
            raise ArithmeticError(f"recurrence step n = {n} is inexact: corrupt table")
        yield q
        window.append(q)
        for k in range(deg):
            diffs[k] = list(map(add, diffs[k], diffs[k + 1]))


@dataclass(frozen=True)
class _Algebraic:
    """The root of `equation` with y(0) = its seed, whose coefficients step by
    the P-recurrence (`rows`, `seed`; see `_recurrence_steps`) of the linear
    ODE that the equation implies; c_h(n) vanishes at no n >= 1.  Derived,
    checked against `solve_equation` and printed by
        PYTHONPATH=src python scripts/derive_recurrences.py NAME
    """

    equation: EquationSpec
    rows: tuple[tuple[int, ...], ...]
    seed: tuple[int, ...]

    def __call__(self, order: int) -> list[int]:
        """[y_0, ..., y_order], stepped afresh."""
        return list(islice(_recurrence_steps(self.rows, self.seed), order + 1))


@lru_cache(maxsize=None)
def _stepper(name: str) -> tuple:
    """(steps, coefficients so far) of the named table, shared by every caller."""
    entry = _SERIES[name]
    return _recurrence_steps(entry.rows, entry.seed), []


def _coefficients(name: str, n: int) -> list[int]:
    """[y_0, ..., y_m], m >= n, of the named table from its memoised stepper,
    stepped on only past the largest n asked so far.  A step that raises (or
    is interrupted) clears every memoised stepper, so no half-built list
    stays behind."""
    if n < 0:
        raise ValueError("n must be >= 0")
    steps, coeffs = _stepper(name)
    if n >= len(coeffs):
        try:
            coeffs.extend(islice(steps, n + 1 - len(coeffs)))
        except BaseException:
            _stepper.cache_clear()
            raise
    return coeffs


# ---------------------------------------------------------------------------
# Named series
# ---------------------------------------------------------------------------


def tutte_count(n: int) -> int:
    """4(3n)!/(n!(2n+2)!) -- the number of maps on n+1 edges (2 at n=0 by convention).

    >>> [tutte_count(n) for n in range(6)]
    [2, 1, 2, 6, 22, 91]
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return 4 * math.factorial(3 * n) // (math.factorial(n) * math.factorial(2 * n + 2))


def maps_with_edges(m: int) -> int:
    """Actual count of rooted non-separable planar maps with m >= 1 edges."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return 1 if m == 1 else tutte_count(m - 1)


def _tutte_terms(n: int) -> list[int]:
    """[tutte_count(0), ..., tutte_count(n)], each from the last by its term ratio."""
    t = [2]
    for k in range(n):  # t_(k+1) / t_k = 3(3k+1)(3k+2) / ((2k+3)(2k+4))
        t.append(t[-1] * 3 * (3 * k + 1) * (3 * k + 2) // ((2 * k + 3) * (2 * k + 4)))
    return t


def primitive_maps_with_edges(m: int) -> int:
    """Count of maps with m edges and no internal 2-face.

    Computed from the exact substitution identity P_M(x) = M(x/(1+x)) between
    the edge-marking series (M for all maps, P_M for the 2-face-free interiors),
    which the verify suites confirm against direct enumeration at desk scale.
    M = x(A - 1) under the [x^0]A = 2 convention, so P_M = (x/(1+x))(P - 1)
    and p_m = sum_{k<m} (-1)^(m-1-k) [x^k](P - 1): a running alternating sum
    over P's coefficients, O(m) big-int subtractions.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    total = 1  # so that the first step gives [x^0](P - 1) = p_0 - 1
    for v in _coefficients(P, m - 1)[:m]:
        total = v - total
    return total


def p_coefficient(n: int) -> int:
    """Exact [x^n] of P = A(x/(1+x)) under the [x^0]A = 2 convention."""
    return _coefficients(P, n)[n]


def pprime_coefficient(n: int) -> int:
    """Exact [x^n] of (1-x) P; note [x^1] = -1, a convention artifact."""
    p = _coefficients(P, n)
    return p[n] - p[n - 1] if n else p[0]


def _a_hyp(order: int) -> tuple[int, ...]:
    # A = (2/3x)(F([-2/3,-1/3],[1/2],27x/4) - 1); F's x^(n+1) term feeds [x^n]A.
    # F's terms: t_0 = 1, t_{k+1} = t_k * 3(3k-2)(3k-1) / (2(2k+1)(k+1)).
    coeffs = []
    t = Fraction(1)
    for k in range(order + 1):
        t *= Fraction(3 * (3 * k - 2) * (3 * k - 1), 2 * (2 * k + 1) * (k + 1))
        coeffs.append(_exact(Fraction(2, 3) * t))
    return tuple(coeffs)


def _pprime(order: int) -> tuple[int, ...]:
    p = series(P, order)  # (1-x) P: P's first differences
    return (p[0], *(b - a for a, b in zip(p, p[1:])))


# Every named series, in SERIES_NAMES order: order -> [y_0, ..., y_order].
_SERIES = {
    A_FORMULA: _tutte_terms,
    A_ZEIL: lambda order: (2, *solve_equation(ZEILBERGER_CUBIC, order - 1)),  # 2 + x B
    A_HYP: _a_hyp,
    P: _Algebraic(
        P_EQUATION,
        (
            (23, -138, 253, -138),
            (65, -216, 193, -42),
            (57, -36, -15, -6),
            (11, 24, 19, 6),
            (-4, -18, -26, -12),
        ),
        (2, 1),
    ),
    PPRIME: _pprime,
    B1: _Algebraic(
        B1_EQUATION,
        (
            (3, 3, 0),
            (2, 2, 0),
            (-1, -3, -2),
        ),
        (0, 1, 0),
    ),
    B2: _Algebraic(
        B2_EQUATION,
        (
            (98, -882, 1960),
            (119, -903, 1708),
            (-9, -75, 264),
            (-54, 114, -42),
            (-14, 12, -4),
            (3, 3, 0),
            (1, 3, 2),
        ),
        (0, 1, 0),
    ),
    B3: _Algebraic(
        B3_EQUATION,
        (
            (3487629312, -481292845056, 24898185658368, -572257192771584, 4930531310960640),
            (19168026624, -2555450892288, 127687390322688, -2834010721935360, 23574259176652800),
            (-30684220416, 3940489451520, -189652177695744, 4054434936219648, -32485439443894272),
            (-166805927424, 20827914068736, -974639458331136, 20257843508944128, -157800561304117248),
            (-40890132864, 4828251197952, -213582693648960, 4195397803656384, -30879844885208448),
            (366082449408, -42891359919552, 1882452987201888, -36678135768746976, 267676411777253568),
            (393794086608, -44527274774784, 1887186314705688, -35533696089606696, 250806254952763872),
            (-8422223720, -312058210004, 69858923760260, -2441275699119424, 25613062613630784),
            (-400733756950, 41465705094156, -1602980535520802, 27426604897402236, -175149916245394416),
            (-734526371910, 79088634294100, -3195742804263258, 57433132339166204, -387340633575167040),
            (-540721883508, 58428640569272, -2363735038197240, 42434062190335996, -285242507210924160),
            (433581101748, -44358221283876, 1697697327986952, -28815449332357488, 183056272643786832),
            (1055847547580, -104990968635924, 3904903299615952, -64397296561779408, 397397971382039472),
            (616894426124, -56259635139020, 1925458784343592, -29308932379144000, 167411596141784856),
            (-161751002177, 19177619528238, -787830900873595, 13709964822159750, -86623122433366728),
            (-579577653599, 51125756623242, -1682252149528909, 24485692037789898, -133084044277326072),
            (-514267103197, 38951003866574, -1103905446070439, 13871961181658350, -65201112742656240),
            (-182246666267, 11257701806558, -249864930108229, 2303902998671194, -7038303372987480),
            (81524208651, -6440259955986, 187244682917373, -2382195947646486, 11214840152308848),
            (245009929284, -15987672023296, 389644882140816, -4201766950557620, 16908080333529576),
            (317495815153, -19417122789334, 444648954351431, -4518304660991594, 17188634099645664),
            (118705341566, -6792215918264, 145961466898462, -1396549438915660, 5020917677566152),
            (-183966320389, 9840488348866, -196997925822827, 1748633242916366, -5805058147273896),
            (-202337989625, 10042509459294, -186739930891279, 1541358897386274, -4763612129168736),
            (-3588857796, 226696732216, -5011700709288, 46951873944236, -159235992560376),
            (89524474378, -3676109672932, 56490282729962, -384936196940168, 981211820522616),
            (36784169182, -1380288579024, 19395271574810, -120869325328056, 281698858162512),
            (-13871772931, 457278638158, -5621378672825, 30551745384686, -61953915634056),
            (-13812430627, 408422868374, -4505778507101, 21967618443130, -39915779032680),
            (-1693929235, 45591629706, -456039898769, 2004217374138, -3260383424856),
            (1505152499, -32214016010, 255719371633, -891773212858, 1151921143176),
            (500469432, -9187084092, 61990131852, -181605615384, 194440183704),
            (-38569287, 437508630, -1770962865, 3034090170, -1855771776),
            (-34888290, 372516252, -1396330410, 2102245680, -1043006688),
            (-844227, 19730610, -65375901, 46610046, -209952),
            (1261953, -1259874, -1867941, 688878, 34992),
            (60156, 3024, -250992, 128196, 322056),
            (-27216, -163296, -299376, -163296, 0),
            (-2187, -21870, -76545, -109350, -52488),
        ),
        (0, 1, 0),
    ),
}
SERIES_NAMES = tuple(_SERIES)
# The names of the `_Algebraic` entries: P and the B-series.
_ALGEBRAIC = tuple(name for name, entry in _SERIES.items() if isinstance(entry, _Algebraic))


def _entry(registry: dict, name: str, kind: str):
    """registry[name], or a ValueError that names the unknown `kind` name."""
    if name not in registry:
        raise ValueError(f"unknown {kind} name: {name!r}")
    return registry[name]


def series(name: str, order: int) -> tuple[int, ...]:
    """The named series to the given order: (y_0, ..., y_order), all ints.

    >>> series(B3, 8)
    (0, 1, 0, 1, 1, 5, 13, 48, 160)
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return tuple(_entry(_SERIES, name, "series")(order))


# ---------------------------------------------------------------------------
# Asymptotics (mpmath, imported on first use; 30 significant digits whatever
# the caller's precision)
# ---------------------------------------------------------------------------


# R, highest power first, with disc_y Q = x^2 R for B3's quartic Q: the
# dominant singularity x* = 1/rho of B3 is R's smallest positive root, the
# only root within 1% of it (same script, NAME = B3).
_B3_DISCRIMINANT = (576, 288, -1024, -564, -407, -442, 1285, 1356, -322, -666, -144, 32, 9)


@dataclass(frozen=True)
class SingularityEstimate:
    tau: mpmath.mpf
    rho: mpmath.mpf
    gamma: mpmath.mpf


def _dq(a: int, b: int):
    """The partial derivative d^a/dx^a d^b/dz^b of the quartic Q, as an
    mpmath-evaluable callable."""
    import mpmath

    terms = [
        (c * math.perm(i, a) * math.perm(j, b), i - a, j - b)
        for (i, j), c in _SERIES[B3].equation.coeffs
        if i >= a and j >= b
    ]
    return lambda x, z: mpmath.fsum(c * x**i * z**j for c, i, j in terms)


@lru_cache(maxsize=1)
def b3_singularity() -> SingularityEstimate:
    """Dominant singularity of the quartic's branch through the origin.

    x* is the root of the discriminant factor R (`_B3_DISCRIMINANT`) next to
    1/ratio, the inverse empirical coefficient ratio at order 200; z* is the
    root of dQ/dz(x*, .) next to the truncated series a touch inside the
    radius.  Returns tau = z*, rho = 1/x*, gamma = sqrt(2 x* Q_x / Q_zz) so
    that [x^n] ~ gamma * rho^n / (2 sqrt(pi n^3)).  rho is validated against
    the order-200 coefficient ratio (must agree within 1%).
    """
    import mpmath

    with mpmath.workdps(30):
        b3 = series(B3, 201)
        ratio = mpmath.mpf(b3[201]) / b3[200]
        x0 = 1 / ratio
        x = mpmath.findroot(lambda t: mpmath.polyval(_B3_DISCRIMINANT, t), x0)
        xs = x0 * (1 - mpmath.mpf(1) / 50)
        z0 = mpmath.fsum(b3[k] * xs**k for k in range(202))
        qz, qx, qzz = _dq(0, 1), _dq(1, 0), _dq(0, 2)
        z = mpmath.findroot(lambda t: qz(x, t), z0)
        rho = 1 / x
        gamma = mpmath.sqrt(2 * x * qx(x, z) / qzz(x, z))
        if abs(rho / ratio - 1) > mpmath.mpf("0.01"):
            raise ArithmeticError(
                f"growth rate {rho} disagrees with empirical ratio {ratio}"
            )
        return SingularityEstimate(tau=z, rho=rho, gamma=gamma)


# The estimate [x^n] ~ c sqrt(k/(pi n^e)) r^n of the named series `estimates`,
# (c, k, e, r) = constants(mpmath) at 30 digits, as printed; exact(n) is the
# integer that it is measured against.  Each exact(n) calls a module global
# by name, so that a tracer that rebinds the global (bench/spans.py) sees it.
_Estimate = namedtuple("_Estimate", "estimates constants exact")


# A's estimate tracks the maps with n edges, tutte_count(n-1): its constant
# matches their asymptotics exactly, not those of tutte_count(n).  P's is
# labeled as the number of 2-face-free interiors on n edges.
_ASYMPTOTICS = {
    "A": _Estimate((A_FORMULA, A_ZEIL, A_HYP), lambda mp: (mp.mpf(2) / 27, 3, 5, mp.mpf(27) / 4),
                   lambda n: maps_with_edges(n)),
    P: _Estimate((P,), lambda mp: (mp.mpf(46) / 729, 23, 5, mp.mpf(23) / 4),
                 lambda n: primitive_maps_with_edges(n)),
    PPRIME: _Estimate((PPRIME,), lambda mp: (mp.mpf(529) / 1458, 23, 3, mp.mpf(23) / 4),
                      lambda n: pprime_coefficient(n)),
    B1: _Estimate((B1,), lambda mp: (mp.mpf(1) / 8, 3, 3, mp.mpf(3)),
                  lambda n: _coefficients(B1, n)[n]),
    B2: _Estimate((B2,), lambda mp: (1 / (8 * mp.sqrt(2) + 12), 4 + mp.sqrt(2), 3,
                                     7 / (2 * mp.sqrt(2) - 1)),
                  lambda n: _coefficients(B2, n)[n]),
    # gamma rho^n / (2 sqrt(pi n^3)), from the singularity of B3's quartic
    B3: _Estimate((B3,), lambda mp: ((s := b3_singularity()).gamma / 2, 1, 3, s.rho),
                  lambda n: _coefficients(B3, n)[n]),
}
ASYMPT_NAMES = tuple(_ASYMPTOTICS)


def asymptotic(name: str, n: int):
    """The estimate c sqrt(k/(pi n^e)) r^n of [x^n], with the constants of
    `name`'s `_ASYMPTOTICS` entry."""
    if n < 1:
        raise ValueError("n must be >= 1")
    import mpmath

    with mpmath.workdps(30):
        c, k, e, r = _entry(_ASYMPTOTICS, name, "asymptotic").constants(mpmath)
        return c * mpmath.sqrt(k / (mpmath.pi * mpmath.mpf(n) ** e)) * r**n


def exact_coefficient(name: str, n: int) -> int:
    """The exact integer that `asymptotic(name, n)` is measured against."""
    return _entry(_ASYMPTOTICS, name, "asymptotic").exact(n)
