"""Derive the linear recurrence of an algebraic series' coefficients from its equation.

    PYTHONPATH=src python scripts/derive_recurrences.py NAME
    PYTHONPATH=src python scripts/derive_recurrences.py --check NAME

NAME is P, B1, B2 or B3.  Each of these series is algebraic, hence D-finite
(Bostan, Chyzak, Lecerf, Salvy and Schost, "Differential equations for
algebraic functions", ISSAC 2007).  Working in Q(x)[y]/(Q) for its equation Q
(`P_EQUATION`, `B1_EQUATION`, `B2_EQUATION` or `B3_EQUATION`) of degree d
in y:

1. y' = -Q_x / Q_y, with Q_y inverted mod Q by the extended gcd over Q(x);
   each further derivative is d/dx of the last, reduced mod Q.
2. y, y', ..., y^(d) are d + 1 vectors in a space of dimension d over Q(x);
   a nullspace vector, cleared of denominators and content, is an order-d
   ODE sum_k p_k(x) y^(k) = 0 with integer polynomial coefficients.
3. Reading [x^n] off x^i y^(k) (Comtet 1964) turns the ODE into
   sum_{k,i} p_(k,i) (n-i+k)^(k falling) y_(n-i+k) = 0, i.e.
   sum_s c_s(n) y_(n+s) = 0 with one polynomial c_s per shift s = k - i.

The script checks that the leading coefficient c_smax(n) has no root
n >= 1, so that the seed y_0..y_smax and steps from n = 1 determine every
coefficient; it then runs the recurrence (`mapscope.series._p_recurrence`)
against `solve_equation` and prints the entry that `mapscope.series` holds
in `_RECURRENCES`.

For B3 it also prints R, the factor of the discriminant disc_y Q = x^k R
with R(0) != 0, that `mapscope.series` holds as `_B3_DISCRIMINANT`: the
dominant singularity 1/rho is a root of R (Flajolet and Sedgewick,
Analytic Combinatorics, VII.7).  It checks that R's smallest positive root
agrees with the coefficient ratio [x^201] / [x^200] within 1%, as
`b3_singularity` does, and that R has no other real root within 1% of it.

With --check the script prints no table: it exits 1 when the entry in
`mapscope.series` differs from the fresh derivation, else 0.  Progress lines
go to stderr either way.  Needs sympy,
a development tool only: mapscope does not import it.  P, B1 and B2 take a
fraction of a second, B3 a few seconds.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from fractions import Fraction

import sympy
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

# The package's `series` function shadows the submodule's name.
ms = importlib.import_module("mapscope.series")

CHECK_ORDER = 300
EQUATIONS = {
    "P": ms.P_EQUATION,
    "B1": ms.B1_EQUATION,
    "B2": ms.B2_EQUATION,
    "B3": ms.B3_EQUATION,
}


def ode_coefficients(spec) -> list[sympy.Poly]:
    """[p_0, ..., p_d] in Z[x], primitive, with sum_k p_k y^(k) = 0, d = deg_y Q."""
    x = sympy.Symbol("x")
    K = QQ.frac_field(x)
    X = K.from_sympy(x)
    R, Y = ring("y", K)
    q = qx = R.zero
    for (i, j), c in spec.coeffs:
        q += R({(j,): c * X**i})
        if i:
            qx += R({(j,): c * i * X ** (i - 1)})
    qy = q.diff(Y)
    s, _, h = qy.gcdex(q)
    if not h.is_ground:
        raise ArithmeticError("Q and Q_y share a factor: Q is not squarefree in y")
    dy = (-qx * s).quo_ground(h.LC).rem(q)  # y' mod Q

    def d_dx(a):
        parts = R({m: c.diff(X) for m, c in a.terms()})
        return (parts + a.diff(Y) * dy).rem(q)

    derivs = [Y]
    for _ in range(q.degree()):
        derivs.append(d_dx(derivs[-1]))
    rows = [[a.get((j,), K.zero) for a in derivs] for j in range(q.degree())]
    null = DomainMatrix(rows, (q.degree(), len(derivs)), K).nullspace()
    if null.shape[0] != 1:
        raise ArithmeticError(f"nullspace has dimension {null.shape[0]}, expected 1")
    vec = [sympy.cancel(K.to_sympy(v)) for v in null.to_Matrix().row(0)]
    den = sympy.lcm([sympy.fraction(v)[1] for v in vec])
    polys = [sympy.Poly(sympy.cancel(v * den), x, domain=QQ) for v in vec]
    g = polys[0]
    for p in polys[1:]:
        g = g.gcd(p)
    polys = [p.exquo(g) for p in polys]
    scale = sympy.ilcm(*(sympy.fraction(c)[1] for p in polys for c in p.coeffs()))
    ints = [sympy.Poly(p * scale, x, domain=sympy.ZZ) for p in polys]
    content = sympy.igcd(*(c for p in ints for c in p.coeffs()))
    return [p.exquo_ground(content) for p in ints]


def recurrence(ode: list[sympy.Poly]) -> dict[int, list[int]]:
    """{s: coefficients of c_s(n), highest power first} for every shift s."""
    n = sympy.Symbol("n")
    terms: dict[int, sympy.Expr] = {}
    for k, p in enumerate(ode):
        for (i,), c in p.terms():
            s = k - i
            terms[s] = terms.get(s, 0) + c * sympy.ff(n + s, k)
    lo, hi = min(terms), max(terms)
    table = {}
    for s in range(lo, hi + 1):
        poly = sympy.Poly(sympy.expand(terms.get(s, 0)), n, domain=sympy.ZZ)
        table[s] = [int(c) for c in poly.all_coeffs()]
    return table


def derive(name: str) -> tuple[list[list[int]], list[int]]:
    """(rows c_s, lowest shift first; seed y_0..y_h) of NAME's recurrence,
    checked against `solve_equation` to CHECK_ORDER.  Progress goes to stderr."""
    spec = EQUATIONS[name]
    start = time.perf_counter()
    ode = ode_coefficients(spec)
    print(f"# {name}: ODE of order {len(ode) - 1}, coefficient degrees "
          + "/".join(str(p.degree()) for p in ode)
          + f" ({time.perf_counter() - start:.1f} s)", file=sys.stderr)
    table = recurrence(ode)
    lo, hi = min(table), max(table)
    n = sympy.Symbol("n")
    lead = sympy.Poly(table[hi], n)
    roots = sorted(r for r in sympy.roots(lead, filter="Z"))
    print(f"# shifts {lo}..{hi}; c_{hi}(n) = {lead.as_expr()}, integer roots {roots}",
          file=sys.stderr)
    if any(r >= 1 for r in roots):
        raise ArithmeticError(f"leading coefficient vanishes at n = {roots}; "
                              "stepping from n = 1 fails")
    exact = ms.solve_equation(spec, CHECK_ORDER)
    rows = [table[s] for s in range(lo, hi + 1)]
    seed = list(exact[: hi + 1])
    if ms._p_recurrence(rows, seed, CHECK_ORDER) != list(exact):
        raise ArithmeticError("recurrence disagrees with solve_equation")
    print(f"# agrees with solve_equation to order {CHECK_ORDER}", file=sys.stderr)
    return rows, seed


def discriminant_factor(spec) -> list[int]:
    """R in Z[x], highest power first: disc_y Q = x^k R with R(0) != 0, checked
    to divide the discriminant exactly and to hold 1/rho as its smallest
    positive root, alone within 1% of it."""
    x, y = sympy.symbols("x y")
    q = sum(c * x**i * y**j for (i, j), c in spec.coeffs)
    disc = sympy.Poly(sympy.discriminant(q, y), x)
    k = min(i for (i,) in disc.monoms())
    r, rem = disc.div(sympy.Poly(x**k, x))
    if not rem.is_zero or r.eval(0) == 0:
        raise ArithmeticError("x^k R does not factor the discriminant")
    b = ms.solve_equation(spec, 201)
    ratio = Fraction(b[201], b[200])
    first = min(lo for (lo, hi), _ in r.intervals(eps=Fraction(1, 10**12)) if lo > 0)
    if abs(first * ratio - 1) > Fraction(1, 100):
        raise ArithmeticError(f"smallest positive root {float(first)} disagrees with "
                              f"1 / ratio = {float(1 / ratio)}")
    if r.count_roots(0, first * Fraction(101, 100)) != 1:
        raise ArithmeticError("another root of R lies within 1% of the smallest")
    print(f"# disc = x^{k} R, deg R = {r.degree()}; 1/rho = {float(first):.12f}",
          file=sys.stderr)
    return [int(c) for c in r.all_coeffs()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if mapscope.series holds another table")
    parser.add_argument("name", choices=sorted(EQUATIONS))
    args = parser.parse_args(argv)
    try:
        rows, seed = derive(args.name)
        disc = discriminant_factor(EQUATIONS[args.name]) if args.name == "B3" else None
    except ArithmeticError as exc:
        print(f"{args.name}: {exc}", file=sys.stderr)
        return 1
    if args.check:
        held_rows, held_seed = ms._RECURRENCES[args.name]
        stale = [list(map(list, held_rows)), list(held_seed)] != [rows, seed] or (
            disc is not None and list(ms._B3_DISCRIMINANT) != disc
        )
        if stale:
            print(f"{args.name}: mapscope.series differs from the derivation", file=sys.stderr)
        return 1 if stale else 0
    print(f"    {args.name}: (")
    print("        (")
    for row in rows:
        print(f"            ({', '.join(map(str, row))}),")
    print("        ),")
    print(f"        ({', '.join(map(str, seed))}),")
    print("    ),")
    if disc is not None:
        print(f"_B3_DISCRIMINANT = ({', '.join(map(str, disc))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
