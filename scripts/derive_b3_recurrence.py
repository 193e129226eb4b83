"""Derive the linear recurrence of B3's coefficients from its quartic.

    PYTHONPATH=src python scripts/derive_b3_recurrence.py

B3 is algebraic, hence D-finite (Bostan, Chyzak, Lecerf, Salvy and Schost,
"Differential equations for algebraic functions", ISSAC 2007).  Working in
Q(x)[y]/(Q) for the quartic Q = `B3_EQUATION`:

1. y' = -Q_x / Q_y, with Q_y inverted mod Q by the extended gcd over Q(x);
   each further derivative is d/dx of the last, reduced mod Q.
2. y, y', ..., y'''' are five vectors in a space of dimension 4 over Q(x);
   a nullspace vector, cleared of denominators and content, is an order-4
   ODE sum_k p_k(x) y^(k) = 0 with integer polynomial coefficients.
3. Reading [x^n] off x^i y^(k) (Comtet 1964) turns the ODE into
   sum_{k,i} p_(k,i) (n-i+k)^(k falling) y_(n-i+k) = 0, i.e.
   sum_s c_s(n) y_(n+s) = 0 with one polynomial c_s per shift s = k - i.

The script checks that the leading coefficient c_smax(n) has no root
n >= 1, so that the seed y_0..y_smax and steps from n = 1 determine every
coefficient; it then runs the recurrence (`mapscope.series._p_recurrence`)
against `solve_equation` and prints the table that `mapscope.series` holds
as `_B3_RECURRENCE`.  Needs sympy, a development tool only: mapscope does
not import it.  Takes a few seconds.
"""

from __future__ import annotations

import sys
import time

import sympy
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

from mapscope.series import B3_EQUATION, _p_recurrence, solve_equation

CHECK_ORDER = 300


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


def main() -> int:
    start = time.perf_counter()
    ode = ode_coefficients(B3_EQUATION)
    print(f"# ODE of order {len(ode) - 1}, coefficient degrees "
          + "/".join(str(p.degree()) for p in ode)
          + f" ({time.perf_counter() - start:.0f} s)")
    table = recurrence(ode)
    lo, hi = min(table), max(table)
    n = sympy.Symbol("n")
    lead = sympy.Poly(table[hi], n)
    roots = sorted(r for r in sympy.roots(lead, filter="Z"))
    print(f"# shifts {lo}..{hi}; c_{hi}(n) = {lead.as_expr()}, integer roots {roots}")
    if any(r >= 1 for r in roots):
        print(f"leading coefficient vanishes at n = {roots}; stepping from n = 1 fails",
              file=sys.stderr)
        return 1
    exact = solve_equation(B3_EQUATION, CHECK_ORDER).coeffs
    rows = [table[s] for s in range(lo, hi + 1)]
    if _p_recurrence(rows, list(exact[: hi + 1]), CHECK_ORDER) != list(exact):
        print("recurrence disagrees with solve_equation", file=sys.stderr)
        return 1
    width = max(len(str(c)) for row in table.values() for c in row)
    print(f"# agrees with solve_equation to order {CHECK_ORDER}; seed {list(exact[:hi + 1])};"
          f" widest coefficient {width} digits")
    print("_B3_RECURRENCE = (")
    for row in rows:
        print(f"    ({', '.join(map(str, row))}),")
    print(")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
