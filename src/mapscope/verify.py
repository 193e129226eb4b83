"""Brute-force oracles and cross-check suites.

Every suite rebuilds its own evidence from first principles -- a naive
pattern scan, a direct face walk, a vertex-deletion cut check -- and compares
the main code paths against it over exhaustive desk-scale ranges.  Reports
carry witnesses as (object text, expected, actual) triples; a suite fails
iff it has at least one witness.

Each suite is a generator of witnesses registered with `_suite`, which
turns it into the check `check_*` that guards its sizes and builds the report.
Suite registry (name, parameter = default in its accepted range):
    counts      n_max = 9 in 1..9: tree counts vs the closed form, by edges
    table1      n_max = 9 in 1..10: bijection triangle -- map statistics,
                code distinctness, permutation roundtrip
    theorem5    n_max = 9 in 1..10: M-occurrences = single-child-max nodes
                = internal 2-faces
    kfacefree   n_max = 9 in 1..10: label predicate vs face oracle, k = 2..4
    bounds      n_max = 8 in 2..10, coeff_nodes = 12 in 1..13: restricted-tree
                counts vs B-series and the MEF chain
    primitive   n_max = 10 in 2..10: 2-face-free map counts vs the
                substitution identities
    closure     n_max = 8 in 1..8: structural generation vs brute force;
                insertion closure; reduction termination
    series      order = 30 in 1..30: coefficientwise series identities
    asymptotics no parameter: first-order estimates vs exact coefficients
"""

from __future__ import annotations

import inspect
import os
import time
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import combinations, permutations

from .maps import CombinatorialMap, canonical_code, tree_to_map, validate_map
from .perms import (
    M,
    N,
    Permutation,
    generate_av,
    in_class,
    is_primitive_perm,
    occurrences,
    one_step_expansions,
    perm_to_tree,
    reduce_to_primitive,
    tree_to_perm,
)
from .series import (
    A_FORMULA,
    A_HYP,
    A_ZEIL,
    B1,
    B2,
    B3,
    P,
    PPRIME,
    P_EQUATION,
    B1_EQUATION,
    B2_EQUATION,
    B3_EQUATION,
    asymptotic,
    b3_singularity,
    compose,
    exact_coefficient,
    primitive_maps_with_edges,
    p_coefficient,
    series,
    solve_equation,
    tutte_count,
)
from .trees import (
    enumerate_trees,
    passes,
    tree_stats,
    format_tree,
)

__all__ = [
    "VerificationReport",
    "brute_force_av",
    "naive_mesh_occurrences",
    "check_counts",
    "check_table1",
    "check_theorem5",
    "check_kfacefree",
    "check_bounds",
    "check_primitive_series",
    "check_closure",
    "check_series_identities",
    "check_asymptotics",
    "SUITE_NAMES",
    "run_suite",
    "report_to_dict",
    "format_report",
]

_WITNESS_CAP = 20


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    params: dict
    witnesses: tuple[tuple[str, str, str], ...]
    runtime: float

    @property
    def status(self) -> str:
        return "fail" if self.witnesses else "pass"


def report_to_dict(r: VerificationReport) -> dict:
    return {
        "suite": r.suite,
        "params": r.params,
        "status": r.status,
        "witnesses": [list(w) for w in r.witnesses],
        "runtime": round(r.runtime, 3),
    }


def format_report(r: VerificationReport) -> str:
    params = ", ".join(f"{k}={v}" for k, v in r.params.items()) or "-"
    lines = [f"{r.suite}: {r.status.upper()} ({params}) in {r.runtime:.2f}s"]
    for obj, expected, actual in r.witnesses:
        lines.append(f"  {obj}: expected {expected}, got {actual}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def _has_3142(pi: Permutation) -> bool:
    for a, b, c, d in combinations(range(len(pi)), 4):
        if pi[b] < pi[d] < pi[a] < pi[c]:
            return True
    return False


def _has_2_41_3(pi: Permutation) -> bool:
    # 2413 with the "4" and "1" adjacent: pi[j+1] < pi[i] < pi[l] < pi[j].
    n = len(pi)
    for j in range(1, n - 2):
        hi, lo = pi[j], pi[j + 1]
        if hi < lo:
            continue
        for i in range(j):
            if not lo < pi[i] < hi:
                continue
            for l in range(j + 2, n):
                if pi[i] < pi[l] < hi:
                    return True
    return False


def brute_force_av(n: int) -> list[Permutation]:
    """Av(3142, 2-41-3) by filtering all n! permutations with direct scans."""
    if not 0 <= n <= 9:
        raise ValueError("brute force is guarded to 0 <= n <= 9")
    out = []
    for pi in permutations(range(1, n + 1)):
        if not _has_3142(pi) and not _has_2_41_3(pi):
            out.append(pi)
    return out


def naive_mesh_occurrences(base: Permutation, shaded, pi: Permutation) -> int:
    """Reference mesh matcher: classify every non-selected point by its cell.

    For a candidate subsequence, a host letter at position j with value v
    falls in cell (c, r) where c is the number of selected positions before j
    and r the number of selected values below v; the candidate survives iff
    no letter falls in a shaded cell.  The classification depends only on
    (base, pi), so it is memoised and each call intersects its shading with
    the stored cell sets.
    """
    shaded = frozenset(shaded)
    return sum(map(shaded.isdisjoint, _occupied_cells(tuple(base), tuple(pi))))


# Large enough to hold every host of length <= 6 (874 of them) for one base,
# so a sweep of all shadings over those hosts classifies each host once.
@lru_cache(maxsize=4096)
def _occupied_cells(base: Permutation, pi: Permutation) -> tuple[frozenset, ...]:
    """For each subsequence of pi with the ranks of base, the occupied cells."""
    n = len(pi)
    k = len(base)
    out = []
    for pos in combinations(range(n), k):
        vals = [pi[p] for p in pos]
        ranks = [sum(1 for w in vals if w < v) + 1 for v in vals]
        if tuple(ranks) != base:
            continue
        chosen = set(pos)
        cells = set()
        for j in range(n):
            if j in chosen:
                continue
            c = sum(1 for p in pos if p < j)
            r = sum(1 for v in vals if v < pi[j])
            cells.add((c, r))
        out.append(frozenset(cells))
    return tuple(out)


def _oracle_vertex_of(m: CombinatorialMap) -> list[int]:
    out = [-1] * m.n_darts
    vid = 0
    for start in range(m.n_darts):
        if out[start] != -1:
            continue
        d = start
        while out[d] == -1:
            out[d] = vid
            d = m.sigma[d]
        vid += 1
    return out


def _oracle_faces(m: CombinatorialMap) -> tuple[list[int], int]:
    """(all face degrees, root face degree) by walking phi-orbits directly."""
    seen = [False] * m.n_darts
    degrees = []
    root_degree = -1
    for start in range(m.n_darts):
        if seen[start]:
            continue
        deg = 0
        d = start
        hit_root = False
        while not seen[d]:
            seen[d] = True
            deg += 1
            if d == m.root:
                hit_root = True
            d = m.sigma[m.alpha[d]]
        degrees.append(deg)
        if hit_root:
            root_degree = deg
    return degrees, root_degree


def _oracle_edges(m: CombinatorialMap) -> list[tuple[int, int]]:
    at = _oracle_vertex_of(m)
    return [
        (at[d], at[m.alpha[d]]) for d in range(m.n_darts) if d < m.alpha[d]
    ]


def _oracle_has_multiple_edges(m: CombinatorialMap) -> bool:
    pairs = [frozenset(e) for e in _oracle_edges(m)]
    return len(pairs) != len(set(pairs))


def _oracle_nonseparable(m: CombinatorialMap) -> bool:
    """No loops, and deleting any single vertex leaves the rest connected."""
    edges = _oracle_edges(m)
    if any(u == v for u, v in edges):
        return False
    n_vertices = max(max(e) for e in edges) + 1
    if n_vertices <= 2:
        return True
    for removed in range(n_vertices):
        kept = [e for e in edges if removed not in e]
        verts = set(range(n_vertices)) - {removed}
        adj = {v: [] for v in verts}
        for u, v in kept:
            adj[u].append(v)
            adj[v].append(u)
        start = next(iter(verts))
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != verts:
            return False
    return True


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

_SUITES: dict = {}  # name -> (check function, {parameter: default})
_BOUNDS: dict = {}  # name -> {parameter: (lo, hi)}


def _guard(name: str, params: dict) -> None:
    """Refuse a parameter of suite `name` outside its (lo, hi) bound."""
    for param, (lo, hi) in _BOUNDS[name].items():
        if not lo <= params[param] <= hi:
            raise ValueError(f"{name}: {param} is guarded to {lo}..{hi}, got {params[param]}")


def _suite(name: str, **bounds: tuple[int, int]):
    """Register a witness generator as the check of suite `name`.

    The generator yields (object, expected, actual) triples.  The check it
    becomes keeps its name, parameters and defaults; it rejects a parameter
    outside its (lo, hi) bound before any work, times the generator, and
    reports the first _WITNESS_CAP of its witnesses.  An ArithmeticError that
    stops the generator (an inexact recurrence step, say) is its last
    witness, not a traceback.
    """

    def register(gen):
        signature = inspect.signature(gen)
        defaults = {k: p.default for k, p in signature.parameters.items()}

        @wraps(gen)
        def run(*args, **kwargs) -> VerificationReport:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            params = bound.arguments
            _guard(name, params)
            start = time.perf_counter()
            witnesses = []
            try:
                witnesses.extend(gen(**params))
            except ArithmeticError as exc:
                witnesses.append((name, "exact arithmetic", str(exc)))
            return VerificationReport(
                name, params, tuple(witnesses[:_WITNESS_CAP]), time.perf_counter() - start
            )

        _SUITES[name] = (run, defaults)
        _BOUNDS[name] = bounds
        return run

    return register


@_suite("counts", n_max=(1, 9))
def check_counts(n_max: int = 9):
    """Enumerated tree counts vs 4(3n)!/(n!(2n+2)!) for n = 1..n_max edges."""
    for n in range(1, n_max + 1):
        enumerated = len(enumerate_trees(n + 1))
        expected = tutte_count(n)
        if enumerated != expected:
            yield (f"trees with {n + 1} nodes", str(expected), str(enumerated))


@_suite("table1", n_max=(1, 10))
def check_table1(n_max: int = 9):
    """The bijection triangle on all trees with up to n_max nodes.

    Checks, per tree: the four statistic equalities of the tree->map
    construction (edges = nodes, vertices = leaves + 1, faces = internal
    nodes + 1, root-face degree = root label + 1, all via a direct orbit
    walk), validity and -- up to 7 nodes -- nonseparability of the map by
    vertex deletion; tree -> permutation -> tree is the identity; canonical
    map codes are pairwise distinct within each size.
    """
    for size in range(1, n_max + 1):
        codes = set()
        trees = enumerate_trees(size)
        for t in trees:
            label = format_tree(t)
            st = tree_stats(t)
            m = tree_to_map(t)
            msg = validate_map(m)
            if msg != "ok":
                yield (label, "valid map", msg)
                continue
            degrees, root_degree = _oracle_faces(m)
            n_vertices = max(_oracle_vertex_of(m)) + 1
            checks = (
                ("edges = nodes", m.n_darts // 2, st.nodes),
                ("vertices = leaves + 1", n_vertices, st.leaves + 1),
                ("faces = internal + 1", len(degrees), st.internal_nodes + 1),
                ("root-face degree = root label + 1", root_degree, st.root_label + 1),
            )
            for what, got, want in checks:
                if got != want:
                    yield (f"{label} [{what}]", str(want), str(got))
            if size <= 7 and not _oracle_nonseparable(m):
                yield (label, "nonseparable map", "cut vertex or loop")
            codes.add(canonical_code(m))
            pi = tree_to_perm(t)
            if len(pi) != st.nodes - 1:
                yield (label, f"permutation length {st.nodes - 1}", str(len(pi)))
            back = perm_to_tree(pi)
            if back != t:
                yield (label, "tree -> perm -> tree identity", format_tree(back))
        if len(codes) != len(trees):
            yield (
                f"distinct canonical codes at {size} nodes",
                str(len(trees)),
                str(len(codes)),
            )


@_suite("theorem5", n_max=(1, 10))
def check_theorem5(n_max: int = 9):
    """M-occurrences = single-child-max nodes = internal 2-faces, per tree.

    The map leg always agrees with the tree leg (that pairing is the table1
    suite's bread and butter).  The permutation leg does not: occurrences of
    M instead count the non-root internal nodes whose label equals their
    children's label sum -- a leaf that is an only child contributes to the
    tree statistic but its insertion step creates no descent, so no
    occurrence of M.  The smallest break is the two-node tree (permutation
    "1": no room for a length-2 pattern), and the break goes both ways: the
    tree (3 (1) (2 (1) (1))) maps to 1342 with one occurrence of M while its
    map has no face of degree 2 at all.  The suite states the claimed triple
    and reports the mismatches; the corollary count check (class members
    avoiding M and N vs 2-face-free maps) inherits the same defect and is
    reported alongside.
    """
    mismatches = 0
    free = [0] * (n_max + 1)  # trees per size whose map has no face of degree 2
    for size in range(1, n_max + 1):
        for t in enumerate_trees(size):
            a = occurrences(M, tree_to_perm(t))
            b = tree_stats(t).single_child_max_nodes
            degrees, root_degree = _oracle_faces(tree_to_map(t))
            c = degrees.count(2) - (root_degree == 2)
            free[size] += 2 not in degrees
            if not a == b == c:
                mismatches += 1
                if mismatches <= _WITNESS_CAP - 5:
                    yield (format_tree(t), "equal triple", f"M={a}, tree={b}, faces={c}")
    if mismatches:
        yield (
            f"triple equality over trees with <= {n_max} nodes",
            "0 mismatches",
            f"{mismatches} mismatches",
        )
    for n in range(1, n_max):
        avoiders = sum(
            1
            for pi in generate_av(n)
            if occurrences(M, pi) == 0 and occurrences(N, pi) == 0
        )
        if avoiders != free[n + 1]:
            yield (
                f"members of length {n} avoiding M and N",
                f"{free[n + 1]} (2-face-free maps on {n + 1} edges)",
                str(avoiders),
            )


@_suite("kfacefree", n_max=(1, 10))
def check_kfacefree(n_max: int = 9):
    """Label predicate vs direct face computation, k in {2, 3, 4}."""
    for size in range(1, n_max + 1):
        for t in enumerate_trees(size):
            m = tree_to_map(t)
            degrees, _ = _oracle_faces(m)
            for k in (2, 3, 4):
                oracle = all(d != k for d in degrees)
                predicate = passes(t, [f"k-face-free={k}"])
                if predicate != oracle:
                    yield (f"{format_tree(t)} [k={k}]", str(oracle), str(predicate))


@_suite("bounds", n_max=(2, 10), coeff_nodes=(1, 13))
def check_bounds(n_max: int = 8, coeff_nodes: int = 12):
    """Restricted-tree counts vs B-series coefficients, and the MEF chain.

    For m up to coeff_nodes: [x^m] of B1/B2/B3 equals the number of trees on
    m nodes with non-root labels capped at 1/2/3 and no only children.  For
    2 <= m <= n_max edges: capped count <= multiple-edge-free map count <=
    2-face-free map count, each side enumerated independently.
    """
    for name, cap in ((B1, 1), (B2, 2), (B3, 3)):
        ser = series(name, coeff_nodes)
        for m in range(1, coeff_nodes + 1):
            counted = len(enumerate_trees(m, (f"labels-max={cap}", "no-only-children")))
            if ser[m] != counted:
                yield (f"[x^{m}] {name} vs cap-{cap} trees", str(counted), str(ser[m]))
    for m in range(2, n_max + 1):
        cap3 = len(enumerate_trees(m, ("labels-max=3", "no-only-children")))
        mef = 0
        two_face_free = 0
        for t in enumerate_trees(m):
            mp = tree_to_map(t)
            if not _oracle_has_multiple_edges(mp):
                mef += 1
            degrees, _ = _oracle_faces(mp)
            if all(d != 2 for d in degrees):
                two_face_free += 1
        if not cap3 <= mef <= two_face_free:
            yield (
                f"chain at {m} edges",
                "cap3 <= MEF <= 2-face-free",
                f"{cap3} <= {mef} <= {two_face_free} fails",
            )


@_suite("primitive", n_max=(2, 10))
def check_primitive_series(n_max: int = 10):
    """2-face-free ("primitive") map counts vs the substitution identities.

    Enumerates p_m (maps on m edges with no internal 2-face) directly via the
    face oracle, then checks [x^n] A(x/(1+x)) = p_{n+1} + p_n for n < n_max,
    the exact convention-free identity M(x) = P_M(x/(1-x)) to order n_max,
    and that `primitive_maps_with_edges` reproduces the enumeration.
    """
    p_counts = [0] * (n_max + 1)
    m_counts = [0] * (n_max + 1)
    for m in range(1, n_max + 1):
        for t in enumerate_trees(m):
            m_counts[m] += 1
            degrees, root_degree = _oracle_faces(tree_to_map(t))
            if degrees.count(2) - (root_degree == 2) == 0:
                p_counts[m] += 1
    p_series = series(P, n_max - 1)
    for n in range(1, n_max):
        lhs = p_series[n]
        rhs = p_counts[n + 1] + p_counts[n]
        if lhs != rhs:
            yield (f"[x^{n}] A(x/(1+x)) = p_{n + 1} + p_{n}", str(rhs), str(lhs))
    m_poly = (0, *m_counts[1:])
    composed = compose((0, *p_counts[1:]), (0,) + (1,) * n_max)  # x/(1-x)
    if composed != m_poly:
        yield (
            "M(x) = P_M(x/(1-x)) to order " + str(n_max),
            str([str(c) for c in m_poly]),
            str([str(c) for c in composed]),
        )
    for m in range(1, n_max + 1):
        derived = primitive_maps_with_edges(m)
        if derived != p_counts[m]:
            yield (f"primitive_maps_with_edges({m})", str(p_counts[m]), str(derived))


@_suite("closure", n_max=(1, 8))
def check_closure(n_max: int = 8):
    """Structural generation vs brute force; insertion closure; reduction.

    generate_av(n) is compared with the n!-filter for n <= n_max; one-step
    insertions applied to every class member of length < n_c regenerate each
    Av(m), m <= n_c = min(n_max - 1, 7), starting from the primitive members
    alone; reduce_to_primitive terminates in an M-free class member on all of
    Av(n_c).
    """
    av: dict[int, list[Permutation]] = {}
    for n in range(n_max + 1):
        structural = generate_av(n)
        av[n] = structural
        brute = brute_force_av(n)
        if structural != sorted(brute):
            missing = set(brute) - set(structural)
            extra = set(structural) - set(brute)
            yield (
                f"Av({n})",
                f"{len(brute)} members",
                f"{len(structural)} members"
                f" (missing {len(missing)}, extra {len(extra)})",
            )
    n_c = min(n_max - 1, 7)
    reached: dict[int, set[Permutation]] = {
        m: {pi for pi in av[m] if is_primitive_perm(pi)} for m in range(1, n_c + 1)
    }
    for m in range(1, n_c):
        for pi in reached[m]:
            for bigger in one_step_expansions(pi):
                reached[m + 1].add(bigger)
    for m in range(1, n_c + 1):
        if reached[m] != set(av[m]):
            missing = set(av[m]) - reached[m]
            yield (
                f"insertion closure at length {m}",
                f"{len(av[m])} members",
                f"{len(reached[m])} reached"
                + (f"; e.g. missing {sorted(missing)[0]}" if missing else ""),
            )
    for pi in av[n_c]:
        reduced = reduce_to_primitive(pi)
        if occurrences(M, reduced) != 0 or not in_class(reduced):
            yield (f"reduction of {pi}", "M-free class member", str(reduced))


@_suite("series", order=(1, 30))
def check_series_identities(order: int = 30):
    """Coefficientwise identities among the named series.

    The three A routes agree; the recurrence of P and of each B-series
    steps exactly and agrees with the online solution of its equation;
    B3's first ten coefficients are 1, 0, 1, 1, 5, 13, 48, 160, 578, 2078;
    P and `p_coefficient` agree with A(x/(1+x)) by `compose`, and PPRIME is
    (1-x) times it.
    """
    a_formula = series(A_FORMULA, order)
    a_zeil = series(A_ZEIL, order)
    a_hyp = series(A_HYP, order)
    if a_zeil != a_formula:
        yield ("A via cubic", "closed-form coefficients", "differs")
    if a_hyp != a_formula:
        yield ("A via hypergeometric", "closed-form coefficients", "differs")
    stepped = {}
    for name, spec in ((P, P_EQUATION), (B1, B1_EQUATION), (B2, B2_EQUATION), (B3, B3_EQUATION)):
        try:
            stepped[name] = series(name, order)
        except ArithmeticError as exc:
            yield (f"{name} recurrence", "exact steps", str(exc))
            continue
        if stepped[name] != solve_equation(spec, order):
            yield (f"{name} recurrence", "equation solution", "differs")
    if B3 in stepped:
        printed = (1, 0, 1, 1, 5, 13, 48, 160, 578, 2078)[:order]
        got = tuple(int(stepped[B3][i]) for i in range(1, len(printed) + 1))
        if got != printed:
            yield (f"B3 x^1..x^{len(printed)}", str(printed), str(got))
    if P not in stepped:
        return
    p_ser = compose(a_formula, (0, *((-1) ** k for k in range(order))))  # x/(1+x)
    if stepped[P] != p_ser:
        yield ("P recurrence", "A(x/(1+x))", "differs")
    expected_pprime = (p_ser[0], *(b - a for a, b in zip(p_ser, p_ser[1:])))
    if series(PPRIME, order) != expected_pprime:
        yield ("PPRIME", "(1-x) P", "differs")
    for n in range(order + 1):
        if p_coefficient(n) != p_ser[n]:
            yield (f"p_coefficient({n})", str(p_ser[n]), str(p_coefficient(n)))


@_suite("asymptotics")
def check_asymptotics():
    """First-order estimates vs exact coefficients, and the quartic constants.

    Advertised tolerances: B1 and B2 within 0.1% at n = 1000, B3 within
    0.1% at n = 100; A, P, PPRIME within 1% at n = 1000.
    Every estimator's relative error must also shrink monotonically over
    n in {50, 100, 200, 400, 800}; tau, rho, gamma must print as 0.28525,
    4.24121, 0.12347.  The printed P and PPRIME estimates do not track any
    coefficient convention of the P series (P is high by a factor of 3,
    PPRIME carries the wrong power of n), so those checks fail; the
    witnesses document the measured errors.
    """
    import mpmath

    def rel_error(name: str, n: int) -> float:
        est = asymptotic(name, n)
        exact = exact_coefficient(name, n)
        return float(abs(est - exact) / abs(exact))

    spot_checks = (
        (B1, 1000, 0.001),
        (B2, 1000, 0.001),
        (B3, 100, 0.001),
        ("A", 1000, 0.01),
        (P, 1000, 0.01),
        (PPRIME, 1000, 0.01),
    )
    for name, n, tol in spot_checks:
        err = rel_error(name, n)
        if err > tol:
            yield (f"{name} estimate at n={n}", f"relative error <= {tol}", f"{err:.4g}")
    grid = (50, 100, 200, 400, 800)
    for name in ("A", P, PPRIME, B1, B2, B3):
        errs = [rel_error(name, n) for n in grid]
        if not all(b < a for a, b in zip(errs, errs[1:])):
            yield (
                f"{name} error over n={grid}",
                "monotonically shrinking",
                "[" + ", ".join(f"{e:.4g}" for e in errs) + "]",
            )
    est = b3_singularity()
    for label, value, printed in (
        ("tau", est.tau, "0.28525"),
        ("rho", est.rho, "4.24121"),
        ("gamma", est.gamma, "0.12347"),
    ):
        if abs(value - mpmath.mpf(printed)) > mpmath.mpf("0.5e-5"):
            yield (label, printed, mpmath.nstr(value, 8))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, max_size: int | None = None) -> list[VerificationReport]:
    """Run one suite (or "all"); sizes only ever shrink below the defaults.

    The cap is min(per-suite default, --max-size, MAPSCOPE_MAX_SIZE); the
    environment variable and flag cannot raise a default.  Every suite's
    sizes are checked before any suite runs.
    """
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite: {name!r}")
    caps = [v for v in (max_size, _env_max_size()) if v is not None]
    runs = []
    for sub in _SUITES if name == "all" else (name,):
        func, defaults = _SUITES[sub]
        params = {k: min([v] + caps) for k, v in defaults.items()}
        _guard(sub, params)
        runs.append((func, params))
    return [func(**params) for func, params in runs]


def _int(text: str) -> int:
    """An optional "-" and ASCII digits, surrounding whitespace ignored: the
    integer grammar of the CLI's options and MAPSCOPE_MAX_SIZE.  (`int` also
    takes "+", "_" and the digits of other scripts.)"""
    digits = text.strip()
    if not (digits.isascii() and digits.removeprefix("-").isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(digits)


_int.__name__ = "int"  # argparse names the type in "invalid int value: ..."


def _env_max_size() -> int | None:
    raw = os.environ.get("MAPSCOPE_MAX_SIZE")
    if raw is None or not raw.strip():
        return None
    try:
        return _int(raw)
    except ValueError:
        raise ValueError(f"MAPSCOPE_MAX_SIZE must be an integer, got {raw!r}") from None
