"""Independent references and output checkers.

Nothing here imports mapscope.  Counts come from closed forms and
recurrences, permutation facts from direct scans, tree and map statistics
from the benchmark's own trees (printed by `inputs.format_tree`).  Each checker returns None when the output
is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable

from inputs import format_tree

# ---------------------------------------------------------------------------
# Counting sequences
# ---------------------------------------------------------------------------


def tutte(k: int) -> int:
    """4(3k)!/(k!(2k+2)!): maps on k+1 edges (2 at k = 0 by convention)."""
    return 4 * math.factorial(3 * k) // (math.factorial(k) * math.factorial(2 * k + 2))


def tree_count(nodes: int) -> int:
    """beta(1,0)-trees on `nodes` nodes = rooted non-separable maps on `nodes` edges."""
    return 1 if nodes == 1 else tutte(nodes - 1)


@lru_cache(maxsize=None)
def _tutte_table() -> tuple[int, ...]:
    """tutte(k) for k = 0..1000, by the ratio of consecutive terms."""
    t = [2]
    for k in range(1000):
        t.append(t[-1] * 3 * (3 * k + 1) * (3 * k + 2) // ((2 * k + 3) * (2 * k + 4)))
    return tuple(t)


def _primitive_maps(m: int) -> int:
    t = _tutte_table()
    return sum(
        (1 if k == 1 else t[k - 1]) * (-1) ** (m - k) * math.comb(m - 1, m - k)
        for k in range(1, m + 1)
    )


def _p_coefficient(n: int) -> int:
    t = _tutte_table()
    return sum(math.comb(n - 1, k - 1) * (-1) ** (n - k) * t[k] for k in range(1, n + 1))


def p_series(upto: int) -> list[int]:
    """[x^n] A(x/(1+x)) for n = 0..upto, with [x^0] A = 2."""
    return [2] + [_p_coefficient(n) for n in range(1, upto + 1)]


@lru_cache(maxsize=None)
def primitive_counts(upto: int) -> tuple[int, ...]:
    """p_1..p_upto (index 0 unused): p_1 = 1 and
    p_{n+1} = sum_k C(n-1, k-1) (-1)^(n-k) a_k - p_n, a_k = tutte(k)."""
    a = p_series(upto)
    p = [0, 1]
    for n in range(1, upto):
        p.append(a[n] - p[n])
    return tuple(p[: upto + 1])


def _sqrt_coeffs(b: int, c: int, upto: int) -> list[Fraction]:
    """Coefficients of sqrt(1 + b x + c x^2) from the recurrence its
    derivative satisfies: 2n s_n = -(2n - 3) b s_{n-1} - 2(n - 3) c s_{n-2}."""
    s = [Fraction(1), Fraction(b, 2)]
    for n in range(2, upto + 1):
        s.append(-((2 * n - 3) * b * s[n - 1] + 2 * (n - 3) * c * s[n - 2]) / (2 * n))
    return s[: upto + 1]


def _closed_form(num: tuple[int, ...], b: int, c: int, den: tuple[int, int], upto: int) -> list[int]:
    """(num(x) - sqrt(1 + b x + c x^2)) / (den0 + den1 x), coefficientwise."""
    s = _sqrt_coeffs(b, c, upto)
    top = [(num[i] if i < len(num) else 0) - s[i] for i in range(upto + 1)]
    out: list[Fraction] = []
    for n in range(upto + 1):
        prev = out[n - 1] if n else 0
        out.append((top[n] - den[1] * prev) / den[0])
    if any(v.denominator != 1 for v in out):
        raise ArithmeticError("closed form has a non-integer coefficient")
    return [int(v) for v in out]


@lru_cache(maxsize=None)
def b1_counts(upto: int) -> tuple[int, ...]:
    """[x^n] B1 = (1 + x - sqrt(1 - 2x - 3x^2)) / (2(1 + x))."""
    return tuple(_closed_form((1, 1), -2, -3, (2, 2), upto))


@lru_cache(maxsize=None)
def b2_counts(upto: int) -> tuple[int, ...]:
    """[x^n] B2 = (1 + 3x + 4x^2 - sqrt(1 - 2x - 7x^2)) / (4 + 8x)."""
    return tuple(_closed_form((1, 3, 4), -2, -7, (4, 8), upto))


B3_PREFIX = (1, 0, 1, 1, 5, 13, 48, 160, 578, 2078)  # [x^1]..[x^10] B3


@lru_cache(maxsize=None)
def capped_tree_counts(cap: int, upto: int) -> tuple[int, ...]:
    """Trees on n nodes, n = 0..upto, with non-root labels <= cap and no
    only children, by dynamic programming over (nodes, capped label sum).

    A non-root internal node with children's label sum S may carry any label
    in 1..min(S, cap), so only min(S, cap) matters.  The root carries S.
    [x^n] B_cap counts these trees.
    """
    # g[n][l]: n-node subtrees with top label l; seq[n][c]: non-empty
    # sequences of subtrees with n nodes in all and capped label sum c.
    # seq - g leaves the sequences of two or more subtrees.
    g = [[0] * (cap + 1) for _ in range(upto + 1)]
    seq = [[0] * (cap + 1) for _ in range(upto + 1)]
    if upto >= 1:
        g[1][1] = 1
    for n in range(1, upto + 1):
        if n >= 2:
            for c in range(1, cap + 1):
                several = seq[n - 1][c] - g[n - 1][c]
                for label in range(1, c + 1):
                    g[n][label] += several
        row = seq[n]
        for c in range(1, cap + 1):
            row[c] += g[n][c]
        for a in range(1, n):
            ga, sb = g[a], seq[n - a]
            for c1 in range(1, cap + 1):
                if ga[c1]:
                    for c2 in range(1, cap + 1):
                        if sb[c2]:
                            row[min(c1 + c2, cap)] += ga[c1] * sb[c2]
    out = [0] * (upto + 1)
    if upto >= 1:
        out[1] = 1
    for n in range(2, upto + 1):
        out[n] = sum(seq[n - 1][c] - g[n - 1][c] for c in range(1, cap + 1))
    return tuple(out)


def series_reference(name: str, terms: int) -> list[int]:
    """[x^1]..[x^terms] of the named series."""
    if name in ("a", "a-zeil", "a-hyp"):
        return [tutte(n) for n in range(1, terms + 1)]
    if name == "p":
        return p_series(terms)[1:]
    if name == "pprime":
        p = p_series(terms)
        return [p[n] - p[n - 1] for n in range(1, terms + 1)]
    if name == "b1":
        return list(b1_counts(terms)[1:])
    if name == "b2":
        return list(b2_counts(terms)[1:])
    if name == "b3":
        return list(capped_tree_counts(3, terms)[1:])
    raise ValueError(f"no reference for series {name!r}")


def enumerate_reference(tree_nodes: int, filters: tuple[str, ...]) -> int:
    if not filters:
        return tree_count(tree_nodes)
    if filters == ("primitive",):
        return primitive_counts(tree_nodes)[tree_nodes]
    cap = {("labels-max=1", "no-only-children"): 1,
           ("labels-max=2", "no-only-children"): 2,
           ("labels-max=3", "no-only-children"): 3}[filters]
    if cap == 1:
        return b1_counts(tree_nodes)[tree_nodes]
    if cap == 2:
        return b2_counts(tree_nodes)[tree_nodes]
    return capped_tree_counts(3, tree_nodes)[tree_nodes]


# ---------------------------------------------------------------------------
# First-order estimates, as natural logarithms
# ---------------------------------------------------------------------------

# B3's constants, measured by two routes (the singular expansion of the
# quartic's branch, and Richardson extrapolation of exact coefficients).
B3_RHO = 4.241211543
B3_GAMMA = 0.1234545709


def log_estimate(name: str, n: int) -> float:
    """ln of the documented first-order estimate of [x^n]."""
    lp = math.log(math.pi * n)
    if name == "a":
        return math.log(2 / 27) + 0.5 * (math.log(3) - lp - 4 * math.log(n)) + n * math.log(27 / 4)
    if name == "p":
        return math.log(46 / 729) + 0.5 * (math.log(23) - lp - 4 * math.log(n)) + n * math.log(23 / 4)
    if name == "pprime":
        return math.log(529 / 1458) + 0.5 * (math.log(23) - lp - 2 * math.log(n)) + n * math.log(23 / 4)
    if name == "b1":
        return math.log(1 / 8) + 0.5 * (math.log(3) - lp - 2 * math.log(n)) + n * math.log(3)
    if name == "b2":
        r2 = math.sqrt(2)
        return (
            -math.log(8 * r2 + 12)
            + 0.5 * (math.log(4 + r2) - lp - 2 * math.log(n))
            + n * math.log(7 / (2 * r2 - 1))
        )
    if name == "b3":
        return math.log(B3_GAMMA / 2) - 0.5 * (lp + 2 * math.log(n)) + n * math.log(B3_RHO)
    raise ValueError(f"no estimate for {name!r}")


def estimate_tolerance(name: str, n: int) -> float:
    """Allowed |ln printed - ln reference|: 12 printed digits and float
    rounding of ln values near 1e5, or for B3 the 10 digits known of rho,
    whose error grows with n."""
    return 1e-10 if name != "b3" else 1e-8 + n * 5e-10


def log_of_printed(text: str) -> float:
    """ln of a positive decimal such as '5.45676216123e+82916' (no overflow)."""
    mant, _, exp = text.strip().lower().partition("e")
    value = float(mant)
    if value <= 0:
        raise ValueError(f"not a positive estimate: {text!r}")
    return math.log(value) + (int(exp) if exp else 0) * math.log(10)


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


def parse_perm(text: str) -> tuple[int, ...]:
    text = text.strip()
    return () if text == "e" else tuple(int(tok) for tok in text.split())


def has_3142(pi) -> bool:
    return any(
        pi[b] < pi[d] < pi[a] < pi[c] for a, b, c, d in combinations(range(len(pi)), 4)
    )


def has_2_41_3(pi) -> bool:
    """2413 with the 4 and the 1 adjacent."""
    n = len(pi)
    for b in range(1, n - 2):
        four, one = pi[b], pi[b + 1]
        if four < one:
            continue
        for a in range(b):
            if one < pi[a] < four:
                for d in range(b + 2, n):
                    if pi[a] < pi[d] < four:
                        return True
    return False


def components_count(pi) -> int:
    best = count = 0
    for i, v in enumerate(pi, start=1):
        best = max(best, v)
        if best == i:
            count += 1
    return count


def lr_maxima_count(pi) -> int:
    best = count = 0
    for v in pi:
        if v > best:
            best, count = v, count + 1
    return count


def m_occurrences(pi) -> int:
    """Mesh pattern 21 with column 1 and cell (2, 1) shaded: an adjacent
    descent pi_i > pi_{i+1} with no later letter between the two values."""
    n = len(pi)
    return sum(
        1
        for i in range(n - 1)
        if pi[i] > pi[i + 1] and not any(pi[i + 1] < pi[j] < pi[i] for j in range(i + 2, n))
    )


# Permutations up to this length are also scanned for 3142 and 2-41-3.
SCAN_MAX_LENGTH = 16


def check_perm_leg(tree_text: str, nodes: int, perm_line: str, back_line: str) -> str | None:
    """`biject tree->perm` then `biject perm->tree` on one object."""
    try:
        pi = parse_perm(perm_line)
    except ValueError:
        return f"unparsable permutation {perm_line!r}"
    if len(pi) != nodes - 1:
        return f"permutation length {len(pi)} != nodes - 1 = {nodes - 1}"
    if sorted(pi) != list(range(1, len(pi) + 1)):
        return f"not a permutation: {perm_line!r}"
    if len(pi) <= SCAN_MAX_LENGTH and (has_3142(pi) or has_2_41_3(pi)):
        return f"{perm_line!r} contains 3142 or 2-41-3"
    if back_line.strip() != tree_text:
        return f"perm->tree gave {back_line.strip()!r}, expected {tree_text!r}"
    return None


def check_perm_stats(perm_line: str, row_line: str) -> str | None:
    """`stats --object perm --format json` on a class member."""
    pi = parse_perm(perm_line)
    try:
        row = json.loads(row_line)
    except ValueError:
        return f"unparsable stats row {row_line!r}"
    m = m_occurrences(pi)
    comps = components_count(pi)
    want = {
        "perm": perm_line.strip(),
        "length": len(pi),
        "components": comps,
        "lr_maxima": lr_maxima_count(pi),
        "m_occurrences": m,
        "indecomposable": len(pi) > 0 and comps == 1,
        "in_class": True,
        "primitive": m == 0,
    }
    return _compare_row(row, want)


# ---------------------------------------------------------------------------
# Trees and maps
# ---------------------------------------------------------------------------


def tree_facts(t: tuple) -> dict:
    """Statistics of one of the benchmark's trees, computed from the tuple."""
    nodes = leaves = scm = 0
    stack = [t]
    while stack:
        label, kids = stack.pop()
        nodes += 1
        if not kids:
            leaves += 1
        if len(kids) == 1:
            child_label, grandkids = kids[0]
            if not grandkids or child_label == sum(g[0] for g in grandkids):
                scm += 1
        stack.extend(kids)
    return {
        "nodes": nodes,
        "leaves": leaves,
        "internal_nodes": nodes - leaves,
        "root_label": t[0],
        "single_child_max_nodes": scm,
        "decomposable": len(t[1]) >= 2,
        "primitive": scm == 0,
    }


def check_tree_stats(tree: tuple, tree_text: str, row_line: str) -> str | None:
    try:
        row = json.loads(row_line)
    except ValueError:
        return f"unparsable stats row {row_line!r}"
    return _compare_row(row, {"tree": tree_text, **tree_facts(tree)})


def map_scan(map_line: str) -> tuple[int, bool]:
    """(vertices, multiple_edges) of a printed map, read off its darts:
    vertices are the cycles of sigma; an edge joins the vertices of its two
    darts, and a multiple edge is an endpoint pair that two edges share."""
    rec = json.loads(map_line)
    sigma, alpha = rec["sigma"], rec["alpha"]
    vertex = [-1] * len(sigma)
    vertices = 0
    for start in range(len(sigma)):
        d = start
        while vertex[d] < 0:
            vertex[d] = vertices
            d = sigma[d]
        vertices += vertex[start] == vertices
    pairs = [frozenset((vertex[d], vertex[alpha[d]])) for d in range(len(alpha)) if d < alpha[d]]
    return vertices, len(set(pairs)) != len(pairs)


def check_map_stats(tree: tuple, map_line: str, row_line: str) -> str | None:
    """The tree -> map statistics: edges = nodes, vertices = leaves + 1,
    faces = internal nodes + 1, root-face degree = root label + 1, internal
    2-faces = single-child-max nodes; the map is non-separable.  Vertices and
    multiple edges are also read off the printed map."""
    try:
        row = json.loads(row_line)
        vertices, multiple = map_scan(map_line)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparsable map or stats row: {exc}"
    f = tree_facts(tree)
    if vertices != f["leaves"] + 1:
        return f"printed map has {vertices} vertices, expected {f['leaves'] + 1}"
    want = {
        "map": map_line.strip(),
        "edges": f["nodes"],
        "vertices": f["leaves"] + 1,
        "faces": f["internal_nodes"] + 1,
        "root_face_degree": f["root_label"] + 1,
        "internal_2faces": f["single_child_max_nodes"],
        "nonseparable": True,
        "multiple_edges": multiple,
    }
    return _compare_row(row, want)


def _compare_row(row: dict, want: dict) -> str | None:
    for key, value in want.items():
        if row.get(key) != value:
            return f"{key}: got {row.get(key)!r}, expected {value!r}"
    return None


# ---------------------------------------------------------------------------
# count workload
# ---------------------------------------------------------------------------


def check_count(expected: int, lines: list[str]) -> str | None:
    if len(lines) != 1:
        return f"expected one line, got {len(lines)}"
    try:
        got = int(lines[0])
    except ValueError:
        return f"not a count: {lines[0]!r}"
    return None if got == expected else f"count {got}, expected {expected}"


def check_series_text(name: str, terms: int, lines: list[str]) -> str | None:
    want = series_reference(name, terms)
    try:
        got = [int(v) for v in lines]
    except ValueError:
        return "non-integer coefficient"
    return _first_difference(got, want)


def check_series_csv(name: str, terms: int, lines: list[str]) -> str | None:
    if not lines or lines[0] != "n,coefficient,asymptotic,relative_error":
        return "missing csv header"
    want = series_reference(name, terms)
    est_name = "a" if name.startswith("a") else name
    got = []
    for line in lines[1:]:
        n_text, coeff_text, est_text, rel_text = line.split(",")
        n, coeff = int(n_text), int(coeff_text)
        got.append(coeff)
        ln_est = log_estimate(est_name, n)
        if abs(log_of_printed(est_text) - ln_est) > estimate_tolerance(est_name, n):
            return f"n={n}: estimate {est_text}, expected exp({ln_est:.12g})"
        if coeff == 0:
            if rel_text:
                return f"n={n}: relative error {rel_text!r} for a zero coefficient"
            continue
        ratio = math.exp(ln_est - math.log(abs(coeff)))
        rel = abs((ratio if coeff > 0 else -ratio) - 1)
        if abs(float(rel_text) - rel) > 1e-6 + 1e-4 * rel:
            return f"n={n}: relative error {rel_text}, expected {rel:.6g}"
    return _first_difference(got, want)


def check_asympt(name: str, n: int, fmt: str, lines: list[str]) -> str | None:
    if fmt == "json":
        text = json.loads(lines[0])["estimate"] if len(lines) == 1 else ""
    elif fmt == "csv":
        ok = len(lines) == 2 and lines[0] == "name,n,estimate"
        text = lines[1].split(",")[2] if ok else ""
    else:
        text = lines[0] if len(lines) == 1 else ""
    if not text:
        return f"malformed {fmt} output: {lines!r}"
    ln_est = log_estimate(name, n)
    if abs(log_of_printed(text) - ln_est) > estimate_tolerance(name, n):
        return f"estimate {text}, expected exp({ln_est:.12g})"
    return None


def _first_difference(got: list[int], want: list[int]) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} coefficients, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want), start=1):
        if g != w:
            return f"[x^{i}] = {g}, expected {w}"
    return None


# ---------------------------------------------------------------------------
# verify workload: expected verdicts
# ---------------------------------------------------------------------------

# theorem5 claims, per tree, M-occurrences of its permutation = its
# single-child-max nodes = internal 2-faces of its map.  The map leg agrees
# with the tree leg; the permutation leg counts the non-root internal nodes
# whose label equals their children's label sum.  The suite lists at most
# this many mismatching trees, then the mismatch total, then one row per
# length n < max size at which the corollary count (class members avoiding
# M and N = maps on n + 1 edges with no face of degree 2) breaks.
THEOREM5_TREE_WITNESSES = 15


def all_trees(nodes: int) -> list[tuple]:
    """Every beta(1,0)-tree on `nodes` nodes, as the benchmark's tuples."""
    return [
        (sum(k[0] for k in kids), kids) if kids else (1, ())
        for kids in _child_sequences(nodes - 1)
    ]


@lru_cache(maxsize=None)
def _subtrees(nodes: int) -> tuple[tuple, ...]:
    """Non-root subtrees: a leaf is 1, an internal node 1..children's sum."""
    if nodes == 1:
        return ((1, ()),)
    return tuple(
        (label, kids)
        for kids in _child_sequences(nodes - 1)
        for label in range(1, sum(k[0] for k in kids) + 1)
    )


@lru_cache(maxsize=None)
def _child_sequences(nodes: int) -> tuple[tuple, ...]:
    """Ordered sequences of subtrees with `nodes` nodes in all (() for 0)."""
    if nodes == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for size in range(1, nodes + 1)
        for first in _subtrees(size)
        for rest in _child_sequences(nodes - size)
    )


def _label_sum_nodes(t: tuple) -> int:
    """Non-root internal nodes whose label equals their children's label sum."""
    count = 0
    stack = list(t[1])
    while stack:
        label, kids = stack.pop()
        if kids and label == sum(k[0] for k in kids):
            count += 1
        stack.extend(kids)
    return count


def class_members(n: int) -> list[tuple[int, ...]]:
    """Av_n(3142, 2-41-3) by brute force."""
    return [pi for pi in permutations(range(1, n + 1)) if not (has_3142(pi) or has_2_41_3(pi))]


@lru_cache(maxsize=None)
def theorem5_reference(max_size: int) -> tuple[dict, int, tuple]:
    """({tree text: triple text} of the mismatching trees, their number,
    corollary rows that break) for trees of at most `max_size` nodes."""
    bad = {}
    for nodes in range(1, max_size + 1):
        for t in all_trees(nodes):
            scm = tree_facts(t)["single_child_max_nodes"]
            m = _label_sum_nodes(t)
            if m != scm:
                bad[format_tree(t)] = f"M={m}, tree={scm}, faces={scm}"
    rows = []
    for n in range(1, max_size):
        # N, one point with nothing to its left and nothing above it on its
        # right, occurs exactly when the first letter is the largest.
        avoiders = sum(1 for pi in class_members(n) if m_occurrences(pi) == 0 and pi[0] != n)
        free = 0
        for t in all_trees(n + 1):
            f = tree_facts(t)
            free += f["single_child_max_nodes"] == 0 and f["root_label"] != 1
        if avoiders != free:
            rows.append(
                (f"members of length {n} avoiding M and N",
                 f"{free} (2-face-free maps on {n + 1} edges)", str(avoiders))
            )
    return bad, len(bad), tuple(rows)


def check_theorem5(max_size: int, witnesses: list) -> str | None:
    bad, mismatches, rows = theorem5_reference(max_size)
    listed = min(mismatches, THEOREM5_TREE_WITNESSES)
    want_count = listed + (1 if mismatches else 0) + len(rows)
    if len(witnesses) != want_count:
        return f"{len(witnesses)} witnesses, expected {want_count}"
    trees = witnesses[:listed]
    if len({w[0] for w in trees}) != listed:
        return "a tree is listed twice"
    for obj, exp_text, got_text in trees:
        if obj not in bad or exp_text != "equal triple" or got_text != bad[obj]:
            return f"tree witness {[obj, exp_text, got_text]!r}, expected {bad.get(obj)!r}"
    tail = [tuple(w) for w in witnesses[listed:]]
    if mismatches:
        total = (f"triple equality over trees with <= {max_size} nodes",
                 "0 mismatches", f"{mismatches} mismatches")
        if tail[0] != total:
            return f"mismatch row {list(tail[0])!r}, expected {list(total)!r}"
        tail = tail[1:]
    if tuple(tail) != rows:
        return f"corollary rows {tail!r}, expected {list(rows)!r}"
    return None


# asymptotics: the P and PPRIME estimates fail; their printed relative
# errors (4 significant digits) are checked against the documented estimate
# and the exact coefficients.  P is measured against the maps with m edges
# and no internal 2-face, sum_k maps(k) (-1)^(m-k) C(m-1, m-k), and PPRIME
# against p_n - p_(n-1) of p_series.
ASYMPTOTICS_GRID = (50, 100, 200, 400, 800)


@lru_cache(maxsize=None)
def asymptotic_rel_error(name: str, n: int) -> float:
    """|estimate / exact - 1| for name "p" or "pprime"."""
    exact = _primitive_maps(n) if name == "p" else _p_coefficient(n) - _p_coefficient(n - 1)
    return abs(math.exp(log_estimate(name, n) - math.log(exact)) - 1)


def _printed_errors(name: str, ns) -> Callable[[str], bool]:
    """Accepts '[e1, e2, ...]' or 'e' printed to 4 significant digits."""
    def accept(got: str) -> bool:
        vals = [float(v) for v in got.strip("[]").split(",")]
        want = [asymptotic_rel_error(name, n) for n in ns]
        return len(vals) == len(want) and all(abs(v - w) <= 6e-4 * w for v, w in zip(vals, want))
    return accept


# Suites that report honest mismatches, with the witnesses they must print:
# (object, expected, check on the actual text).  theorem5's are computed by
# theorem5_reference.
_GRID = ASYMPTOTICS_GRID
EXPECTED_WITNESSES = {
    "asymptotics": (
        ("P estimate at n=1000", "relative error <= 0.01", _printed_errors("p", (1000,))),
        ("PPRIME estimate at n=1000", "relative error <= 0.01", _printed_errors("pprime", (1000,))),
        (f"P error over n={_GRID}", "monotonically shrinking", _printed_errors("p", _GRID)),
        (f"PPRIME error over n={_GRID}", "monotonically shrinking", _printed_errors("pprime", _GRID)),
        ("gamma", "0.12347", lambda got: abs(float(got) - B3_GAMMA) <= 1e-8),
    ),
}
FAILING_SUITES = ("theorem5", "asymptotics")


def check_suite(suite: str, max_size: int, rc, lines: list[str]) -> str | None:
    """A passing suite exits 0 with no witnesses; theorem5 and asymptotics
    exit 1 with exactly the witnesses expected of them."""
    failing = suite in FAILING_SUITES
    if rc != (1 if failing else 0):
        return f"exit code {rc}"
    if len(lines) != 1:
        return f"expected one report line, got {len(lines)}"
    report = json.loads(lines[0])
    if report.get("suite") != suite:
        return f"report for {report.get('suite')!r}"
    if any(v > max_size for v in report.get("params", {}).values()):
        return f"params {report['params']} exceed --max-size {max_size}"
    witnesses = report.get("witnesses", [])
    if not failing:
        if report.get("status") != "pass" or witnesses:
            return f"status {report.get('status')} with {len(witnesses)} witnesses"
        return None
    if report.get("status") != "fail":
        return f"status {report.get('status')}, expected fail"
    if suite == "theorem5":
        return check_theorem5(report["params"]["n_max"], witnesses)
    expected = EXPECTED_WITNESSES[suite]
    if len(witnesses) != len(expected):
        return f"{len(witnesses)} witnesses, expected {len(expected)}"
    for (obj, exp_text, got_text), (want_obj, want, accept) in zip(witnesses, expected):
        if obj != want_obj or exp_text != want or not accept(got_text):
            return f"witness {[obj, exp_text, got_text]!r}, expected {want_obj!r}: {want!r}"
    return None
