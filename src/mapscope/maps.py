"""Rooted planar maps as dart-based rotation systems.

A map is a pair of permutations on darts 0..n_darts-1: `alpha` (the
fixed-point-free involution pairing the two darts of each edge) and `sigma`
(the counterclockwise successor around the dart's source vertex), plus a
distinguished root dart.  Vertices are the sigma-orbits, edges the
alpha-orbits, faces the orbits of phi = sigma o alpha; the face to the right
of a dart is its phi-orbit, so the root face (drawn as the outer face) is the
phi-orbit of the root dart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .trees import LabeledTree, _require_valid, postorder

__all__ = [
    "CombinatorialMap",
    "FaceReport",
    "validate_map",
    "faces",
    "face_degrees",
    "is_nonseparable",
    "has_multiple_edges",
    "canonical_code",
    "tree_to_map",
    "internal_2face_count",
    "parse_map",
    "format_map",
    "vertex_orbits",
]


@dataclass(frozen=True)
class CombinatorialMap:
    """A rooted planar map, valid once made: the constructor raises
    ValueError("invalid map: ...") with the first violation `validate_map` finds."""

    n_darts: int
    alpha: tuple[int, ...]
    sigma: tuple[int, ...]
    root: int

    def __post_init__(self) -> None:
        msg = validate_map(self)
        if msg != "ok":
            raise ValueError(f"invalid map: {msg}")


@dataclass(frozen=True)
class FaceReport:
    faces: tuple[tuple[tuple[int, ...], int], ...]  # (dart cycle, degree)
    root_face_index: int
    degree_histogram: tuple[int, ...]  # sorted degrees

    @property
    def internal_2faces(self) -> int:
        """Number of non-root faces of degree 2."""
        return self.degree_histogram.count(2) - (self.faces[self.root_face_index][1] == 2)


def _orbits(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = perm[d]
        out.append(tuple(cyc))
    return out


def vertex_orbits(m: CombinatorialMap) -> list[tuple[int, ...]]:
    """Sigma-orbits; the i-th orbit is vertex i."""
    return _orbits(m.sigma)


def validate_map(m: CombinatorialMap) -> str:
    """Return "ok" or the first violated invariant."""
    n = m.n_darts
    if n <= 0 or n % 2:
        return f"n_darts {n} is not a positive even count"
    for name, p in (("alpha", m.alpha), ("sigma", m.sigma)):
        if len(p) != n or sorted(p) != list(range(n)):
            return f"{name} is not a permutation of 0..{n - 1}"
    if not 0 <= m.root < n:
        return f"root dart {m.root} out of range"
    for d in range(n):
        if m.alpha[d] == d:
            return f"alpha not fixed-point-free (dart {d})"
        if m.alpha[m.alpha[d]] != d:
            return f"alpha not an involution (dart {d})"
    # Transitivity of <alpha, sigma> on darts.
    seen = {0}
    stack = [0]
    while stack:
        d = stack.pop()
        for e in (m.alpha[d], m.sigma[d]):
            if e not in seen:
                seen.add(e)
                stack.append(e)
    if len(seen) != n:
        return "map not connected (alpha,sigma not transitive on darts)"
    phi = tuple(m.sigma[m.alpha[d]] for d in range(n))
    v = len(_orbits(m.sigma))
    f = len(_orbits(phi))
    e = n // 2
    if v - e + f != 2:
        return f"not planar: V-E+F = {v}-{e}+{f} = {v - e + f} != 2"
    return "ok"


def faces(m: CombinatorialMap) -> FaceReport:
    phi = tuple(m.sigma[m.alpha[d]] for d in range(m.n_darts))
    orbs = _orbits(phi)
    root_idx = next(i for i, orb in enumerate(orbs) if m.root in orb)
    return FaceReport(
        faces=tuple((orb, len(orb)) for orb in orbs),
        root_face_index=root_idx,
        degree_histogram=tuple(sorted(len(orb) for orb in orbs)),
    )


def face_degrees(m: CombinatorialMap) -> tuple[int, ...]:
    """Sorted degrees of all faces (root face included)."""
    return faces(m).degree_histogram


def internal_2face_count(m: CombinatorialMap) -> int:
    """Number of non-root faces of degree 2."""
    return faces(m).internal_2faces


def _dart_vertex(m: CombinatorialMap) -> list[int]:
    """dart -> vertex id (sigma-orbit index)."""
    out = [-1] * m.n_darts
    for i, orb in enumerate(_orbits(m.sigma)):
        for d in orb:
            out[d] = i
    return out


def is_nonseparable(m: CombinatorialMap) -> bool:
    """No loops and no cut vertices (a valid map has at least one edge).

    In a loopless plane map, v is a cut vertex iff some facial walk passes v
    twice.  (<=) Two corners of one face at v give a closed curve through that
    face meeting the map only at v; each side holds an edge at v, whose other
    end is off v, so removing v disconnects them.  (=>) A corner at v between
    two blocks starts a walk that must come back to v through the other block.
    """
    at = _dart_vertex(m)
    if any(at[d] == at[e] for d, e in enumerate(m.alpha)):
        return False  # loop
    phi = tuple(m.sigma[e] for e in m.alpha)
    return all(len({at[d] for d in orb}) == len(orb) for orb in _orbits(phi))


def has_multiple_edges(m: CombinatorialMap) -> bool:
    """True iff two distinct edges share the same unordered endpoint pair."""
    at = _dart_vertex(m)
    seen = set()
    for d in range(m.n_darts):
        if d < m.alpha[d]:
            key = frozenset((at[d], at[m.alpha[d]]))
            if key in seen:
                return True
            seen.add(key)
    return False


def canonical_code(m: CombinatorialMap) -> bytes:
    """Complete rooted-isomorphism invariant.

    Breadth-first traversal over darts from the root, visiting sigma-successor
    then alpha-mate, relabels darts by first-visit rank; the code lists each
    dart's sigma- and alpha-image in those ranks, which reconstructs the map
    up to dart relabeling.
    """
    rank = {m.root: 0}
    order = [m.root]
    head = 0
    while head < len(order):
        d = order[head]
        head += 1
        for e in (m.sigma[d], m.alpha[d]):
            if e not in rank:
                rank[e] = len(order)
                order.append(e)
    flat = []
    for d in order:
        flat.append(rank[m.sigma[d]])
        flat.append(rank[m.alpha[d]])
    return b",".join(str(x).encode() for x in flat)


# ---------------------------------------------------------------------------
# Tree -> map construction
# ---------------------------------------------------------------------------


def tree_to_map(t: LabeledTree) -> CombinatorialMap:
    """The recursive bijection from beta(1,0)-trees to rooted non-separable maps.

    A leaf becomes the single-edge map, rooted at the dart pointing from the
    root vertex to the starred vertex.  An internal node glues its children's
    maps star-to-root-vertex in order, adds a new root edge from the last
    child's starred vertex to the first child's root vertex, and (for
    non-root nodes with label i) stars the i-th vertex counterclockwise from
    the root vertex along the new root face.  Corners -- (dart, sigma(dart))
    pairs facing the outer face -- are carried explicitly so each splice is a
    constant-time rotation update.  The nodes are built children first, in
    `postorder`, so deep trees need no recursion.
    """
    _require_valid(t)
    alpha: list[int] = []
    sigma: list[int] = []
    # (root_dart, R_corner, star_corner) of each node whose parent is not yet
    # reached, leftmost deepest.
    done: list[tuple[int, tuple[int, int], tuple[int, int]]] = []
    for s in postorder(t):
        # Every node adds one edge: a leaf's only edge, or an internal node's
        # new root edge.  Each of its darts starts alone at its vertex.
        u_dart, v_dart = len(alpha), len(alpha) + 1
        alpha += (v_dart, u_dart)
        sigma += (u_dart, v_dart)
        m = len(s.children)
        if m == 0:
            done.append((u_dart, (u_dart, u_dart), (v_dart, v_dart)))
            continue
        parts = done[-m:]
        del done[-m:]
        # Glue star(M_j) to the root vertex of M_{j+1}.
        for (_, _, (p, q)), (_, (p2, q2), _) in zip(parts, parts[1:]):
            sigma[p], sigma[p2] = q2, q
        # The new root edge runs from star(M_m) to R(M_1).
        p, q = parts[-1][2]
        sigma[p], sigma[u_dart] = u_dart, q
        p, q = parts[0][1]
        sigma[p], sigma[v_dart] = v_dart, q
        # Walk the new root face once; it has degree children-sum + 1.
        walk = [u_dart]
        d = sigma[alpha[u_dart]]
        while d != u_dart:
            walk.append(d)
            d = sigma[alpha[d]]
        r_corner = (alpha[walk[-1]], walk[0])
        # Star the i-th vertex counterclockwise after the root vertex, i the
        # node's label.  (The global root's star is never used; its label is
        # the children-sum, so walk[i] still exists.)
        i = s.label
        done.append((u_dart, r_corner, (alpha[walk[i - 1]], walk[i])))
    # Valid by construction (the table1 suite checks it with `validate_map`),
    # so the map is made without __post_init__'s check.
    out = object.__new__(CombinatorialMap)
    out.__dict__.update(n_darts=len(alpha), alpha=tuple(alpha), sigma=tuple(sigma), root=done[0][0])
    return out


# ---------------------------------------------------------------------------
# Text format: JSON object {"n_darts": ..., "alpha": [...], "sigma": [...],
# "root": ...}
# ---------------------------------------------------------------------------


def format_map(m: CombinatorialMap) -> str:
    return json.dumps(
        {
            "n_darts": m.n_darts,
            "alpha": list(m.alpha),
            "sigma": list(m.sigma),
            "root": m.root,
        },
        separators=(", ", ": "),
    )


def _json_int(value) -> int:
    if type(value) is not int:  # rejects floats, strings and bools
        raise ValueError(f"expected an integer, got {json.dumps(value)}")
    return value


def _json_ints(value) -> tuple[int, ...]:
    if type(value) is not list:
        raise ValueError(f"expected a list, got {json.dumps(value)}")
    return tuple(map(_json_int, value))


def parse_map(text: str) -> CombinatorialMap:
    try:
        obj = json.loads(text)
        fields = (
            _json_int(obj["n_darts"]),
            _json_ints(obj["alpha"]),
            _json_ints(obj["sigma"]),
            _json_int(obj["root"]),
        )
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"malformed map record: {exc}") from None
    return CombinatorialMap(*fields)  # raises "invalid map: ..." for a bad rotation system
