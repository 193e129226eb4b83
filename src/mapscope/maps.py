"""Rooted planar maps as dart-based rotation systems.

A map is a pair of permutations on darts 0..n_darts-1: `alpha` (the
fixed-point-free involution pairing the two darts of each edge) and `sigma`
(the counterclockwise successor around the dart's source vertex), plus a
distinguished root dart.  Vertices are the sigma-orbits, edges the
alpha-orbits, faces the orbits of phi = sigma o alpha; the face to the right
of a dart is its phi-orbit, so the root face (drawn as the outer face) is the
phi-orbit of the root dart.  Each map walks its orbits once, on first use:
`m.vertices` and `m.faces` hold them as dart tuples, the root's orbit first,
and validation and every statistic read them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .trees import LabeledTree, _require_valid, postorder

__all__ = [
    "CombinatorialMap",
    "validate_map",
    "is_nonseparable",
    "has_multiple_edges",
    "canonical_code",
    "tree_to_map",
    "internal_2face_count",
    "parse_map",
    "format_map",
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

    # cached_property writes to the instance __dict__, so it bypasses the
    # frozen dataclass's __setattr__ and also serves maps made by `tree_to_map`.
    @cached_property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """The sigma-orbits, the root vertex first."""
        return _orbits(self.sigma, self.root)

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """The phi-orbits, phi = sigma o alpha, the root face first."""
        return _orbits(tuple(self.sigma[e] for e in self.alpha), self.root)

    @cached_property
    def _vertex_of(self) -> tuple[int, ...]:
        """dart -> index of its vertex in `vertices`."""
        out = [0] * self.n_darts
        for i, orb in enumerate(self.vertices):
            for d in orb:
                out[d] = i
        return tuple(out)


def _orbits(perm: tuple[int, ...], first: int) -> tuple[tuple[int, ...], ...]:
    """The cycles of `perm`, the one through `first` first, then by least dart."""
    seen = [False] * len(perm)
    out = []
    for start in (first, *range(len(perm))):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = perm[d]
        out.append(tuple(cyc))
    return tuple(out)


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
    # Transitivity of <alpha, sigma> on darts: alpha must connect the sigma-orbits.
    at, vertices = m._vertex_of, m.vertices
    reached, stack = {0}, [0]
    while stack:
        for d in vertices[stack.pop()]:
            w = at[m.alpha[d]]
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) != len(vertices):
        return "map not connected (alpha,sigma not transitive on darts)"
    v, e, f = len(vertices), n // 2, len(m.faces)
    if v - e + f != 2:
        return f"not planar: V-E+F = {v}-{e}+{f} = {v - e + f} != 2"
    return "ok"


def internal_2face_count(m: CombinatorialMap) -> int:
    """Number of non-root faces of degree 2."""
    return sum(len(f) == 2 for f in m.faces[1:])


def is_nonseparable(m: CombinatorialMap) -> bool:
    """No loops and no cut vertices (a valid map has at least one edge).

    In a loopless plane map, v is a cut vertex iff some facial walk passes v
    twice.  (<=) Two corners of one face at v give a closed curve through that
    face meeting the map only at v; each side holds an edge at v, whose other
    end is off v, so removing v disconnects them.  (=>) A corner at v between
    two blocks starts a walk that must come back to v through the other block.
    """
    at = m._vertex_of
    if any(at[d] == at[e] for d, e in enumerate(m.alpha)):
        return False  # loop
    return all(len({at[d] for d in orb}) == len(orb) for orb in m.faces)


def has_multiple_edges(m: CombinatorialMap) -> bool:
    """True iff two distinct edges share the same unordered endpoint pair."""
    at = m._vertex_of
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
    return ",".join(map(str, flat)).encode()


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
    obj = {"n_darts": m.n_darts, "alpha": list(m.alpha), "sigma": list(m.sigma), "root": m.root}
    return json.dumps(obj)


def _json_int(value) -> int:
    if type(value) is not int:  # rejects floats, strings and bools
        raise ValueError(f"expected an integer, got {json.dumps(value)}")
    return value


def _json_ints(value) -> tuple[int, ...]:
    if type(value) is not list:
        raise ValueError(f"expected a list, got {json.dumps(value)}")
    if set(map(type, value)) <= {int}:
        return tuple(value)
    return tuple(map(_json_int, value))  # raises, naming the first bad value


def parse_map(text: str) -> CombinatorialMap:
    try:
        obj = json.loads(text)
        fields = (
            _json_int(obj["n_darts"]),
            _json_ints(obj["alpha"]),
            _json_ints(obj["sigma"]),
            _json_int(obj["root"]),
        )
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError; json.loads recurses per nesting level
        raise ValueError(f"malformed map record: {exc}") from None
    return CombinatorialMap(*fields)  # raises "invalid map: ..." for a bad rotation system
