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
        return _orbits([self.sigma[e] for e in self.alpha], self.root)

    @cached_property
    def _vertex_of(self) -> tuple[int, ...]:
        """dart -> index of its vertex in `vertices`."""
        out = [0] * self.n_darts
        for i, orb in enumerate(self.vertices):
            for d in orb:
                out[d] = i
        return tuple(out)


def _orbits(perm: list[int] | tuple[int, ...], first: int) -> tuple[tuple[int, ...], ...]:
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
    n, alpha = m.n_darts, m.alpha
    if n <= 0 or n % 2:
        return f"n_darts {n} is not a positive even count"
    # One pass finds alpha, on the good path, a fixed-point-free involution
    # of 0..n-1, and so a permutation; otherwise the checks run in order, to
    # name the first violation.
    matched = len(alpha) == n and not [
        e for d, e in enumerate(alpha) if not 0 <= e < n or e == d or alpha[e] != d
    ]
    for name, p in (("alpha", alpha), ("sigma", m.sigma))[matched:]:
        if len(p) != n or sorted(p) != list(range(n)):
            return f"{name} is not a permutation of 0..{n - 1}"
    if not 0 <= m.root < n:
        return f"root dart {m.root} out of range"
    if not matched:
        for d in range(n):
            if alpha[d] == d:
                return f"alpha not fixed-point-free (dart {d})"
            if alpha[alpha[d]] != d:
                return f"alpha not an involution (dart {d})"
    # Transitivity of <alpha, sigma> on darts: alpha must connect the sigma-orbits.
    at, vertices = m._vertex_of, m.vertices
    unreached = [True] * len(vertices)
    unreached[0], stack, reached = False, [0], 1
    while stack:
        for d in vertices[stack.pop()]:
            w = at[alpha[d]]
            if unreached[w]:
                unreached[w] = False
                reached += 1
                stack.append(w)
    if reached != len(vertices):
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
    if [d for d, e in enumerate(m.alpha) if at[d] == at[e]]:
        return False  # loop
    last = [-1] * len(m.vertices)  # vertex -> the last face that passed it
    for i, orb in enumerate(m.faces):
        for d in orb:
            v = at[d]
            if last[v] == i:
                return False
            last[v] = i
    return True


def has_multiple_edges(m: CombinatorialMap) -> bool:
    """True iff two distinct edges share the same unordered endpoint pair."""
    at = m._vertex_of
    seen = set()
    for d, e in enumerate(m.alpha):
        if d < e:
            x, y = at[d], at[e]
            key = (x, y) if x < y else (y, x)
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
    constant-time rotation update, and the new root corner is the one the
    root edge itself closes.  The star is found i steps along the new root
    face, with no walk around the rest of it.  The nodes are built children first, in
    `postorder`, so deep trees need no recursion.
    """
    _require_valid(t)
    order = postorder(t)
    # Node k's edge, a leaf's only edge or an internal node's new root edge,
    # is darts 2k and 2k + 1, so alpha is d ^ 1; each dart starts alone at
    # its vertex.
    sigma = list(range(2 * len(order)))
    alpha = list(range(1, len(sigma) + 1))
    alpha[1::2] = range(0, len(sigma), 2)
    # (R_corner, star_corner) of each node whose parent is not yet reached,
    # leftmost deepest.
    done: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for k, s in enumerate(order):
        u_dart, v_dart = 2 * k, 2 * k + 1
        m = len(s.children)
        if m == 0:
            done.append(((u_dart, u_dart), (v_dart, v_dart)))
            continue
        parts = done[-m:]
        del done[-m:]
        # Glue star(M_j) to the root vertex of M_{j+1}.
        for (_, (p, q)), ((p2, q2), _) in zip(parts, parts[1:]):
            sigma[p], sigma[p2] = q2, q
        # The new root edge runs from star(M_m) to R(M_1); it closes the new
        # root corner (star(M_m)'s dart, u_dart).
        last, q = parts[-1][1]
        sigma[last], sigma[u_dart] = u_dart, q
        p, q = parts[0][0]
        sigma[p], sigma[v_dart] = v_dart, q
        if s is t:
            break  # the global root's star is never used
        # Star the i-th vertex counterclockwise after the root vertex, i the
        # node's label: i - 1 steps of phi = sigma o alpha from u_dart.
        d = u_dart
        for _ in range(s.label - 1):
            d = sigma[alpha[d]]
        d = alpha[d]
        done.append(((last, u_dart), (d, sigma[d])))
    # Valid by construction (the table1 suite checks it with `validate_map`),
    # so the map is made without __post_init__'s check.  Its root dart is t's
    # u_dart, t being last in postorder.
    out = object.__new__(CombinatorialMap)
    out.__dict__.update(
        n_darts=len(sigma), alpha=tuple(alpha), sigma=tuple(sigma), root=len(sigma) - 2
    )
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
