from itertools import permutations

from mapscope.maps import (
    CombinatorialMap,
    canonical_code,
    format_map,
    has_multiple_edges,
    internal_2face_count,
    is_nonseparable,
    parse_map,
    tree_to_map,
    validate_map,
)
from mapscope.trees import enumerate_trees, parse_tree, tree_stats
from mapscope.verify import (
    _oracle_faces,
    _oracle_has_multiple_edges,
    _oracle_nonseparable,
    _oracle_vertex_of,
)

import pytest

# Hand-encoded fixtures (rotations read off the standard drawings)

SINGLE_EDGE_MAP = CombinatorialMap(2, (1, 0), (0, 1), 0)

# The six rooted non-separable maps on four edges, in the conventional order
# matching the six four-node trees.  Darts 2i, 2i+1 belong to edge i.
FOUR_EDGE_MAPS = (
    # four parallel edges on two vertices, rooted at the topmost edge
    CombinatorialMap(
        8, (1, 0, 3, 2, 5, 4, 7, 6), (2, 5, 6, 1, 0, 7, 4, 3), 3
    ),
    # theta-like: top arc, middle path, bottom root arc
    CombinatorialMap(
        8, (1, 0, 3, 2, 5, 4, 7, 6), (6, 5, 0, 4, 3, 7, 2, 1), 6
    ),
    # path plus spanning top arc, rooted at the lower right arc
    CombinatorialMap(
        8, (1, 0, 3, 2, 5, 4, 7, 6), (5, 6, 1, 7, 3, 0, 2, 4), 6
    ),
    # path plus doubled right edge, rooted at the spanning top arc
    CombinatorialMap(
        8, (1, 0, 3, 2, 5, 4, 7, 6), (7, 4, 1, 5, 2, 6, 3, 0), 6
    ),
    # path plus doubled left edge, rooted at the spanning top arc
    CombinatorialMap(
        8, (1, 0, 3, 2, 5, 4, 7, 6), (2, 4, 7, 1, 3, 6, 5, 0), 6
    ),
    # the 4-cycle, rooted at the spanning top arc
    CombinatorialMap(
        8, (1, 0, 3, 2, 5, 4, 7, 6), (7, 2, 1, 4, 3, 6, 5, 0), 6
    ),
)

# Six-edge 2-face-free map with a doubled edge: vertices L, M, R, T; edges
# e1 = upper L-R arc, e2 = L-M, e3 = M-R, e4 = R-T (root), e5 = T-L,
# e6 = lower L-R arc.  Darts 2i, 2i+1 belong to edge i+1, first dart at the
# first-named endpoint.
DOUBLED_EDGE_NO_2FACE_MAP = CombinatorialMap(
    12,
    (1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10),
    (9, 5, 0, 4, 3, 11, 1, 8, 7, 10, 2, 6),
    6,
)

# the six maps on four edges against their trees, in enumeration-friendly order
PAIRED_TREES = [
    "(1 (1 (1 (1))))",
    "(1 (1 (1) (1)))",
    "(2 (2 (1) (1)))",
    "(2 (1) (1 (1)))",
    "(2 (1 (1)) (1))",
    "(3 (1) (1) (1))",
]


def test_single_edge_map():
    assert validate_map(SINGLE_EDGE_MAP) == "ok"
    assert sorted(map(len, SINGLE_EDGE_MAP.faces)) == [2]
    assert len(SINGLE_EDGE_MAP.vertices) == 2
    # tuples, so the cached walks cannot change; the root's orbit first
    assert (SINGLE_EDGE_MAP.vertices, SINGLE_EDGE_MAP.faces) == (((0,), (1,)), ((0, 1),))


def test_reference_maps_are_valid_and_nonseparable():
    for m in FOUR_EDGE_MAPS:
        assert validate_map(m) == "ok"
        assert is_nonseparable(m)
    assert len({canonical_code(m) for m in FOUR_EDGE_MAPS}) == 6


def test_reference_pairing():
    'tree_to_map reproduces each reference map, up to root-preserving relabeling'
    for text, m in zip(PAIRED_TREES, FOUR_EDGE_MAPS):
        assert canonical_code(tree_to_map(parse_tree(text))) == canonical_code(m)


def test_parallel_bundle_two_faces():
    assert internal_2face_count(FOUR_EDGE_MAPS[0]) == 3
    assert internal_2face_count(tree_to_map(parse_tree("(1 (1))"))) == 1


def test_doubled_edge_map_is_two_face_free():
    m = DOUBLED_EDGE_NO_2FACE_MAP
    assert validate_map(m) == "ok"
    assert has_multiple_edges(m)
    assert all(len(f) != 2 for f in m.faces)
    witness = parse_tree("(2 (1) (1 (1 (1) (1))))")
    assert canonical_code(tree_to_map(witness)) == canonical_code(m)


def test_table_one_statistics():
    'edges = nodes, vertices = leaves + 1, faces = internal + 1, root face = root label + 1'
    for n in range(1, 7):
        for t in enumerate_trees(n):
            st = tree_stats(t)
            m = tree_to_map(t)
            assert m.n_darts == 2 * st.nodes
            assert len(m.vertices) == st.leaves + 1
            assert len(m.faces) == st.internal_nodes + 1
            assert len(m.faces[0]) == st.root_label + 1


def test_codes_distinct_per_size():
    for n in range(1, 7):
        codes = {canonical_code(tree_to_map(t)) for t in enumerate_trees(n)}
        assert len(codes) == len(enumerate_trees(n))


def test_worked_example_two_faces():
    big = parse_tree("(4 (2 (1 (1)) (1) (1)) (1) (1 (2 (1) (1))))")
    assert internal_2face_count(tree_to_map(big)) == 2


def test_format_parse_roundtrip():
    for t in enumerate_trees(5):
        m = tree_to_map(t)
        assert parse_map(format_map(m)) == m


def test_multiple_edges():
    digon = tree_to_map(parse_tree("(1 (1))"))
    assert has_multiple_edges(digon)
    four_cycle = tree_to_map(parse_tree("(3 (1) (1) (1))"))
    assert not has_multiple_edges(four_cycle)


def test_validate_rejects_bad_maps():
    'An invalid map cannot be made: the constructor raises with the first violation'
    bad = [
        ((3, (1, 0, 2), (0, 1, 2), 0), "n_darts 3 is not a positive even count"),
        # alpha with a fixed point
        ((2, (0, 1), (0, 1), 0), r"alpha not fixed-point-free \(dart 0\)"),
        # two disjoint digons: involution fine, not transitive
        (
            (8, (1, 0, 3, 2, 5, 4, 7, 6), (2, 3, 0, 1, 6, 7, 4, 5), 0),
            r"map not connected \(alpha,sigma not transitive on darts\)",
        ),
    ]
    for fields, message in bad:
        with pytest.raises(ValueError, match=f"^invalid map: {message}$"):
            CombinatorialMap(*fields)


@pytest.mark.parametrize(
    "fields,message",
    [
        pytest.param((3, (1, 0, 2), (0, 1, 2), 0), "n_darts 3 is not a positive even count", id="odd"),
        pytest.param((4, (1, 0), (0, 1, 2, 3), 0), "alpha is not a permutation of 0..3", id="short"),
        # alpha[-1] == alpha[1] == 0, so dart 0 alone would pass a check that
        # let a negative entry index from the end
        pytest.param((2, (-1, 0), (0, 1), 0), "alpha is not a permutation of 0..1", id="negative"),
        pytest.param((2, (1, 0), (0, 0), 0), "sigma is not a permutation of 0..1", id="sigma"),
        pytest.param((2, (1, 0), (0, 1), 2), "root dart 2 out of range", id="root-past-end"),
        pytest.param((2, (1, 0), (0, 1), -1), "root dart -1 out of range", id="root-negative"),
        pytest.param((2, (0, 1), (0, 1), 0), "alpha not fixed-point-free (dart 0)", id="fixed-point"),
        pytest.param(
            (4, (1, 2, 3, 0), (0, 1, 2, 3), 0), "alpha not an involution (dart 0)", id="4-cycle"
        ),
        pytest.param(
            (8, (1, 0, 3, 2, 5, 4, 7, 6), (2, 3, 0, 1, 6, 7, 4, 5), 0),
            "map not connected (alpha,sigma not transitive on darts)",
            id="two-digons",
        ),
        # one vertex, two edges crossing: a map on the torus
        pytest.param(
            (4, (1, 0, 3, 2), (2, 3, 1, 0), 0), "not planar: V-E+F = 1-2+1 = 0 != 2", id="torus"
        ),
        # two rules broken: the first in order wins
        pytest.param((2, (0, 1), (0, 1), 5), "root dart 5 out of range", id="root-and-fixed-point"),
        pytest.param(
            (4, (1, 0, 3, 3), (0, 1, 2, 2), 0), "alpha is not a permutation of 0..3", id="alpha-and-sigma"
        ),
        pytest.param(
            (4, (1, 0, 3, 2), (0, 1, 2, 2), 0), "sigma is not a permutation of 0..3", id="sigma-and-planarity"
        ),
    ],
)
def test_validate_messages_are_pinned(fields, message):
    'Each rule of validate_map has its message, and the first broken rule names it'
    with pytest.raises(ValueError) as err:
        CombinatorialMap(*fields)
    assert str(err.value) == f"invalid map: {message}"


def test_path_map_is_separable():
    # two edges joined at a middle vertex
    m = CombinatorialMap(4, (1, 0, 3, 2), (0, 2, 1, 3), 0)
    assert validate_map(m) == "ok"
    assert not is_nonseparable(m)


def test_nonseparability_matches_enumeration():
    for n in range(2, 7):
        for t in enumerate_trees(n):
            assert is_nonseparable(tree_to_map(t))


def test_map_predicates_match_oracles_on_every_small_map():
    """Every connected planar rotation system with <= 4 edges (alpha d ^ 1,
    any sigma): the facial-walk test and the multi-edge test agree with the
    vertex-deletion and edge-list oracles, and the vertex and face orbits
    (root first) with the oracles' own walks."""
    n_maps = n_nonseparable = 0
    for edges in range(1, 5):
        alpha = tuple(d ^ 1 for d in range(2 * edges))
        for sigma in permutations(range(2 * edges)):
            try:
                m = CombinatorialMap(2 * edges, alpha, sigma, 0)
            except ValueError:
                continue
            n_maps += 1
            nonseparable = _oracle_nonseparable(m)
            n_nonseparable += nonseparable
            assert is_nonseparable(m) == nonseparable, m
            assert has_multiple_edges(m) == _oracle_has_multiple_edges(m), m
            assert len(m.vertices) == max(_oracle_vertex_of(m)) + 1, m
            degrees, root_degree = _oracle_faces(m)
            assert sorted(map(len, m.faces)) == sorted(degrees), m
            assert m.root in m.faces[0] and m.root in m.vertices[0], m
            assert len(m.faces[0]) == root_degree, m
    assert (n_maps, n_nonseparable) == (18596, 307)
