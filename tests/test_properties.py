"""Property tests: the round trips on random trees beyond the exhaustive sweeps."""

import pytest

from mapscope.maps import format_map, parse_map, tree_to_map, validate_map
from mapscope.perms import (
    P2413_VINC,
    P3142,
    avoids,
    format_perm,
    in_class,
    parse_perm,
    perm_to_tree,
    tree_to_perm,
)
from mapscope.trees import LabeledTree, format_tree, leaf, node, parse_tree, postorder
from mapscope.verify import _oracle_nonseparable

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
settings = hypothesis.settings(max_examples=150, deadline=None, database=None)


@st.composite
def trees(draw, max_nodes=40):
    """A beta(1,0)-tree of 1..max_nodes nodes.

    Node i > 0 becomes the last child of a node drawn among 0..i-1 (every
    plane tree arises, in breadth-first numbering); labels are then drawn
    from the children upward: leaves 1, the root its children-sum, any other
    node 1..children-sum.
    """
    n = draw(st.integers(1, max_nodes))
    kids: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        kids[draw(st.integers(0, i - 1))].append(i)
    built: list = [None] * n
    for i in reversed(range(n)):
        children = tuple(built[k] for k in kids[i])
        total = sum(c.label for c in children)
        if not children:
            label = 1
        elif i == 0:
            label = total
        else:
            label = draw(st.integers(1, total))
        built[i] = LabeledTree(label, children)
    return built[0]


@settings
@hypothesis.given(trees())
def test_tree_perm_tree_roundtrip(t):
    'tree -> perm -> tree is the identity (compared as text)'
    assert format_tree(perm_to_tree(tree_to_perm(t))) == format_tree(t)


@settings
@hypothesis.given(trees())
def test_tree_text_roundtrip(t):
    'parse_tree inverts format_tree'
    text = format_tree(t)
    assert format_tree(parse_tree(text)) == text


@settings
@hypothesis.given(trees(max_nodes=10))
def test_tree_to_map_is_valid_and_nonseparable(t):
    'The oracles accept every constructed map'
    m = tree_to_map(t)
    assert validate_map(m) == "ok"
    assert _oracle_nonseparable(m)


def _face_walk_tree_to_map(t):
    """(alpha, sigma, root) of the map of t, as `tree_to_map` built it when it
    walked each internal node's whole new root face: an independent statement
    of the construction to hold the faster one to."""
    alpha: list[int] = []
    sigma: list[int] = []
    done = []  # (root dart, R corner, star corner) of each node awaiting its parent
    for s in postorder(t):
        u_dart, v_dart = len(alpha), len(alpha) + 1
        alpha += (v_dart, u_dart)
        sigma += (u_dart, v_dart)
        m = len(s.children)
        if m == 0:
            done.append((u_dart, (u_dart, u_dart), (v_dart, v_dart)))
            continue
        parts = done[-m:]
        del done[-m:]
        for (_, _, (p, q)), (_, (p2, q2), _) in zip(parts, parts[1:]):
            sigma[p], sigma[p2] = q2, q
        p, q = parts[-1][2]
        sigma[p], sigma[u_dart] = u_dart, q
        p, q = parts[0][1]
        sigma[p], sigma[v_dart] = v_dart, q
        walk = [u_dart]
        d = sigma[alpha[u_dart]]
        while d != u_dart:
            walk.append(d)
            d = sigma[alpha[d]]
        i = s.label
        done.append((u_dart, (alpha[walk[-1]], walk[0]), (alpha[walk[i - 1]], walk[i])))
    return tuple(alpha), tuple(sigma), done[0][0]


def _caterpillar(nodes):
    """The tree of `nodes` >= 2 nodes whose spine nodes each hold a leaf and
    the rest of the spine, every label the maximum: its face walks are long."""
    t = node(1, [leaf()])
    for _ in range((nodes - 2) // 2):
        t = node(t.label + 1, [leaf(), t])
    return t


def _same_map(t):
    m = tree_to_map(t)
    assert (m.alpha, m.sigma, m.root) == _face_walk_tree_to_map(t)


@settings
@hypothesis.given(trees(max_nodes=300))
def test_tree_to_map_agrees_with_the_whole_face_walk(t):
    'Walking to the star gives the map that walking the whole new root face gives'
    _same_map(t)


def test_tree_to_map_agrees_with_the_whole_face_walk_on_deep_trees():
    'The 1,000-node path and the 1,000-node caterpillar with maximum labels'
    path, caterpillar = parse_tree("(1" * 1000 + ")" * 1000), _caterpillar(1000)
    assert sum(1 for _ in postorder(caterpillar)) == 1000
    for t in (path, caterpillar):
        _same_map(t)


@settings
@hypothesis.given(trees())
def test_map_text_roundtrip(t):
    'parse_map inverts format_map'
    m = tree_to_map(t)
    assert parse_map(format_map(m)) == m


@settings
@hypothesis.given(st.integers(0, 40).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_perm_text_roundtrip(pi):
    'parse_perm inverts format_perm, on any permutation'
    pi = tuple(pi)
    assert parse_perm(format_perm(pi)) == pi


@settings
@hypothesis.given(trees(), trees(), st.booleans())
def test_tree_equality_is_text_equality(a, b, same):
    'a == b iff the two trees print alike, and equal trees hash alike'
    if same:
        b = parse_tree(format_tree(a))  # an equal tree built apart
    assert (a == b) == (format_tree(a) == format_tree(b))
    if a == b:
        assert hash(a) == hash(b)


@settings
@hypothesis.given(
    st.one_of(
        st.integers(0, 14).flatmap(lambda n: st.permutations(range(1, n + 1))),
        trees(max_nodes=15).map(tree_to_perm),
    )
)
def test_in_class_agrees_with_the_matcher(pi):
    'Membership by the checked unfold equals avoidance by the vincular matcher'
    pi = tuple(pi)
    assert in_class(pi) == avoids(pi, (P3142, P2413_VINC))
