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
from mapscope.trees import LabeledTree, format_tree, parse_tree
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
