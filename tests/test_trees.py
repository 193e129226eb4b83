import sys
from itertools import combinations

from mapscope.series import B1, B2, B3, primitive_maps_with_edges, series, tutte_count
from mapscope.trees import (
    LabeledTree,
    _SPACE,
    _require_valid,
    _subtrees_free_top,
    children_sum,
    count_trees,
    count_trees_by_size,
    enumerate_trees,
    format_tree,
    has_max_label,
    is_valid_tree,
    iter_subtrees,
    leaf,
    node,
    parse_filters,
    parse_tree,
    passes,
    select_trees,
    tree_stats,
    validate_tree,
)

import pytest

COUNTS_BY_NODES = [1, 1, 2, 6, 22, 91, 408, 1938]

FOUR_NODE_TREES = [
    "(3 (1) (1) (1))",
    "(2 (1) (1 (1)))",
    "(2 (1 (1)) (1))",
    "(1 (1 (1) (1)))",
    "(2 (2 (1) (1)))",
    "(1 (1 (1 (1))))",
]

# checked against face computations on the constructed maps
TWO_FACE_FREE_BY_NODES = {2: 0, 3: 1, 4: 1, 5: 6, 6: 19, 7: 78}

WORKED_TREE = "(4 (2 (1 (1)) (1) (1)) (1) (1 (2 (1) (1))))"


def test_counts():
    'Tree counts by node count match the frozen prefix'
    assert [count_trees(n) for n in range(1, 9)] == COUNTS_BY_NODES


def test_enumerate_four_nodes():
    assert [format_tree(t) for t in enumerate_trees(4)] == FOUR_NODE_TREES


def test_enumerate_rejects_empty():
    with pytest.raises(ValueError):
        enumerate_trees(0)


def test_all_enumerated_trees_are_valid():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert is_valid_tree(t)
            assert validate_tree(t) == "ok"


def test_root_label_is_children_sum():
    for n in range(2, 7):
        for t in enumerate_trees(n):
            assert t.label == children_sum(t)


def test_validate_rejects_bad_labels():
    bad_root = LabeledTree(2, (leaf(),))
    assert validate_tree(bad_root) != "ok"
    bad_leaf = LabeledTree(1, (LabeledTree(2, ()),))
    assert not is_valid_tree(bad_leaf)
    zero = node(0, [leaf(), leaf()])
    assert not is_valid_tree(zero)
    # True == 1, but a bool label hashes and prints unlike the int
    assert LabeledTree(True, ()) == leaf()
    assert validate_tree(LabeledTree(True, ())) == "root: label True is not a positive integer"
    assert not is_valid_tree(LabeledTree(2, (LabeledTree(True, ()), leaf())))


def test_validate_names_the_first_bad_node():
    'The first violation in preorder, addressed by its path; shared and deep subtrees too'
    assert validate_tree(parse_tree("(1 (1 (1) (2)))")) == "root.0.1: leaf label 2 != 1"
    assert validate_tree(parse_tree("(3 (1) (2 (1)))")) == "root.1: label 2 exceeds children sum 1"
    bad = LabeledTree(2, ())
    assert validate_tree(LabeledTree(5, (leaf(), bad, bad))) == "root.1: leaf label 2 != 1"
    deep = parse_tree("(1" * 2999 + "(2)" + ")" * 2999)
    assert validate_tree(deep) == "root" + ".0" * 2999 + ": leaf label 2 != 1"


def test_parse_format_roundtrip():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert parse_tree(format_tree(t)) == t


def test_parse_errors_carry_position():
    for text in ("", "(1", "(1 (1) ", "1)", "(x)", "(\u0662 (\u0661) (\u0661))"):
        with pytest.raises(ValueError):
            parse_tree(text)
    with pytest.raises(ValueError, match="^parse error at position 1: expected integer label$"):
        parse_tree("(\u00b2)")


# Parse diagnostics, exactly: the position counts characters of the text.
PARSE_DIAGNOSTICS = [  # (text, position, expected)
    ("", 0, "'('"),
    (")", 0, "'('"),
    (" \t\n", 3, "'('"),
    ("(", 1, "integer label"),
    ("()", 1, "integer label"),
    ("((1))", 1, "integer label"),
    ("(x)", 1, "integer label"),
    ("(\u00b2)", 1, "integer label"),
    ("(\u0662 (\u0661) (\u0661))", 1, "integer label"),
    ("(1", 2, "')'"),
    ("(1x)", 2, "')'"),
    ("(1\u00b2)", 2, "')'"),
    ("( 1 2)", 4, "')'"),
    ("(12x3)", 3, "')'"),
    ("(1 (1) ", 7, "')'"),
    ("(1) x", 4, "end of input"),
    ("(1)(1)", 3, "end of input"),
    ("(1))", 3, "end of input"),
]


@pytest.mark.parametrize("text,position,expected", PARSE_DIAGNOSTICS)
def test_parse_diagnostics_are_pinned(text, position, expected):
    with pytest.raises(ValueError) as err:
        parse_tree(text)
    assert str(err.value) == f"parse error at position {position}: expected {expected}"


def test_parse_skips_outer_whitespace():
    t = parse_tree(" (2 (1) (1))\t")
    assert format_tree(t) == "(2 (1) (1))"
    assert t._problem == "ok"


def test_parse_marks_only_valid_trees():
    'A tree that breaks a rule comes back unmarked; the guard then walks it and names the node'
    good, bad = parse_tree("(3 (1) (2 (1) (1)))"), parse_tree("(3 (1) (2 (1 (1))))")
    assert getattr(good, "_mark", None) == "ok"  # read from the slot, never computed here
    assert not hasattr(bad, "_mark")
    with pytest.raises(ValueError, match=r"^invalid tree: root.1: label 2 exceeds children sum 1$"):
        _require_valid(bad)
    assert bad._problem == validate_tree(bad)


def test_memo_agrees_with_a_fresh_walk():
    'On parsed texts with perturbed labels the guard raises exactly when validate_tree fails'
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def tree_texts(draw):
        n = draw(st.integers(1, 12))
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
                label = draw(st.integers(1, max(total, 1)))
            if draw(st.integers(0, 3)) == 0:  # 0, 2 on a leaf, too large, a root off its sum
                label = draw(st.sampled_from([0, 2, total + 1, max(total - 1, 0)]))
            built[i] = LabeledTree(label, children)
        return format_tree(built[0])

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(tree_texts())
    def agrees(text):
        t = parse_tree(text)
        fresh = validate_tree(t)
        if fresh == "ok":
            _require_valid(t)
        else:
            with pytest.raises(ValueError) as err:
                _require_valid(t)
            assert str(err.value) == f"invalid tree: {fresh}"
        assert t._problem == fresh == validate_tree(t)

    agrees()


def test_frozen_tree_rejects_assignment():
    from dataclasses import FrozenInstanceError

    t = LabeledTree(label=2, children=(leaf(), leaf()))
    with pytest.raises(FrozenInstanceError):
        t.label = 3
    assert format_tree(t) == "(2 (1) (1))"


def test_tree_is_slotted_and_frozen():
    'A node has no __dict__; its label, children and mark are read-only; keywords build it'
    import copy
    import pickle
    from dataclasses import FrozenInstanceError

    t = LabeledTree(label=2, children=(leaf(), leaf()))
    assert not hasattr(t, "__dict__")
    for name in ("label", "children", "_mark"):
        with pytest.raises(FrozenInstanceError):
            setattr(t, name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(t, name)
    assert not hasattr(t, "_mark")  # the failed writes left no mark
    assert (t.label, format_tree(t)) == (2, "(2 (1) (1))")
    assert copy.copy(t) == copy.deepcopy(t) == pickle.loads(pickle.dumps(t)) == t


def test_parser_space_is_what_split_splits_on():
    'The parser strips exactly the characters str.split() splits on'
    assert _SPACE == "".join(filter(str.isspace, map(chr, range(sys.maxunicode + 1))))


def test_stats_single_node():
    st = tree_stats(leaf())
    assert st.nodes == 1
    assert st.leaves == 1
    assert st.single_child_max_nodes == 0
    assert st.decomposable is False


def test_stats_chain():
    'Each node of a label-1 chain below the root is a single child with max label'
    st = tree_stats(parse_tree("(1 (1 (1 (1))))"))
    assert st.single_child_max_nodes == 3
    assert st.root_label == 1


def test_stats_worked_example():
    st = tree_stats(parse_tree(WORKED_TREE))
    assert st.nodes == 11
    assert st.leaves == 6
    assert st.internal_nodes == 5
    assert st.root_label == 4
    assert st.single_child_max_nodes == 2
    assert st.decomposable is True


def test_primitive_matches_stat():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert passes(t, ["primitive"]) == (tree_stats(t).single_child_max_nodes == 0)
    assert passes(parse_tree("(1 (1 (1) (1)))"), ["primitive"])
    assert not passes(parse_tree(WORKED_TREE), ["primitive"])


def test_two_face_free_counts():
    for n, expected in TWO_FACE_FREE_BY_NODES.items():
        assert sum(1 for t in enumerate_trees(n) if passes(t, ["k-face-free=2"])) == expected


def test_k_face_free_guards():
    with pytest.raises(ValueError):
        passes(leaf(), ["k-face-free=5"])
    with pytest.raises(ValueError):
        passes(leaf(), ["k-face-free=1"])


def test_four_cycle_tree_is_two_face_free():
    assert passes(parse_tree("(3 (1) (1) (1))"), ["k-face-free=2"])
    assert not passes(parse_tree("(1 (1))"), ["k-face-free=2"])


def test_mef_necessary():
    'Necessary conditions for multiple-edge-freeness; not sufficient'
    assert passes(parse_tree("(2 (1) (1))"), ["mef-necessary"])
    assert not passes(parse_tree("(1 (1))"), ["mef-necessary"])
    # the doubled-edge six-node witness is caught: its 1-labeled node has
    # a single child labeled 1
    assert not passes(parse_tree("(2 (1) (1 (1 (1) (1))))"), ["mef-necessary"])
    # not sufficient: this tree passes but its map has a multiple edge
    assert passes(parse_tree("(2 (2 (1) (2 (1) (1))))"), ["mef-necessary"])


def test_restricted_enumeration_counts():
    'Label caps plus the every-node-has-a-sibling rule'
    b1 = [1, 0, 1, 1, 3, 6, 15, 36]
    b2 = [1, 0, 1, 1, 5, 11, 39, 113]
    b3 = [1, 0, 1, 1, 5, 13, 48, 160]
    for m in range(1, 9):
        assert len(enumerate_trees(m, ["labels-max=1", "no-only-children"])) == b1[m - 1]
        assert len(enumerate_trees(m, ["labels-max=2", "no-only-children"])) == b2[m - 1]
        assert len(enumerate_trees(m, ["labels-max=3", "no-only-children"])) == b3[m - 1]


def test_restricted_trees_respect_their_predicates():
    for t in enumerate_trees(6, ["labels-max=2", "no-only-children"]):
        assert passes(t, ["no-only-children"])
        assert all(s.label <= 2 for s in iter_subtrees(t) if s is not t)


def test_pruned_enumeration_equals_filtered():
    'A label cap and the no-only-children rule prune to the filtered listing, in order'
    for n in range(1, 9):
        full = enumerate_trees(n)
        for cap in range(1, 5):
            for forbid in (False, True):
                expected = [
                    t
                    for t in full
                    if all(s.label <= cap for c in t.children for s in iter_subtrees(c))
                    and (not forbid or passes(t, ["no-only-children"]))
                ]
                specs = [f"labels-max={cap}"] + ["no-only-children"] * forbid
                assert enumerate_trees(n, specs) == expected
        assert enumerate_trees(n, ["no-only-children"]) == [
            t for t in full if passes(t, ["no-only-children"])
        ]


def test_enumerate_rejects_bad_cap():
    with pytest.raises(ValueError):
        enumerate_trees(3, ["labels-max=0"])


def test_has_max_label_convention():
    assert has_max_label(leaf())
    assert has_max_label(parse_tree("(2 (1) (1))"))
    inner = parse_tree("(3 (1) (2 (1) (1)))").children[1]
    assert has_max_label(inner)


# The comparison side of the counting DP: each rule tested alone on a whole
# tree, and a label cap read straight off the non-root nodes.
RULE_SPECS = ["primitive", "two-face-free", "k-face-free=2", "k-face-free=3",
              "k-face-free=4", "mef-necessary", "no-only-children"]
FILTER_PREDICATES = {
    **{spec: lambda t, spec=spec: passes(t, [spec]) for spec in RULE_SPECS},
    **{
        f"labels-max={cap}": lambda t, cap=cap: all(
            s.label <= cap for c in t.children for s in iter_subtrees(c)
        )
        for cap in range(1, 5)
    },
}
CAPS = [f"labels-max={cap}" for cap in range(1, 5)]
FILTER_SETS = (
    [()]
    + [(spec,) for spec in FILTER_PREDICATES]
    + list(combinations(FILTER_PREDICATES, 2))
    + [("labels-max=3", "labels-max=1", "labels-max=2"), ("labels-max=2", "labels-max=2")]
    + [(cap, "no-only-children") for cap in CAPS]
)


def test_count_dp_equals_filtered_enumeration():
    'Every filter, every pair, repeated caps: the DP counts what filtering the listing keeps'
    for n in range(1, 9):
        full = enumerate_trees(n)
        passed = {spec: [pred(t) for t in full] for spec, pred in FILTER_PREDICATES.items()}
        for specs in FILTER_SETS:
            kept = [t for i, t in enumerate(full) if all(passed[s][i] for s in specs)]
            assert count_trees(n, specs) == len(kept), (n, specs)
            assert list(select_trees(n, specs)) == kept, (n, specs)
            assert [t for t in full if passes(t, specs)] == kept, (n, specs)
    with pytest.raises(ValueError, match="^invalid tree: "):
        passes(LabeledTree(2, (leaf(),)))


def test_every_single_filter_lists_what_it_counts():
    'At 10 nodes the pruned listing of every single filter holds as many trees as the DP counts'
    for spec in FILTER_PREDICATES:
        assert sum(1 for _ in select_trees(10, [spec])) == count_trees(10, [spec]), spec


def test_filtered_enumeration_yields_valid_trees():
    'Every root select_trees marks valid walks as "ok", under each single filter'
    for spec in FILTER_PREDICATES:
        for n in range(1, 8):
            for t in select_trees(n, [spec]):
                assert t._problem == "ok"
                assert validate_tree(t) == "ok", (spec, format_tree(t))


def test_filter_specs_in_any_order_share_one_cache():
    'One filter set lists the same trees from one subtree cache, whatever the order or repeats of its specs'
    _subtrees_free_top.cache_clear()
    first = enumerate_trees(9, ["primitive", "no-only-children"])
    size = _subtrees_free_top.cache_info().currsize
    assert size > 0
    for specs in (["no-only-children", "primitive"], ["primitive", "no-only-children", "primitive"]):
        assert enumerate_trees(9, specs) == first
        assert _subtrees_free_top.cache_info().currsize == size


def test_count_dp_primitive_matches_binomial_transform():
    'Primitive trees with n nodes are the primitive maps with n edges, n <= 100'
    counts = count_trees_by_size(100, ["primitive"])
    assert counts == [primitive_maps_with_edges(n) for n in range(1, 101)]
    assert count_trees(30, ["primitive"]) == counts[29]


def test_count_dp_reproduces_bound_series():
    'Label caps 1, 2, 3 with no only children give B1, B2, B3 to order 100'
    for name, cap in ((B1, 1), (B2, 2), (B3, 3)):
        ser = series(name, 100)
        counts = count_trees_by_size(100, [f"labels-max={cap}", "no-only-children"])
        assert counts == [ser[m] for m in range(1, 101)], name


def test_count_dp_reproduces_tutte_counts():
    'With no filter, trees with n nodes are the maps with n + 1 edges, n <= 100'
    assert count_trees_by_size(100) == [1] + [tutte_count(n) for n in range(1, 100)]


def _list_dp(nodes, filters=()):
    """The counting DP with every count by label sum held in a list and
    convolved in Python loops: the reference for the packed DP."""
    cap, rules = parse_filters(filters)
    m_cap = max((r.m_cap for r in rules), default=0)
    d_cap = max((r.d_cap for r in rules), default=0)
    cap, s_cap = (nodes, nodes) if cap is None else (cap, max(cap + d_cap, 4))
    subtrees, forests = [{}, {0: [0, 1]}], [{(0, 0): [1]}]
    counts = [int(all(r.bad_root != 1 for r in rules))]
    for n in range(1, nodes):
        forest: dict = {}
        for k in range(1, n + 1):
            for (m, d), before in forests[n - k].items():
                m1 = min(m + 1, m_cap)
                for e, last in subtrees[k].items():
                    key = (m1, 0 if m1 == m_cap else min(d + e, d_cap))
                    out = forest.setdefault(key, [0] * (min(n, s_cap) + 1))
                    for i, a in enumerate(before):
                        if a:
                            for j, b in enumerate(last, i):
                                out[min(j, s_cap)] += a * b
        forests.append(forest)
        below, root_count = {}, 0
        for (m, d), by_sum in forest.items():
            for s, a in enumerate(by_sum):
                if a and all(r.node(m, d, s) for r in rules):
                    root_count += a if all(r.bad_root != s for r in rules) else 0
                    for label in range(1, min(s, cap) + 1):
                        below.setdefault(min(s - label, d_cap), [0] * (min(n, cap) + 1))[label] += a
        subtrees.append(below)
        counts.append(root_count)
    return counts


def test_packed_dp_matches_the_list_dp():
    'Every filter set, every size to 20: the packed DP counts what the list DP counts'
    for specs in FILTER_SETS:
        reference = _list_dp(20, specs)
        for n in range(1, 21):
            assert count_trees_by_size(n, specs) == reference[:n], (n, specs)


def test_packed_dp_matches_the_list_dp_at_40():
    'Each single filter at 40 nodes, where the counts pass 2**64 and the label caps fold'
    for spec in FILTER_PREDICATES:
        assert count_trees_by_size(40, [spec]) == _list_dp(40, [spec]), spec


def test_packed_dp_matches_the_list_dp_on_random_filter_sets():
    'Up to three specs, caps included, at up to 25 nodes'
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(
        st.lists(st.sampled_from(sorted(FILTER_PREDICATES)), max_size=3), st.integers(1, 25)
    )
    def agrees(specs, nodes):
        assert count_trees_by_size(nodes, specs) == _list_dp(nodes, specs)

    agrees()


def test_count_dp_rejects_bad_input():
    with pytest.raises(ValueError):
        count_trees(0)
    for spec in ("nope", "labels-max=0", "labels-max=x", "k-face-free=5"):
        with pytest.raises(ValueError):
            count_trees(3, [spec])


def test_deep_trees_compare_and_hash():
    'Equality and hashing walk the tree, so 3,000-level paths need no recursion'
    deep = "(1" * 3000 + ")" * 3000
    a, b = parse_tree(deep), parse_tree(deep)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    other = parse_tree("(1" * 2999 + "(2)" + ")" * 2999)
    assert a != other
    assert len({a, b, other}) == 2
