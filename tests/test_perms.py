import itertools
import random
import tracemalloc
from functools import lru_cache

from mapscope.perms import (
    INS1,
    INS2,
    M,
    M_PRIME,
    MeshPattern,
    N,
    P3142,
    P2413_VINC,
    _require_member,
    avoids,
    components,
    direct_sum,
    flatten,
    format_perm,
    generate_av,
    in_class,
    insert_largest,
    is_primitive_perm,
    lr_maxima,
    occurrence_positions,
    occurrences,
    one_step_expansions,
    parse_perm,
    perm_to_tree,
    reduce_to_primitive,
    tree_to_perm,
)
from mapscope.trees import enumerate_trees, format_tree, parse_tree, validate_tree
from mapscope.verify import _has_2_41_3, _has_3142, brute_force_av, naive_mesh_occurrences

import pytest

AV_COUNTS = [1, 1, 2, 6, 22, 91, 408, 1938]

TREE_PERM_PAIRS = [
    ("(3 (1) (1) (1))", "1 2 3"),
    ("(2 (1) (1 (1)))", "1 3 2"),
    ("(2 (1 (1)) (1))", "2 1 3"),
    ("(1 (1 (1) (1)))", "3 1 2"),
    ("(2 (2 (1) (1)))", "2 3 1"),
    ("(1 (1 (1 (1))))", "3 2 1"),
]


def test_quoted_occurrence_facts():
    assert occurrence_positions(P3142, (4, 6, 2, 5, 3, 1)) == [(0, 2, 3, 4)]
    assert (0, 2, 3, 4) in occurrence_positions(P2413_VINC, (3, 6, 5, 2, 4, 1))
    assert occurrence_positions(M, (2, 5, 3, 1, 4)) == [(2, 3)]
    assert avoids((3, 2, 5, 4, 1), [P3142])
    assert avoids((2, 5, 3, 1, 6, 4), [P2413_VINC])


def test_occurrence_positions_are_lexicographic():
    pi = (2, 1, 4, 3, 6, 5)
    expected = [
        c
        for c in itertools.combinations(range(6), 3)
        if pi[c[0]] < pi[c[1]] < pi[c[2]]
    ]
    assert len(expected) == 8
    assert occurrence_positions((1, 2, 3), pi) == expected


def test_mesh_counts_small():
    assert occurrences(M, (2, 1)) == 1
    assert occurrences(M, (3, 2, 1)) == 2
    assert occurrences(M, (1, 3, 4, 2)) == 1
    assert occurrences(M_PRIME, (2, 1)) == 1
    assert occurrences(N, (1,)) == 1
    assert occurrences(N, (1, 2)) == 0


def test_in_class_counts():
    for n in range(len(AV_COUNTS)):
        assert len(generate_av(n)) == AV_COUNTS[n]
    for n in range(7):
        assert generate_av(n) == brute_force_av(n)


def test_in_class_matches_the_oracles():
    'The checked unfold agrees with the direct scans and the matcher on every pi, n <= 7'
    for n in range(8):
        for pi in itertools.permutations(range(1, n + 1)):
            member = in_class(pi)
            assert member == (not _has_3142(pi) and not _has_2_41_3(pi)), pi
            assert member == avoids(pi, (P3142, P2413_VINC)), pi


def test_in_class_matches_brute_force_at_length_8():
    members = set(brute_force_av(8))
    assert len(members) == 9614
    for pi in itertools.permutations(range(1, 9)):
        assert in_class(pi) == (pi in members), pi


def _rebuilt_unfold(pi):
    """_require_member's nodes or error message, certifying each level by
    rebuilding it with insert_largest."""
    if sorted(pi) != list(range(1, len(pi) + 1)):
        return f"not a permutation of 1..{len(pi)}: {pi!r}"
    nodes, todo = [], components(pi)[::-1]
    while todo:
        p = todo.pop()
        n = len(p)
        if n == 1:
            nodes.append((1, 0))
            continue
        r = p.index(n)
        a = max(k for k in range(r + 1) if min(p[r - k : r], default=n) == n - k)  # top values
        reduced = flatten(p[r - a : r]) + tuple(v + a for v in flatten(p[: r - a] + p[r + 1 :]))
        j = len(lr_maxima(reduced[: r + 1]))
        if insert_largest(reduced, j) != p:
            return f"not (3142,2-41-3)-avoiding: {format_perm(pi)}"
        parts = components(reduced)
        nodes.append((j, len(parts)))
        todo.extend(reversed(parts))
    return nodes


def test_cut_point_certificate_matches_the_rebuild():
    'The unfold certified by cut points agrees with rebuilding every level, n <= 8'
    for n in range(9):
        for pi in itertools.permutations(range(1, n + 1)):
            try:
                got = _require_member(pi)
            except ValueError as err:
                got = str(err)
            assert got == _rebuilt_unfold(pi), pi
            if not isinstance(got, str):  # a member's tree comes back marked valid, rightly
                t = perm_to_tree(pi)
                assert getattr(t, "_mark", None) == "ok" == validate_tree(t), pi


@pytest.mark.parametrize("pi", [(3, 1, 4, 2), (2, 4, 1, 3), (1, 4, 2, 5, 3), (5, 3, 1, 6, 4, 2)])
def test_perm_to_tree_rejects_non_members(pi):
    assert not in_class(pi)
    with pytest.raises(ValueError) as err:
        perm_to_tree(pi)
    assert str(err.value) == f"not (3142,2-41-3)-avoiding: {format_perm(pi)}"


def test_perm_to_tree_rejects_non_permutations():
    for word in [(1, 1), (2,), (0, 1)]:
        assert not in_class(word)
        with pytest.raises(ValueError) as err:
            perm_to_tree(word)
        assert str(err.value) == f"not a permutation of 1..{len(word)}: {word!r}"


def test_deep_member_unfolds():
    'The decreasing member of 1,000 letters is the path on 1,001 nodes, both ways'
    pi = tuple(range(1000, 0, -1))
    assert in_class(pi)
    path = perm_to_tree(pi)
    assert format_tree(path) == "(1 " * 1000 + "(1)" + ")" * 1000
    assert tree_to_perm(path) == pi


def test_bijection_goldens():
    for tree_text, perm_text in TREE_PERM_PAIRS:
        assert format_perm(tree_to_perm(parse_tree(tree_text))) == perm_text


def test_bijection_roundtrip():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert perm_to_tree(tree_to_perm(t)) == t


def test_lr_maxima_equals_root_label():
    assert lr_maxima((2, 5, 3, 1, 4)) == [1, 2]
    for n in range(2, 7):
        for t in enumerate_trees(n):
            assert len(lr_maxima(tree_to_perm(t))) == t.label


def test_insert_largest_chain():
    assert insert_largest((), 1) == (1,)
    assert insert_largest((1, 2), 2) == (2, 3, 1)
    assert insert_largest((2, 3, 1), 1) == (4, 2, 3, 1)
    assert insert_largest((4, 2, 3, 1), 1) == (5, 4, 2, 3, 1)


def test_insert_largest_rejects_bad_index():
    with pytest.raises(ValueError):
        insert_largest((1, 2), 3)


def test_reduction_worked_example():
    reduced = reduce_to_primitive((2, 5, 3, 1, 4))
    assert reduced == (1, 4, 2, 3)
    assert is_primitive_perm(reduced)
    assert in_class(reduced)


def test_reduction_terminates_m_free():
    for pi in generate_av(6):
        out = reduce_to_primitive(pi)
        assert occurrences(M, out) == 0
        assert in_class(out)


def test_reduction_confluence():
    'All removal orders end at the same primitive permutation'

    def removals(pi):
        out = set()
        for i, j in occurrence_positions(M, pi):
            out.add(flatten(pi[:j] + pi[j + 1 :]))
        return out

    @lru_cache(maxsize=None)
    def endpoints(pi):
        nxt = removals(pi)
        if not nxt:
            return frozenset([pi])
        acc = set()
        for q in nxt:
            acc |= endpoints(q)
        return frozenset(acc)

    for n in range(1, 8):
        for pi in generate_av(n):
            ends = endpoints(pi)
            assert len(ends) == 1
            assert next(iter(ends)) == reduce_to_primitive(pi)


def test_mesh_matcher_agrees_with_naive_on_length_3():
    'Random length-3 mesh patterns, past the exhaustive length <= 2 sweep'
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cells = st.tuples(st.integers(0, 3), st.integers(0, 3))
    hosts = st.integers(0, 8).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(tuple)
    )

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(
        st.permutations((1, 2, 3)).map(tuple), st.frozensets(cells), hosts
    )
    def agrees(base, shaded, pi):
        assert occurrences(MeshPattern(base, shaded), pi) == (
            naive_mesh_occurrences(base, shaded, pi)
        )

    agrees()


def test_mesh_matcher_agrees_with_naive_on_long_hosts():
    'Hosts of 31-70 letters, so the value bit-sets span several int digits'
    # Fully shaded outer columns (0 and k) stay shading, not adjacency.
    outer_left = MeshPattern((2, 1), frozenset({(0, 0), (0, 1), (0, 2)}))
    outer_right = MeshPattern((1, 2), frozenset({(2, 0), (2, 1), (2, 2), (1, 1)}))
    rng = random.Random(20120208)
    hosts = []
    for _ in range(6):
        pi = list(range(1, rng.randint(31, 70) + 1))
        rng.shuffle(pi)
        hosts.append(tuple(pi))
    hosts.append(tuple(range(40, 0, -1)))
    for pat in (M, M_PRIME, INS1, INS2, outer_left, outer_right):
        for pi in hosts:
            assert occurrences(pat, pi) == (
                naive_mesh_occurrences(pat.base, pat.shaded, pi)
            )


def test_class_patterns_agree_with_naive():
    'The two class patterns, one with an adjacency column, on every host <= 7'
    for p in (P3142, P2413_VINC):
        for n in range(8):
            for pi in itertools.permutations(range(1, n + 1)):
                assert occurrences(p, pi) == naive_mesh_occurrences(p.base, p.shaded, pi)


def test_m_count_on_a_long_host_is_linear_in_memory():
    'M on 2,000 letters: one adjacency and one shaded cell, not O(n^2) work'
    rng = random.Random(1202)
    pi = list(range(1, 2001))
    rng.shuffle(pi)
    pi = tuple(pi)
    tracemalloc.start()
    try:
        count = occurrences(M, pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    # An occurrence is a descent pi[i] pi[i+1] with no later letter
    # strictly between its two values.
    expected = sum(
        1
        for i in range(len(pi) - 1)
        if pi[i] > pi[i + 1]
        and not any(pi[i + 1] < v < pi[i] for v in pi[i + 2 :])
    )
    assert count == expected


def test_malformed_patterns_rejected():
    for pattern in (
        (1, 3),
        MeshPattern((2, 1), frozenset({(3, 0)})),
        # A fully shaded inner column plus a cell off the grid.
        MeshPattern((2, 1), frozenset({(1, 0), (1, 1), (1, 2), (1, 5)})),
    ):
        with pytest.raises(ValueError):
            occurrences(pattern, (2, 1))


def test_expansions_of_one():
    assert one_step_expansions((1,)) == [(2, 1)]


def test_expansions_stay_in_class_and_add_an_occurrence():
    for pi in generate_av(4):
        base = occurrences(M, pi)
        for sigma in one_step_expansions(pi):
            assert in_class(sigma)
            assert occurrences(M, sigma) >= base + 1


def test_ins_patterns_are_narrower_than_m():
    'Every INS1/INS2 occurrence is an M occurrence; 1342 shows the gap matters'
    for pi in generate_av(5):
        m_spots = set(occurrence_positions(M, pi))
        for pat in (INS1, INS2):
            assert set(occurrence_positions(pat, pi)) <= m_spots
    assert occurrence_positions(M, (1, 3, 4, 2)) == [(2, 3)]
    assert occurrence_positions(INS1, (1, 3, 4, 2)) == []
    assert occurrence_positions(INS2, (1, 3, 4, 2)) == []


def test_components_and_direct_sum():
    assert components((1, 3, 2, 4)) == [(1,), (2, 1), (1,)]
    assert direct_sum((1,), (2, 1)) == (1, 3, 2)


def test_flatten():
    assert flatten((4, 9, 2)) == (2, 3, 1)
    assert flatten(()) == ()


def test_parse_format_roundtrip():
    for pi in generate_av(5):
        assert parse_perm(format_perm(pi)) == pi
    assert parse_perm("e") == ()
    assert parse_perm("231") == (2, 3, 1)
    # any run of whitespace separates the letters
    assert parse_perm("1\t2") == (1, 2)
    assert parse_perm("1 2\t3") == (1, 2, 3)
    with pytest.raises(ValueError):
        parse_perm("1 1")
    # only runs of ASCII digits are integers
    for text in ("+1 2", "2 1_0 1 3 4 5 6 7 8 9", "\u0661\u0662"):
        with pytest.raises(ValueError, match="^malformed permutation: "):
            parse_perm(text)


def test_membership_guard():
    with pytest.raises(ValueError):
        reduce_to_primitive((3, 1, 4, 2))  # contains 3142
