"""Permutations, pattern matching, and the tree <-> permutation bijection.

Permutations are tuples of the integers 1..n in one-line notation; the empty
tuple is the empty permutation.  Every pattern is a mesh pattern
`MeshPattern(base, shaded)` (Branden and Claesson 2011): a shaded cell
(column, row) forbids any letter of the host from that region around the
occurrence, column/row 0 being left of/below it.  Classical and vincular
patterns are mesh patterns: 3142 shades no cell (a bare base tuple is read
so), and 2-41-3 shades all of column 2, an adjacency.

One matcher serves them all.  Candidates grow left to right, depth-first,
and each new letter is checked against its neighbours by rank in the base's
argsort, so no subset is ever sorted.  Shaded cells take one of two forms.
A fully shaded inner column only says that its two letters are adjacent, so
it is matched as an adjacency; when it is the last letter's, a whole level
of prefixes is extended in one sweep.  The other cells are merged into
rectangles, each tested on prefix bit-sets of the host's values (n + 1
ints, built once per call).  `avoids` stops at the first occurrence, and
`occurrences` counts without listing them.

The class Av(3142, 2-41-3) is in bijection with beta(1,0)-trees: a tree on
n+1 nodes corresponds to a permutation of length n (the single-node tree to
the empty permutation).  Decomposable trees map to direct sums; an
indecomposable tree with root label a maps to the insertion of a new largest
letter before the a-th left-to-right maximum, rearranged as in
`insert_largest`.  Membership (`in_class`) is the bijection's checked
unfold, not the matcher: a permutation is a member exactly when
`insert_largest` would rebuild each level.  The unfold keeps pi's own
values, each part a word and the base its letters sit above, so each level
is certified and cut into its children by two scans of its letters, with no
relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .trees import LabeledTree, _require_valid, _valid_root, postorder

__all__ = [
    "Permutation",
    "MeshPattern",
    "M",
    "M_PRIME",
    "N",
    "INS1",
    "INS2",
    "P3142",
    "P2413_VINC",
    "flatten",
    "lr_maxima",
    "components",
    "direct_sum",
    "occurrences",
    "occurrence_positions",
    "avoids",
    "in_class",
    "generate_av",
    "insert_largest",
    "tree_to_perm",
    "perm_to_tree",
    "is_primitive_perm",
    "reduce_to_primitive",
    "one_step_expansions",
    "parse_perm",
    "format_perm",
]

Permutation = tuple[int, ...]


@dataclass(frozen=True)
class MeshPattern:
    base: Permutation
    shaded: frozenset[tuple[int, int]]


# Built-in patterns.  Cells are (column, row) with 0 = leftmost / bottom.
M = MeshPattern((2, 1), frozenset({(1, 0), (1, 1), (1, 2), (2, 1)}))
M_PRIME = MeshPattern((2, 1), M.shaded | {(0, 2), (2, 2)})
N = MeshPattern((1,), frozenset({(0, 0), (0, 1), (1, 1)}))
INS1 = MeshPattern((2, 1), frozenset({(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)}))
INS2 = MeshPattern((2, 1), frozenset({(0, 0), (1, 0), (1, 1), (1, 2), (2, 1)}))
P3142 = MeshPattern((3, 1, 4, 2), frozenset())
P2413_VINC = MeshPattern((2, 4, 1, 3), frozenset((2, row) for row in range(5)))


def flatten(word) -> Permutation:
    """Order-isomorphic relabeling onto 1..k, e.g. (5, 2, 7) -> (2, 1, 3)."""
    order = sorted(word)
    rank = {v: i + 1 for i, v in enumerate(order)}
    return tuple(rank[v] for v in word)


def lr_maxima(pi: Permutation) -> list[int]:
    """Positions (1-based) of the left-to-right maxima.

    >>> lr_maxima((2, 5, 3, 1, 4))
    [1, 2]
    """
    out = []
    best = 0
    for i, v in enumerate(pi, start=1):
        if v > best:
            best = v
            out.append(i)
    return out


def components(pi: Permutation) -> list[Permutation]:
    """Split into indecomposable components of the direct sum, flattened."""
    return [_shift(w, -b) for w, b, _ in _parts(tuple(pi), 0)]


def _shift(word: Permutation, k: int) -> Permutation:
    return tuple(v + k for v in word) if k else tuple(word)


def direct_sum(*parts: Permutation) -> Permutation:
    return tuple(_sum_into([], parts))


def _sum_into(w: list[int], parts) -> list[int]:
    """Append the direct sum of parts to w, a word holding 1..len(w)."""
    for p in parts:
        k = len(w)
        w += [v + k for v in p] if k else p
    return w


# ---------------------------------------------------------------------------
# Pattern matching
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _plan(pattern: MeshPattern) -> tuple[tuple, tuple]:
    """(steps, rects): what the matcher needs to know of a pattern.

    steps[i] = (lo, hi, adjacent) for the i-th letter of the base.  Among
    the base's first i letters, lo is the index of the one just below it in
    value and hi of the one just above (-1: none), both read off the base's
    argsort; adjacent says the letter must sit right after the previous one.
    Once every cell is validated, that holds for each fully shaded inner
    column, a vincular pattern's adjacency: no letter may fall between its
    two letters.  The outer columns 0 and k stay shading.

    rects merges each column's remaining vertically contiguous shaded cells
    into one rectangle (xa, xb, ya, yb) of indices into a candidate padded
    as e = (*positions, n, -1): it spans the columns strictly between
    e[xa] and e[xb] and the values strictly between pi[e[ya]] and
    pi[e[yb]], where pi is padded as (*pi, n + 1, 0) so that the
    sentinels read as the grid's edges.
    """
    base = tuple(pattern.base)
    k = len(base)
    if sorted(base) != list(range(1, k + 1)):
        raise ValueError(f"pattern base is not a permutation: {base!r}")
    adjacent = set()
    shaded = set(pattern.shaded)
    for a, b in shaded:
        if not (0 <= a <= k and 0 <= b <= k):
            raise ValueError(
                f"shaded cell {(a, b)} outside the {k + 1}x{k + 1} grid"
            )
    for a in range(1, k):  # a fully shaded inner column: an adjacency
        column = {(a, b) for b in range(k + 1)}
        if column <= shaded:
            adjacent.add(a)
            shaded -= column
    order = sorted(range(k), key=base.__getitem__)
    steps = []
    for i, v in enumerate(base):
        below = [j for j in order[: v - 1] if j < i]
        above = [j for j in order[v:] if j < i]
        lo = below[-1] if below else -1
        hi = above[0] if above else -1
        steps.append((lo, hi, i in adjacent))
    runs: list[list[int]] = []  # [column, first row, last row]
    for a, b in sorted(shaded):
        if runs and runs[-1][0] == a and runs[-1][2] == b - 1:
            runs[-1][2] = b
        else:
            runs.append([a, b, b])
    rects = tuple(
        (a - 1, a, order[b0 - 1] if b0 else -1, order[b1] if b1 < k else k)
        for a, b0, b1 in runs
    )
    return tuple(steps), rects


def _extend(p: tuple[int, ...], step, pi: Permutation, k: int) -> list:
    """The tuples p + (j,) that stay order-isomorphic to a prefix of the base.

    step is the next letter's entry of _plan's steps: the new value must lie
    between those at the nearest positions by rank, with no sorting.
    """
    n = len(pi)
    lo_i, hi_i, adjacent = step
    lo = pi[p[lo_i]] if lo_i >= 0 else 0
    hi = pi[p[hi_i]] if hi_i >= 0 else n + 1
    start = p[-1] + 1 if p else 0
    stop = n - k + len(p) + 1
    end = min(start + 1, stop) if adjacent else stop
    return [p + (j,) for j in range(start, end) if lo < pi[j] < hi]


def _candidate_blocks(steps, pi: Permutation):
    """Yield the candidates order-isomorphic to the base, lexicographically,
    in non-empty lists.

    Candidates grow left to right, one letter at a time (_extend).  The
    search is depth-first, so it holds the siblings of one prefix at a time
    rather than every partial candidate.  When the last letter must be
    adjacent, each prefix has at most one extension, so a whole level of
    siblings is extended in one sweep into one list of at most n candidates.
    """
    k = len(steps)
    n = len(pi)
    lo_i, hi_i, adjacent = last = steps[-1]
    stack = [()]
    while stack:
        p = stack.pop()
        if len(p) < k - 1:
            grown = _extend(p, steps[len(p)], pi, k)
            if len(p) < k - 2:
                stack += reversed(grown)
                continue
        else:  # k == 1: the empty prefix is the only one
            grown = [p]
        if adjacent:
            block = [
                (*q, j)
                for q in grown
                if (j := q[-1] + 1) < n
                and (lo_i < 0 or pi[q[lo_i]] < pi[j])
                and (hi_i < 0 or pi[j] < pi[q[hi_i]])
            ]
            if block:
                yield block
            continue
        for q in grown:
            block = _extend(q, last, pi, k)
            if block:
                yield block


def _unshaded(blocks, rects, pi: Permutation):
    """Yield the candidates of blocks whose shaded rectangles hold no letter.

    Every rectangle is tested on prefix bit-sets of pi, built once per call
    in O(n): sets[x] has bit v set for each value v among pi[:x], so
    sets[x1] ^ sets[x0] holds the values at positions x0..x1-1, and its
    bits strictly between lo and hi are the letters in the rectangle.
    """
    n = len(pi)
    pix = (*pi, n + 1, 0)
    sets = [0]
    for v in pi:
        sets.append(sets[-1] | 1 << v)
    for block in blocks:
        kept = []
        for c in block:
            e = (*c, n, -1)
            for xa, xb, ya, yb in rects:
                lo, hi = pix[e[ya]], pix[e[yb]]
                found = (sets[e[xb]] ^ sets[e[xa] + 1]) >> (lo + 1)
                if found & ((1 << (hi - lo - 1)) - 1):
                    break
            else:
                kept.append(c)
        if kept:
            yield kept


def _occurrence_blocks(pattern, pi: Permutation):
    """Iterator over the occurrences, lexicographically, in non-empty lists."""
    if not isinstance(pattern, MeshPattern):  # a bare base: a classical pattern
        pattern = MeshPattern(tuple(pattern), frozenset())
    steps, rects = _plan(pattern)
    # The empty base has one candidate, (); its shading still applies.
    blocks = _candidate_blocks(steps, pi) if steps else iter([[()]])
    return _unshaded(blocks, rects, pi) if rects else blocks


def occurrence_positions(pattern, pi: Permutation) -> list[tuple[int, ...]]:
    """All occurrences as tuples of 0-based positions, lexicographically."""
    return [occ for block in _occurrence_blocks(pattern, pi) for occ in block]


def occurrences(pattern, pi: Permutation) -> int:
    """Number of occurrences of a pattern (a bare base tuple is classical)."""
    return sum(map(len, _occurrence_blocks(pattern, pi)))


def avoids(pi: Permutation, patterns) -> bool:
    """Whether pi has no occurrence of any of the patterns; stops at the first."""
    return not any(next(_occurrence_blocks(p, pi), None) for p in patterns)


# ---------------------------------------------------------------------------
# Structural generation of Av(3142, 2-41-3)
# ---------------------------------------------------------------------------


def insert_largest(pi: Permutation, which_lr_max: int) -> Permutation:
    """Insert n+1 before the given left-to-right maximum and rearrange.

    >>> insert_largest((1, 2), 2)
    (2, 3, 1)
    >>> insert_largest((2, 3, 1), 1)
    (4, 2, 3, 1)

    Writing the inserted word as A + (B, n+1, C) where A collects all
    direct-sum components except the last, the result is B~ A~ (n+1) C~ --
    same positions block-wise, with the letters of B and C keeping their
    mutual order at the bottom and every letter of A lifted above them.
    The result is an indecomposable member of the class.
    """
    n = len(pi)
    if n == 0:
        if which_lr_max != 1:
            raise ValueError("the empty permutation admits only insertion index 1")
        return (1,)
    # One scan up to the chosen LR-max, at 0-based position q.  A is pi[:a],
    # the components of pi that end before q; the last component of the
    # inserted word is B (n+1) C with B = pi[a:q] and C = pi[q:].
    a = best = count = 0
    for q, v in enumerate(pi):
        if v > best:
            best = v
            count += 1
            if count == which_lr_max:
                break
        if best == q + 1:
            a = q + 1
    else:
        raise ValueError(f"which_lr_max {which_lr_max} out of range 1..{count}")
    return _shift(pi[a:q], -a) + _shift(pi[:a], n - a) + (n + 1,) + _shift(pi[q:], -a)


def generate_av(n: int) -> list[Permutation]:
    """All members of Av(3142, 2-41-3) of length n, sorted lexicographically.

    Built structurally: members are direct sums of indecomposable members,
    and each indecomposable member of length m is insert_largest applied to
    a member of length m-1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    av: list[list[Permutation]] = [[()]]
    indec: list[list[Permutation]] = [[]]
    for m in range(1, n + 1):
        new_indec = set()
        for pi in av[m - 1]:
            t = max(1, len(lr_maxima(pi)))
            for j in range(1, t + 1):
                new_indec.add(insert_largest(pi, j))
        indec.append(sorted(new_indec))
        members = set()
        for first_len in range(1, m + 1):
            for head in indec[first_len]:
                for tail in av[m - first_len]:
                    members.add(direct_sum(head, tail))
        av.append(sorted(members))
    return av[n]


# ---------------------------------------------------------------------------
# Bijection with beta(1,0)-trees
# ---------------------------------------------------------------------------


def tree_to_perm(t: LabeledTree) -> Permutation:
    """Tree on n+1 nodes -> class member of length n (single node -> empty)."""
    _require_valid(t)
    return _ttp(t)


def _ttp(t: LabeledTree) -> Permutation:
    """Writing H(c) for a non-root node c: H(leaf) = (1,), and otherwise
    H(c) = insert_largest(the direct sum of H over c's children, c.label).
    The permutation of t is the direct sum of H over the root's children.

    Each H is a list, and a direct sum appends to its first part.  The
    insertion is insert_largest's, on a valid label: when no component ends
    before the chosen LR-max (a = 0) no letter moves in value, and the new
    largest letter is inserted in place."""
    done: list[list[int]] = []  # H of the nodes whose parent is not yet reached
    for s in postorder(t)[:-1]:
        m = len(s.children)
        if m == 0:
            done.append([1])
            continue
        w = done[-m]
        if m > 1:
            _sum_into(w, done[1 - m :])
            del done[1 - m :]
        n = len(w)
        a = best = count = 0
        for i, v in enumerate(w, 1):
            if v > best:
                best = v
                count += 1
                if count == s.label:
                    break
            if best == i:
                a = i
        q = i - 1  # the chosen LR-max's 0-based position
        if a:  # B~ A~ (n+1) C~: A = w[:a] lifted above B = w[a:q] and C = w[q:]
            head = [v + n - a for v in w[:a]]
            w = [v - a for v in w[a:]]
            w[q - a : q - a] = [*head, n + 1]
        else:  # no letter moves in value
            w.insert(q, n + 1)
        done[-1] = w
    return tuple(_sum_into([], done))


def in_class(pi: Permutation) -> bool:
    """Membership in Av(3142, 2-41-3), by the checked unfold of _require_member."""
    try:
        _require_member(pi)
    except ValueError:
        return False
    return True


def perm_to_tree(pi: Permutation) -> LabeledTree:
    """Inverse of tree_to_perm; the checked unfold raises ValueError for non-members."""
    # Fold in reverse preorder: a node's children are then the top entries,
    # leftmost child on top.
    built: list[LabeledTree] = []
    for label, m in reversed(_require_member(pi)):
        kids = built[len(built) - m :]
        del built[len(built) - m :]
        built.append(LabeledTree(label, tuple(reversed(kids))))
    kids = tuple(reversed(built))
    # Certified by _require_member: marked valid, so no later guard walks it.
    return _valid_root(max(1, sum(c.label for c in kids)), kids)  # e maps to (1)


def _require_member(pi: Permutation) -> list[tuple[int, int]]:
    """(label, number of children) of each non-root node of pi's tree, in
    preorder, unfolding _ttp's H: the root's children come from the
    components of pi; an indecomposable p != (1,) gives a node labeled with
    the insertion index j of p's largest letter, whose children come from
    the word p unfolds to.  Raises ValueError unless pi is a permutation in
    the class: the unfold stops at the first level insert_largest would not
    rebuild, as certified by cut points without the rebuild (see below).

    Every word keeps pi's own values: a part is a word p and its base b, p
    holding b+1 .. b+len(p), so no level relabels a letter."""
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise ValueError(f"not a permutation of 1..{len(pi)}: {_echo(repr(pi))}")
    nodes: list[tuple[int, int]] = []
    todo = _parts(tuple(pi), 0)[::-1]  # parts still to unfold, leftmost last
    while todo:
        p, b, j = todo.pop()
        n = len(p)
        if n == 1:
            nodes.append((1, 0))
            continue
        top = b + n
        r = p.index(top)  # 0-based position of the largest letter
        # A~ is the longest suffix of p[:r] holding exactly top-a .. top-1,
        # i.e. with minimum top-a; the rest of p[:r] is B~, and B~ C~ hold
        # b+1 .. top-1-a.
        a, low = 0, top
        for k, v in enumerate(reversed(p[:r]), 1):
            if v < low:
                low = v
            if low + k == top:
                a = k
        # p unfolds to A B C, the rearrangement B~ A~ top C~ undone and top
        # dropped: A's letters sit below B's and C's, and the order inside
        # A~ and inside B~ C~ is kept.  insert_largest(A B C, j) puts top
        # before the j-th LR-max, at q, and lifts the prefix up to the last
        # cut point a' <= q (A B C[:a'] holds its a' lowest values), so it
        # rebuilds p iff q = r and a' = a.  The latter always holds: a is a
        # cut point, and one at c in a+1..r would make p[:c-a] hold
        # b+1 .. b+c-a, splitting the indecomposable p.  So C[0] (there is
        # one: top is not p's last letter) must be an LR-max of A B C[0]:
        # above B's letters, as it is above A's.  It is then the j-th, after
        # those of A and of B.  Those are the LR-maxima of B~ A~ = p[:r], as
        # A~ lies above B~, so j counts p's own LR-maxima, top among them:
        # _parts counted them as it cut p out.
        if r > a and max(p[: r - a]) > p[r + 1]:
            raise ValueError(f"not (3142,2-41-3)-avoiding: {_echo(format_perm(pi))}")
        parts = _parts(p[: r - a] + p[r + 1 :], b)
        if a:
            parts[:0] = _parts(p[r - a : r], top - a - 1)
        nodes.append((j, len(parts)))
        todo.extend(reversed(parts))
    return nodes


def _parts(word: Permutation, base: int) -> list[tuple[Permutation, int, int]]:
    """The components of word, a word holding base+1 .. base+len(word), each
    with its own base and number of LR-maxima: a component ends where the
    running maximum equals base plus the number of letters read, and the
    next starts above every letter read."""
    out = []
    start = best = base
    count = 0
    for i, v in enumerate(word, base + 1):
        if v > best:
            best = v
            count += 1
        if best == i:
            out.append((word[start - base : i - base], start, count))
            start = i
            count = 0
    return out


# ---------------------------------------------------------------------------
# Primitive permutations: mesh pattern M, reduction, and expansion
# ---------------------------------------------------------------------------


def is_primitive_perm(pi: Permutation) -> bool:
    """Class member with no occurrence of the mesh pattern M."""
    _require_member(pi)
    return avoids(pi, [M])


def reduce_to_primitive(pi: Permutation) -> Permutation:
    """Remove the smaller letter of the leftmost M-occurrence until M-free.

    Every intermediate word is checked to stay in the class.
    """
    _require_member(pi)
    current = pi
    while True:
        block = next(_occurrence_blocks(M, current), None)  # the first, lexicographically
        if block is None:
            return current
        y = current[block[0][1]]
        # Drop y and lower each larger letter: one pass, no relabeling sort.
        current = tuple([v - (v > y) for v in current if v != y])
        if not in_class(current):
            raise AssertionError(
                f"reduction left the class at {format_perm(current)}"
            )


def one_step_expansions(pi: Permutation) -> list[Permutation]:
    """All class members reachable by inserting one smaller letter.

    A new letter y is inserted immediately after an existing letter x so that
    the new descent xy is an occurrence of M at that spot and the result
    stays in the class; this inverts one M-occurrence removal, and repeating
    it from the primitive members regenerates the whole class.  (INS1 and
    INS2 accept a strict subset of these insertions -- each carries one extra
    shaded cell on the left column -- and that subset does not regenerate the
    class: 1342 is reachable from 123 only through the wider rule.)  Sorted
    lexicographically.

    The y for a position are read off pi in one scan.  With y inserted, x
    reads x+1, and the letters at or above y move up by one.  M's fully
    shaded column holds by adjacency, and its shaded cell (2, 1) forbids a
    later letter strictly between y and x+1: a letter of pi after x with a
    value in [y, x).  So y runs from x down to one above the largest later
    letter below x.
    """
    _require_member(pi)
    out = set()
    for i, x in enumerate(pi):  # insert right after position i (0-based)
        low = max([v for v in pi[i + 1 :] if v < x], default=0)
        for y in range(x, low, -1):
            word = [v + (v >= y) for v in pi]
            word.insert(i + 1, y)
            sigma = tuple(word)
            if in_class(sigma):
                out.add(sigma)
    return sorted(out)


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def _echo(text: str) -> str:
    """`text` as a diagnostic repeats it: whole up to 60 characters, else its
    first 60 and its length, so one bad input line makes one short line."""
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def format_perm(pi: Permutation) -> str:
    """Space-separated one-line notation; the empty permutation prints as "e"."""
    return " ".join(map(str, pi)) if pi else "e"


def parse_perm(text: str) -> Permutation:
    """Parse ranks separated by whitespace; a single token is read one digit per rank."""
    text = text.strip()
    if not text or text == "e":
        return ()
    tokens = text.split()
    if len(tokens) == 1:
        tokens = text  # compact form: one digit each
    if not (text.isascii() and all(map(str.isdigit, tokens))):
        raise ValueError(f"malformed permutation: {_echo(repr(text))}")
    values = tuple(map(int, tokens))
    if sorted(values) != list(range(1, len(values) + 1)):
        raise ValueError(f"not a permutation of 1..{len(values)}: {_echo(repr(text))}")
    return values
