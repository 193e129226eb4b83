"""beta(1,0)-trees: rooted plane trees with positive integer labels.

A beta(1,0)-tree is a rooted plane (ordered) tree in which every leaf has
label 1, the root's label equals the sum of its children's labels, and every
other node's label lies between 1 and the sum of its children's labels.  The
tree with a single node has label 1 (by the leaf rule) and is treated as
neither decomposable nor indecomposable.

Label-maximality convention used throughout the package: a node *has maximum
label* iff it is a leaf, or its label equals the sum of its children's
labels.  (A leaf can only carry label 1, which is also the largest label it
could carry; the map-side cross-checks in `mapscope.verify` validate the
convention.)

Each tree is checked at most once: `_require_valid`, the guard of every
function that needs a valid tree, reads the verdict a tree carries
(`LabeledTree._problem`).  The verdict is kept in the node's `_mark` slot:
`parse_tree`, `select_trees` and `perm_to_tree` write "ok" there as they
build a tree they know is valid, and `_problem` fills it, with one walk,
when it is read empty.  `validate_tree` and `is_valid_tree` never read it:
they walk the tree on every call.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Optional

from .series import tutte_count

__all__ = [
    "LabeledTree",
    "TreeStats",
    "leaf",
    "node",
    "children_sum",
    "max_label_value",
    "has_max_label",
    "validate_tree",
    "is_valid_tree",
    "enumerate_trees",
    "count_trees",
    "count_trees_by_size",
    "parse_filters",
    "select_trees",
    "passes",
    "tree_stats",
    "parse_tree",
    "format_tree",
    "iter_subtrees",
    "postorder",
]


class LabeledTree:
    """Immutable rooted plane tree with a positive integer label per node."""

    __slots__ = ("label", "children", "_mark")
    __match_args__ = ("label", "children")

    def __init__(self, label: int, children: tuple["LabeledTree", ...] = ()) -> None:
        _set_label(self, label)
        _set_children(self, children)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__, unmarked
        return LabeledTree, (self.label, self.children)

    @property
    def _problem(self) -> str:
        """validate_tree(self), walked at most once per tree: the `_mark`
        slot holds the verdict once it is known."""
        try:
            return self._mark
        except AttributeError:
            msg = validate_tree(self)
            _set_mark(self, msg)
            return msg

    def __repr__(self) -> str:
        return f"LabeledTree({format_tree(self)!r})"

    def __eq__(self, other) -> bool:  # a walk with a stack: any depth works
        if not isinstance(other, LabeledTree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        return hash(format_tree(self))  # equal trees print alike


# The slots' own setters, past the frozen __setattr__: every node is built
# through them.
_set_label = LabeledTree.label.__set__
_set_children = LabeledTree.children.__set__
_set_mark = LabeledTree._mark.__set__


@dataclass(frozen=True)
class TreeStats:
    nodes: int
    leaves: int
    internal_nodes: int
    root_label: int
    single_child_max_nodes: int
    decomposable: bool


def leaf() -> LabeledTree:
    return LabeledTree(1, ())


def node(label: int, children) -> LabeledTree:
    return LabeledTree(label, tuple(children))


def children_sum(t: LabeledTree) -> int:
    return sum(c.label for c in t.children)


def max_label_value(t: LabeledTree) -> int:
    """Largest label the node could legally carry: children-sum, or 1 for a leaf."""
    return children_sum(t) if t.children else 1


def has_max_label(t: LabeledTree) -> bool:
    return not t.children or t.label == children_sum(t)


def iter_subtrees(t: LabeledTree) -> Iterator[LabeledTree]:
    """All subtrees of t in preorder (t itself first)."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(reversed(s.children))


def postorder(t: LabeledTree) -> list[LabeledTree]:
    """All subtrees of t, children first and left to right (t last): the
    right-to-left preorder, reversed.  Folded over a stack of results, a node
    with m children finds theirs on top, leftmost deepest."""
    order = []
    stack = [t]
    while stack:
        s = stack.pop()
        order.append(s)
        stack.extend(s.children)
    order.reverse()
    return order


def _node_problem(label, kids, root: bool) -> Optional[str]:
    """The rule a node with this label over the child tuple `kids` breaks,
    as a root or not, or None.  `parse_tree` tests the same rules on running
    sums of the children's labels, and leaves naming a broken one to the
    walk of `validate_tree`."""
    if type(label) is not int or label < 1:  # a bool is no label
        return f"label {label!r} is not a positive integer"
    if not kids:
        return f"leaf label {label} != 1" if label != 1 else None
    s = sum(c.label for c in kids)
    if root:
        return f"root label {label} != children sum {s}" if label != s else None
    return f"label {label} exceeds children sum {s}" if label > s else None


def validate_tree(t: LabeledTree) -> str:
    """Return "ok", or a description of the first violated invariant.

    Nodes are checked in preorder and addressed by the path of child indices
    from the root, e.g. "root.0.2" is the third child of the root's first
    child.  Every call walks t: the memo `_require_valid` reads is never
    consulted here.
    """
    stack = [t]
    while stack:
        s = stack.pop()
        msg = _node_problem(s.label, s.children, s is t)
        if msg is None:
            stack.extend(reversed(s.children))
            continue
        # Only now build the path.  Subtrees may be shared, but an earlier
        # preorder occurrence of s would have failed first.
        paths = [(t, "root")]
        while paths[-1][0] is not s:
            u, path = paths.pop()
            paths.extend((u.children[i], f"{path}.{i}") for i in range(len(u.children) - 1, -1, -1))
        return f"{paths[-1][1]}: {msg}"
    return "ok"


def is_valid_tree(t: LabeledTree) -> bool:
    return validate_tree(t) == "ok"


def _require_valid(t: LabeledTree) -> None:
    """Raise ValueError unless t is valid; each tree is walked at most once."""
    msg = t._problem
    if msg != "ok":
        raise ValueError(f"invalid tree: {msg}")


def _valid_root(label: int, kids: tuple[LabeledTree, ...]) -> LabeledTree:
    t = LabeledTree(label, kids)
    _set_mark(t, "ok")  # known valid: no walk
    return t


# ---------------------------------------------------------------------------
# Enumeration
#
# Order contract: subtree-size compositions of the children are generated in
# lexicographic order; for a fixed composition the child choices vary
# rightmost-fastest; for non-root internal nodes the label loop is innermost
# and ascending.  This makes the enumeration order reproducible.  Every filter
# prunes the generation: a child tuple is kept only when a node over it
# passes every rule, so the surviving trees keep that order.
# ---------------------------------------------------------------------------


def _compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of n >= 0 into positive parts, lexicographically:
    the successor of (..., a, b) is (..., a + 1) followed by b - 1 ones."""
    comp = [1] * n
    while True:
        yield tuple(comp)
        if len(comp) < 2:
            return
        last = comp.pop()
        comp[-1] += 1
        comp.extend([1] * (last - 1))


@lru_cache(maxsize=None)
def _subtrees_free_top(n: int, cap: Optional[int], rules) -> tuple[LabeledTree, ...]:
    """All n-node trees valid below a parent: top label ranges over 1..children-sum
    (1 for a leaf).  Every label is at most `cap` (None: uncapped), and every
    node passes every rule's node test."""
    out: list[LabeledTree] = []
    for kids in _forests(n - 1, cap, rules):
        top = sum(c.label for c in kids) or 1
        if cap is not None:
            top = min(top, cap)
        out.extend(LabeledTree(lab, kids) for lab in range(1, top + 1))
    return tuple(out)


def _forests(n: int, cap: Optional[int], rules) -> Iterator[tuple[LabeledTree, ...]]:
    """Ordered forests with n >= 0 nodes in all, as child tuples, in contract
    order, kept when a node over them passes every rule."""
    for comp in _compositions(n):
        m = len(comp)
        live, sums = tuple(r for r in rules if 0 < m < r.m_cap), range(m, 5)
        # Skip the product when a rule fails a node with m children whatever
        # its clamped deficit and label sum.
        if any(not any(r.node(m, d, s) for d in range(r.d_cap + 1) for s in sums) for r in live):
            continue
        forests = product(*(_subtrees_free_top(k, cap, rules) for k in comp))
        yield from (kids for kids in forests if _node_passes(kids, live)) if live else forests


def enumerate_trees(nodes: int, filters=()) -> list[LabeledTree]:
    """`select_trees(nodes, filters)` as a list."""
    return list(select_trees(nodes, filters))


# ---------------------------------------------------------------------------
# Filters.  Each is a local rule: `node(m, d, s)` holds at every node (root
# included), where m counts its children, d sums their deficits and s their
# labels; and the root label is not `bad_root` (0: none).  `node` holds when
# m = 0 or m >= m_cap, and reads d as min(d, d_cap) and s as min(s, 4), so
# the counting DP may clamp them.  `labels-max` caps the non-root labels.
# The listing, the counting DP and `passes` read the same rules.
# ---------------------------------------------------------------------------


_Rule = namedtuple("_Rule", "node bad_root m_cap d_cap")

# Necessary conditions for the map to be multiple-edge-free, not sufficient:
# no single child with maximum label or labeled 1, and root label not 1.  The
# one-edge map is the exception: its tree has root label 1, yet the map has
# no multiple edge.
_MEF_NECESSARY = _Rule(lambda m, d, s: m != 1 or (d > 0 and s != 1), 1, 2, 1)
_NO_ONLY_CHILDREN = _Rule(lambda m, d, s: m != 1, 0, 2, 0)
# No face of degree k: a node makes an internal face of degree 1+m+d, the root
# face has degree root label + 1 (cross-validated against direct face
# computation on the constructed maps in `mapscope.verify`).
_K_FACE_FREE = {
    k: _Rule(lambda m, d, s, k=k: not (1 <= m <= k - 1 and d == k - m - 1), k - 1, k, k - 1)
    for k in (2, 3, 4)
}
# No internal 2-face: a single child has maximum label iff its deficit is 0.
_PRIMITIVE = _K_FACE_FREE[2]._replace(bad_root=0)
_NAMED_RULES = {"primitive": _PRIMITIVE, "two-face-free": _K_FACE_FREE[2],
                "mef-necessary": _MEF_NECESSARY, "no-only-children": _NO_ONLY_CHILDREN}
# parse_filters returns its rules in this order, once each, so that one filter
# set shares one `_subtrees_free_top` cache however its specs are written.
_RULE_ORDER = (_PRIMITIVE, _MEF_NECESSARY, _NO_ONLY_CHILDREN, *_K_FACE_FREE.values())


def parse_filters(specs) -> tuple[Optional[int], tuple[_Rule, ...]]:
    """(label cap, rules) for filter specs: primitive | two-face-free |
    k-face-free=K | mef-necessary | no-only-children | labels-max=L.  A tree
    passes all of them; the smallest of several caps wins."""
    cap, rules = None, set()
    for spec in specs:
        name, eq, text = spec.partition("=")
        if spec in _NAMED_RULES:
            rules.add(_NAMED_RULES[spec])
            continue
        if not eq or name not in ("k-face-free", "labels-max"):
            raise ValueError(f"unknown filter: {spec!r}")
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"bad filter value: {spec!r}")
        value = int(text)
        if name == "labels-max":
            if value < 1:
                raise ValueError("labels-max filter requires a cap >= 1")
            cap = value if cap is None else min(cap, value)
        elif value in _K_FACE_FREE:
            rules.add(_K_FACE_FREE[value])
        else:
            raise ValueError("k-face-free filter supports k in {2, 3, 4}")
    return cap, tuple(r for r in _RULE_ORDER if r in rules)


def _node_passes(kids: tuple[LabeledTree, ...], rules) -> bool:
    """Whether a node over the child tuple `kids` passes every rule's node test."""
    s = sum(c.label for c in kids)
    d = sum(map(max_label_value, kids)) - s
    return all(r.node(len(kids), d, s) for r in rules)


def passes(t: LabeledTree, filters=()) -> bool:
    """Whether the valid tree t passes every filter spec (see `parse_filters`)."""
    cap, rules = parse_filters(filters)
    _require_valid(t)
    if any(t.label == r.bad_root for r in rules):
        return False
    if cap is not None and any(u.label > cap for c in t.children for u in iter_subtrees(c)):
        return False
    m_cap = max((r.m_cap for r in rules), default=0)
    return all(
        _node_passes(u.children, rules)
        for u in iter_subtrees(t)
        if 0 < len(u.children) < m_cap
    )


def select_trees(nodes: int, filters=()) -> Iterator[LabeledTree]:
    """The beta(1,0)-trees with exactly `nodes` nodes that pass every filter
    spec (see `parse_filters`), in the documented order, one at a time.  The
    specs are checked now, before the first tree."""
    if nodes < 1:
        raise ValueError("empty tree not modeled")
    cap, rules = parse_filters(filters)
    bad_roots = {r.bad_root for r in rules}
    # Each root is valid by construction: its label is its children's sum.
    roots = ((sum(c.label for c in kids) or 1, kids) for kids in _forests(nodes - 1, cap, rules))
    return (_valid_root(label, kids) for label, kids in roots if label not in bad_roots)


def count_trees(nodes: int, filters=()) -> int:
    """Number of beta(1,0)-trees with exactly `nodes` nodes that pass every
    filter spec (see `parse_filters`), counted without building them.

    >>> [count_trees(n) for n in range(1, 7)], count_trees(5, ["two-face-free"])
    ([1, 1, 2, 6, 22, 91], 6)
    """
    return count_trees_by_size(nodes, filters)[-1]


def count_trees_by_size(nodes: int, filters=()) -> list[int]:
    """[count_trees(n, filters) for n in 1..nodes], from one run of the DP.

    subtrees[k]: clamped deficit -> the k-node trees below a parent, by label;
    forests[j]: clamped (m, d) -> the j-node child sequences, by label sum
    (folded at s_cap).  A forest is a forest and one more subtree; a subtree,
    or a whole tree, is a node over a forest.  An entry is one int whose slot
    s (bits w*s up) counts label (sum) s, so a forest times a subtree is one
    big-int product (Kronecker substitution).  No slot spills: it counts
    distinct forests or subtrees of i < `nodes` nodes, which a new root makes
    distinct trees of i + 1 nodes, at most tutte_count(nodes - 1) < 2**(w-1).
    """
    if nodes < 1:
        raise ValueError("empty tree not modeled")
    cap, rules = parse_filters(filters)
    m_cap = max((r.m_cap for r in rules), default=0)
    d_cap = max((r.d_cap for r in rules), default=0)
    # A label sum past cap + d_cap gives the same labels and clamped deficits.
    cap, s_cap = (nodes, nodes) if cap is None else (cap, max(cap + d_cap, 4))
    w = tutte_count(nodes - 1).bit_length() + 1
    mask, top = (1 << w) - 1, w * s_cap
    ones = [((1 << w * j + w) - 1) // mask - 1 for j in range(cap + 1)]  # 1 in slots 1..j
    subtrees, forests = [{}, {0: 1 << w}], [{(0, 0): 1}]
    # full[j]: j-node forests one subtree short of key (m_cap, 0); every[k]: all.
    full, every = [int(m_cap <= 1)], [0, 1 << w]
    bad_roots = {r.bad_root for r in rules}
    counts = [int(1 not in bad_roots)]
    for n in range(1, nodes):
        forest = defaultdict(int)
        forest[m_cap, 0] = sum(full[n - k] * every[k] for k in range(1, n + 1))
        for k in range(1, n + 1):
            for (m, d), before in forests[n - k].items():
                if m + 1 < m_cap:
                    for e, last in subtrees[k].items():
                        forest[m + 1, min(d + e, d_cap)] += before * last
        for key, packed in forest.items():
            if packed >> top + w:  # sums past s_cap, each at most s_cap + cap
                high = sum(packed >> top + w * i & mask for i in range(cap + 1))
                forest[key] = packed & (1 << top) - 1 | high << top
        forests.append(forest)
        full.append(sum(p for (m, d), p in forest.items() if m + 1 >= m_cap))
        below, root_count = defaultdict(int), 0
        for (m, d), packed in forest.items():
            for s in range(1, min(n, s_cap) + 1):
                a = packed >> w * s & mask
                if a and all(r.node(m, d, s) for r in rules):
                    root_count += 0 if s in bad_roots else a
                    # Labels up to s - d_cap leave a deficit clamped to d_cap.
                    low = max(min(s - d_cap, cap), 0)
                    if low:
                        below[d_cap] += a * ones[low]
                    for label in range(low + 1, min(s, cap) + 1):
                        below[s - label] += a << w * label
        subtrees.append(below)
        every.append(sum(below.values()))
        counts.append(root_count)
    return counts


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tree_stats(t: LabeledTree) -> TreeStats:
    """Node counts, root label, and the single-child-with-maximum-label count.

    single_child_max_nodes counts nodes u != root such that u is its parent's
    only child and u has maximum label (leaves count as maximum).
    """
    _require_valid(t)
    nodes = leaves = scm = 0
    stack = [t]
    while stack:
        kids = stack.pop().children
        nodes += 1
        if not kids:
            leaves += 1
            continue
        if len(kids) == 1:
            below = kids[0].children  # has the only child maximum label?
            if not below or kids[0].label == sum([c.label for c in below]):
                scm += 1
        stack += kids
    return TreeStats(
        nodes=nodes,
        leaves=leaves,
        internal_nodes=nodes - leaves,
        root_label=t.label,
        single_child_max_nodes=scm,
        decomposable=len(t.children) >= 2,
    )


# ---------------------------------------------------------------------------
# Text format: "(label child child ...)", e.g. "(2 (1) (1))"
# ---------------------------------------------------------------------------


def format_tree(t: LabeledTree) -> str:
    parts = [f"({t.label}"]
    stack = [iter(t.children)]  # per open node, its children still to print
    while stack:
        for s in stack[-1]:
            if s.children:
                parts.append(f" ({s.label}")
                stack.append(iter(s.children))
                break
            parts.append(f" ({s.label})")
        else:
            parts.append(")")
            stack.pop()
    return "".join(parts)


# What `str.split()` splits on: the characters for which `str.isspace()` holds.
_SPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
_CLOSING = ")" + _SPACE


def parse_tree(text: str) -> LabeledTree:
    """Parse the parenthesized tree format; raises ValueError with a position.

    Split on "(", the text is one segment per node: its label, then the ")"
    of every node that closes there.  Each open node keeps the sum of its
    children's labels, so its rule is checked as it closes: a tree that
    passes them all comes back marked valid."""
    segs = text.split("(")
    if len(segs) == 1 or segs[0].strip():
        raise _parse_error(text, segs, 0)
    ok = True
    # Per open node: its label, the sum of its children's labels, its children.
    labels: list[int] = []
    sums: list[int] = []
    kids: list[list[LabeledTree]] = []
    for j in range(1, len(segs)):
        seg = segs[j]
        lab = seg.rstrip(_CLOSING)
        if not (lab.isdigit() and lab.isascii()):
            lab = lab.lstrip()
            if not (lab.isdigit() and lab.isascii()):
                raise _parse_error(text, segs, j)
        label = int(lab)
        close = seg.count(")")
        if not close:
            labels.append(label)
            sums.append(0)
            kids.append([])
            continue
        if label != 1:  # the node is a leaf
            ok = False
        t = LabeledTree(label, ())
        while close := close - 1:  # t's parent closes too
            if not labels:
                raise _parse_error(text, segs, j)  # a ")" past the root
            s = sums.pop() + label
            children = (*kids.pop(), t)
            label = labels.pop()
            if not 0 < label <= s or label != s and not labels:
                ok = False
            t = LabeledTree(label, children)
        if not labels:  # t is the root
            if j + 1 < len(segs):
                raise _parse_error(text, segs, j)
            if ok:
                _set_mark(t, "ok")
            return t
        kids[-1].append(t)
        sums[-1] += label
    raise _parse_error(text, segs, len(segs) - 1)  # a node left open


def _parse_error(text: str, segs: list[str], j: int):
    """The parse error in segment j of segs = text.split("("), or at the token
    just after it: its label, a stray token, a ")" past the root, or what
    follows a closed root or an open node.  Where the segment starts and how
    many nodes are open in it are counted here, on the error path only.  The
    tokens are the labels, the parens and any other run of characters
    between whitespace; a position is that of a token, or the text's end."""
    start = j + sum(map(len, segs[:j]))
    seg = segs[j]
    rest = seg.lstrip()
    pos = start + len(seg) - len(rest)
    if not j:
        return _error(pos, "'('")
    k = len(rest) - len(rest.lstrip("0123456789"))  # the label's leading digits
    if k:
        int(rest[:k])  # read as a label is: one past int()'s digit limit fails here
    after = rest[k : k + 1]
    if not k or after and after != ")" and not after.isspace():
        return _error(pos + k, "')'" if k else "integer label")
    depth = j - sum(s.count(")") for s in segs[1:j])  # open nodes, this one included
    for i in range(k, len(rest)):
        c = rest[i]
        if c == ")" and depth:
            depth -= 1
        elif not c.isspace():
            return _error(pos + i, "')'" if depth else "end of input")
    return _error(start + len(seg), "')'" if depth else "end of input")


def _error(pos: int, expected: str):
    return ValueError(f"parse error at position {pos}: expected {expected}")
