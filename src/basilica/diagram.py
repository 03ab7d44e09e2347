"""Arc diagrams as a forest of four ternary trees over the base subdivision,
and the forest-pair engine they share with the tree pairs of Thompson's T.

A forest is one string in preorder, '1' for an internal node and '0' for a
leaf, with the trees one after another.  The arity is fixed per kind of
forest (``ARITY`` here, 2 in ``thompson``), so the string alone fixes the
shape.  Each internal node of an arc diagram stands for the 1:2:1
subdivision of its interval by the interval's primary arc.  The nodes that
border the central gap form the central skeleton, a binary forest over the
two halves of the gap boundary: Thompson's T acts on it.
"""

from __future__ import annotations

from .errors import ParseError, excerpt
from .lamination import (
    BASE_ARC_HALF,
    BASE_ARC_ZERO,
    BASE_INTERVALS,
    StandardInterval,
    parent,
    primary_arc,
    subdivide,
)

ARITY = 3


class ArcDiagram:
    """Immutable arc diagram; always contains the two base arcs."""

    __slots__ = ("forest", "_leaves", "_farsides")

    def __init__(self, forest: str):
        if forest.count("0") != (ARITY - 1) * forest.count("1") + 4:
            raise ValueError("forest must have four trees")
        object.__setattr__(self, "forest", forest)
        object.__setattr__(self, "_leaves", None)
        object.__setattr__(self, "_farsides", None)

    # -- derived structure ------------------------------------------------

    def leaves(self) -> tuple[StandardInterval, ...]:
        """The leaf intervals; the same preorder walk fills ``farsides``.
        A stacked interval carries the slot of ``ends`` that its first leaf
        fills: a node's middle child starts its arc's farside, its right
        child ends it (trees 1, 2 for {1/3,2/3}; trees 3, 0 for {1/6,5/6})."""
        if self._leaves is None:
            leaves: list[StandardInterval] = []
            arcs = [BASE_ARC_HALF, BASE_ARC_ZERO]
            ends = [0] * 4  # first, after of each arc in turn
            stack = list(zip(BASE_INTERVALS, (3, 0, 1, 2)))[::-1]
            for node in self.forest:
                interval, slot = stack.pop()
                if slot is not None:
                    ends[slot] = len(leaves)
                if node == "0":
                    leaves.append(interval)
                    continue
                slot = len(ends)
                arcs.append(primary_arc(interval))
                ends += (0, 0)
                left, middle, right = subdivide(interval)
                stack += ((right, slot + 1), (middle, slot), (left, None))
            object.__setattr__(self, "_leaves", tuple(leaves))
            object.__setattr__(self, "_farsides", dict(zip(zip(ends[::2], ends[1::2]), arcs)))
        return self._leaves

    def leaf_intervals(self) -> tuple[StandardInterval, ...]:
        return self.leaves()

    def farsides(self) -> dict:
        """Each arc keyed by the leaf positions (first, after) of its farside,
        leaves first .. after-1 taken cyclically: the base arcs, then the
        primary arcs of the nodes in preorder."""
        self.leaves()
        return self._farsides

    def arcs(self) -> frozenset:
        return frozenset(self.farsides().values())

    def leaf_count(self) -> int:
        return self.forest.count("0")

    def arc_count(self) -> int:
        return len(self.farsides())

    # -- operations ---------------------------------------------------------

    def expand_at(self, leaf_index: int) -> "ArcDiagram":
        """Replace the indexed leaf by its 1:2:1 subdivision."""
        return ArcDiagram(forest_expand(self.forest, leaf_index, ARITY))

    # -- identity / serialization ------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, ArcDiagram) and self.forest == other.forest

    def __hash__(self) -> int:
        return hash(self.forest)

    def __str__(self) -> str:
        return format_forest(self.forest, ARITY)

    def __repr__(self) -> str:
        return f"ArcDiagram({self})"


def base_diagram() -> ArcDiagram:
    return ArcDiagram("0000")


def minimal_diagram_containing(arcs) -> ArcDiagram:
    """The inclusion-minimal diagram whose arc set contains the given arcs:
    every interval on the parent chain of an arc's farside is internal."""
    internal = set()
    for arc in arcs:
        interval = parent(arc.farside())
        while interval is not None and interval not in internal:
            internal.add(interval)
            interval = parent(interval)
    out = []
    stack = list(BASE_INTERVALS[::-1])
    while stack:
        interval = stack.pop()
        if interval in internal:
            out.append("1")
            stack.extend(subdivide(interval)[::-1])
        else:
            out.append("0")
    return ArcDiagram("".join(out))


def central_skeleton(forest: str) -> tuple[str, list[bool]]:
    """The binary forest of the nodes bordering the central gap, and for each
    leaf whether it borders the gap.

    Base trees 0 and 2 border the gap, trees 1 and 3 sit behind the base
    arcs.  A bordering node's outer children border the gap too, its middle
    child sits behind the node's primary arc; hidden subtrees are dropped.
    """
    skeleton: list[str] = []
    flags: list[bool] = []
    stack = [False, True, False, True]  # popped from the end: trees 0..3
    for node in forest:
        border = stack.pop()
        if border:
            skeleton.append(node)
        if node == "0":
            flags.append(border)
        else:
            stack += (border, False, border)
    return "".join(skeleton), flags


# -- the forest-pair engine ----------------------------------------------------
#
# Shared by the arc pair diagrams of T_B (ternary trees over the four base
# intervals) and the tree pairs of Thompson's T (binary trees over the two
# halves).  A pair is (domain forest, range forest, offset): domain leaf i
# goes to range leaf (i + offset) mod m.  A caret is a node whose children
# are all leaves, the substring '1' + '0' * arity; its leaf position is the
# number of leaves before it.

def _leaf_index(forest: str, leaf: int) -> int:
    """String index of the forest's leaf at the given position."""
    rest = forest.split("0", max(leaf + 1, 1))
    if leaf < 0 or len(rest) <= leaf + 1:
        raise IndexError(f"leaf position {leaf} out of range")
    return len(forest) - len(rest[-1]) - 1


def _carets(forest: str, arity: int):
    """(leaf position, string index) of each caret, left to right."""
    caret = "1" + "0" * arity
    i = forest.find(caret)
    leaf = last = 0
    while i >= 0:
        leaf += forest.count("0", last, i)
        last = i
        yield leaf, i
        i = forest.find(caret, i + arity + 1)


def _subtree_end(forest: str, i: int, arity: int) -> int:
    """String index just past the subtree starting at index i."""
    need = 1
    while need:
        need += arity - 1 if forest[i] == "1" else -1
        i += 1
    return i


def forest_carets(forest: str, arity: int) -> list[int]:
    """Starting leaf positions of the carets, left to right."""
    return [leaf for leaf, _ in _carets(forest, arity)]


def forest_expand(forest: str, leaf: int, arity: int) -> str:
    """Replace the leaf at the given position by a caret."""
    i = _leaf_index(forest, leaf)
    return forest[:i] + "1" + "0" * arity + forest[i + 1:]


def forest_collapse(forest: str, start: int, arity: int) -> str:
    """Replace the caret starting at the given leaf position by a leaf."""
    i = _leaf_index(forest, start) - 1
    if i < 0 or not forest.startswith("1" + "0" * arity, i):
        raise ValueError("no caret at position")
    return forest[:i] + "0" + forest[i + arity + 1:]


def forest_merge(f1: str, f2: str, arity: int):
    """The node-wise union of two forests over the same roots, and for each
    leaf of f1 and of f2 the subtree of the union sitting at it."""
    out: list[str] = []
    shapes1: list[str] = []
    shapes2: list[str] = []
    i = j = 0
    while i < len(f1):
        a, b = f1[i], f2[j]
        if a == b:
            out.append(a)
            if a == "0":
                shapes1.append(a)
                shapes2.append(a)
            i += 1
            j += 1
        elif a == "1":
            k = _subtree_end(f1, i, arity)
            sub = f1[i:k]
            out.append(sub)
            shapes1.extend(sub.count("0") * "0")
            shapes2.append(sub)
            i = k
            j += 1
        else:
            k = _subtree_end(f2, j, arity)
            sub = f2[j:k]
            out.append(sub)
            shapes1.append(sub)
            shapes2.extend(sub.count("0") * "0")
            i += 1
            j = k
    return "".join(out), shapes1, shapes2


def forest_graft(forest: str, shapes) -> str:
    """Attach the given subtrees at the leaves of the forest, in order."""
    parts = forest.split("0")
    out = [parts[0]]
    for shape, part in zip(shapes, parts[1:]):
        out += (shape, part)
    return "".join(out)


def pair_reduce(domain: str, range_: str, offset: int, arity: int):
    """Cancel carets that the pair carries onto carets until none remain.

    A range caret never wraps past the last leaf, so a domain caret whose
    first leaf lands on the first leaf of a range caret lands on all of it.
    """
    while True:
        m = domain.count("0")
        range_carets = dict(_carets(range_, arity))
        for s, i in _carets(domain, arity):
            t = (s + offset) % m
            if t in range_carets:
                break
        else:
            return domain, range_, offset
        j = range_carets[t]
        domain = domain[:i] + "0" + domain[i + arity + 1:]
        range_ = range_[:j] + "0" + range_[j + arity + 1:]
        offset = (t - s) % (m - arity + 1)


def pair_compose(f, g, arity: int):
    """f after g, for pairs with offsets in [0, m).  The result is reduced."""
    f_domain, f_range, f_offset = f
    g_domain, g_range, g_offset = g
    mid, g_shapes, f_shapes = forest_merge(g_range, f_domain, arity)
    # g's domain grows what mid grows on g's range, and f's range what mid
    # grows on f's domain (f read backwards, from range to domain)
    g_domain, g_offset = pair_graft(g_domain, g_offset, g_shapes)
    f_range, f_back = pair_graft(f_range, -f_offset % len(f_shapes), f_shapes)
    return pair_reduce(g_domain, f_range, (g_offset - f_back) % mid.count("0"), arity)


def pair_graft(domain: str, offset: int, shapes):
    """Grow a pair's domain to match the given subtrees grafted at its range
    leaves, one per range leaf in order; returns the grown domain and offset."""
    grown = forest_graft(domain, shapes[offset:] + shapes[:offset])
    return grown, "".join(shapes[:offset]).count("0")


# -- wire format -------------------------------------------------------------
#
# '.' is a leaf and '(c1,...,ck)' an internal node; trees are separated by
# commas.  The text is the preorder string with '(' for '1' and '.' for '0',
# plus the commas and closing parentheses that the arity fixes.

_TO_PREORDER = str.maketrans("(.", "10", ",)")


def format_forest(forest: str, arity: int) -> str:
    out: list[str] = []
    left: list[int] = []  # children still to write, per open node
    for node in forest:
        if out and out[-1] != "(":
            out.append(",")
        if node == "1":
            out.append("(")
            left.append(arity)
            continue
        out.append(".")
        while left:
            left[-1] -= 1
            if left[-1]:
                break
            left.pop()
            out.append(")")
    return "".join(out)


def parse_forest(text: str, trees: int, arity: int) -> str:
    """Read `trees` comma-separated trees of the given arity ('.' is a leaf)."""
    text = text.replace(" ", "")
    forest = text.translate(_TO_PREORDER)
    wrong_count = f"forest text is not {trees} trees of arity {arity}"
    need = trees  # subtrees still to read
    for node in forest:
        if not need:
            raise ParseError(wrong_count)
        need += arity - 1 if node == "1" else -1
    if need:
        raise ParseError(wrong_count)
    canonical = format_forest(forest, arity)
    if canonical != text:
        pos = next(i for i, (a, b) in enumerate(zip(text + " ", canonical + " ")) if a != b)
        raise ParseError(f"malformed forest at character {pos}: {excerpt(text[pos:])!r}")
    return forest


def parse_diagram(text: str) -> ArcDiagram:
    return ArcDiagram(parse_forest(text, 4, ARITY))
