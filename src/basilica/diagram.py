"""Arc diagrams as a forest of four ternary trees over the base subdivision,
and the forest-pair engine they share with the tree pairs of Thompson's T.

Trees are immutable nested tuples: a leaf is None, an internal node is a
tuple of subtrees (three in an arc diagram).  Each internal node stands for
the 1:2:1 subdivision of its interval by the interval's primary arc.  Leaf
contexts (which gap a leaf borders) are carried by construction and
cross-checked against the ancestor computation in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .circle import Angle
from .errors import ParseError
from .lamination import (
    Arc,
    BASE_ARC_HALF,
    BASE_ARC_ZERO,
    StandardInterval,
    base_intervals,
    defining_path,
    primary_arc,
    subdivide,
)

LEAF = None


@lru_cache(maxsize=None)
def _tree_leaf_count(tree) -> int:
    if tree is LEAF:
        return 1
    return sum(map(_tree_leaf_count, tree))


@dataclass(frozen=True)
class LeafInfo:
    """One leaf interval of a diagram together with its gap context."""

    interval: StandardInterval
    labels: tuple | None   # (d1, d2) dyadic labels when central-adjacent
    behind: Arc | None     # bounding arc when the leaf sits behind an arc


_BASE_CONTEXTS = (
    (("labels", (Fraction(0), Fraction(1, 2))),),
    (("behind", BASE_ARC_HALF),),
    (("labels", (Fraction(1, 2), Fraction(1))),),
    (("behind", BASE_ARC_ZERO),),
)


class ArcDiagram:
    """Immutable arc diagram; always contains the two base arcs."""

    __slots__ = ("forest", "_leaves", "_arcs")

    def __init__(self, forest):
        forest = tuple(forest)
        if len(forest) != 4:
            raise ValueError("forest must have four trees")
        object.__setattr__(self, "forest", forest)
        object.__setattr__(self, "_leaves", None)
        object.__setattr__(self, "_arcs", None)

    # -- derived structure ------------------------------------------------

    def leaves(self) -> tuple[LeafInfo, ...]:
        if self._leaves is None:
            out: list[LeafInfo] = []
            for tree, interval, ctx in zip(self.forest, base_intervals(), _BASE_CONTEXTS):
                kind, value = ctx[0]
                labels = value if kind == "labels" else None
                behind = value if kind == "behind" else None
                _walk_leaves(tree, interval, labels, behind, out)
            object.__setattr__(self, "_leaves", tuple(out))
        return self._leaves

    def leaf_intervals(self) -> tuple[StandardInterval, ...]:
        return tuple(info.interval for info in self.leaves())

    def boundary_points(self) -> tuple[Angle, ...]:
        """Left endpoints of the leaves, ccw from 1/6."""
        return tuple(Angle(info.interval.lo) for info in self.leaves())

    def arcs(self) -> frozenset:
        if self._arcs is None:
            found = {BASE_ARC_HALF, BASE_ARC_ZERO}
            for tree, interval in zip(self.forest, base_intervals()):
                _walk_arcs(tree, interval, found)
            object.__setattr__(self, "_arcs", frozenset(found))
        return self._arcs

    def leaf_count(self) -> int:
        return forest_leaf_count(self.forest)

    def arc_count(self) -> int:
        return len(self.arcs())

    # -- operations ---------------------------------------------------------

    def expand_at(self, leaf_index: int) -> "ArcDiagram":
        """Replace the indexed leaf by its 1:2:1 subdivision."""
        count = self.leaf_count()
        if not 0 <= leaf_index < count:
            raise IndexError(f"leaf index {leaf_index} out of range (0..{count - 1})")
        forest = list(self.forest)
        for i, tree in enumerate(forest):
            n = _tree_leaf_count(tree)
            if leaf_index < n:
                forest[i] = _expand_tree(tree, leaf_index)
                return ArcDiagram(forest)
            leaf_index -= n
        raise AssertionError("unreachable")

    # -- identity / serialization ------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, ArcDiagram) and self.forest == other.forest

    def __hash__(self) -> int:
        return hash(self.forest)

    def __str__(self) -> str:
        return format_forest(self.forest)

    def __repr__(self) -> str:
        return f"ArcDiagram({self})"


def _walk_leaves(tree, interval, labels, behind, out):
    if tree is LEAF:
        out.append(LeafInfo(interval, labels, behind))
        return
    arc = primary_arc(interval)
    left, middle, right = subdivide(interval)
    if labels is not None:
        d1, d2 = labels
        mid = (d1 + d2) / 2
        _walk_leaves(tree[0], left, (d1, mid), None, out)
        _walk_leaves(tree[1], middle, None, arc, out)
        _walk_leaves(tree[2], right, (mid, d2), None, out)
    else:
        _walk_leaves(tree[0], left, None, behind, out)
        _walk_leaves(tree[1], middle, None, arc, out)
        _walk_leaves(tree[2], right, None, behind, out)


def _walk_arcs(tree, interval, found):
    if tree is LEAF:
        return
    found.add(primary_arc(interval))
    for child, sub in zip(tree, subdivide(interval)):
        _walk_arcs(child, sub, found)


def _expand_tree(tree, leaf_index):
    if tree is LEAF:
        assert leaf_index == 0
        return (LEAF, LEAF, LEAF)
    children = []
    for child in tree:
        n = _tree_leaf_count(child)
        if 0 <= leaf_index < n:
            children.append(_expand_tree(child, leaf_index))
        else:
            children.append(child)
        leaf_index -= n
    return tuple(children)


def base_diagram() -> ArcDiagram:
    return ArcDiagram((LEAF, LEAF, LEAF, LEAF))


def _ensure_internal(tree, path):
    """Make the node addressed by the child-index path an internal node."""
    if tree is LEAF:
        tree = (LEAF, LEAF, LEAF)
    if not path:
        return tree
    children = list(tree)
    children[path[0]] = _ensure_internal(children[path[0]], path[1:])
    return tuple(children)


def minimal_diagram_containing(arcs) -> ArcDiagram:
    """The inclusion-minimal diagram whose arc set contains the given arcs."""
    forest = list(base_diagram().forest)
    for arc in arcs:
        if arc in (BASE_ARC_HALF, BASE_ARC_ZERO):
            continue
        base_idx, path = defining_path(arc)
        forest[base_idx] = _ensure_internal(forest[base_idx], path)
    return ArcDiagram(forest)


def common_refinement(d1: ArcDiagram, d2: ArcDiagram) -> ArcDiagram:
    """Minimal diagram containing the arcs of both (node-wise forest union)."""
    return ArcDiagram(forest_merge(d1.forest, d2.forest))


def subtree_shapes(coarse: ArcDiagram, fine: ArcDiagram) -> list:
    """For each leaf of `coarse`, the subtree of `fine` sitting at it.

    Requires fine to refine coarse.
    """
    return forest_shapes(coarse.forest, fine.forest)


def graft(diagram: ArcDiagram, shapes) -> ArcDiagram:
    """Attach the given subtree shapes at the leaves of the diagram, in order."""
    shapes = list(shapes)
    if len(shapes) != diagram.leaf_count():
        raise ValueError("shape count must match leaf count")
    return ArcDiagram(forest_graft(diagram.forest, shapes))


def sibling_triples(diagram: ArcDiagram) -> list[int]:
    """Starting leaf positions of internal nodes whose children are all leaves."""
    return forest_carets(diagram.forest)


def collapse_at(diagram: ArcDiagram, start: int) -> ArcDiagram:
    """Collapse the all-leaf internal node starting at the given leaf position."""
    return ArcDiagram(forest_collapse(diagram.forest, start))


# -- the forest-pair engine ----------------------------------------------------
#
# Shared by the arc pair diagrams of T_B (ternary trees over the four base
# intervals) and the tree pairs of Thompson's T (binary trees over the two
# halves).  A forest is a tuple of trees; a node's arity is its length.  A
# pair is (domain forest, range forest, offset): domain leaf i goes to range
# leaf (i + offset) mod m.  A caret is a node whose children are all leaves.

def forest_leaf_count(forest) -> int:
    return sum(map(_tree_leaf_count, forest))


def forest_carets(forest) -> list[int]:
    """Starting leaf positions of the carets, left to right."""
    out: list[int] = []
    start = 0
    for tree in forest:
        if tree is not LEAF:
            _caret_starts(tree, start, out)
        start += _tree_leaf_count(tree)
    return out


def _caret_starts(tree, start, out):
    if not any(tree):
        out.append(start)
        return
    for child in tree:
        if child is not LEAF:
            _caret_starts(child, start, out)
        start += _tree_leaf_count(child)


def forest_collapse(forest, start: int):
    """Replace the caret starting at the given leaf position by a leaf."""
    trees = list(forest)
    for i, tree in enumerate(trees):
        n = _tree_leaf_count(tree)
        if start < n:
            trees[i] = _collapse_tree(tree, start)
            return tuple(trees)
        start -= n
    raise IndexError("collapse position out of range")


def _collapse_tree(tree, start):
    if tree is LEAF:
        raise ValueError("no caret at position")
    if not any(tree):
        if start != 0:
            raise ValueError("position does not start the caret")
        return LEAF
    children = list(tree)
    for i, child in enumerate(children):
        n = _tree_leaf_count(child)
        if start < n:
            children[i] = _collapse_tree(child, start)
            return tuple(children)
        start -= n
    raise ValueError("no caret at position")


def _merge_trees(s, t):
    if s is LEAF:
        return t
    if t is LEAF:
        return s
    return tuple(map(_merge_trees, s, t))


def forest_merge(f1, f2):
    """The node-wise union of two forests over the same roots."""
    return tuple(map(_merge_trees, f1, f2))


def forest_shapes(coarse, fine) -> list:
    """For each leaf of `coarse`, the subtree of `fine` sitting at it."""
    out: list = []
    for c, f in zip(coarse, fine):
        _collect_shapes(c, f, out)
    return out


def _collect_shapes(coarse, fine, out):
    if coarse is LEAF:
        out.append(fine)
        return
    if fine is LEAF:
        raise ValueError("forest does not refine the coarse one")
    for c, f in zip(coarse, fine):
        _collect_shapes(c, f, out)


def forest_graft(forest, shapes):
    """Attach the given subtrees at the leaves of the forest, in order."""
    it = iter(shapes)
    return tuple([_graft_tree(tree, it) for tree in forest])


def _graft_tree(tree, it):
    if tree is LEAF:
        return next(it)
    return tuple([_graft_tree(child, it) for child in tree])


def pair_reduce(domain, range_, offset: int):
    """Cancel carets that the pair carries onto carets until none remain.

    A range caret never wraps past the last leaf, so a domain caret whose
    first leaf lands on the first leaf of a range caret lands on all of it.
    """
    while True:
        m = forest_leaf_count(domain)
        range_starts = set(forest_carets(range_))
        for s in forest_carets(domain):
            t = (s + offset) % m
            if t in range_starts:
                break
        else:
            return domain, range_, offset
        domain = forest_collapse(domain, s)
        range_ = forest_collapse(range_, t)
        offset = (t - s) % forest_leaf_count(domain)


def pair_compose(f, g):
    """f after g, for pairs with offsets in [0, m).  The result is reduced."""
    f_domain, f_range, f_offset = f
    g_domain, g_range, g_offset = g
    mid = forest_merge(g_range, f_domain)
    # g's domain grows, leaf by leaf, what mid grows on g's range ...
    shapes = forest_shapes(g_range, mid)
    g_domain = forest_graft(g_domain, shapes[g_offset:] + shapes[:g_offset])
    g_offset = sum(map(_tree_leaf_count, shapes[:g_offset]))
    # ... and f's range what mid grows on f's domain
    shapes = forest_shapes(f_domain, mid)
    back = len(shapes) - f_offset
    shapes = shapes[back:] + shapes[:back]
    f_range = forest_graft(f_range, shapes)
    f_offset = sum(map(_tree_leaf_count, shapes[:f_offset]))
    return pair_reduce(g_domain, f_range, (g_offset + f_offset) % forest_leaf_count(mid))


# -- wire format -------------------------------------------------------------

def _format_tree(tree) -> str:
    if tree is LEAF:
        return "."
    return "(" + ",".join(map(_format_tree, tree)) + ")"


def format_forest(forest) -> str:
    return ",".join(map(_format_tree, forest))


def _parse_tree(text: str, pos: int, arity: int):
    if pos >= len(text):
        raise ParseError("unexpected end of forest text")
    if text[pos] == ".":
        return LEAF, pos + 1
    if text[pos] != "(":
        raise ParseError(f"unexpected character {text[pos]!r} at {pos}")
    pos += 1
    children = []
    for i in range(arity):
        child, pos = _parse_tree(text, pos, arity)
        children.append(child)
        expected = "," if i < arity - 1 else ")"
        if pos >= len(text) or text[pos] != expected:
            raise ParseError(f"expected {expected!r} at {pos}")
        pos += 1
    return tuple(children), pos


def parse_forest(text: str, trees: int, arity: int):
    """Read `trees` comma-separated trees of the given arity ('.' is a leaf)."""
    text = text.replace(" ", "")
    forest = []
    pos = 0
    for i in range(trees):
        if i:
            if pos >= len(text) or text[pos] != ",":
                raise ParseError(f"expected ',' between trees at {pos}")
            pos += 1
        tree, pos = _parse_tree(text, pos, arity)
        forest.append(tree)
    if pos != len(text):
        raise ParseError(f"trailing characters at {pos}")
    return tuple(forest)


def parse_diagram(text: str) -> ArcDiagram:
    return ArcDiagram(parse_forest(text, 4, 3))
