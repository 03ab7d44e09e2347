"""Tree pairs for Thompson's T and the bridge to the rearrangement group.

A tree pair is a pair of binary forests over the halves [0,1/2], [1/2,1]
plus a cyclic offset matching leaves.  The rigid stabilizer of the central
gap is isomorphic to T; ``tau`` realizes the isomorphism by reading arcs
through their dyadic labels, and ``factor_t`` writes any tree pair as a
word in the three images of the rearrangement generators.
"""

from __future__ import annotations

from fractions import Fraction

from .circle import PLCircleMap, mod1
from .diagram import (
    LEAF,
    forest_carets,
    forest_collapse,
    forest_leaf_count,
    format_forest,
    minimal_diagram_containing,
    pair_compose,
    pair_reduce,
    parse_forest,
)
from .element import Element, image_of_arc, is_in_rist, is_in_stab, make, reduce
from .errors import NotInRist, NotInStab, ParseError
from .lamination import arc_for_label, central_label, is_central

HALVES = (Fraction(0), Fraction(1, 2), Fraction(1))


class TreePair:
    """A pair of dyadic subdivisions of the circle with a leaf offset."""

    __slots__ = ("domain", "range", "offset")

    def __init__(self, domain, range_, offset: int):
        domain = tuple(domain)
        range_ = tuple(range_)
        if len(domain) != 2 or len(range_) != 2:
            raise ValueError("each side needs one tree per half")
        m = forest_leaf_count(domain)
        if forest_leaf_count(range_) != m:
            raise ValueError("leaf counts differ")
        self.domain = domain
        self.range = range_
        self.offset = offset % m

    def leaf_count(self) -> int:
        return forest_leaf_count(self.domain)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreePair):
            return NotImplemented
        return (
            self.offset == other.offset
            and self.domain == other.domain
            and self.range == other.range
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.range, self.offset))

    def __str__(self) -> str:
        return f"[{format_forest(self.domain)} ; {format_forest(self.range)} ; {self.offset}]"

    def __repr__(self) -> str:
        return f"TreePair({self})"


def tp_identity() -> TreePair:
    return TreePair((LEAF, LEAF), (LEAF, LEAF), 0)


def tp_to_pl(t: TreePair) -> PLCircleMap:
    dom = forest_cuts(t.domain)
    ran = forest_cuts(t.range)
    m = len(dom)
    return PLCircleMap([(dom[i], ran[(i + t.offset) % m]) for i in range(m)])


def tp_eval(t: TreePair, x: Fraction) -> Fraction:
    return tp_to_pl(t).eval_fraction(Fraction(x))


def tp_inverse(t: TreePair) -> TreePair:
    return TreePair(t.range, t.domain, -t.offset)


def tp_reduce(t: TreePair) -> TreePair:
    return TreePair(*pair_reduce(t.domain, t.range, t.offset))


def tp_equal(a: TreePair, b: TreePair) -> bool:
    return tp_reduce(a) == tp_reduce(b)


def tp_compose(s: TreePair, t: TreePair) -> TreePair:
    """s after t.  The result is reduced."""
    return TreePair(
        *pair_compose((s.domain, s.range, s.offset), (t.domain, t.range, t.offset))
    )


# -- dyadic cut sets ---------------------------------------------------------

def _tree_from_cuts(lo: Fraction, hi: Fraction, cuts):
    inner = [c for c in cuts if lo < c < hi]
    if not inner:
        return LEAF
    mid = (lo + hi) / 2
    if mid not in cuts:
        raise ValueError(f"cut set is not subdivision-closed at {mid}")
    return (
        _tree_from_cuts(lo, mid, cuts),
        _tree_from_cuts(mid, hi, cuts),
    )


def forest_from_cuts(cuts) -> tuple:
    """The binary forest over the two halves with the given dyadic cut set."""
    cuts = set(cuts)
    if Fraction(0) not in cuts or Fraction(1, 2) not in cuts:
        raise ValueError("cut set must contain 0 and 1/2")
    return tuple(
        _tree_from_cuts(lo, hi, cuts) for lo, hi in zip(HALVES, HALVES[1:])
    )


def _tree_cuts(tree, lo: Fraction, hi: Fraction, out):
    if tree is LEAF:
        out.append(lo)
        return
    mid = (lo + hi) / 2
    _tree_cuts(tree[0], lo, mid, out)
    _tree_cuts(tree[1], mid, hi, out)


def forest_cuts(forest) -> list:
    """Left ends of the leaves, in order; the inverse of forest_from_cuts."""
    out: list = []
    for tree, lo, hi in zip(forest, HALVES, HALVES[1:]):
        _tree_cuts(tree, lo, hi, out)
    return out


def rotation_treepair(amount: Fraction) -> TreePair:
    """Rotation by a dyadic amount as a (non-reduced for amount!=0) tree pair."""
    amount = mod1(Fraction(amount))
    if amount.denominator & (amount.denominator - 1):
        raise ValueError(f"rotation amount {amount} is not dyadic")
    if amount == 0:
        return tp_identity()
    m = max(amount.denominator.bit_length() - 1, 1)
    tree = _full_btree(m - 1)
    k = int(amount * 2 ** m)
    return TreePair((tree, tree), (tree, tree), k)


def _full_btree(depth: int):
    if depth == 0:
        return LEAF
    child = _full_btree(depth - 1)
    return (child, child)


def t_transporter(p: Fraction, q: Fraction) -> TreePair:
    """An element of T carrying the dyadic point p to q (a rotation)."""
    return rotation_treepair(Fraction(q) - Fraction(p))


# -- the isomorphism with the central-gap stabilizer -------------------------

def tau(e: Element) -> TreePair:
    """Tree pair of a rigid-stabilizer element, read off the dyadic labels."""
    e = reduce(e)
    if not is_in_rist(e):
        raise NotInRist(e)
    dom_leaves = e.domain.leaves()
    ran_leaves = e.range.leaves()
    m = len(dom_leaves)
    dom_cuts = [info.labels[0] for info in dom_leaves if info.labels is not None]
    ran_cuts = sorted(info.labels[0] for info in ran_leaves if info.labels is not None)
    image = ran_leaves[e.offset % m]
    assert image.labels is not None, "image of a gap-adjacent leaf lost its label"
    offset = ran_cuts.index(image.labels[0])
    return tp_reduce(
        TreePair(forest_from_cuts(dom_cuts), forest_from_cuts(ran_cuts), offset)
    )


def tau_inverse(t: TreePair) -> Element:
    """The rigid-stabilizer element with the given boundary tree pair."""
    t = tp_reduce(t)
    dom_cuts = forest_cuts(t.domain)
    ran_cuts = forest_cuts(t.range)
    domain = minimal_diagram_containing([arc_for_label(c) for c in dom_cuts])
    range_ = minimal_diagram_containing([arc_for_label(c) for c in ran_cuts])
    target = ran_cuts[t.offset % len(ran_cuts)]
    offset = next(
        i for i, info in enumerate(range_.leaves())
        if info.labels is not None and info.labels[0] == target
    )
    return reduce(make(domain, range_, offset))


def boundary_action(e: Element) -> TreePair:
    """Action of a central-gap stabilizer on the gap boundary, as a tree pair."""
    e = reduce(e)
    if not is_in_stab(e):
        raise NotInStab(e)
    pairs = []
    for arc in e.domain.arcs():
        if not is_central(arc):
            continue
        image = image_of_arc(e, arc)
        if not is_central(image):
            raise NotInStab(e)
        pairs.append((central_label(arc), central_label(image)))
    pairs.sort()
    dom_cuts = [p for p, _ in pairs]
    ran_cuts = sorted(q for _, q in pairs)
    offset = ran_cuts.index(dict(pairs)[Fraction(0)])
    return tp_reduce(
        TreePair(forest_from_cuts(dom_cuts), forest_from_cuts(ran_cuts), offset)
    )


# -- factorization over the images of the rearrangement generators ----------

def _letter_tp(letter: str) -> TreePair:
    name, inv = letter[0], letter.endswith("'")
    base = {
        "B": TreePair((LEAF, (LEAF, LEAF)), ((LEAF, LEAF), LEAF), 0),
        "G": TreePair(
            ((LEAF, (LEAF, LEAF)), LEAF), (((LEAF, LEAF), LEAF), LEAF), 0
        ),
        "D": TreePair((LEAF, LEAF), (LEAF, LEAF), 1),
    }[name]
    return tp_inverse(base) if inv else base


def word_to_tp(word) -> TreePair:
    out = tp_identity()
    for letter in word:
        out = tp_compose(out, _letter_tp(letter))
    return out


def invert_word(word) -> list[str]:
    return [
        letter[:-1] if letter.endswith("'") else letter + "'"
        for letter in reversed(word)
    ]


def _transport_to_zero(q: Fraction):
    """Letters whose product (leftmost applied last) carries q to 0."""
    moves = []
    q = mod1(Fraction(q))
    while q != 0:
        if q >= Fraction(1, 2):
            moves.append("D")
            q -= Fraction(1, 2)
        elif q <= Fraction(1, 4):
            moves.append("B'")
            q *= 2
        else:
            moves.append("B'")
            q += Fraction(1, 4)
    return list(reversed(moves))


def _is_vine(forest) -> bool:
    tree = forest[1]
    if forest[0] is not LEAF:
        return False
    while tree is not LEAF:
        if tree[0] is not LEAF:
            return False
        tree = tree[1]
    return True


def _positive_factorization(forest):
    """Indices i with (vine, forest) = x_{i1} ... x_{ik} in Thompson's F."""
    out = []
    n = forest_leaf_count(forest)
    while not _is_vine(forest):
        s = next(c for c in forest_carets(forest) if c <= n - 3)
        forest = forest_collapse(forest, s)
        n -= 1
        out.append(s)
    return list(reversed(out))


# x_0 = B; x_1 = B^{-1} G^{-1} B B; deeper generators by conjugation
_X1 = ["B'", "G'", "B", "B"]


def _x_word(i: int):
    if i == 0:
        return ["B"]
    return ["B'"] * (i - 1) + _X1 + ["B"] * (i - 1)


def factor_t(t: TreePair):
    """A word over B, G, D (primes are inverses) multiplying out to t."""
    t = tp_reduce(t)
    if t == tp_identity():
        return []
    q = tp_eval(t, Fraction(0))
    transport = _transport_to_zero(q)
    h = tp_compose(word_to_tp(transport), t)
    assert h.offset == 0, "map fixing 0 must match leaves without rotation"
    word_h: list = []
    for i in _positive_factorization(h.range):
        word_h.extend(_x_word(i))
    tail: list = []
    for i in _positive_factorization(h.domain):
        tail.extend(_x_word(i))
    word_h.extend(invert_word(tail))
    return invert_word(transport) + word_h


# -- wire format -------------------------------------------------------------

def parse_treepair(text: str) -> TreePair:
    body = text.replace(" ", "")
    if not (body.startswith("[") and body.endswith("]")):
        raise ParseError(text)
    parts = body[1:-1].split(";")
    if len(parts) != 3:
        raise ParseError(text)
    try:
        offset = int(parts[2])
    except ValueError:
        raise ParseError(parts[2])
    try:
        return TreePair(parse_forest(parts[0], 2, 2), parse_forest(parts[1], 2, 2), offset)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
