"""Tree pairs for Thompson's T and the bridge to the rearrangement group.

A tree pair is a pair of binary forests over the halves [0,1/2], [1/2,1]
plus a cyclic offset matching leaves; a forest is a preorder string as in
``diagram``, with ``ARITY`` 2.  The rigid stabilizer of the central
gap is isomorphic to T; ``tau`` realizes the isomorphism by the central
skeleton (``diagram.central_skeleton``): the nodes of an arc diagram that
border the central gap form a binary forest whose leaf i has dyadic left
end the label of the i-th central arc.  ``factor_t`` writes any tree pair
as a word in the three images of the rearrangement generators.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .circle import PLCircleMap, mod1
from .diagram import (
    central_skeleton,
    forest_carets,
    forest_collapse,
    forest_expand,
    format_forest,
    pair_compose,
    pair_reduce,
    parse_diagram,
    parse_forest,
)
from .element import Element, is_in_rist, is_in_stab, make, reduce
from .errors import NotInRist, NotInStab, ParseError, excerpt

ARITY = 2


class TreePair:
    """A pair of dyadic subdivisions of the circle with a leaf offset."""

    __slots__ = ("domain", "range", "offset")

    def __init__(self, domain: str, range_: str, offset: int):
        m = domain.count("0")
        if any(side.count("0") != side.count("1") + 2 for side in (domain, range_)):
            raise ValueError("each side needs one tree per half")
        if range_.count("0") != m:
            raise ValueError("leaf counts differ")
        self.domain = domain
        self.range = range_
        self.offset = offset % m

    def leaf_count(self) -> int:
        return self.domain.count("0")

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
        domain, range_ = (format_forest(side, ARITY) for side in (self.domain, self.range))
        return f"[{domain} ; {range_} ; {self.offset}]"

    def __repr__(self) -> str:
        return f"TreePair({self})"


def tp_identity() -> TreePair:
    return TreePair("00", "00", 0)


def tp_to_pl(t: TreePair) -> PLCircleMap:
    dom = forest_cuts(t.domain)
    ran = forest_cuts(t.range)
    m = len(dom)
    return PLCircleMap([(dom[i], ran[(i + t.offset) % m]) for i in range(m)])


def tp_inverse(t: TreePair) -> TreePair:
    return TreePair(t.range, t.domain, -t.offset)


def tp_reduce(t: TreePair) -> TreePair:
    return TreePair(*pair_reduce(t.domain, t.range, t.offset, ARITY))


def tp_equal(a: TreePair, b: TreePair) -> bool:
    return tp_reduce(a) == tp_reduce(b)


def tp_compose(s: TreePair, t: TreePair) -> TreePair:
    """s after t.  The result is reduced."""
    return TreePair(
        *pair_compose((s.domain, s.range, s.offset), (t.domain, t.range, t.offset), ARITY)
    )


# -- dyadic cut sets ---------------------------------------------------------

def forest_cuts(forest: str) -> list:
    """Left ends of the leaves, in order."""
    out = []
    left = Fraction(0)
    stack = [Fraction(1, 2)] * 2
    for node in forest:
        size = stack.pop()
        if node == "1":
            stack += (size / 2, size / 2)
        else:
            out.append(left)
            left += size
    return out


def rotation_treepair(amount: Fraction) -> TreePair:
    """Rotation by a dyadic amount as a (non-reduced for amount!=0) tree pair."""
    amount = mod1(Fraction(amount))
    if amount.denominator & (amount.denominator - 1):
        raise ValueError(f"rotation amount {amount} is not dyadic")
    if amount == 0:
        return tp_identity()
    m = max(amount.denominator.bit_length() - 1, 1)
    tree = "0"
    for _ in range(m - 1):
        tree = "1" + tree + tree
    k = int(amount * 2 ** m)
    return TreePair(tree + tree, tree + tree, k)


def t_transporter(p: Fraction, q: Fraction) -> TreePair:
    """An element of T carrying the dyadic point p to q: the smallest forest
    cut at both, matched to itself with a shift."""
    p, q = mod1(Fraction(p)), mod1(Fraction(q))
    if any(x.denominator & (x.denominator - 1) for x in (p, q)):
        raise ValueError(f"{p} or {q} is not dyadic")
    forest, cuts = "00", [Fraction(0), Fraction(1, 2)]
    while p not in cuts or q not in cuts:
        leaf = bisect_right(cuts, p if p not in cuts else q) - 1
        forest = forest_expand(forest, leaf, ARITY)
        cuts = forest_cuts(forest)
    return TreePair(forest, forest, cuts.index(q) - cuts.index(p))


# -- the isomorphism with the central-gap stabilizer -------------------------

def tau(e: Element) -> TreePair:
    """Tree pair of a rigid-stabilizer element: its boundary action."""
    if not is_in_rist(e):
        raise NotInRist(reduce(e))
    return boundary_action(e)


def tau_inverse(t: TreePair) -> Element:
    """The rigid-stabilizer element with the given boundary tree pair.

    Its diagrams are the binary forests with a leaf behind each new central
    arc: in the wire format each binary node (l,r) becomes (l,.,r), the two
    halves are base trees 0 and 2, and base trees 1 and 3 stay leaves.
    """
    t = tp_reduce(t)
    domain, range_ = (
        parse_diagram(format_forest(side, ARITY).replace(",", ",.,") + ",.")
        for side in (t.domain, t.range)
    )
    bordering = [i for i, border in enumerate(central_skeleton(range_.forest)[1]) if border]
    return reduce(make(domain, range_, bordering[t.offset]))


def boundary_action(e: Element) -> TreePair:
    """Action of a central-gap stabilizer on the gap boundary, as a tree pair.

    The bordering leaves of the domain go in order onto those of the range,
    domain leaf 0 onto range leaf ``e.offset``.
    """
    if not is_in_stab(e):
        raise NotInStab(reduce(e))
    domain = central_skeleton(e.domain.forest)[0]
    range_, flags = central_skeleton(e.range.forest)
    return tp_reduce(TreePair(domain, range_, sum(flags[:e.offset])))


# -- factorization over the images of the rearrangement generators ----------

def _letter_tp(letter: str) -> TreePair:
    name, inv = letter[0], letter.endswith("'")
    base = {
        "B": TreePair("0100", "1000", 0),
        "G": TreePair("101000", "110000", 0),
        "D": TreePair("00", "00", 1),
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


def _positive_factorization(forest):
    """Indices i with (vine, forest) = x_{i1} ... x_{ik} in Thompson's F."""
    out = []
    n = forest.count("0")
    while forest != "0" + "10" * (n - 2) + "0":  # a leaf, then a right vine
        s = next(c for c in forest_carets(forest, ARITY) if c <= n - 3)
        forest = forest_collapse(forest, s, ARITY)
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
    q = forest_cuts(t.range)[t.offset]  # the image of 0
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
    parts = body[1:-1].split(";")
    if not (body.startswith("[") and body.endswith("]")) or len(parts) != 3:
        raise ParseError(f"a tree pair is [domain ; range ; offset], not {excerpt(body)!r}")
    try:
        offset = int(parts[2])
    except ValueError:
        raise ParseError(f"bad offset {excerpt(parts[2])!r}") from None
    domain, range_ = (parse_forest(side, 2, ARITY) for side in parts[:2])
    try:
        return TreePair(domain, range_, offset)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
