"""Tree pairs for Thompson's T and the bridge to the rearrangement group.

A tree pair is a ``diagram.ForestPair`` of binary preorder strings over the
halves [0,1/2], [1/2,1] with a cyclic offset matching leaves;
``tp_inverse``, ``tp_reduce``, ``tp_compose`` and ``tp_equal`` are the pair
operations shared with ``element``.  The rigid stabilizer of the central gap
is isomorphic to T; ``tau`` realizes the isomorphism by the central skeleton
(``diagram.central_skeleton``): the nodes of an arc diagram that border the
central gap form a binary forest whose leaf i has dyadic left end the label
of the i-th central arc.  ``factor_t`` writes any tree pair as a free-reduced
word in the three images of the rearrangement generators.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

from .circle import PLCircleMap, grid_map, mod1
from .diagram import (
    ForestPair,
    central_skeleton,
    compose as tp_compose,
    equal as tp_equal,
    forest_carets,
    forest_collapse,
    forest_expand,
    format_forest,
    inverse as tp_inverse,
    parse_diagram,
    parse_forest,
    product,
    reduce as tp_reduce,
)
from .element import Element, is_in_rist, is_in_stab, make, reduce
from .errors import NotInRist, NotInStab, ParseError, excerpt

ARITY = 2


class TreePair(ForestPair):
    """A pair of dyadic subdivisions of the circle with a leaf offset."""

    __slots__ = ()
    arity = ARITY
    side = str

    def __init__(self, domain: str, range_: str, offset: int):
        if any(side.count("0") != side.count("1") + 2 for side in (domain, range_)):
            raise ValueError("each side needs one tree per half")
        if range_.count("0") != domain.count("0"):
            raise ValueError("leaf counts differ")
        super().__init__(domain, range_, offset, (domain, range_))


def tp_identity() -> TreePair:
    return TreePair("00", "00", 0)


def tp_to_pl(t: TreePair) -> PLCircleMap:
    dom, ran = _leaf_depths(t.domain), _leaf_depths(t.range)
    exp = max(dom + ran)
    dom, ran = ([0, *accumulate(3 << exp - depth for depth in side[:-1])] for side in (dom, ran))
    m = len(dom)
    return grid_map(exp, [(dom[i], ran[(i + t.offset) % m]) for i in range(m)])


# -- dyadic cut sets ---------------------------------------------------------

def forest_cuts(forest: str) -> list:
    """Left ends of the leaves, in order."""
    return [Fraction(0), *accumulate(Fraction(1, 1 << depth) for depth in _leaf_depths(forest)[:-1])]


def _leaf_depths(forest: str) -> list[int]:
    """The depth of each leaf in order, the two halves at depth 1."""
    out = []
    stack = [1, 1]
    for node in forest:
        depth = stack.pop()
        if node == "1":
            stack += (depth + 1, depth + 1)
        else:
            out.append(depth)
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
    forest, cuts = "00", [Fraction(0), Fraction(1, 2), Fraction(1)]
    while p not in cuts or q not in cuts:
        leaf = bisect_right(cuts, p if p not in cuts else q) - 1
        forest = forest_expand(forest, leaf, ARITY)
        cuts.insert(leaf + 1, (cuts[leaf] + cuts[leaf + 1]) / 2)
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
    return product(tp_identity(), map(_letter_tp, word))


def invert_word(word) -> list[str]:
    return [
        letter[:-1] if letter.endswith("'") else letter + "'"
        for letter in reversed(word)
    ]


def free_reduce(word) -> list[str]:
    out: list[str] = []
    for letter in word:
        if out and out[-1][0] == letter[0] and (out[-1] + letter).count("'") == 1:
            out.pop()
        else:
            out.append(letter)
    return out


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


def _x_word(i: int):
    """x_0 = B; x_i = B^-i G^-1 B^(i+1), x_1 = B^-1 G^-1 B B conjugated by x_0."""
    return ["B"] if i == 0 else ["B'"] * i + ["G'"] + ["B"] * (i + 1)


def factor_t(t: TreePair):
    """A free-reduced word over B, G, D (primes inverse) multiplying out to t."""
    t = tp_reduce(t)
    if t == tp_identity():
        return []
    q = forest_cuts(t.range)[t.offset]  # the image of 0
    transport = _transport_to_zero(q)
    h = tp_compose(word_to_tp(transport), t)
    assert h.offset == 0, "map fixing 0 must match leaves without rotation"
    head = [x for i in _positive_factorization(h.range) for x in _x_word(i)]
    tail = [x for i in _positive_factorization(h.domain) for x in _x_word(i)]
    return free_reduce(invert_word(transport) + head + invert_word(tail))


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
