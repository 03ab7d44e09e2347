"""Words in the four generators, and the algorithm writing any element as one.

Letters are a, b, g, d; a trailing apostrophe marks an inverse.  The
leftmost letter is applied last.  ``decompose`` undoes an element in three
moves: transport the image of the central gap back to the center, kill the
induced boundary action with a rigid-stabilizer element, then split what
remains into pieces supported behind single central arcs and recurse.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .circle import Angle, PLCircleMap
from .element import (
    Element,
    compose,
    equal,
    generator,
    identity,
    image_of_gap,
    inverse,
    is_in_stab,
    reduce,
)
from .errors import ParseError, excerpt
from .lamination import (
    GapId,
    ancestors,
    central_label,
    gap_color,
    gap_depth,
    is_central,
)
from .membership import recognize
from .thompson import (
    TreePair,
    factor_t,
    forest_from_cuts,
    invert_word,
    t_transporter,
    tau_inverse,
    boundary_action,
)

_LETTERS = {"a": "alpha", "b": "beta", "g": "gamma", "d": "delta"}


def parse_word(text: str) -> list[str]:
    word = []
    for chunk in text.split():
        if not chunk or chunk[0] not in _LETTERS or chunk[1:] not in ("", "'"):
            raise ParseError(f"bad letter {excerpt(chunk)!r}")
        word.append(chunk)
    return word


def format_word(word) -> str:
    return " ".join(word)


def free_reduce(word) -> list[str]:
    out: list[str] = []
    for letter in word:
        if out and out[-1][0] == letter[0] and (out[-1] + letter).count("'") == 1:
            out.pop()
        else:
            out.append(letter)
    return out


def _letter_element(letter: str) -> Element:
    e = generator(_LETTERS[letter[0]])
    return inverse(e) if letter.endswith("'") else e


def eval_word(word) -> Element:
    out = identity()
    for letter in word:
        out = compose(out, _letter_element(letter))
    return out


def random_word(seed: int, length: int) -> list[str]:
    rng = random.Random(seed)
    letters = ["a", "b", "g", "d", "a'", "b'", "g'"]
    return [rng.choice(letters) for _ in range(length)]


def random_element(seed: int, length: int) -> Element:
    return eval_word(random_word(seed, length))


def abelianize(e: Element) -> int:
    """Image in Z/2: the two-coloring class of where the central gap goes."""
    return gap_color(image_of_gap(e, GapId.central()))


def _bgd_to_word(letters) -> list[str]:
    return [letter.lower() for letter in letters]


def transport_gap_to_center(gap: GapId) -> list[str]:
    """A word whose element carries the gap onto the central gap.

    Rotate the outermost arc over the gap to label 1/2, then cross the
    corresponding arc with the swap generator; each pass strictly lowers
    the gap depth.
    """
    if gap.arc is None:
        return []
    chain = ancestors(gap.arc)
    outer = chain[0] if chain else gap.arc
    mover = _bgd_to_word(factor_t(t_transporter(central_label(outer), Fraction(1, 2))))
    step = ["a"] + mover
    moved = image_of_gap(eval_word(step), gap)
    assert gap_depth(moved) == gap_depth(gap) - 1, "transport failed to descend"
    return transport_gap_to_center(moved) + step


def _splice_behind(e: Element, arc) -> Element:
    """The element agreeing with e behind the arc and trivial elsewhere."""
    far = arc.farside()
    pl = e.to_pl()
    xs = {far.lo, far.hi}
    if not pl.is_rotation():
        xs.update(
            x.f for x, _ in pl.breakpoints if far.contains(x.f, strict=True)
        )
    pts = []
    for x in sorted(xs):
        y = pl.eval_fraction(x) if far.contains(x) else x
        pts.append((Angle(x), Angle(y)))
    return recognize(PLCircleMap(pts))


def decompose(e: Element) -> list[str]:
    """A word in a, b, g, d multiplying out to the element."""
    word = free_reduce(_decompose(reduce(e)))
    assert equal(eval_word(word), e), "decomposition does not multiply back"
    return word


def _arc_measure(e: Element) -> int:
    return e.domain.arc_count() + e.range.arc_count()


def _decompose(e: Element) -> list[str]:
    e = reduce(e)
    if e == identity():
        return []

    # (i) move back into the stabilizer of the central gap
    prefix: list[str] = []
    if not is_in_stab(e):
        w1 = transport_gap_to_center(image_of_gap(e, GapId.central()))
        prefix = invert_word(w1)
        e = reduce(compose(eval_word(w1), e))

    # (ii) kill the boundary action with a rigid-stabilizer element
    wg = _bgd_to_word(factor_t(boundary_action(e)))
    h = reduce(compose(inverse(eval_word(wg)), e))
    if h == identity():
        return prefix + wg
    return prefix + wg + _decompose_sections(h)


def _decompose_sections(h: Element) -> list[str]:
    """h fixes every central arc; split by which central arc hides support."""
    measure = _arc_measure(h)
    loaded = sorted(
        {
            ancestors(arc)[0]
            for side in (h.domain, h.range)
            for arc in side.arcs()
            if not is_central(arc)
        }
    )
    assert loaded, "trivial boundary action but no hidden support"

    if len(loaded) >= 2:
        out: list[str] = []
        for bounding in loaded:
            piece = _splice_behind(h, bounding)
            assert _arc_measure(piece) < measure, "section failed to shrink"
            out.extend(_decompose(piece))
        return out

    # a single loaded section: rotate it to the arc at label 0, pull it
    # one level toward the center with the swap generator, recurse
    bounding = loaded[0]
    labels = sorted(central_label(a) for a in h.domain.arcs() if is_central(a))
    m = len(labels)
    j = (m - labels.index(central_label(bounding))) % m
    if j:
        forest = forest_from_cuts(labels)
        rot = tau_inverse(TreePair(forest, forest, j))
        w_rot = _bgd_to_word(factor_t(TreePair(forest, forest, j)))
        k = reduce(compose(compose(rot, h), inverse(rot)))
    else:
        w_rot = []
        k = h
    alpha = generator("alpha")
    k2 = reduce(compose(compose(inverse(alpha), k), alpha))
    assert _arc_measure(k2) < measure, "conjugation failed to shrink"
    return invert_word(w_rot) + ["a"] + _decompose(k2) + ["a'"] + w_rot
