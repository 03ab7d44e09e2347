"""Words in the four generators, and the algorithm writing any element as one.

Letters are a, b, g, d; a trailing apostrophe marks an inverse.  The
leftmost letter is applied last.  ``decompose`` undoes an element in three
moves: transport the image of the central gap back to the center, kill the
induced boundary action with a rigid-stabilizer element, then split what
remains into pieces supported behind single central arcs, pushed on one
work list of elements still to write.  The pieces are cut from the forests
alone: what remains fixes the central skeleton, so each hidden subtree
hanging off it (one behind each central arc) is a piece of its own.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import groupby

from .diagram import ArcDiagram, central_skeleton, product
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
from .lamination import GapId, ancestors, central_label, gap_color, gap_depth
from .thompson import (
    TreePair,
    factor_t,
    free_reduce,
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


def _letter_element(letter: str) -> Element:
    e = generator(_LETTERS[letter[0]])
    return inverse(e) if letter.endswith("'") else e


def eval_word(word) -> Element:
    return product(identity(), map(_letter_element, word))


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
    """A free-reduced word whose element carries the gap onto the central gap.

    Each pass rotates the outermost arc over the gap to label 1/2, then
    crosses the corresponding arc with the swap generator, and strictly
    lowers the gap depth; the last pass is written first.
    """
    passes = []
    while gap.arc is not None:
        outer = (ancestors(gap.arc) or [gap.arc])[0]
        mover = factor_t(t_transporter(central_label(outer), Fraction(1, 2)))
        step = ["a"] + _bgd_to_word(mover)
        moved = image_of_gap(eval_word(step), gap)
        assert gap_depth(moved) == gap_depth(gap) - 1, "transport failed to descend"
        passes.append(step)
        gap = moved
    return free_reduce([letter for step in reversed(passes) for letter in step])


def decompose(e: Element) -> list[str]:
    """A word in a, b, g, d multiplying out to the element."""
    word = free_reduce(_decompose(reduce(e)))
    assert equal(eval_word(word), e), "decomposition does not multiply back"
    return word


def _arc_measure(e: Element) -> int:
    """Arcs beyond the base arcs, on both sides: the internal nodes."""
    return e.domain.forest.count("1") + e.range.forest.count("1")


def _decompose(e: Element) -> list[str]:
    """The paper's finite-generation argument on one work list: a stack of
    elements still to write and of the words that follow them.  Each
    element takes three moves; the last pushes elements with fewer arcs."""
    out: list[str] = []
    todo: list = [e]
    while todo:
        item = todo.pop()
        if isinstance(item, list):
            out.extend(item)
            continue
        e = reduce(item)
        if e == identity():
            continue

        # (i) move back into the stabilizer of the central gap
        if not is_in_stab(e):
            w1 = transport_gap_to_center(image_of_gap(e, GapId.central()))
            out.extend(invert_word(w1))
            e = compose(eval_word(w1), e)

        # (ii) kill the boundary action with a rigid-stabilizer element
        t = boundary_action(e)
        out.extend(_bgd_to_word(factor_t(t)))
        h = compose(inverse(tau_inverse(t)), e)
        if h == identity():
            continue

        # (iii) h fixes every central arc; split it by the slots it moves
        measure = _arc_measure(h)
        sections = _sections(h)
        assert sections, "trivial boundary action but no hidden support"
        if len(sections) >= 2:
            for _, piece in reversed(sections):
                assert _arc_measure(piece) < measure, "section failed to shrink"
                todo.append(piece)
            continue

        # a single loaded slot: rotate it behind the arc at label 0, pull it
        # one level toward the center with the swap generator, write the rest
        forest = central_skeleton(h.domain.forest)[0]
        m = forest.count("0")
        j = (m - sections[0][0]) % m
        w_rot, k = [], h
        if j:
            rot = tau_inverse(TreePair(forest, forest, j))
            w_rot = _bgd_to_word(factor_t(TreePair(forest, forest, j)))
            k = compose(compose(rot, h), inverse(rot))
        alpha = generator("alpha")
        k2 = compose(compose(inverse(alpha), k), alpha)
        assert _arc_measure(k2) < measure, "conjugation failed to shrink"
        out.extend(invert_word(w_rot) + ["a"])
        todo += [["a'"] + w_rot, k2]
    return out


def _runs(diagram: ArcDiagram) -> list[tuple[bool, str]]:
    """The forest cut into maximal runs of bordering and of hidden nodes.

    A node borders the central gap iff its leftmost leaf does, so each leaf
    with the internal nodes just before it ('1*0') takes the leaf's flag.
    The hidden runs are the subtrees hanging off the central skeleton, one
    behind each central arc ("slots"), left to right; runs alternate,
    starting with a bordering one.
    """
    segments = zip(central_skeleton(diagram.forest)[1], re.findall("1*0", diagram.forest))
    return [
        (border, "".join(text for _, text in run))
        for border, run in groupby(segments, key=lambda pair: pair[0])
    ]


def _sections(h: Element) -> list[tuple[int, Element]]:
    """For each slot that h moves, left to right: the number of skeleton
    leaves before it, and the piece of h behind it.

    h fixes the central skeleton, so its domain and range share the
    bordering runs and slot i goes onto slot i.  A piece keeps one slot on
    both sides, collapses the others to leaves, and has offset 0.
    """
    dom, ran = _runs(h.domain), _runs(h.range)
    assert [r for r in dom if r[0]] == [r for r in ran if r[0]], "skeleton moved"
    out = []
    before = 0
    for i, ((border, d), (_, r)) in enumerate(zip(dom, ran)):
        if border:
            before += d.count("0")
        elif (d, r) != ("0", "0"):
            domain, range_ = (
                "".join(text if b or k == i else "0" for k, (b, text) in enumerate(runs))
                for runs in (dom, ran)
            )
            out.append((before, Element(ArcDiagram(domain), ArcDiagram(range_), 0)))
    return out
