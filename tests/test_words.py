import random
import time

import pytest

from basilica.circle import PLCircleMap
from basilica.element import (
    compose,
    equal,
    expand_pair,
    generator,
    identity,
    image_of_arc,
    image_of_gap,
    inverse,
    is_in_rist,
    is_in_stab,
    parse_element,
    reduce,
)
from basilica.errors import ParseError
from basilica.lamination import GapId, ancestors, central_label, gap_depth
from basilica.thompson import boundary_action, tau_inverse, tp_to_pl
from basilica.words import (
    _sections,
    abelianize,
    decompose,
    eval_word,
    format_word,
    free_reduce,
    invert_word,
    parse_word,
    random_element,
    random_word,
    transport_gap_to_center,
)

from test_diagram import contains
from test_lamination import all_arcs, is_central


def test_parse_and_format():
    w = parse_word("a b' d")
    assert w == ["a", "b'", "d"]
    assert format_word(w) == "a b' d"
    with pytest.raises(ParseError):
        parse_word("a x")
    with pytest.raises(ParseError):
        parse_word("a''")


def test_leftmost_letter_applies_last():
    w = eval_word(["a", "d"])
    assert equal(w, compose(generator("alpha"), generator("delta")))


def test_free_reduce_and_invert():
    assert free_reduce(["a", "a'", "b"]) == ["b"]
    assert free_reduce(["a", "b", "b'", "a'"]) == []
    assert invert_word(["a", "b'"]) == ["b", "a'"]
    rng = random.Random(51)
    for _ in range(20):
        w = random_word(rng.randrange(1000), rng.randrange(8))
        assert equal(eval_word(free_reduce(w)), eval_word(w))
        assert equal(eval_word(invert_word(w)), inverse(eval_word(w)))


def test_random_element_is_deterministic():
    assert str(random_element(42, 8)) == str(random_element(42, 8))
    assert equal(random_element(7, 0), identity())


def test_transport_reaches_center_for_shallow_gaps():
    # every gap of depth <= 4 that arcs up to level 7 can bound
    count = 0
    for arc in all_arcs(7):
        gap = GapId.behind(arc)
        if gap_depth(gap) > 4:
            continue
        word = transport_gap_to_center(gap)
        assert image_of_gap(eval_word(word), gap) == GapId.central()
        count += 1
    assert transport_gap_to_center(GapId.central()) == []
    assert count >= 30


def test_decompose_multiplies_back():
    rng = random.Random(52)
    for _ in range(25):
        e = random_element(rng.randrange(10 ** 6), rng.randrange(7))
        word = decompose(e)
        assert equal(eval_word(word), e)


def test_deep_element_decomposes_quickly():
    # 24 leaves nested 9 deep: with rotations as transporters this took
    # 13 s and 4076 letters
    e = parse_element(
        "[.,.,.,(.,.,((((((.,.,.),.,.),.,.),(.,.,.),.),.,(.,.,.)),.,(.,.,.))) ; "
        ".,(((((.,.,(.,.,(.,.,(.,.,(.,(.,.,.),.))))),.,.),.,.),.,.),.,.),.,. ; 10]"
    )
    start = time.perf_counter()
    word = decompose(e)
    assert time.perf_counter() - start < 1
    assert equal(eval_word(word), e)


def test_decompose_length_is_linear_in_leaves():
    rng = random.Random(56)
    for _ in range(300):
        e = reduce(random_element(rng.randrange(10 ** 6), rng.randrange(1, 30)))
        assert len(decompose(e)) <= 4 * e.leaf_count()


def test_decompose_of_identity_is_empty():
    assert decompose(identity()) == []
    assert decompose(compose(generator("delta"), generator("delta"))) == []


def test_abelianization_values():
    assert abelianize(generator("alpha")) == 1
    assert abelianize(generator("beta")) == 0
    assert abelianize(generator("gamma")) == 0
    assert abelianize(generator("delta")) == 0


def test_abelianization_is_a_homomorphism():
    rng = random.Random(53)
    for _ in range(30):
        f = random_element(rng.randrange(10 ** 6), rng.randrange(6))
        g = random_element(rng.randrange(10 ** 6), rng.randrange(6))
        assert abelianize(compose(f, g)) == (abelianize(f) + abelianize(g)) % 2


def test_commutators_die_in_the_abelianization():
    rng = random.Random(54)
    for _ in range(15):
        f = random_element(rng.randrange(10 ** 6), rng.randrange(1, 5))
        g = random_element(rng.randrange(10 ** 6), rng.randrange(1, 5))
        comm = compose(
            compose(inverse(f), inverse(g)), compose(f, g)
        )
        assert abelianize(comm) == 0


def test_alpha_parity_of_decompositions():
    rng = random.Random(55)
    for _ in range(15):
        e = random_element(rng.randrange(10 ** 6), rng.randrange(6))
        word = decompose(e)
        parity = sum(1 for letter in word if letter[0] == "a") % 2
        assert parity == abelianize(e)


def behind(h, arc):
    """The PL map agreeing with h on the farside of the arc, trivial elsewhere."""
    far, pl = arc.farside(), h.to_pl()
    xs = {far.lo, far.hi} | {x for x, _ in pl.breakpoints}
    return PLCircleMap([(x, pl.eval_fraction(x) if contains(far, x) else x) for x in sorted(xs)])


def test_skeleton_paths_match_pl_paths():
    # the central-skeleton predicates, boundary action and decompose pieces
    # against the PL map and the dyadic labels of the arcs; w d w d moves
    # two slots where w moves one, so half the words take that form; a
    # repeated element is checked once
    rng = random.Random(7)
    seen = set()
    stab = rist = split = 0
    for _ in range(3000):
        word = random_word(rng.randrange(10 ** 6), rng.randrange(5))
        if rng.random() < 0.5:
            word += ["d"] + word + ["d"]
        e = eval_word(word)
        if e in seen:
            continue
        seen.add(e)
        in_stab = image_of_gap(e, GapId.central()) == GapId.central()
        assert is_in_stab(e) == in_stab
        assert is_in_stab(expand_pair(e, rng.randrange(e.leaf_count()))) == in_stab
        in_rist = all(is_central(a) for a in e.domain.arcs() | e.range.arcs())
        assert is_in_rist(e) == in_rist
        if not in_stab:
            continue
        stab += 1
        rist += in_rist
        pairs = [
            (central_label(a), central_label(image_of_arc(e, a)[0]))
            for a in e.domain.arcs()
            if is_central(a)
        ]
        assert tp_to_pl(boundary_action(e)) == PLCircleMap(pairs)
        h = reduce(compose(inverse(tau_inverse(boundary_action(e))), e))
        if h == identity():
            continue
        product = identity()
        sections = _sections(h)
        split += len(sections) > 1
        for _, piece in sections:
            bounding = {
                ancestors(a)[0]
                for a in piece.domain.arcs() | piece.range.arcs()
                if not is_central(a)
            }
            assert len(bounding) == 1
            assert piece.to_pl() == behind(h, bounding.pop())
            product = compose(product, piece)
        assert product == h
    assert len(seen) > 600 and stab > 250 and rist > 150 and split > 8
