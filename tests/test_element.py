import random
from fractions import Fraction

import pytest

from basilica.circle import Angle, parse_pl, pl_compose
from basilica.diagram import base_diagram
from basilica.element import (
    compose,
    equal,
    evaluate,
    expand_pair,
    generator,
    identity,
    image_of_arc,
    image_of_gap,
    inverse,
    is_in_rist,
    is_in_stab,
    make,
    parse_element,
    reduce,
)
from basilica.errors import ArcMismatch, LeafCountMismatch
from basilica.lamination import GapId, arc_from_endpoints, BASE_ARC_HALF, BASE_ARC_ZERO

from oracles import image_of_arc_by_pl, image_of_gap_by_pl, make_by_angles
from test_lamination import all_arcs


def A(p, q):
    return Angle(Fraction(p, q))


GEN_TABLE = {
    # breakpoint tables for the four generators, domain:range
    "alpha": "1/3:1/6,2/3:5/6",
    "beta": "1/6:1/6,2/3:7/24,17/24:1/3,5/6:5/6",
    "gamma": "1/6:1/6,7/24:19/96,29/96:5/24,1/3:1/3",
    "delta": "0:1/2",
}


def random_element(rng, length):
    letters = [
        generator("alpha"), generator("beta"), generator("gamma"),
        generator("delta"), inverse(generator("alpha")),
        inverse(generator("beta")), inverse(generator("gamma")),
    ]
    e = identity()
    for _ in range(length):
        e = compose(e, rng.choice(letters))
    return e


def test_generator_pl_tables():
    for name, table in GEN_TABLE.items():
        assert generator(name).to_pl() == parse_pl(table)


def test_make_rejects_bad_offsets():
    base = base_diagram()
    with pytest.raises(ArcMismatch):
        make(base, base, 1)  # rotation by one leaf breaks {1/3,2/3}
    make(base, base, 2)  # half rotation is fine


def test_make_rejects_leaf_count_mismatch():
    with pytest.raises(LeafCountMismatch):
        make(base_diagram(), base_diagram().expand_at(0), 0)


def test_expand_pair_preserves_map():
    rng = random.Random(21)
    for _ in range(40):
        e = random_element(rng, rng.randrange(1, 6))
        i = rng.randrange(e.leaf_count())
        bigger = expand_pair(e, i)
        assert bigger.leaf_count() == e.leaf_count() + 2
        assert bigger.to_pl() == e.to_pl()
        assert reduce(bigger) == reduce(e)


def test_reduce_reaches_canonical_form():
    rng = random.Random(22)
    for _ in range(30):
        e = reduce(random_element(rng, rng.randrange(6)))
        blown = e
        for _ in range(rng.randrange(1, 6)):
            blown = expand_pair(blown, rng.randrange(blown.leaf_count()))
        assert reduce(blown) == e


def test_compose_matches_pl_composition():
    rng = random.Random(23)
    for _ in range(40):
        f = random_element(rng, rng.randrange(1, 5))
        g = random_element(rng, rng.randrange(1, 5))
        assert compose(f, g).to_pl() == pl_compose(f.to_pl(), g.to_pl())


def test_group_axioms():
    rng = random.Random(24)
    for _ in range(25):
        f = random_element(rng, rng.randrange(1, 5))
        g = random_element(rng, rng.randrange(1, 5))
        h = random_element(rng, rng.randrange(1, 5))
        assert equal(compose(compose(f, g), h), compose(f, compose(g, h)))
        assert equal(compose(f, inverse(f)), identity())
        assert equal(compose(inverse(f), f), identity())
        assert equal(compose(f, identity()), f)


def test_half_rotation_squares_to_identity():
    delta = generator("delta")
    assert equal(compose(delta, delta), identity())
    assert evaluate(delta, A(0, 1)) == A(1, 2)


def test_swap_generator_exchanges_base_gaps():
    alpha = generator("alpha")
    assert image_of_gap(alpha, GapId.central()) == GapId.behind(BASE_ARC_ZERO)
    assert image_of_gap(alpha, GapId.behind(BASE_ARC_HALF)) == GapId.central()


def test_image_of_gap_respects_composition():
    rng = random.Random(25)
    gaps = [
        GapId.central(),
        GapId.behind(BASE_ARC_HALF),
        GapId.behind(BASE_ARC_ZERO),
        GapId.behind(arc_from_endpoints(A(5, 12), A(7, 12))),
        GapId.behind(arc_from_endpoints(A(5, 24), A(7, 24))),
    ]
    for _ in range(30):
        f = random_element(rng, rng.randrange(1, 4))
        g = random_element(rng, rng.randrange(1, 4))
        gap = rng.choice(gaps)
        assert image_of_gap(compose(f, g), gap) == image_of_gap(
            f, image_of_gap(g, gap)
        )


def test_image_of_arc_matches_pointwise_images():
    rng = random.Random(26)
    arcs = [BASE_ARC_HALF, BASE_ARC_ZERO, arc_from_endpoints(A(5, 12), A(7, 12))]
    for _ in range(30):
        f = random_element(rng, rng.randrange(1, 5))
        arc = rng.choice(arcs)
        image, _ = image_of_arc(f, arc)
        assert {evaluate(f, p) for p in arc.endpoints} == set(image.endpoints)


def test_leaf_positions_match_pl_oracles():
    # arc and gap images by leaf positions against the PL map, on every arc
    # up to level 6 and the central gap; make's verdict against the
    # Angle-keyed check for every offset, on the reduced pair and on one
    # expanded at a random leaf
    rng = random.Random(29)
    arcs = list(all_arcs(6))
    rejected = 0
    for _ in range(30):
        e = random_element(rng, rng.randrange(1, 9))
        pl = e.to_pl()
        assert image_of_gap(e, GapId.central()) == image_of_gap_by_pl(pl, GapId.central())
        for arc in arcs:
            assert image_of_arc(e, arc) == image_of_arc_by_pl(pl, arc)
            gap = GapId.behind(arc)
            assert image_of_gap(e, gap) == image_of_gap_by_pl(pl, gap)
        for d in (e, expand_pair(e, rng.randrange(e.leaf_count()))):
            for offset in range(d.leaf_count()):
                accepted = _accepts(make, d, offset)
                assert accepted == _accepts(make_by_angles, d, offset)
                rejected += not accepted
    assert rejected > 100


def _accepts(check, e, offset):
    try:
        check(e.domain, e.range, offset)
    except ArcMismatch:
        return False
    return True


def _middle_vine(depth, bottom):
    """A ternary tree nested depth-1 times in the middle child above `bottom`."""
    return "(.," * (depth - 1) + bottom + ",.)" * (depth - 1)


def test_make_witness_is_first_in_preorder():
    # the base arcs come first, then the nodes' primary arcs in preorder;
    # shifting a deep vine by one leaf breaks every arc of it
    vine = _middle_vine(1500, "(.,.,.)")
    with pytest.raises(ArcMismatch) as caught:
        parse_element(f"[{vine},.,.,. ; {vine},.,.,. ; 1]")
    assert caught.value.witness == BASE_ARC_HALF
    # otherwise the first node in preorder whose arc lands elsewhere: the
    # bottom node, before the arc of its child caret
    left, middle = (_middle_vine(3, bottom) for bottom in ("((.,.,.),.,.)", "(.,(.,.,.),.)"))
    with pytest.raises(ArcMismatch) as caught:
        parse_element(f"[.,{left},.,. ; .,{middle},.,. ; 0]")
    assert str(caught.value.witness) == "{23/48,25/48}"


def test_stab_and_rist_membership():
    assert is_in_stab(generator("beta"))
    assert is_in_stab(generator("delta"))
    assert not is_in_stab(generator("alpha"))
    assert is_in_rist(generator("gamma"))
    assert not is_in_rist(generator("alpha"))
    rng = random.Random(28)
    for _ in range(10):
        e = identity()
        for _ in range(rng.randrange(1, 5)):
            e = compose(e, rng.choice(
                [generator("beta"), generator("gamma"), generator("delta")]
            ))
        assert is_in_stab(e) and is_in_rist(e)


def test_serialization_roundtrip():
    rng = random.Random(27)
    for _ in range(20):
        e = random_element(rng, rng.randrange(6))
        assert parse_element(str(e)) == e
    assert str(identity()) == "[.,.,.,. ; .,.,.,. ; 0]"
