import itertools
import random
from fractions import Fraction

import pytest

from basilica.circle import Angle, mod1
from basilica.diagram import (
    ARITY,
    ArcDiagram,
    base_diagram,
    central_skeleton,
    forest_carets,
    forest_collapse,
    forest_expand,
    forest_graft,
    forest_merge,
    format_forest,
    minimal_diagram_containing,
    parse_diagram,
    parse_forest,
)
from basilica.errors import ParseError
from basilica.lamination import (
    Arc,
    BASE_ARC_HALF,
    BASE_ARC_ZERO,
    ancestors,
    arc_from_endpoints,
    central_label,
)
from basilica.thompson import forest_cuts

from oracles import minimal_diagram_by_expansion
from test_lamination import all_arcs, is_central


def A(p, q):
    return Angle(Fraction(p, q))


def refines(coarse, fine) -> bool:
    return forest_merge(coarse.forest, fine.forest, ARITY)[0] == fine.forest


def random_diagram(rng, expansions):
    d = base_diagram()
    for _ in range(expansions):
        d = d.expand_at(rng.randrange(d.leaf_count()))
    return d


def test_base_diagram_structure():
    d = base_diagram()
    assert d.leaf_count() == 4
    assert d.arcs() == {BASE_ARC_HALF, BASE_ARC_ZERO}
    spans = [(iv.lo, iv.hi) for iv in d.leaf_intervals()]
    assert spans == [
        (Fraction(1, 6), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(5, 6)),
        (Fraction(5, 6), Fraction(1, 6)),
    ]


def test_leaf_count_tracks_arc_count():
    rng = random.Random(5)
    for _ in range(30):
        d = random_diagram(rng, rng.randrange(12))
        assert d.leaf_count() == 2 * d.arc_count()


def test_expand_adds_primary_arc():
    d = base_diagram().expand_at(1)
    assert arc_from_endpoints(A(5, 12), A(7, 12)) in d.arcs()
    assert d.leaf_count() == 6
    with pytest.raises(IndexError):
        d.expand_at(6)


def contains(interval, t):
    """Does the closed ccw interval contain the point t (mod 1)?"""
    t = mod1(t)
    if t < interval.lo:
        t += 1
    return interval.lo <= t <= interval.lo + interval.length


def test_leaf_contexts_match_ancestor_computation():
    # a leaf borders the central gap iff no arc has the leaf behind it
    rng = random.Random(6)
    for _ in range(20):
        d = random_diagram(rng, rng.randrange(10))
        _, flags = central_skeleton(d.forest)
        assert len(flags) == d.leaf_count()
        for interval, border in zip(d.leaves(), flags):
            behind = any(
                contains(arc.farside(), interval.lo) and contains(arc.farside(), interval.hi)
                for arc in d.arcs()
            )
            assert border != behind


def test_central_adjacent_labels_are_arc_labels():
    rng = random.Random(7)
    for _ in range(12):
        d = random_diagram(rng, rng.randrange(10))
        skeleton, _ = central_skeleton(d.forest)
        arcs = sorted(
            central_label(a) for a in d.arcs() if is_central(a)
        )
        assert forest_cuts(skeleton) == arcs


def test_minimal_diagram_containing():
    arc = arc_from_endpoints(A(17, 96), A(19, 96))
    d = minimal_diagram_containing([arc])
    assert arc in d.arcs()
    # contains exactly the defining chain and nothing else
    assert d.arcs() == {
        BASE_ARC_HALF,
        BASE_ARC_ZERO,
        arc_from_endpoints(A(5, 24), A(7, 24)),
        arc,
    }


def test_minimal_diagram_of_one_arc_has_one_caret():
    for arc in all_arcs(8):
        d = minimal_diagram_containing([arc])
        assert arc in d.arcs()
        # the base arcs sit in the base diagram, which has no caret
        base = arc in (BASE_ARC_HALF, BASE_ARC_ZERO)
        assert len(forest_carets(d.forest, ARITY)) == (0 if base else 1)


def test_minimal_diagram_is_union_of_single_arc_diagrams():
    rng = random.Random(18)
    single = {}
    for _ in range(200):
        arcs = [BASE_ARC_HALF] if rng.random() < 0.1 else []
        for n in (rng.randint(1, 12) for _ in range(rng.randint(1, 6))):
            arcs.append(Arc(n, 2 * rng.randrange(2 ** (n - 1))))
        union = base_diagram().forest
        for arc in arcs:
            if arc not in single:
                single[arc] = minimal_diagram_by_expansion(arc)
                assert minimal_diagram_containing([arc]) == single[arc]
            union = forest_merge(union, single[arc].forest, ARITY)[0]
        assert minimal_diagram_containing(arcs).forest == union


def test_minimal_diagram_includes_ancestors():
    deep = arc_from_endpoints(A(11, 24), A(13, 24))
    d = minimal_diagram_containing([deep])
    for anc in ancestors(deep):
        assert anc in d.arcs()


def test_common_refinement_is_join():
    rng = random.Random(8)
    for _ in range(15):
        d1 = random_diagram(rng, rng.randrange(8))
        d2 = random_diagram(rng, rng.randrange(8))
        r = ArcDiagram(forest_merge(d1.forest, d2.forest, ARITY)[0])
        assert refines(d1, r) and refines(d2, r)
        assert r.arcs() == d1.arcs() | d2.arcs()


def test_subtree_shapes_and_graft_invert():
    rng = random.Random(9)
    for _ in range(15):
        coarse = random_diagram(rng, rng.randrange(6))
        fine = coarse
        for _ in range(rng.randrange(5)):
            fine = fine.expand_at(rng.randrange(fine.leaf_count()))
        union, shapes, _ = forest_merge(coarse.forest, fine.forest, ARITY)
        assert union == fine.forest
        assert len(shapes) == coarse.leaf_count()
        assert forest_graft(coarse.forest, shapes) == fine.forest


def test_collapse_inverts_expand():
    rng = random.Random(10)
    for _ in range(15):
        d = random_diagram(rng, rng.randrange(6))
        i = rng.randrange(d.leaf_count())
        e = d.expand_at(i)
        assert i in forest_carets(e.forest, ARITY)
        assert forest_collapse(e.forest, i, ARITY) == d.forest


def test_serialization_roundtrip():
    rng = random.Random(11)
    for _ in range(15):
        d = random_diagram(rng, rng.randrange(10))
        assert parse_diagram(str(d)) == d
    assert str(base_diagram()) == ".,.,.,."
    with pytest.raises(ParseError):
        parse_diagram(".,.,.")
    with pytest.raises(ParseError):
        parse_diagram("(.,.),.,.,.")


def is_forest_text(text, trees, arity):
    """Collapse '(.,...,.)' to '.' until nothing changes: a forest text
    ends as exactly `trees` comma-separated leaves."""
    caret = "(" + ",".join("." * arity) + ")"
    while caret in text:
        text = text.replace(caret, ".")
    return text == ",".join("." * trees)


def test_parse_forest_accepts_exactly_forest_texts():
    # a text over "(.,)" parses iff it is a forest text, and then formats back
    rng = random.Random(12)
    short = ["".join(p) for n in range(8) for p in itertools.product("(.,)", repeat=n)]
    for trees, arity in ((2, 2), (4, 3)):
        texts = short + [
            "".join(rng.choice("(.,)") for _ in range(rng.randrange(41)))
            for _ in range(3000)
        ]
        for _ in range(300):
            forest = "0" * trees
            for _ in range(rng.randrange(8)):
                forest = forest_expand(forest, rng.randrange(forest.count("0")), arity)
            valid = format_forest(forest, arity)
            assert parse_forest(valid, trees, arity) == forest
            i = rng.randrange(len(valid) + 1)
            char = rng.choice("(.,)")
            texts += [
                valid,
                valid[:i] + char + valid[i + 1:],
                valid[:i] + char + valid[i:],
                valid[:i] + valid[i + 1:],
            ]
        accepted = 0
        for text in texts:
            try:
                forest = parse_forest(text, trees, arity)
            except ParseError:
                assert not is_forest_text(text, trees, arity), text
                continue
            assert is_forest_text(text, trees, arity), text
            assert format_forest(forest, arity) == text
            accepted += 1
        assert 300 < accepted < len(texts)
