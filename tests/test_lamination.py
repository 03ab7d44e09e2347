import random
from fractions import Fraction

import pytest

from basilica.circle import Angle, mod1
from basilica.errors import NotAnArc, NotCentral
from basilica.lamination import (
    Arc,
    BASE_ARC_HALF,
    BASE_ARC_ZERO,
    BASE_INTERVALS,
    GapId,
    StandardInterval,
    ancestors,
    arc_between,
    arc_for_label,
    arc_from_endpoints,
    central_label,
    double_arc,
    grid_interval,
    gap_color,
    gap_depth,
    neighbor_gap,
    parent,
    parse_arc,
    parse_gap,
    primary_arc,
    standard_interval,
    subdivide,
)

import oracles
from oracles import (
    BASE_SPANS,
    crosses,
    preimage_closure,
    primary_arc_by_quarters,
    subdivide_by_quarters,
)


def A(p, q):
    return Angle(Fraction(p, q))


def is_central(arc):
    return not ancestors(arc)


def all_arcs(max_level):
    yield Arc(1, 1)
    for n in range(1, max_level + 1):
        for k in range(0, 2 ** n, 2):
            yield Arc(n, k)


def test_family_matches_preimage_oracle():
    oracle = preimage_closure(7)
    family = {frozenset(p.f for p in arc.endpoints) for arc in all_arcs(7)}
    assert family == oracle
    assert len(family) == 2 ** 7


def test_family_pairwise_noncrossing():
    arcs = [frozenset(p.f for p in arc.endpoints) for arc in all_arcs(7)]
    for i, p in enumerate(arcs):
        for q in arcs[i + 1 :]:
            assert not crosses(p, q)


def test_family_closed_under_doubling():
    family = set(all_arcs(7))
    for arc in all_arcs(7):
        if arc.level > 1:
            assert double_arc(arc) in family
    assert double_arc(BASE_ARC_HALF) == BASE_ARC_HALF
    assert double_arc(BASE_ARC_ZERO) == BASE_ARC_HALF


def test_arc_check_accepts_family_and_agrees_with_closed_form():
    # minimal_diagram_containing trusts Arc.__post_init__ to keep arcs in
    # the family, so the validator must accept every canonical index
    for arc in all_arcs(8):
        a, b = sorted(arc.endpoints)
        assert arc_from_endpoints(a, b) == arc
        assert arc_from_endpoints(b, a) == arc


def test_arc_check_rejections():
    for a, b in [
        (A(2, 3), A(1, 1)),      # straddles the base subdivision
        (A(1, 6), A(1, 3)),      # a standard interval, not a leaf
        (A(5, 12), A(11, 12)),   # crosses the base arcs
        (A(1, 4), A(1, 2)),      # off the endpoint grid entirely
        (A(1, 6), A(1, 6)),      # degenerate pair
    ]:
        with pytest.raises(NotAnArc):
            arc_from_endpoints(a, b)


def test_farside_is_the_short_side():
    # geometric oracle: the farside always subtends less than half the circle
    for arc in all_arcs(6):
        far = arc.farside()
        assert far.length == Fraction(2, 3 * 2 ** arc.level) < Fraction(1, 2)
        lo, hi = sorted(p.f for p in arc.endpoints)
        assert far.lo in (lo, hi)


def test_intervals_match_quarter_point_oracle():
    # every interval to depth 7 below the base, against (lo, length) Fractions
    assert [parent(iv) for iv in BASE_INTERVALS] == [None] * 4
    stack = [(iv, span, 0) for iv, span in zip(BASE_INTERVALS, BASE_SPANS)]
    seen = []
    while stack:
        iv, (lo, length), depth = stack.pop()
        seen.append(iv)
        hi = mod1(lo + length)
        assert (iv.lo, iv.length, iv.hi) == (lo, length, hi)
        assert str(iv) == f"[{Angle(lo)},{Angle(hi)}]"
        assert primary_arc(iv) == primary_arc_by_quarters(lo, length)
        if depth < 7:
            children = subdivide(iv)
            spans = subdivide_by_quarters(lo, length)
            assert [(c.lo, c.length) for c in children] == list(spans)
            for child, span in zip(children, spans):
                assert parent(child) == iv
                stack.append((child, span, depth + 1))
    # the tree reaches each index (n, k) once; down to level 8 it is complete
    assert len(set(seen)) == len(seen)
    assert {(n, k) for n in range(1, 9) for k in range(2 ** n)} <= set(seen)


def test_ancestors_by_hand():
    assert ancestors(BASE_ARC_HALF) == []
    assert ancestors(arc_from_endpoints(A(5, 24), A(7, 24))) == []
    assert ancestors(arc_from_endpoints(A(5, 12), A(7, 12))) == [BASE_ARC_HALF]
    assert ancestors(arc_from_endpoints(A(29, 48), A(31, 48))) == [BASE_ARC_HALF]
    deep = arc_from_endpoints(A(11, 24), A(13, 24))
    assert ancestors(deep) == [BASE_ARC_HALF, arc_from_endpoints(A(5, 12), A(7, 12))]


def test_ancestors_nesting_oracle():
    # A is an ancestor of B exactly when farside(A) strictly contains farside(B)
    def span(arc):
        far = arc.farside()
        return far.lo, far.lo + far.length

    def near(arc):
        # an arc (m, j) whose farside holds the midpoint k/2^n of this one
        # has |j - k/2^(n-m)| <= 1/3, so j is one of the two integers beside it
        n, k = arc.level, arc.index
        out = {BASE_ARC_HALF}
        for m in range(1, n):
            j = k >> (n - m)
            out |= {Arc(m, i % 2 ** m) for i in (j, j + 1) if i % 2 == 0}
        return out

    rng = random.Random(18)
    deep = [Arc(n, k) for n in (9, 16, 33, 61) for k in (0, 2, 2 ** (n - 1), 2 ** n - 2)]
    deep += [Arc(n, 2 * rng.randrange(2 ** (n - 1))) for n in range(9, 61) for _ in range(2)]
    shallow = list(all_arcs(8))
    for arc in shallow + deep:
        chain = ancestors(arc)
        lo, hi = span(arc)
        others = shallow if arc.level <= 8 else set(shallow) | near(arc) | set(chain)
        for other in others:
            if other == arc:
                continue
            olo, ohi = span(other)
            contains = (olo <= lo and hi <= ohi) or (
                olo <= lo + 1 and hi + 1 <= ohi
            )
            assert contains == (other in chain)


def test_central_labels_to_denominator_64():
    seen = {Fraction(k, 64): arc_for_label(Fraction(k, 64)) for k in range(64)}
    assert len(set(seen.values())) == 64
    for arc in seen.values():
        assert is_central(arc)
    # shallow arcs carry exactly the coarse labels
    shallow = {central_label(a) for a in all_arcs(7) if is_central(a)}
    assert {l for l in shallow if l.denominator <= 16} == {
        Fraction(k, 16) for k in range(16)
    }
    # cyclic order of farside positions follows the labels
    ordered = sorted(seen)
    positions = [seen[l].farside().lo for l in ordered]
    shift = positions.index(min(positions))
    rotated = positions[shift:] + positions[:shift]
    assert rotated == sorted(positions)
    for label, arc in seen.items():
        assert arc_for_label(label) == arc


def test_arc_for_label_inverts_central_label():
    for e in range(11):
        for p in range(2 ** e):
            q = Fraction(p, 2 ** e)
            assert central_label(arc_for_label(q)) == q


def test_is_central_exactly_when_labelled():
    for arc in all_arcs(11):
        try:
            central_label(arc)
            labelled = True
        except NotCentral:
            labelled = False
        assert is_central(arc) == labelled


def test_central_label_examples():
    assert central_label(BASE_ARC_ZERO) == 0
    assert central_label(BASE_ARC_HALF) == Fraction(1, 2)
    assert central_label(arc_from_endpoints(A(5, 24), A(7, 24))) == Fraction(1, 4)
    assert central_label(arc_from_endpoints(A(29, 96), A(31, 96))) == Fraction(3, 8)
    with pytest.raises(NotCentral):
        central_label(arc_from_endpoints(A(5, 12), A(7, 12)))


def test_standard_interval():
    assert standard_interval(Fraction(1, 6), Fraction(1, 3)) == (2, 1)
    assert standard_interval(Fraction(5, 6), Fraction(7, 6)) == (1, 0)
    assert standard_interval(Fraction(1, 3), Fraction(5, 12)) == (3, 3)
    assert standard_interval(Fraction(1, 3), Fraction(2, 3)) == (1, 1)
    assert standard_interval(Fraction(1, 6), Fraction(5, 12)) is None
    assert standard_interval(Fraction(0), Fraction(1, 2)) is None
    assert standard_interval(Fraction(1, 6), Fraction(1, 6)) is None
    assert standard_interval(Fraction(2, 3), Fraction(1, 3)) is None  # length 2/3, level 0
    for n in range(1, 9):
        for k in range(2 ** n):
            iv = StandardInterval(n, k)
            assert standard_interval(iv.lo, iv.hi) == iv


def test_closed_forms_match_former_checks():
    # every ordered pair of grid points with denominator dividing 3*2^6
    points = [Fraction(j, 3 * 2 ** 6) for j in range(3 * 2 ** 6)]
    arcs = 0
    for lo in points:
        for hi in points:
            assert (standard_interval(lo, hi) is not None) == oracles.is_standard(lo, hi)
            try:
                expected = oracles.arc_from_endpoints(lo, hi)
            except NotAnArc:
                expected = None
            assert arc_between(lo, hi) == expected
            arcs += expected is not None
    assert arcs == 2 * 2 ** 6  # each arc down to level 6, both ways round


def test_grid_interval_at_every_exponent():
    # the integer closed form on all pairs of numerators over 3*2^exp, most
    # of them not in lowest terms, against the former check
    for exp in range(6):
        d = 3 << exp
        for lo in range(d):
            assert grid_interval(lo, lo, exp) is None  # the empty interval
            assert grid_interval(lo, lo + d, exp) is None  # the whole circle
            for hi in range(d):
                found = grid_interval(lo, hi, exp)
                assert (found is not None) == oracles.is_standard(Fraction(lo, d), Fraction(hi, d))
        # the interval of length 2/3 passes every test but n >= 1
        assert grid_interval(2 << exp, 4 << exp, exp) is None
        for n in range(1, exp + 1):
            for k in range(2 ** n):
                iv = StandardInterval(n, k)
                assert grid_interval(iv.grid_lo(exp), iv.grid_lo(exp) + (2 << exp - n), exp) == iv


def test_gap_depth_and_color():
    assert gap_depth(GapId.central()) == 0
    assert gap_color(GapId.behind(BASE_ARC_HALF)) == 1
    deep = arc_from_endpoints(A(5, 12), A(7, 12))
    assert gap_depth(GapId.behind(deep)) == 2
    assert gap_color(GapId.behind(deep)) == 0


def test_neighbor_gap():
    assert neighbor_gap(BASE_ARC_HALF, "farside") == GapId.behind(BASE_ARC_HALF)
    assert neighbor_gap(BASE_ARC_HALF, "centerside") == GapId.central()
    deep = arc_from_endpoints(A(5, 12), A(7, 12))
    assert neighbor_gap(deep, "centerside") == GapId.behind(BASE_ARC_HALF)


def test_parse_formats():
    arc = parse_arc("{5/24, 7/24}")
    assert arc == arc_from_endpoints(A(5, 24), A(7, 24))
    assert parse_arc(str(arc)) == arc
    assert parse_gap("central") == GapId.central()
    assert parse_gap(f"behind {arc}") == GapId.behind(arc)
