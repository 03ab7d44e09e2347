import random
import time
from fractions import Fraction

import pytest

from basilica.circle import PLCircleMap, parse_pl, pl_compose, rotation
from basilica.element import generator, identity, reduce
from basilica.errors import (
    ArcNotPreserved,
    BreakpointNotArcEndpoint,
    ImageNotStandard,
    NotAnArc,
    SlopeNotPowerOfTwo,
)
from basilica.membership import _is_arc_endpoint, recognize, t3_check
from basilica.lamination import BASE_ARC_HALF, BASE_ARC_ZERO
from basilica.words import eval_word

from oracles import endpoint_partner_arc, recognize_by_rescan
from test_element import random_element

LETTERS = ("a", "a'", "b", "b'", "g", "g'", "d")


def roundtrip(e):
    return recognize(e.to_pl())


def test_recognizes_generators():
    for name in ("alpha", "beta", "gamma", "delta"):
        g = generator(name)
        assert roundtrip(g) == reduce(g)
        assert t3_check(g.to_pl())


def test_recognizes_rotations():
    assert recognize(rotation(Fraction(1, 2))) == reduce(generator("delta"))
    assert recognize(rotation(Fraction(0))) == identity()


def test_roundtrip_on_random_products():
    rng = random.Random(31)
    for _ in range(60):
        e = reduce(random_element(rng, rng.randrange(1, 9)))
        assert roundtrip(e) == e


def test_rejects_third_rotation_on_base_arc():
    with pytest.raises(ArcNotPreserved) as info:
        recognize(rotation(Fraction(1, 3)))
    assert info.value.witness == BASE_ARC_HALF


def test_rejects_bad_slope():
    with pytest.raises(SlopeNotPowerOfTwo):
        recognize(parse_pl("0:0,1/4:3/4"))
    assert not t3_check(parse_pl("0:0,1/4:3/4"))


def test_rejects_breakpoint_off_the_arc_grid():
    # the standard Thompson T generator breaks at dyadics, not arc endpoints
    with pytest.raises(BreakpointNotArcEndpoint):
        recognize(parse_pl("0:0,1/2:1/4,3/4:1/2"))


def test_rejects_arc_breaking_rotation():
    # slope 1 everywhere, no breakpoints, but base arcs land off the family
    with pytest.raises(ArcNotPreserved):
        recognize(rotation(Fraction(1, 6)))
    with pytest.raises((ArcNotPreserved, ImageNotStandard)):
        recognize(rotation(Fraction(1, 12)))


def test_witnesses_recheck():
    try:
        recognize(parse_pl("0:0,1/4:3/4"))
    except SlopeNotPowerOfTwo as exc:
        s = exc.witness
        assert not (
            s.numerator & (s.numerator - 1) == 0
            and s.denominator & (s.denominator - 1) == 0
        )
    try:
        recognize(rotation(Fraction(1, 3)))
    except ArcNotPreserved as exc:
        pl = rotation(Fraction(1, 3))
        from basilica.lamination import arc_from_endpoints
        from basilica.circle import Angle
        from basilica.errors import NotAnArc
        a, b = sorted(exc.witness.endpoints)
        with pytest.raises(NotAnArc):
            arc_from_endpoints(
                Angle(pl.eval_fraction(a.f)), Angle(pl.eval_fraction(b.f))
            )


def test_arc_endpoints_match_former_check():
    endpoints = 0
    for j in range(3 * 2 ** 9):
        x = Fraction(j, 3 * 2 ** 9)
        try:
            endpoint_partner_arc(x)
            expected = True
        except NotAnArc:
            expected = False
        assert _is_arc_endpoint(x) == expected, x
        endpoints += expected
    assert endpoints == 2 * 2 ** 9  # both ends of each arc down to level 9


def test_accepts_only_maps_passing_t3_check():
    rng = random.Random(32)
    for _ in range(25):
        e = random_element(rng, rng.randrange(1, 7))
        assert t3_check(e.to_pl())


def outcome(recognizer, f) -> str:
    """The reduced element, or the rejection as 'code witness'."""
    try:
        return str(recognizer(f))
    except (ArcNotPreserved, BreakpointNotArcEndpoint, ImageNotStandard, SlopeNotPowerOfTwo) as exc:
        return f"{exc.code} {exc.witness}"


def differential_corpus(rng):
    """Members, members after a rotation by k/24, a rotation by k/24 between
    two members, and maps with slopes 3/2 and 1/2 after a member."""
    def member(longest):
        return eval_word([rng.choice(LETTERS) for _ in range(rng.randrange(1, longest + 1))]).to_pl()

    def turn():
        return rotation(Fraction(rng.randrange(24), 24))

    maps = [member(10) for _ in range(30)]
    maps += [pl_compose(turn(), member(8)) for _ in range(30)]
    maps += [pl_compose(member(5), pl_compose(turn(), member(5))) for _ in range(20)]
    for _ in range(20):
        r = Fraction(rng.randrange(12), 12)
        slope_map = PLCircleMap([(0, r), (Fraction(1, 2), r + Fraction(3, 4))])
        maps.append(pl_compose(slope_map, member(4)))
    return maps


def test_walk_matches_rescan_oracle():
    rejections = []
    for f in differential_corpus(random.Random(17)):
        got = outcome(recognize, f)
        assert got == outcome(recognize_by_rescan, f), str(f)
        if not got.startswith("["):
            rejections.append(got)
    codes = {got.split()[0] for got in rejections}
    assert codes == {"ArcNotPreserved", "BreakpointNotArcEndpoint", "SlopeNotPowerOfTwo"}
    # some arc rejections come after the walk: their witness is no base arc
    base = {f"ArcNotPreserved {arc}" for arc in (BASE_ARC_HALF, BASE_ARC_ZERO)}
    assert any(got.startswith("ArcNotPreserved") and got not in base for got in rejections)


def test_third_rotation_after_member_rejects_on_base_arc_fast():
    # the witness is a base arc, so no refinement is needed to find it
    start = time.perf_counter()
    for word in ("b", "b'", "g", "g'", "b b", "b g", "g b", "b' g"):
        f = pl_compose(rotation(Fraction(1, 3)), eval_word(word.split()).to_pl())
        with pytest.raises(ArcNotPreserved) as info:
            recognize(f)
        assert str(info.value.witness) == "{1/3,2/3}"
    assert time.perf_counter() - start < 1.0
