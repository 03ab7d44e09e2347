import random
from fractions import Fraction

import pytest

from basilica.circle import parse_pl, rotation
from basilica.element import generator, identity, reduce
from basilica.errors import (
    ArcNotPreserved,
    BreakpointNotArcEndpoint,
    ImageNotStandard,
    SlopeNotPowerOfTwo,
)
from basilica.membership import recognize, t3_check
from basilica.lamination import BASE_ARC_HALF

from test_element import random_element


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


def test_accepts_only_maps_passing_t3_check():
    rng = random.Random(32)
    for _ in range(25):
        e = random_element(rng, rng.randrange(1, 7))
        assert t3_check(e.to_pl())
