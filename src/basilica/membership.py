"""Deciding whether a PL circle map is a dyadic rearrangement.

A map belongs to the group iff its slopes are powers of two, its
breakpoints are arc endpoints, and after refining the base diagram far
enough every leaf maps affinely onto a standard interval with arcs going
to arcs.  ``recognize`` checks, in this order and reporting the first
obstruction found: the slopes, the breakpoints, the images of the two
base arcs, and then, after one preorder walk has refined the base
diagram, the images of the other arcs and of the leaves.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .circle import Angle, PLCircleMap, mod1
from .diagram import ArcDiagram, minimal_diagram_containing
from .element import Element, make, reduce
from .errors import (
    ArcNotPreserved,
    BreakpointNotArcEndpoint,
    ImageNotStandard,
    NotAnArc,
    SlopeNotPowerOfTwo,
    UnsupportedDenominator,
)
from .lamination import (
    BASE_ARC_HALF,
    BASE_ARC_ZERO,
    BASE_INTERVALS,
    arc_from_endpoints,
    is_standard,
    subdivide,
)


def _is_pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def _pow2_fraction(x: Fraction) -> bool:
    return _is_pow2(x.numerator) and _is_pow2(x.denominator)


def t3_check(f: PLCircleMap) -> bool:
    """Slopes are powers of two.  Breakpoints are grid points by construction,
    so this is the whole membership test for the ambient Thompson-like group."""
    return all(_pow2_fraction(s) for s in f.slopes())


def _true_breakpoints(f: PLCircleMap) -> list[Fraction]:
    """Abscissas where the slope actually changes (drops the synthetic
    anchor a pure rotation is stored with)."""
    if f.is_rotation():
        return []
    return [x.f for x, _ in f.breakpoints]


def _two_exponent(den: int) -> int:
    e = 0
    while den % 2 == 0:
        den //= 2
        e += 1
    return e


def recognize(f: PLCircleMap) -> Element:
    """Reconstruct the reduced arc pair diagram of f, or reject with a witness."""
    for slope in f.slopes():
        if not _pow2_fraction(slope):
            raise SlopeNotPowerOfTwo(slope)
    bps = _true_breakpoints(f)
    for x in bps:
        try:
            _endpoint_partner_arc(x)
        except NotAnArc:
            raise BreakpointNotArcEndpoint(Angle(x))

    # arcs first, so that e.g. an off-family rotation reports the arc it breaks
    image_arcs = [_image_arc(f, arc) for arc in (BASE_ARC_HALF, BASE_ARC_ZERO)]

    # depth bound: a member map carries some finite diagram, whose leaves are
    # no finer than the 2-parts of the breakpoint and offset denominators plus
    # the slope range allow.  Expanding below that cannot be needed, so any
    # leaf still mapping non-standardly down there is a genuine obstruction.
    m_exp = 0
    s_max = 0
    for x_lo, _, y_lo, slope in f.segments():
        c = mod1(y_lo - slope * x_lo)
        for q in (x_lo, c):
            m_exp = max(m_exp, _two_exponent(mod1(q).denominator))
        s_max = max(s_max, abs(slope.numerator.bit_length() - slope.denominator.bit_length()))
    max_level = m_exp + s_max  # deepest level longer than 1/(3*2^(m_exp+s_max))

    # one preorder walk: an interval is refined iff a breakpoint lies strictly
    # inside it, or it is above the depth bound and its image is not standard.
    # The test reads only the interval, so the walk builds the same forest as
    # refining the first such leaf of the diagram until none is left.
    cuts = sorted(bps + [x + 1 for x in bps]) + [2]  # 2 lies past every interval
    forest = []
    stack = list(BASE_INTERVALS[::-1])
    while stack:
        iv = stack.pop()
        lo = iv.lo
        hi = lo + iv.length
        if cuts[bisect_right(cuts, lo)] < hi or (
            iv.level <= max_level
            and not is_standard(f.eval_fraction(lo), f.eval_fraction(hi))
        ):
            forest.append("1")
            stack.extend(subdivide(iv)[::-1])
        else:
            forest.append("0")
    domain = ArcDiagram("".join(forest))

    others = sorted(domain.arcs() - {BASE_ARC_HALF, BASE_ARC_ZERO})
    image_arcs += [_image_arc(f, arc) for arc in others]

    for iv in domain.leaves():
        if not is_standard(f.eval_fraction(iv.lo), f.eval_fraction(iv.hi)):
            raise ImageNotStandard(iv)

    range_ = minimal_diagram_containing(image_arcs)
    if range_.leaf_count() != domain.leaf_count():
        raise ImageNotStandard(f)
    first_image = Angle(f.eval_fraction(domain.leaves()[0].lo))
    offset = range_.boundary_points().index(first_image)
    e = make(domain, range_, offset)
    assert e.to_pl() == f, "reconstructed diagram disagrees with input map"
    return reduce(e)


def _image_arc(f: PLCircleMap, arc):
    """The arc that f carries the given arc onto, or ArcNotPreserved."""
    a, b = sorted(arc.endpoints)
    try:
        return arc_from_endpoints(Angle(f.eval_fraction(a.f)), Angle(f.eval_fraction(b.f)))
    except (NotAnArc, UnsupportedDenominator):
        raise ArcNotPreserved(arc)


def _endpoint_partner_arc(x: Fraction):
    """The unique arc having x as an endpoint, or NotAnArc."""
    x = mod1(x)
    d = x.denominator
    if d == 3:
        return arc_from_endpoints(Angle(Fraction(1, 3)), Angle(Fraction(2, 3)))
    if d % 6 != 0:
        raise NotAnArc(f"{x} is not an arc endpoint", x)
    num = x.numerator
    if num % 3 == 2:
        partner = Fraction(num + 2, d)
    elif num % 3 == 1:
        partner = Fraction(num - 2, d)
    else:
        raise NotAnArc(f"{x} is not an arc endpoint", x)
    return arc_from_endpoints(Angle(x), Angle(mod1(partner)))
