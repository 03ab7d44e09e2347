"""Independent brute-force models used to cross-check the kernel.

Everything here is deliberately naive: the lamination is grown by
iterated preimages under angle doubling, with the correct preimage
pairing selected by planarity alone; standard intervals are cut at their
quarter points as (lo, length) Fractions; PL maps are evaluated by a linear
scan, and membership refines one leaf at a time, rescanning from leaf 0.
Elements are checked by the Angles of their boundary points, and arcs and
gaps carried through the element's PL map.  Points are tested against the
lamination by the kernel's former checks, kept here as reference copies:
``is_standard``, ``arc_from_endpoints`` on reduced numerators and
denominators, ``endpoint_partner_arc`` and ``boundary_points``.
"""

from fractions import Fraction

from basilica.circle import Angle, mod1
from basilica.diagram import base_diagram, minimal_diagram_containing
from basilica.element import Element, make, reduce
from basilica.errors import (
    ArcMismatch,
    ArcNotPreserved,
    BreakpointNotArcEndpoint,
    ImageNotStandard,
    NotAnArc,
    SlopeNotPowerOfTwo,
    UnsupportedDenominator,
)
from basilica.lamination import Arc, BASE_ARC_HALF, BASE_ARC_ZERO, neighbor_gap

SEED_LEAF = frozenset((Fraction(1, 3), Fraction(2, 3)))


def crosses(p: frozenset, q: frozenset) -> bool:
    """Do the chords with these endpoint sets interleave on the circle?"""
    a, b = sorted(p)
    inside = sum(1 for t in q if a < t < b)
    return inside == 1


def _short(leaf) -> bool:
    # leaves never exceed the longest (major) leaf length of 1/3
    a, b = sorted(leaf)
    return min(b - a, 1 - (b - a)) <= Fraction(1, 3)


def _compatible(leaf, others) -> bool:
    if not _short(leaf):
        return False
    for other in others:
        if other == leaf:
            continue
        if crosses(leaf, other) or (leaf & other):
            return False
    return True


def preimage_closure(levels: int) -> set:
    """All leaves obtained from {1/3,2/3} by `levels` rounds of preimages.

    Each leaf has two candidate preimage pairings; exactly one avoids
    crossings and shared endpoints with everything accumulated so far.
    """
    leaves = {SEED_LEAF}
    frontier = {SEED_LEAF}
    for _ in range(levels):
        new: set = set()
        for leaf in frontier:
            a, b = sorted(leaf)
            ha = (mod1(a / 2), mod1(a / 2 + Fraction(1, 2)))
            hb = (mod1(b / 2), mod1(b / 2 + Fraction(1, 2)))
            straight = {frozenset((ha[0], hb[0])), frozenset((ha[1], hb[1]))}
            crossed = {frozenset((ha[0], hb[1])), frozenset((ha[1], hb[0]))}
            valid = []
            for pairing in (straight, crossed):
                pool = leaves | new | pairing
                if all(_compatible(piece, pool) for piece in pairing):
                    valid.append(pairing)
            assert len(valid) == 1, f"pairing of preimages of {leaf} not forced"
            new |= valid[0]
        frontier = new - leaves
        leaves |= new
    return leaves


# -- reference copies of the former point checks ------------------------------

def is_standard(lo: Fraction, hi: Fraction) -> bool:
    """Closed-form test for the two standard interval shapes."""
    length = mod1(hi - lo)
    if length == 0:
        return False
    d = length.denominator
    if length.numerator != 1 or d % 3 != 0 or ((d // 3) & (d // 3 - 1)):
        return False
    lo = mod1(lo)
    num = lo * d
    if num.denominator == 1 and num.numerator % 3 == 1:
        return True  # [(3k+1)/(3*2^n), (3k+2)/(3*2^n)]
    num2 = lo * 2 * d
    return num2.denominator == 1 and num2.numerator % 3 == 2  # [(3k-1)/(3*2^(n+1)), ...]


def arc_from_endpoints(a: Fraction, b: Fraction) -> Arc:
    """The arc with endpoints {a,b} (taken mod 1), read off their reduced
    numerators and common denominator; NotAnArc on any other pair."""
    a, b = mod1(Fraction(a)), mod1(Fraction(b))
    if {a, b} == {Fraction(1, 3), Fraction(2, 3)}:
        return Arc(1, 1)
    d = a.denominator
    n = (d // 3).bit_length() - 1
    if d == b.denominator and n >= 1 and d == 3 * 2 ** n:
        for lo, hi in ((a, b), (b, a)):
            num = lo.numerator
            if (num + 1) % 3 == 0 and (hi.numerator - num) % d == 2:
                k = ((num + 1) // 3) % 2 ** n
                if k % 2 == 0:
                    return Arc(n, k)
    witness = f"{{{a},{b}}}"
    raise NotAnArc(f"{witness} is not in the arc family", witness)


def endpoint_partner_arc(x: Fraction):
    """The unique arc having x as an endpoint, or NotAnArc."""
    x = mod1(x)
    d = x.denominator
    if d == 3:
        return arc_from_endpoints(Fraction(1, 3), Fraction(2, 3))
    if d % 6 != 0:
        raise NotAnArc(f"{x} is not an arc endpoint", x)
    num = x.numerator
    if num % 3 == 2:
        partner = Fraction(num + 2, d)
    elif num % 3 == 1:
        partner = Fraction(num - 2, d)
    else:
        raise NotAnArc(f"{x} is not an arc endpoint", x)
    return arc_from_endpoints(x, partner)


def boundary_points(diagram) -> tuple:
    """Left endpoints of the leaves, ccw from 1/6, as Angles."""
    return tuple(Angle(interval.lo) for interval in diagram.leaves())


# -- standard intervals as (lo, length) Fractions -----------------------------

BASE_SPANS = (
    (Fraction(1, 6), Fraction(1, 6)),
    (Fraction(1, 3), Fraction(1, 3)),
    (Fraction(2, 3), Fraction(1, 6)),
    (Fraction(5, 6), Fraction(1, 3)),
)


def subdivide_by_quarters(lo: Fraction, length: Fraction) -> tuple:
    """The three subintervals (quarter, half, quarter), ccw, as (lo, length)."""
    quarter = length / 4
    return (
        (mod1(lo), quarter),
        (mod1(lo + quarter), 2 * quarter),
        (mod1(lo + 3 * quarter), quarter),
    )


def primary_arc_by_quarters(lo: Fraction, length: Fraction):
    """The arc joining the interval's first and third quarter points."""
    quarter = length / 4
    return arc_from_endpoints(lo + quarter, lo + 3 * quarter)


def minimal_diagram_by_expansion(arc):
    """Expand the leaf holding the arc's farside midpoint until the arc shows."""
    far = arc.farside()
    mid = far.lo + far.length / 2
    d = base_diagram()
    while arc not in d.arcs():
        d = d.expand_at(next(i for i, iv in enumerate(d.leaves()) if _strictly_inside(iv, mid)))
    return d


# -- PL evaluation and membership by the plain rescan ------------------------

def eval_linear(f, t: Fraction) -> Fraction:
    """Image of t under the PL map f, by a linear scan of its lift."""
    t = mod1(Fraction(t))
    xs, ys = f.lifted()
    if t < xs[0]:
        t += 1
    for i in range(len(xs) - 1):
        if xs[i] <= t <= xs[i + 1]:
            slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
            return mod1(ys[i] + slope * (t - xs[i]))
    raise AssertionError("lift does not cover the period")


def _strictly_inside(interval, t: Fraction) -> bool:
    t = mod1(t)
    if t < interval.lo:
        t += 1
    return interval.lo < t < interval.lo + interval.length


def recognize_by_rescan(f):
    """``membership.recognize`` as a loop that refines the first leaf needing
    it and rescans from leaf 0, one leaf at a time; the base arcs are tested
    before any refinement.  Returns the reduced element or raises the same
    rejection."""
    def image(t):
        return eval_linear(f, t)

    def pow2(n):
        return n > 0 and n & (n - 1) == 0

    def two_exponent(den):
        return (den & -den).bit_length() - 1

    segments = f.segments()
    for _, _, _, slope in segments:
        if not (pow2(slope.numerator) and pow2(slope.denominator)):
            raise SlopeNotPowerOfTwo(slope)
    bps = [] if f.is_rotation() else [x for x, _ in f.breakpoints]
    for x in bps:
        try:
            endpoint_partner_arc(x)
        except NotAnArc:
            raise BreakpointNotArcEndpoint(Angle(x))

    def image_arc(arc):
        a, b = sorted(arc.endpoints)
        try:
            return arc_from_endpoints(image(a.f), image(b.f))
        except (NotAnArc, UnsupportedDenominator):
            raise ArcNotPreserved(arc)

    image_by_arc = {arc: image_arc(arc) for arc in (BASE_ARC_HALF, BASE_ARC_ZERO)}

    m_exp = s_max = 0
    for x_lo, _, y_lo, slope in segments:
        c = mod1(y_lo - slope * x_lo)
        m_exp = max(m_exp, two_exponent(mod1(x_lo).denominator), two_exponent(c.denominator))
        s_max = max(s_max, abs(slope.numerator.bit_length() - slope.denominator.bit_length()))
    threshold = Fraction(1, 3 * 2 ** (m_exp + s_max))

    domain = base_diagram()
    while True:
        target = None
        for i, iv in enumerate(domain.leaves()):
            if any(_strictly_inside(iv, x) for x in bps) or (
                iv.length > threshold and not is_standard(image(iv.lo), image(iv.hi))
            ):
                target = i
                break
        if target is None:
            break
        domain = domain.expand_at(target)

    for arc in sorted(domain.arcs()):
        if arc not in image_by_arc:
            image_by_arc[arc] = image_arc(arc)
    for iv in domain.leaves():
        if not is_standard(image(iv.lo), image(iv.hi)):
            raise ImageNotStandard(iv)
    range_ = minimal_diagram_containing(image_by_arc.values())
    if range_.leaf_count() != domain.leaf_count():
        raise ImageNotStandard(f)
    offset = boundary_points(range_).index(Angle(image(domain.leaves()[0].lo)))
    return reduce(make(domain, range_, offset))


# -- elements by boundary-point Angles and PL evaluation ----------------------

def make_by_angles(domain, range_, offset):
    """``element.make`` with the boundary points keyed by Angle: the image of
    each domain arc's endpoint set must be a range arc's.  The witness is
    the first mismatching arc in frozenset order."""
    e = Element(domain, range_, offset)
    bp_d = boundary_points(e.domain)
    bp_r = boundary_points(e.range)
    m = len(bp_d)
    pos = {p: i for i, p in enumerate(bp_d)}
    targets = {a.endpoints for a in e.range.arcs()}
    for arc in e.domain.arcs():
        image = frozenset(bp_r[(pos[p] + e.offset) % m] for p in arc.endpoints)
        if image not in targets:
            raise ArcMismatch(arc)
    return e


def image_of_arc_by_pl(pl, arc):
    """The arc the PL map carries the arc onto, and whether the low end of
    the farside goes to the low end of the image's farside."""
    a, b = sorted(arc.endpoints)
    image = arc_from_endpoints(pl.eval_fraction(a.f), pl.eval_fraction(b.f))
    return image, pl.eval_fraction(arc.farside().lo) == image.farside().lo


def image_of_gap_by_pl(pl, gap):
    """The gap behind an arc, or the central gap on the centerside of
    {1/3,2/3}, carried by the PL map with its side."""
    if gap.arc is None:
        arc, side = BASE_ARC_HALF, "centerside"
    else:
        arc, side = gap.arc, "farside"
    image, kept = image_of_arc_by_pl(pl, arc)
    if not kept:
        side = "centerside" if side == "farside" else "farside"
    return neighbor_gap(image, side)
