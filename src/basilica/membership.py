"""Deciding whether a PL circle map is a dyadic rearrangement.

A map belongs to the group iff its slopes are powers of two, its
breakpoints are arc endpoints, and after refining the base diagram far
enough every leaf maps affinely onto a standard interval with arcs going
to arcs.  ``recognize`` checks, in this order and reporting the first
obstruction found: the slopes, the breakpoints, the images of the two base
arcs, and then, after one preorder walk has refined the base diagram, the
images of the other arcs and of the leaves.  Every point is an integer over
one denominator 3*2^N, N deep enough for all of them, and every check asks
``grid_interval`` or ``grid_arc`` which standard interval, or which arc, a
pair of image points bounds.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .circle import PLCircleMap, lift_image
from .diagram import ArcDiagram, minimal_diagram_containing
from .element import Element, make, reduce
from .errors import ArcNotPreserved, BreakpointNotArcEndpoint, ImageNotStandard, SlopeNotPowerOfTwo
from .lamination import (
    BASE_ARC_HALF,
    BASE_ARC_ZERO,
    BASE_INTERVALS,
    grid_arc,
    grid_interval,
    subdivide,
)


def _slope_exponents(f: PLCircleMap) -> list[int]:
    """Each slope of f as its exponent of two; SlopeNotPowerOfTwo names the first that is none."""
    out = []
    for i in range(len(f.xs) - 1):
        dx, dy = f.xs[i + 1] - f.xs[i], f.ys[i + 1] - f.ys[i]
        if dy // (dy & -dy) != dx // (dx & -dx):
            raise SlopeNotPowerOfTwo(Fraction(dy, dx))
        out.append((dy & -dy).bit_length() - (dx & -dx).bit_length())
    return out


def t3_check(f: PLCircleMap) -> bool:
    """Slopes are powers of two.  Breakpoints are grid points by construction,
    so this is the whole membership test for the ambient Thompson-like group."""
    try:
        _slope_exponents(f)
    except SlopeNotPowerOfTwo:
        return False
    return True


def recognize(f: PLCircleMap) -> Element:
    """Reconstruct the reduced arc pair diagram of f, or reject with a witness."""
    slopes = _slope_exponents(f)
    # where the slope changes: not at the synthetic anchor of a rotation
    for x in [] if f.is_rotation() else f.xs[:-1]:
        if not _is_arc_endpoint(x, f.exp):
            raise BreakpointNotArcEndpoint(Fraction(x, 3 << f.exp))

    # depth bound: a member map carries some finite diagram, whose leaves are
    # no finer than the 2-parts of the breakpoint and offset denominators plus
    # the slope range allow.  Expanding below that cannot be needed, so any
    # leaf still mapping non-standardly down there is a genuine obstruction.
    m_exp = 0
    for x, y, s in zip(f.xs, f.ys, slopes):
        t = max(-s, 0)  # the offset y - 2^s x is a numerator over 3*2^(exp+t)
        for num, e in ((x, f.exp), ((y << t) - (x << s + t), f.exp + t)):
            m_exp = max(m_exp, e + 1 - (num & -num).bit_length() if num else 0)
    s_max = max(abs(s) for s in slopes)
    max_level = m_exp + s_max  # deepest level longer than 1/(3*2^(m_exp+s_max))

    # every point below lies on a level at most max_level + 2, and its image
    # on a level at most s_max deeper, so integers over 3*2^exp are exact
    exp = max_level + s_max + 2
    d = 3 << exp
    xs, ys = f.at(exp)

    def image(t):
        p, q = lift_image(xs, ys, d, t % d, 1)
        return p // q

    def image_arc(arc):
        lo = arc.farside().grid_lo(exp)
        found = grid_arc(image(lo), image(lo + (2 << exp - arc.level)), exp)
        if found is None:
            raise ArcNotPreserved(arc)
        return found

    # arcs first, so that e.g. an off-family rotation reports the arc it breaks
    image_arcs = [image_arc(arc) for arc in (BASE_ARC_HALF, BASE_ARC_ZERO)]

    # one preorder walk: an interval is refined iff a breakpoint lies strictly
    # inside it, or it is above the depth bound and its image is not standard.
    # The test reads only the interval, so the walk builds the same forest as
    # refining the first such leaf until none is left.  Leaves keep their image.
    bps = [] if f.is_rotation() else xs[:-1]
    cuts = sorted(bps + [x + d for x in bps]) + [2 * d]  # 2d lies past every interval
    forest, images, stack = [], [], list(BASE_INTERVALS[::-1])
    while stack:
        iv = stack.pop()
        lo = iv.grid_lo(exp)
        hi = lo + (2 << exp - iv.level)
        inside = cuts[bisect_right(cuts, lo)] < hi
        found = None if inside else grid_interval(image(lo), image(hi), exp)
        if inside or (found is None and iv.level <= max_level):
            forest.append("1")
            stack.extend(subdivide(iv)[::-1])
        else:
            forest.append("0")
            images.append(found)
    domain = ArcDiagram("".join(forest))

    image_arcs += [image_arc(arc) for arc in sorted(domain.arcs() - {BASE_ARC_HALF, BASE_ARC_ZERO})]
    if None in images:
        raise ImageNotStandard(domain.leaves()[images.index(None)])

    range_ = minimal_diagram_containing(image_arcs)
    if range_.leaf_count() != domain.leaf_count():
        raise ImageNotStandard(f)
    offset = range_.leaves().index(images[0])
    e = make(domain, range_, offset)
    assert e.to_pl() == f, "reconstructed diagram disagrees with input map"
    return reduce(e)


def _is_arc_endpoint(x: int, exp: int) -> bool:
    """Is the grid point x/(3*2^exp) an endpoint of some arc?  Its partner
    would lie 2/d away, d its reduced denominator, and d is no power of two."""
    step = 2 * min(x & -x, 1 << exp)
    return x % 3 != 0 and (grid_arc(x, x + step, exp) or grid_arc(x, x - step, exp)) is not None
