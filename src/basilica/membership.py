"""Deciding whether a PL circle map is a dyadic rearrangement.

A map belongs to the group iff its slopes are powers of two, its
breakpoints are arc endpoints, and after refining the base diagram far
enough every leaf maps affinely onto a standard interval with arcs going
to arcs.  ``recognize`` checks, in this order and reporting the first
obstruction found: the slopes, the breakpoints, the images of the two
base arcs, and then, after one preorder walk has refined the base
diagram, the images of the other arcs and of the leaves.  Every check
asks one question of a pair of image points, answered by the closed forms
``standard_interval`` and ``arc_between`` on grid Fractions: which
standard interval, or which arc, do they bound?
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .circle import PLCircleMap
from .diagram import ArcDiagram, minimal_diagram_containing
from .element import Element, make, reduce
from .errors import (
    ArcNotPreserved,
    BreakpointNotArcEndpoint,
    ImageNotStandard,
    SlopeNotPowerOfTwo,
)
from .lamination import (
    BASE_ARC_HALF,
    BASE_ARC_ZERO,
    BASE_INTERVALS,
    arc_between,
    standard_interval,
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


def recognize(f: PLCircleMap) -> Element:
    """Reconstruct the reduced arc pair diagram of f, or reject with a witness."""
    for slope in f.slopes():
        if not _pow2_fraction(slope):
            raise SlopeNotPowerOfTwo(slope)
    # where the slope changes: not at the synthetic anchor of a rotation
    bps = [] if f.is_rotation() else [x for x, _ in f.breakpoints]
    for x in bps:
        if not _is_arc_endpoint(x):
            raise BreakpointNotArcEndpoint(x)

    # arcs first, so that e.g. an off-family rotation reports the arc it breaks
    image_arcs = [_image_arc(f, arc) for arc in (BASE_ARC_HALF, BASE_ARC_ZERO)]

    # depth bound: a member map carries some finite diagram, whose leaves are
    # no finer than the 2-parts of the breakpoint and offset denominators plus
    # the slope range allow.  Expanding below that cannot be needed, so any
    # leaf still mapping non-standardly down there is a genuine obstruction.
    m_exp = 0
    s_max = 0
    for x_lo, _, y_lo, slope in f.segments():
        for q in (x_lo, y_lo - slope * x_lo):  # a breakpoint and an offset
            d = q.denominator
            m_exp = max(m_exp, (d & -d).bit_length() - 1)
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
            and standard_interval(f.eval_fraction(lo), f.eval_fraction(hi)) is None
        ):
            forest.append("1")
            stack.extend(subdivide(iv)[::-1])
        else:
            forest.append("0")
    domain = ArcDiagram("".join(forest))

    others = sorted(domain.arcs() - {BASE_ARC_HALF, BASE_ARC_ZERO})
    image_arcs += [_image_arc(f, arc) for arc in others]

    leaves = domain.leaves()
    images = [standard_interval(f.eval_fraction(iv.lo), f.eval_fraction(iv.hi)) for iv in leaves]
    if None in images:
        raise ImageNotStandard(leaves[images.index(None)])

    range_ = minimal_diagram_containing(image_arcs)
    if range_.leaf_count() != domain.leaf_count():
        raise ImageNotStandard(f)
    offset = range_.leaves().index(images[0])
    e = make(domain, range_, offset)
    assert e.to_pl() == f, "reconstructed diagram disagrees with input map"
    return reduce(e)


def _image_arc(f: PLCircleMap, arc):
    """The arc that f carries the given arc onto, or ArcNotPreserved."""
    far = arc.farside()
    image = arc_between(f.eval_fraction(far.lo), f.eval_fraction(far.hi))
    if image is None:
        raise ArcNotPreserved(arc)
    return image


def _is_arc_endpoint(x: Fraction) -> bool:
    """Is the grid point x an endpoint of some arc?  Its partner would lie
    2/x.denominator away, on one side or the other."""
    step = Fraction(2, x.denominator)
    return arc_between(x, x + step) is not None or arc_between(x, x - step) is not None
