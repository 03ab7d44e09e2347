"""Group elements as arc pair diagrams.

An element is a pair of arc diagrams with the same number of leaves
together with a rotation offset: domain leaf i is carried onto range
leaf (i + offset) mod m.  Validity requires every arc of the domain
diagram to land on an arc of the range diagram under the induced
boundary correspondence.
"""

from __future__ import annotations

from fractions import Fraction

from .circle import Angle, PLCircleMap, pl_eval
from .diagram import (
    ARITY,
    ArcDiagram,
    base_diagram,
    central_skeleton,
    pair_compose,
    pair_reduce,
    parse_diagram,
)
from .errors import ArcMismatch, LeafCountMismatch, NotAnArc, ParseError, excerpt
from .lamination import (
    Arc,
    BASE_ARC_HALF,
    GapId,
    arc_from_endpoints,
    neighbor_gap,
)


class Element:
    """An arc pair diagram (domain, range, offset)."""

    __slots__ = ("domain", "range", "offset", "_pl")

    def __init__(self, domain: ArcDiagram, range_: ArcDiagram, offset: int):
        m = domain.leaf_count()
        if range_.leaf_count() != m:
            raise LeafCountMismatch((domain.leaf_count(), range_.leaf_count()))
        self.domain = domain
        self.range = range_
        self.offset = offset % m
        self._pl = None

    def leaf_count(self) -> int:
        return self.domain.leaf_count()

    def to_pl(self) -> PLCircleMap:
        if self._pl is None:
            bp_d = self.domain.boundary_points()
            bp_r = self.range.boundary_points()
            m = len(bp_d)
            pairs = [(bp_d[i], bp_r[(i + self.offset) % m]) for i in range(m)]
            self._pl = PLCircleMap(pairs)
        return self._pl

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.offset == other.offset
            and self.domain == other.domain
            and self.range == other.range
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.range, self.offset))

    def __str__(self) -> str:
        return f"[{self.domain} ; {self.range} ; {self.offset}]"

    def __repr__(self) -> str:
        return f"Element({self})"


def make(domain: ArcDiagram, range_: ArcDiagram, offset: int) -> Element:
    """Build an element, checking that arcs are carried onto arcs."""
    e = Element(domain, range_, offset)
    bp_d = e.domain.boundary_points()
    bp_r = e.range.boundary_points()
    m = len(bp_d)
    pos = {p: i for i, p in enumerate(bp_d)}
    targets = {a.endpoints for a in e.range.arcs()}
    for arc in e.domain.arcs():
        pts = arc.endpoints
        image = frozenset(bp_r[(pos[p] + e.offset) % m] for p in pts)
        if image not in targets:
            raise ArcMismatch(arc)
    return e


def identity() -> Element:
    return Element(base_diagram(), base_diagram(), 0)


def _generator_raw(name: str) -> Element:
    base = base_diagram()
    if name == "alpha":
        return make(base.expand_at(1), base.expand_at(3), 5)
    if name == "beta":
        return make(base.expand_at(2), base.expand_at(0), 0)
    if name == "gamma":
        return make(
            base.expand_at(0).expand_at(2),
            base.expand_at(0).expand_at(0),
            0,
        )
    if name == "delta":
        return make(base, base, 2)
    raise ValueError(f"unknown generator {name!r}")


_GENERATORS: dict[str, Element] = {}


def generator(name: str) -> Element:
    if name not in _GENERATORS:
        _GENERATORS[name] = _generator_raw(name)
    return _GENERATORS[name]


def inverse(e: Element) -> Element:
    return Element(e.range, e.domain, -e.offset)


def reduce(e: Element) -> Element:
    """Cancel matching carets until none remain."""
    domain, range_, offset = pair_reduce(e.domain.forest, e.range.forest, e.offset, ARITY)
    if domain is e.domain.forest:
        return e
    return Element(ArcDiagram(domain), ArcDiagram(range_), offset)


def equal(a: Element, b: Element) -> bool:
    return reduce(a) == reduce(b)


def expand_pair(e: Element, i: int) -> Element:
    """Expand domain leaf i and the range leaf it corresponds to."""
    m = e.leaf_count()
    t = (i + e.offset) % m
    offset = t if i == 0 else e.offset + (2 if t < e.offset else 0)
    return Element(e.domain.expand_at(i), e.range.expand_at(t), offset)


def compose(f: Element, g: Element) -> Element:
    """f after g.  The result is reduced."""
    domain, range_, offset = pair_compose(
        (f.domain.forest, f.range.forest, f.offset),
        (g.domain.forest, g.range.forest, g.offset),
        ARITY,
    )
    return Element(ArcDiagram(domain), ArcDiagram(range_), offset)


def evaluate(e: Element, point: Angle | Fraction) -> Angle:
    p = point if isinstance(point, Angle) else Angle(Fraction(point))
    return pl_eval(e.to_pl(), p)


def image_of_arc(e: Element, arc: Arc) -> Arc:
    pl = e.to_pl()
    a, b = sorted(arc.endpoints)
    try:
        return arc_from_endpoints(pl(a), pl(b))
    except NotAnArc:
        raise ArcMismatch(arc)


def image_of_gap(e: Element, gap: GapId) -> GapId:
    """Track a complementary gap through the element.

    A gap is pinned down by a bounding arc together with the side of
    that arc it sits on; both move predictably under the map.
    """
    if gap.arc is None:
        arc, side = BASE_ARC_HALF, "centerside"
    else:
        arc, side = gap.arc, "farside"
    image = image_of_arc(e, arc)
    far = arc.farside()
    preserved = evaluate(e, Angle(far.lo)).f == image.farside().lo
    if not preserved:
        side = "centerside" if side == "farside" else "farside"
    return neighbor_gap(image, side)


def is_in_stab(e: Element) -> bool:
    """Does the element fix the central gap?

    Domain leaf 0 borders the central gap, so the gap stays put iff the
    range leaf it goes to borders the central gap too.
    """
    return central_skeleton(e.range.forest)[1][e.offset]


def is_in_rist(e: Element) -> bool:
    """Is the element supported behind central arcs only, i.e. does every
    node of its reduced diagrams border the central gap?"""
    r = reduce(e)
    return all(
        central_skeleton(side.forest)[0].count("1") == side.forest.count("1")
        for side in (r.domain, r.range)
    )


def parse_element(text: str) -> Element:
    body = text.strip()
    parts = body[1:-1].split(";")
    if not (body.startswith("[") and body.endswith("]")) or len(parts) != 3:
        raise ParseError(f"an element is [domain ; range ; offset], not {excerpt(body)!r}")
    domain = parse_diagram(parts[0])
    range_ = parse_diagram(parts[1])
    try:
        offset = int(parts[2].strip())
    except ValueError:
        raise ParseError(f"bad offset {excerpt(parts[2].strip())!r}") from None
    return make(domain, range_, offset)
