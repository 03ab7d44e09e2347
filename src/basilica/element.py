"""Group elements as arc pair diagrams.

An element is a pair of arc diagrams with the same number of leaves
together with a rotation offset: domain leaf i is carried onto range
leaf (i + offset) mod m.  Validity requires every arc of the domain
diagram to land on an arc of the range diagram under the induced
boundary correspondence.  Arcs and gaps are carried by leaf positions:
the farside over domain leaves first .. after-1 goes onto range leaves
first+offset .. after+offset-1 (``ArcDiagram.farsides``).
"""

from __future__ import annotations

from .circle import Angle, PLCircleMap
from .diagram import (
    ARITY,
    ArcDiagram,
    base_diagram,
    central_skeleton,
    forest_merge,
    minimal_diagram_containing,
    pair_compose,
    pair_graft,
    pair_reduce,
    parse_diagram,
)
from .errors import ArcMismatch, LeafCountMismatch, ParseError, excerpt
from .lamination import Arc, BASE_ARC_HALF, GapId, neighbor_gap


class Element:
    """An arc pair diagram (domain, range, offset)."""

    __slots__ = ("domain", "range", "offset")

    def __init__(self, domain: ArcDiagram, range_: ArcDiagram, offset: int):
        m = domain.leaf_count()
        if range_.leaf_count() != m:
            raise LeafCountMismatch((domain.leaf_count(), range_.leaf_count()))
        self.domain = domain
        self.range = range_
        self.offset = offset % m

    def leaf_count(self) -> int:
        return self.domain.leaf_count()

    def to_pl(self) -> PLCircleMap:
        dom, ran = self.domain.leaves(), self.range.leaves()
        m = len(dom)
        return PLCircleMap([(dom[i].lo, ran[(i + self.offset) % m].lo) for i in range(m)])

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
    """Build an element, checking that arcs are carried onto arcs.  The
    witness of a mismatch is the first mismatching domain arc in the order
    of ``ArcDiagram.farsides``."""
    e = Element(domain, range_, offset)
    m = e.leaf_count()
    targets = e.range.farsides()
    for (first, after), arc in e.domain.farsides().items():
        image = ((first + e.offset) % m, (after + e.offset) % m)
        if image not in targets and image[::-1] not in targets:
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


def evaluate(e: Element, point: Angle) -> Angle:
    return Angle(e.to_pl().eval_fraction(point.f))


def image_of_arc(e: Element, arc: Arc) -> tuple[Arc, bool]:
    """The arc the element carries the given arc onto, and whether the
    farside goes onto the image's farside (else onto its centerside).

    The pair first grows until its domain holds the arc; the farside's leaf
    positions, shifted by the offset, are then the image's or reversed.
    """
    domain, _, shapes = forest_merge(minimal_diagram_containing([arc]).forest, e.domain.forest, ARITY)
    range_, back = pair_graft(e.range.forest, -e.offset % e.leaf_count(), shapes)
    m = domain.count("0")
    first, after = next(key for key, a in ArcDiagram(domain).farsides().items() if a == arc)
    image = ((first - back) % m, (after - back) % m)
    targets = ArcDiagram(range_).farsides()
    if image in targets:
        return targets[image], True
    return targets[image[::-1]], False


def image_of_gap(e: Element, gap: GapId) -> GapId:
    """Track a complementary gap through the element.

    A gap is pinned down by a bounding arc together with the side of
    that arc it sits on; both move predictably under the map.
    """
    if gap.arc is None:
        arc, side = BASE_ARC_HALF, "centerside"
    else:
        arc, side = gap.arc, "farside"
    image, kept = image_of_arc(e, arc)
    if not kept:
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
