"""Group elements as arc pair diagrams.

An element is a ``diagram.ForestPair`` of two arc diagrams with the same
number of leaves and a rotation offset: domain leaf i is carried onto range
leaf (i + offset) mod m.  Its equality, text form, ``inverse``, ``reduce``,
``compose`` and ``equal`` are the pair's, shared with the tree pairs of
Thompson's T; its own are the arc diagram on each side, the arc check of
``make`` and ``to_pl``.  Validity requires every arc of the domain diagram
to land on an arc of the range diagram under the induced boundary
correspondence.  Arcs and gaps are carried by leaf positions:
the farside over domain leaves first .. after-1 goes onto range leaves
first+offset .. after+offset-1 (``ArcDiagram.farsides``).
"""

from __future__ import annotations

from .circle import Angle, PLCircleMap, grid_map
from .diagram import (
    ARITY,
    ArcDiagram,
    ForestPair,
    base_diagram,
    central_skeleton,
    compose,
    equal,
    forest_merge,
    inverse,
    minimal_diagram_containing,
    pair_graft,
    parse_diagram,
    reduce,
)
from .errors import ArcMismatch, LeafCountMismatch, ParseError, excerpt
from .lamination import Arc, BASE_ARC_HALF, GapId, neighbor_gap


class Element(ForestPair):
    """An arc pair diagram (domain, range, offset) on two ``ArcDiagram``s."""

    __slots__ = ()
    arity = ARITY
    side = ArcDiagram

    def __init__(self, domain: ArcDiagram, range_: ArcDiagram, offset: int):
        if range_.leaf_count() != domain.leaf_count():
            raise LeafCountMismatch((domain.leaf_count(), range_.leaf_count()))
        super().__init__(domain, range_, offset, (domain.forest, range_.forest))

    def to_pl(self) -> PLCircleMap:
        dom, ran = self.domain.leaves(), self.range.leaves()
        exp = max(iv.level for iv in dom + ran)
        dom, ran = ([iv.grid_lo(exp) for iv in side] for side in (dom, ran))
        m = len(dom)
        return grid_map(exp, [(dom[i], ran[(i + self.offset) % m]) for i in range(m)])


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


def expand_pair(e: Element, i: int) -> Element:
    """Expand domain leaf i and the range leaf it corresponds to."""
    m = e.leaf_count()
    t = (i + e.offset) % m
    offset = t if i == 0 else e.offset + (2 if t < e.offset else 0)
    return Element(e.domain.expand_at(i), e.range.expand_at(t), offset)


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
    return all(
        central_skeleton(side)[0].count("1") == side.count("1") for side in reduce(e).forests
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
