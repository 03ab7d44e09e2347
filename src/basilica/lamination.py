"""Combinatorics of the Basilica lamination.

Arcs (leaves) are generated from the base pair {1/3,2/3}, {1/6,5/6} by
repeated 1:2:1 subdivision of standard intervals; each non-base arc is the
primary arc of exactly one standard interval.  Gaps are the complementary
regions: the central gap plus one gap behind each arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .circle import Angle, mod1
from .errors import NotAnArc, NotCentral, ParseError


@dataclass(frozen=True)
class StandardInterval:
    """Half-open ccw circle interval reachable by 1:2:1 subdivision.

    ``lo`` is normalized into [0,1); ``length`` is 1/(3*2^n).  The descent
    path records the base interval index and the child choices taken.
    """

    lo: Fraction
    length: Fraction
    depth_path: tuple = ()

    @property
    def hi(self) -> Fraction:
        return mod1(self.lo + self.length)

    def endpoints(self) -> tuple[Angle, Angle]:
        return Angle(self.lo), Angle(self.hi)

    def contains(self, t: Fraction, strict: bool = False) -> bool:
        t = mod1(t)
        if t < self.lo:
            t += 1
        if strict:
            return self.lo < t < self.lo + self.length
        return self.lo <= t <= self.lo + self.length

    def __str__(self) -> str:
        return f"[{Angle(self.lo)},{Angle(self.hi)}]"


@dataclass(frozen=True, order=True)
class Arc:
    """A leaf of the lamination, canonically indexed by (level, index).

    Endpoints are {(3k-1)/(3*2^n), (3k+1)/(3*2^n)}.  The index k is even
    mod 2^n except for the special arc {1/3,2/3} = (n=1, k=1).
    """

    level: int
    index: int

    def __post_init__(self):
        n, k = self.level, self.index
        if n < 1 or not 0 <= k < 2 ** n:
            raise NotAnArc(f"bad canonical index ({n},{k})")
        if k % 2 == 1 and (n, k) != (1, 1):
            raise NotAnArc(f"odd index ({n},{k}) is not in the arc family")

    @property
    def endpoints(self) -> frozenset:
        d = 3 * 2 ** self.level
        return frozenset(
            (Angle(Fraction(3 * self.index - 1, d)), Angle(Fraction(3 * self.index + 1, d)))
        )

    def farside(self) -> StandardInterval:
        """The ccw interval cut off on the side away from the central gap."""
        d = 3 * 2 ** self.level
        return StandardInterval(mod1(Fraction(3 * self.index - 1, d)), Fraction(2, d))

    def __str__(self) -> str:
        a, b = sorted(self.endpoints)
        return f"{{{a},{b}}}"


def arc_from_endpoints(a: Angle, b: Angle) -> Arc:
    """Cheap closed-form constructor; raises NotAnArc on malformed pairs.

    Agrees with arc_check on all inputs (oracle-tested); used internally
    where the pair is already known to come from the lamination.
    """
    if {a, b} == {Angle(Fraction(1, 3)), Angle(Fraction(2, 3))}:
        return Arc(1, 1)
    d = a.denominator
    if d != b.denominator or d % 6 != 0:
        raise NotAnArc(f"endpoints {a},{b} not on a common 3*2^n grid", (a, b))
    n = (d // 3).bit_length() - 1
    if 3 * 2 ** n != d:
        raise NotAnArc(f"denominator {d} is not of the form 3*2^n", (a, b))
    for lo, hi in ((a, b), (b, a)):
        num = lo.numerator
        if (num + 1) % 3 == 0 and mod1(hi.f - lo.f) == Fraction(2, d):
            k = ((num + 1) // 3) % 2 ** n
            if k % 2 == 0:
                return Arc(n, k)
    raise NotAnArc(f"{{{a},{b}}} is not in the arc family", (a, b))


# -- base subdivision ------------------------------------------------------

BASE_ARC_HALF = Arc(1, 1)   # {1/3, 2/3}
BASE_ARC_ZERO = Arc(1, 0)   # {1/6, 5/6}


@lru_cache(maxsize=1)
def base_intervals() -> tuple[StandardInterval, ...]:
    """The four intervals cut by the two base arcs, ccw from [1/6,1/3]."""
    return (
        StandardInterval(Fraction(1, 6), Fraction(1, 6), (0,)),
        StandardInterval(Fraction(1, 3), Fraction(1, 3), (1,)),
        StandardInterval(Fraction(2, 3), Fraction(1, 6), (2,)),
        StandardInterval(Fraction(5, 6), Fraction(1, 3), (3,)),
    )


@lru_cache(maxsize=None)
def primary_arc(interval: StandardInterval) -> Arc:
    """The arc subdividing the interval in ratio 1:2:1."""
    quarter = interval.length / 4
    return arc_from_endpoints(
        Angle(interval.lo + quarter), Angle(interval.lo + 3 * quarter)
    )


@lru_cache(maxsize=None)
def subdivide(interval: StandardInterval) -> tuple[StandardInterval, ...]:
    """The three standard subintervals (quarter, half, quarter), ccw."""
    quarter = interval.length / 4
    lo, path = interval.lo, interval.depth_path
    return (
        StandardInterval(mod1(lo), quarter, path + (0,)),
        StandardInterval(mod1(lo + quarter), 2 * quarter, path + (1,)),
        StandardInterval(mod1(lo + 3 * quarter), quarter, path + (2,)),
    )


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


# -- descent ---------------------------------------------------------------

@lru_cache(maxsize=None)
def _descend(a: Angle, b: Angle):
    """Run the generation descent toward the pair {a,b}.

    Returns (arc, ancestors) on acceptance; raises NotAnArc with the failing
    step otherwise.  Ancestors are ordered outermost first.
    """
    if a == b:
        raise NotAnArc("degenerate pair", (a, b))
    pair = {a, b}
    if pair == BASE_ARC_HALF.endpoints:
        return BASE_ARC_HALF, ()
    if pair == BASE_ARC_ZERO.endpoints:
        return BASE_ARC_ZERO, ()
    interval = None
    ancestors: list[Arc] = []
    for idx, base in enumerate(base_intervals()):
        if base.contains(a.f, strict=True) and base.contains(b.f, strict=True):
            interval = base
            if idx == 1:
                ancestors.append(BASE_ARC_HALF)
            elif idx == 3:
                ancestors.append(BASE_ARC_ZERO)
            break
    if interval is None:
        raise NotAnArc(f"{{{a},{b}}} straddles the base subdivision", (a, b))
    while True:
        arc = primary_arc(interval)
        if pair == arc.endpoints:
            return arc, tuple(ancestors)
        children = subdivide(interval)
        inside = [
            child
            for child in children
            if child.contains(a.f, strict=True) and child.contains(b.f, strict=True)
        ]
        if not inside:
            raise NotAnArc(f"{{{a},{b}}} straddles the subdivision of {interval}", (a, b))
        if inside[0] is children[1]:
            ancestors.append(arc)
        interval = inside[0]


def arc_check(a: Angle, b: Angle) -> Arc:
    """Validate that {a,b} is a lamination leaf, by descent."""
    return _descend(a, b)[0]


def double_arc(arc: Arc) -> Arc:
    """Image of the arc under doubling; the family is invariant."""
    a, b = arc.endpoints
    return arc_from_endpoints(Angle(2 * a.f), Angle(2 * b.f))


def farside(arc: Arc) -> StandardInterval:
    return arc.farside()


def ancestors(arc: Arc) -> list[Arc]:
    """All arcs whose farside contains this arc's farside, outermost first."""
    a, b = arc.endpoints
    return list(_descend(a, b)[1])


def is_central(arc: Arc) -> bool:
    return not ancestors(arc)


# -- dyadic labels of central arcs ----------------------------------------

def central_label(arc: Arc) -> Fraction:
    """The dyadic label of a central arc; anchored at 0 for {1/6,5/6}."""
    if arc == BASE_ARC_ZERO:
        return Fraction(0)
    if arc == BASE_ARC_HALF:
        return Fraction(1, 2)
    a, b = sorted(arc.endpoints)
    for interval, (d1, d2) in (
        (base_intervals()[0], (Fraction(0), Fraction(1, 2))),
        (base_intervals()[2], (Fraction(1, 2), Fraction(1))),
    ):
        if interval.contains(a.f, strict=True) and interval.contains(b.f, strict=True):
            break
    else:
        raise NotCentral(f"{arc} is not a central arc", arc)
    pair = arc.endpoints
    while True:
        mid = (d1 + d2) / 2
        if pair == primary_arc(interval).endpoints:
            return mid
        left, middle, right = subdivide(interval)
        if all(left.contains(t.f, strict=True) for t in pair):
            interval, d2 = left, mid
        elif all(right.contains(t.f, strict=True) for t in pair):
            interval, d1 = right, mid
        else:
            raise NotCentral(f"{arc} is not a central arc", arc)


def arc_for_label(label: Fraction) -> Arc:
    """Inverse of central_label, by binary descent over the label intervals."""
    label = mod1(Fraction(label))
    if label.denominator & (label.denominator - 1):
        raise NotCentral(f"label {label} is not dyadic", label)
    if label == 0:
        return BASE_ARC_ZERO
    if label == Fraction(1, 2):
        return BASE_ARC_HALF
    if label < Fraction(1, 2):
        interval, d1, d2 = base_intervals()[0], Fraction(0), Fraction(1, 2)
    else:
        interval, d1, d2 = base_intervals()[2], Fraction(1, 2), Fraction(1)
    while True:
        mid = (d1 + d2) / 2
        if label == mid:
            return primary_arc(interval)
        left, _, right = subdivide(interval)
        if label < mid:
            interval, d2 = left, mid
        else:
            interval, d1 = right, mid


# -- gaps ------------------------------------------------------------------

@dataclass(frozen=True)
class GapId:
    """Identifier of a lamination gap: the central one, or the gap behind an arc."""

    arc: Arc | None = None  # None means the central gap

    @classmethod
    def central(cls) -> "GapId":
        return cls(None)

    @classmethod
    def behind(cls, arc: Arc) -> "GapId":
        return cls(arc)

    @property
    def is_central_gap(self) -> bool:
        return self.arc is None

    def __str__(self) -> str:
        return "central" if self.arc is None else f"behind {self.arc}"


def gap_depth(gap: GapId) -> int:
    if gap.is_central_gap:
        return 0
    return 1 + len(ancestors(gap.arc))


def gap_color(gap: GapId) -> int:
    return gap_depth(gap) % 2


def neighbor_gap(arc: Arc, side: str) -> GapId:
    """The gap adjacent to the arc on the given side ('farside'/'centerside')."""
    if side == "farside":
        return GapId.behind(arc)
    if side != "centerside":
        raise ValueError(f"unknown side {side!r}")
    chain = ancestors(arc)
    return GapId.central() if not chain else GapId.behind(chain[-1])


# -- text formats ----------------------------------------------------------

def parse_arc(text: str) -> Arc:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"bad arc syntax {text!r}")
    from .circle import parse_angle

    parts = text[1:-1].split(",")
    if len(parts) != 2:
        raise ParseError(f"bad arc syntax {text!r}")
    return arc_check(parse_angle(parts[0]), parse_angle(parts[1]))


def parse_gap(text: str) -> GapId:
    text = text.strip()
    if text == "central":
        return GapId.central()
    if text.startswith("behind "):
        return GapId.behind(parse_arc(text[len("behind "):]))
    raise ParseError(f"bad gap syntax {text!r}")
