"""Combinatorics of the Basilica lamination.

Arcs (leaves) are generated from the base pair {1/3,2/3}, {1/6,5/6} by
repeated 1:2:1 subdivision of standard intervals; each non-base arc is the
primary arc of exactly one standard interval.  Arcs and standard intervals
share one canonical index (level n, index k), and subdivision, its inverse
``parent``, nesting and central labels are integer arithmetic on (n, k).
One closed form, ``standard_interval``, names the standard interval
between two points, and ``arc_between`` the arc whose farside it is;
``arc_from_endpoints`` wraps the latter for ``Angle``s at the API edge.
Gaps are the complementary regions: the central gap plus one gap behind
each arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .circle import Angle, mod1, parse_angle
from .errors import NotAnArc, NotCentral, ParseError, excerpt


class StandardInterval(NamedTuple):
    """Ccw circle interval reachable by 1:2:1 subdivision, indexed like arcs.

    (n, k) is [3k-1, 3k+1] in units of 1/(3*2^n), k taken mod 2^n: the
    farside of Arc(n, k) is StandardInterval(n, k).  ``subdivide`` yields
    the children and ``parent`` inverts it.  ``lo`` (in [0,1)), ``length``
    and ``hi`` are exact Fractions for the API edge.
    """

    level: int
    index: int

    @property
    def lo(self) -> Fraction:
        d = 3 << self.level
        return Fraction((3 * self.index - 1) % d, d)

    @property
    def length(self) -> Fraction:
        return Fraction(2, 3 << self.level)

    @property
    def hi(self) -> Fraction:
        d = 3 << self.level
        return Fraction((3 * self.index + 1) % d, d)

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


@dataclass(frozen=True, order=True)
class Arc:
    """A leaf of the lamination, canonically indexed by (level, index).

    Endpoints are {(3k-1)/(3*2^n), (3k+1)/(3*2^n)}.  The index k is even
    mod 2^n except for the special arc {1/3,2/3} = (n=1, k=1).  In units
    of 1/(3*2^n) the farside is [3k-1, 3k+1] and the interval the arc
    subdivides 1:2:1 is [3k-2, 3k+2].
    """

    level: int
    index: int

    def __post_init__(self):
        n, k = self.level, self.index
        if n < 1 or not (0 <= k and k >> n == 0):
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
        return StandardInterval(self.level, self.index)

    def __str__(self) -> str:
        a, b = sorted(self.endpoints)
        return f"{{{a},{b}}}"


def standard_interval(lo: Fraction, hi: Fraction) -> StandardInterval | None:
    """The standard interval running ccw from lo to hi (both taken mod 1),
    or None: it has length 2/(3*2^n) = 1/(3*2^(n-1)) and lo = (3k-1)/(3*2^n)."""
    length = mod1(hi - lo)
    d = length.denominator
    if length.numerator != 1 or d % 3 or (d // 3) & (d // 3 - 1):
        return None
    start = lo * 2 * d  # 3k - 1 in units of 1/(3*2^n), up to a multiple of 2d
    if start.denominator != 1 or start.numerator % 3 != 2:
        return None
    n = (d // 3).bit_length()
    return StandardInterval(n, (start.numerator + 1) // 3 % (1 << n))


def arc_between(a: Fraction, b: Fraction) -> Arc | None:
    """The arc with endpoints {a, b}, or None: its farside runs from one to
    the other, and has an even index or is {1/3,2/3} = (1, 1)."""
    for interval in (standard_interval(a, b), standard_interval(b, a)):
        if interval is not None and (interval.index % 2 == 0 or interval == (1, 1)):
            return Arc(*interval)
    return None


def arc_from_endpoints(a: Angle, b: Angle) -> Arc:
    """The arc with endpoints {a,b}; raises NotAnArc on any other pair."""
    arc = arc_between(a.f, b.f)
    if arc is None:
        witness = f"{{{a},{b}}}"
        raise NotAnArc(f"{witness} is not in the arc family", witness)
    return arc


# -- the subdivision tree --------------------------------------------------

BASE_ARC_HALF = Arc(1, 1)   # {1/3, 2/3}
BASE_ARC_ZERO = Arc(1, 0)   # {1/6, 5/6}

# the four intervals cut by the two base arcs, ccw from [1/6,1/3]
BASE_INTERVALS = tuple(StandardInterval(n, k) for n, k in ((2, 1), (1, 1), (2, 3), (1, 0)))


def primary_arc(interval: StandardInterval) -> Arc:
    """The arc subdividing the interval in ratio 1:2:1."""
    n, k = interval
    return Arc(n + 1, 2 * k)


def subdivide(interval: StandardInterval) -> tuple[StandardInterval, ...]:
    """The three standard subintervals (quarter, half, quarter), ccw."""
    n, k = interval
    return (
        StandardInterval(n + 2, (4 * k - 1) % (4 << n)),
        StandardInterval(n + 1, 2 * k),
        StandardInterval(n + 2, 4 * k + 1),
    )


def parent(interval: StandardInterval) -> StandardInterval | None:
    """The interval whose subdivision has this one as a child; None on a base.

    A middle child (n, k) has even k; an outer child has odd k = 4j - 1 or 4j + 1.
    """
    n, k = interval
    if interval in BASE_INTERVALS:
        return None
    if k % 2 == 0:
        return StandardInterval(n - 1, k // 2)
    return StandardInterval(n - 2, (k + 1) // 4 % (1 << (n - 2)))


def double_arc(arc: Arc) -> Arc:
    """Image of the arc under doubling; the family is invariant."""
    a, b = arc.endpoints
    return arc_from_endpoints(Angle(2 * a.f), Angle(2 * b.f))


def farside(arc: Arc) -> StandardInterval:
    return arc.farside()


def ancestors(arc: Arc) -> list[Arc]:
    """All arcs whose farside contains this arc's farside, outermost first:
    the arc farsides (even index, or level 1) among the interval's parents."""
    out = []
    interval = parent(arc.farside())
    while interval is not None:
        if interval.index % 2 == 0 or interval.level == 1:
            out.append(Arc(*interval))
        interval = parent(interval)
    return out[::-1]


# -- dyadic labels of central arcs ----------------------------------------
#
# Label 0 is {1/6,5/6} = (1,0).  The label 0.b1...br (binary, br = 1) is
# the arc of level 2r-1 whose index bits read b1, then (bi, not bi) for
# i = 2..r: 1/2 = (1, 1), 1/4 = (3, 0b010), 3/8 = (5, 0b01010).

def central_label(arc: Arc) -> Fraction:
    """The dyadic label of a central arc; anchored at 0 for {1/6,5/6}."""
    n, k = arc.level, arc.index
    if (n, k) == (1, 0):
        return Fraction(0)
    p = k >> (n - 1)
    for i in range(n - 3, -1, -2):
        pair = (k >> i) & 3
        if pair not in (1, 2):
            raise NotCentral(f"{arc} is not a central arc", arc)
        p = 2 * p + (pair >> 1)
    if n % 2 == 0 or p % 2 == 0:
        raise NotCentral(f"{arc} is not a central arc", arc)
    return Fraction(p, 2 ** ((n + 1) // 2))


def arc_for_label(label: Fraction) -> Arc:
    """Inverse of central_label."""
    label = Fraction(label)
    d = label.denominator
    if d & (d - 1):
        raise NotCentral(f"label {label} is not dyadic", label)
    p = label.numerator % d
    if p == 0:
        return BASE_ARC_ZERO
    r = d.bit_length() - 1
    k = p >> (r - 1)
    for i in range(r - 2, -1, -1):
        bit = (p >> i) & 1
        k = 4 * k + 2 * bit + 1 - bit
    return Arc(2 * r - 1, k)


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
        raise ParseError(f"bad arc syntax {excerpt(text)!r}")
    parts = text[1:-1].split(",")
    if len(parts) != 2:
        raise ParseError(f"bad arc syntax {excerpt(text)!r}")
    return arc_from_endpoints(parse_angle(parts[0]), parse_angle(parts[1]))


def parse_gap(text: str) -> GapId:
    text = text.strip()
    if text == "central":
        return GapId.central()
    if text.startswith("behind "):
        return GapId.behind(parse_arc(text[len("behind "):]))
    raise ParseError(f"bad gap syntax {excerpt(text)!r}")
