"""Combinatorics of the Basilica lamination.

Arcs (leaves) are generated from the base pair {1/3,2/3}, {1/6,5/6} by
repeated 1:2:1 subdivision of standard intervals; each non-base arc is the
primary arc of exactly one standard interval.  An arc is stored by its
canonical index (level n, index k), and nesting, central labels and
defining intervals are integer arithmetic on (n, k).  Gaps are the
complementary regions: the central gap plus one gap behind each arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .circle import Angle, mod1
from .errors import NotAnArc, NotCentral, ParseError, excerpt


@dataclass(frozen=True)
class StandardInterval:
    """Half-open ccw circle interval reachable by 1:2:1 subdivision.

    ``lo`` is normalized into [0,1); ``length`` is 1/(3*2^n).
    """

    lo: Fraction
    length: Fraction

    @property
    def hi(self) -> Fraction:
        return mod1(self.lo + self.length)

    def endpoints(self) -> tuple[Angle, Angle]:
        return Angle(self.lo), Angle(self.hi)

    def __str__(self) -> str:
        return f"[{Angle(self.lo)},{Angle(self.hi)}]"


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
    """The arc with endpoints {a,b}; raises NotAnArc on any other pair."""
    if {a, b} == {Angle(Fraction(1, 3)), Angle(Fraction(2, 3))}:
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


# -- base subdivision ------------------------------------------------------

BASE_ARC_HALF = Arc(1, 1)   # {1/3, 2/3}
BASE_ARC_ZERO = Arc(1, 0)   # {1/6, 5/6}


@lru_cache(maxsize=1)
def base_intervals() -> tuple[StandardInterval, ...]:
    """The four intervals cut by the two base arcs, ccw from [1/6,1/3]."""
    return (
        StandardInterval(Fraction(1, 6), Fraction(1, 6)),
        StandardInterval(Fraction(1, 3), Fraction(1, 3)),
        StandardInterval(Fraction(2, 3), Fraction(1, 6)),
        StandardInterval(Fraction(5, 6), Fraction(1, 3)),
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
    lo = interval.lo
    return (
        StandardInterval(mod1(lo), quarter),
        StandardInterval(mod1(lo + quarter), 2 * quarter),
        StandardInterval(mod1(lo + 3 * quarter), quarter),
    )


def defining_path(arc: Arc) -> tuple[int, tuple[int, ...]]:
    """The base interval index and the child choices that reach the
    interval the arc subdivides; the arc must not be a base arc.

    In units of 1/(3*2^n) the base intervals start at 2^(n-1), 2^n,
    2^(n+1), 5*2^(n-1).  Interval ends are never multiples of 3, so the
    descent follows the arc's midpoint 3k down to its length-4 interval.
    """
    n, mid = arc.level, 3 * arc.index
    h = 2 ** (n - 1)
    for base, (lo, length) in enumerate(((h, h), (2 * h, 2 * h), (4 * h, h), (5 * h, 2 * h))):
        off = (mid - lo) % (6 * h)
        if off < length:
            break
    path = []
    while length > 4:
        q = length // 4
        child = 0 if off < q else 1 if off < 3 * q else 2
        off -= (0, q, 3 * q)[child]
        length = (q, 2 * q, q)[child]
        path.append(child)
    return base, tuple(path)


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


def double_arc(arc: Arc) -> Arc:
    """Image of the arc under doubling; the family is invariant."""
    a, b = arc.endpoints
    return arc_from_endpoints(Angle(2 * a.f), Angle(2 * b.f))


def farside(arc: Arc) -> StandardInterval:
    return arc.farside()


def ancestors(arc: Arc) -> list[Arc]:
    """All arcs whose farside contains this arc's farside, outermost first.

    An ancestor at level m < n is the arc j nearest to k/2^(n-m), if j is
    in the family and its farside [(3j-1)s, (3j+1)s] (s = 2^(n-m), in
    units of 1/(3*2^n)) contains [3k-1, 3k+1].
    """
    n, k = arc.level, arc.index
    out = []
    for m in range(1, n):
        s = 2 ** (n - m)
        j = (2 * k + s) // (2 * s) % 2 ** m
        if (j % 2 == 0 or (m, j) == (1, 1)) and (
            (3 * k - 1 - (3 * j - 1) * s) % (3 * 2 ** n) + 2 <= 2 * s
        ):
            out.append(Arc(m, j))
    return out


def is_central(arc: Arc) -> bool:
    return not ancestors(arc)


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
    from .circle import parse_angle

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
