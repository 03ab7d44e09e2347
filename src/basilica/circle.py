"""Exact arithmetic on the circle R/Z and piecewise-linear circle maps.

Points live on the grid k/(3*2^n): every denominator is 2^a or 3*2^a.
Inside the kernel a point is a ``Fraction`` in [0, 1) that ``grid_point``
has checked; ``Angle`` wraps one only at the API edge (parsing, printing,
``evaluate``).  Piecewise-linear maps are stored as lists of
(Fraction, Fraction) breakpoints; the lift of the breakpoints to the real
line is built once per map, on first use, and evaluation bisects it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, UnsupportedDenominator, excerpt


def _on_grid(den: int) -> bool:
    """True iff den divides 3*2^a for some a, i.e. den = 2^a or 3*2^a."""
    if den % 3 == 0:
        den //= 3
    return den & (den - 1) == 0


def mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def grid_point(x) -> Fraction:
    """x mod 1, as a Fraction in [0, 1); UnsupportedDenominator off the grid."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if not 0 <= x < 1:
        x = mod1(x)
    if not _on_grid(x.denominator):
        raise UnsupportedDenominator(f"denominator {x.denominator}", x)
    return x


@dataclass(frozen=True, order=True)
class Angle:
    """A grid point of R/Z, reduced, in [0, 1): the point type of the API edge."""

    f: Fraction

    def __post_init__(self):
        object.__setattr__(self, "f", grid_point(self.f))

    def __str__(self) -> str:
        return str(self.f)

    def __repr__(self) -> str:
        return f"Angle({self})"


def parse_angle(text: str) -> Angle:
    text = text.strip()
    try:
        num, den = map(int, text.split("/")) if "/" in text else (int(text), 1)
    except ValueError as exc:
        raise ParseError(f"bad angle {excerpt(text)!r}") from exc
    if den <= 0:
        raise UnsupportedDenominator("denominator must be positive", den)
    return Angle(Fraction(num, den))


class PLCircleMap:
    """Orientation-preserving degree-one PL circle map, exact breakpoints.

    Stored as the cyclic list of (x, y) breakpoint pairs, sorted by x.
    Collinear breakpoints are pruned at construction; a pure rotation is
    kept as the single synthetic breakpoint (0, rotation(0)).
    """

    __slots__ = ("breakpoints", "_lifted")

    def __init__(self, breakpoints):
        pts = sorted((grid_point(x), grid_point(y)) for x, y in breakpoints)
        if not pts:
            raise ValueError("breakpoint list must be nonempty")
        if any(pts[i][0] == pts[i + 1][0] for i in range(len(pts) - 1)):
            raise ValueError("duplicate breakpoint abscissa")
        self.breakpoints = tuple(_prune(pts))
        self._lifted = None

    # -- structure -------------------------------------------------------

    def lifted(self):
        """Breakpoints lifted to strictly increasing reals over one period,
        built on first use.

        Returns (xs, ys) with len n+1; xs[n] = xs[0]+1, ys[n] = ys[0]+1.
        """
        if self._lifted is None:
            self._lifted = _lift(self.breakpoints)
        return self._lifted

    def slopes(self):
        xs, ys = self.lifted()
        return [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]

    def segments(self):
        """List of (x_lo, x_hi, y_lo, slope) in lifted coordinates."""
        xs, ys = self.lifted()
        return [
            (xs[i], xs[i + 1], ys[i], (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]))
            for i in range(len(xs) - 1)
        ]

    def is_rotation(self) -> bool:
        return len(self.breakpoints) == 1

    # -- evaluation ------------------------------------------------------

    def eval_fraction(self, t: Fraction) -> Fraction:
        """Exact image of t (any rational mod 1), as a Fraction in [0, 1)."""
        t = mod1(Fraction(t))
        xs, ys = self.lifted()
        if t < xs[0]:
            t += 1
        i = bisect_right(xs, t) - 1
        slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        return mod1(ys[i] + slope * (t - xs[i]))

    # -- identity / serialization ---------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, PLCircleMap) and self.breakpoints == other.breakpoints

    def __hash__(self) -> int:
        return hash(self.breakpoints)

    def __str__(self) -> str:
        return ",".join(f"{x}:{y}" for x, y in self.breakpoints)

    def __repr__(self) -> str:
        return f"PLCircleMap({self})"


_NOT_INCREASING = "breakpoint images not strictly increasing in cyclic order"


def _lift(pts):
    """(xs, ys) of the breakpoints lifted to strictly increasing reals; see
    ``PLCircleMap.lifted``.  ValueError unless the images of the breakpoints
    go once around the circle in cyclic order, i.e. unless the map has
    degree one."""
    xs = [p[0] for p in pts]
    ys = [pts[0][1]]
    for i in range(1, len(pts)):
        step = mod1(pts[i][1] - pts[i - 1][1])
        if step == 0:
            raise ValueError(_NOT_INCREASING)
        ys.append(ys[-1] + step)
    xs.append(xs[0] + 1)
    ys.append(ys[0] + 1)
    if ys[-1] <= ys[-2]:  # the step back to ys[0] is 0 iff ys[-2] - ys[0] is whole
        whole = (ys[-2] - ys[0]).denominator == 1
        raise ValueError(_NOT_INCREASING if whole else "map is not degree one")
    return tuple(xs), tuple(ys)


def _prune(pts):
    """Drop breakpoints where the left and right slopes agree.

    One pass suffices: dropping a collinear point leaves the slopes on
    both sides of every other point as they were.
    """
    xs, ys = _lift(pts)
    slopes = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(pts))]
    kept = [p for i, p in enumerate(pts) if slopes[i - 1] != slopes[i]]
    if kept:
        return kept
    # no slope changes: a pure rotation, anchored at 0
    x, y = pts[0]
    return [(Fraction(0), mod1(y - x))]


def rotation(amount) -> PLCircleMap:
    """Rotation by the given grid amount, stored with its synthetic breakpoint."""
    return PLCircleMap([(0, amount)])


def pl_inverse(f: PLCircleMap) -> PLCircleMap:
    return PLCircleMap([(y, x) for x, y in f.breakpoints])


def pl_compose(f: PLCircleMap, g: PLCircleMap) -> PLCircleMap:
    """The composition f after g, with collinear breakpoints pruned."""
    ginv = pl_inverse(g)
    candidates = {x for x, _ in g.breakpoints}
    candidates.update(ginv.eval_fraction(x) for x, _ in f.breakpoints)
    pts = []
    for x in sorted(candidates):
        if not _on_grid(x.denominator):
            raise UnsupportedDenominator("composition breakpoint off grid", x)
        pts.append((x, f.eval_fraction(g.eval_fraction(x))))
    return PLCircleMap(pts)


def parse_pl(text: str) -> PLCircleMap:
    """Parse the "x1:y1,x2:y2,..." wire format."""
    pairs = []
    for chunk in text.strip().split(","):
        if chunk.count(":") != 1:
            raise ParseError(f"bad breakpoint {excerpt(chunk)!r}")
        x, y = chunk.split(":")
        pairs.append((parse_angle(x).f, parse_angle(y).f))
    try:
        return PLCircleMap(pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
