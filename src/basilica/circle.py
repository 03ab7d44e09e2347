"""Exact arithmetic on the circle R/Z and piecewise-linear circle maps.

Points live on the grid k/(3*2^n): every denominator is 2^a or 3*2^a.
Piecewise-linear maps are stored as breakpoint lists; the lift of the
breakpoints to the real line is built once per map, on first use, and
evaluation bisects it.
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


@dataclass(frozen=True, order=True)
class Angle:
    """A point of R/Z with denominator 2^a or 3*2^a, reduced, in [0, 1)."""

    f: Fraction

    def __post_init__(self):
        if not 0 <= self.f < 1:
            object.__setattr__(self, "f", mod1(self.f))
        if not _on_grid(self.f.denominator):
            raise UnsupportedDenominator(f"denominator {self.f.denominator}", self.f)

    @property
    def numerator(self) -> int:
        return self.f.numerator

    @property
    def denominator(self) -> int:
        return self.f.denominator

    def __str__(self) -> str:
        return f"{self.f.numerator}/{self.f.denominator}" if self.f.denominator != 1 else str(self.f.numerator)

    def __repr__(self) -> str:
        return f"Angle({self})"


def _frac(x) -> Fraction:
    return x.f if isinstance(x, Angle) else Fraction(x)


def angle_make(numerator: int, denominator: int) -> Angle:
    """Canonical reduced representative of numerator/denominator in [0, 1)."""
    if denominator <= 0:
        raise UnsupportedDenominator("denominator must be positive", denominator)
    return Angle(Fraction(numerator, denominator))


def parse_angle(text: str) -> Angle:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return angle_make(int(num), int(den))
        return angle_make(int(text), 1)
    except ValueError as exc:
        raise ParseError(f"bad angle {excerpt(text)!r}") from exc


class PLCircleMap:
    """Orientation-preserving degree-one PL circle map, exact breakpoints.

    Stored as the cyclic list of (x, y) breakpoint pairs, sorted by x.
    Collinear breakpoints are pruned at construction; a pure rotation is
    kept as the single synthetic breakpoint (0, rotation(0)).
    """

    __slots__ = ("breakpoints", "_lifted")

    def __init__(self, breakpoints, prune: bool = True):
        pts = sorted(((Angle(_frac(x)), Angle(_frac(y))) for x, y in breakpoints), key=lambda p: p[0].f)
        if not pts:
            raise ValueError("breakpoint list must be nonempty")
        if any(pts[i][0] == pts[i + 1][0] for i in range(len(pts) - 1)):
            raise ValueError("duplicate breakpoint abscissa")
        _check_monotone(pts)
        if prune:
            pts = _prune(pts)
        self.breakpoints = tuple(pts)
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

    def __call__(self, t: Angle) -> Angle:
        return Angle(self.eval_fraction(t.f))

    # -- identity / serialization ---------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, PLCircleMap) and self.breakpoints == other.breakpoints

    def __hash__(self) -> int:
        return hash(self.breakpoints)

    def __str__(self) -> str:
        return ",".join(f"{x}:{y}" for x, y in self.breakpoints)

    def __repr__(self) -> str:
        return f"PLCircleMap({self})"


def _check_monotone(pts):
    if len(pts) < 2:
        return
    total = Fraction(0)
    for i in range(len(pts)):
        step = mod1(pts[(i + 1) % len(pts)][1].f - pts[i][1].f)
        if step == 0:
            raise ValueError("breakpoint images not strictly increasing in cyclic order")
        total += step
    if total != 1:
        raise ValueError("map is not degree one")


def _lift(pts):
    """(xs, ys) of the breakpoints lifted to strictly increasing reals; see
    ``PLCircleMap.lifted``."""
    xs = [p[0].f for p in pts]
    ys = [pts[0][1].f]
    for i in range(1, len(pts)):
        step = mod1(pts[i][1].f - pts[i - 1][1].f)
        if step == 0:
            raise ValueError("breakpoint images not strictly increasing")
        ys.append(ys[-1] + step)
    xs.append(xs[0] + 1)
    ys.append(ys[0] + 1)
    if ys[-1] <= ys[-2]:
        raise ValueError("breakpoint images wrap more than once")
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
    return [(Angle(Fraction(0)), Angle(y.f - x.f))]


def rotation(amount) -> PLCircleMap:
    """Rotation by the given grid amount, stored with its synthetic breakpoint."""
    return PLCircleMap([(Fraction(0), _frac(amount))])


def pl_inverse(f: PLCircleMap) -> PLCircleMap:
    return PLCircleMap([(y, x) for x, y in f.breakpoints])


def pl_compose(f: PLCircleMap, g: PLCircleMap) -> PLCircleMap:
    """The composition f after g, with collinear breakpoints pruned."""
    ginv = pl_inverse(g)
    candidates = {x.f for x, _ in g.breakpoints}
    candidates.update(ginv.eval_fraction(x.f) for x, _ in f.breakpoints)
    pts = []
    for x in sorted(candidates):
        if not _on_grid(x.denominator):
            raise UnsupportedDenominator("composition breakpoint off grid", x)
        pts.append((Angle(x), Angle(f.eval_fraction(g.eval_fraction(x)))))
    return PLCircleMap(pts)


def parse_pl(text: str) -> PLCircleMap:
    """Parse the "x1:y1,x2:y2,..." wire format."""
    pairs = []
    for chunk in text.strip().split(","):
        if chunk.count(":") != 1:
            raise ParseError(f"bad breakpoint {excerpt(chunk)!r}")
        x, y = chunk.split(":")
        pairs.append((parse_angle(x), parse_angle(y)))
    try:
        return PLCircleMap(pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
