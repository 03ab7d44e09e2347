"""Exact arithmetic on the circle R/Z and piecewise-linear circle maps.

Points live on the grid k/(3*2^n): every denominator is 2^a or 3*2^a.
Piecewise-linear maps are stored as breakpoint lists only; slopes are
recomputed on demand, never stored.
"""

from __future__ import annotations

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

    def __add__(self, other) -> "Angle":
        return Angle(self.f + _frac(other))

    def __sub__(self, other) -> "Angle":
        return Angle(self.f - _frac(other))

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

    __slots__ = ("breakpoints",)

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

    # -- structure -------------------------------------------------------

    def lifted(self):
        """Breakpoints lifted to strictly increasing reals over one period.

        Returns (xs, ys) with len n+1; xs[n] = xs[0]+1, ys[n] = ys[0]+1.
        """
        pts = self.breakpoints
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
        return xs, ys

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
        for i in range(len(xs) - 1):
            if xs[i] <= t <= xs[i + 1]:
                slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
                return mod1(ys[i] + slope * (t - xs[i]))
        raise AssertionError("lift does not cover the period")

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


def _prune(pts):
    """Drop breakpoints where the left and right slopes agree."""
    if len(pts) == 1:
        x, y = pts[0]
        rot = Angle(y.f - x.f)
        return [(Angle(Fraction(0)), rot)]
    while len(pts) > 1:
        xs = [p[0].f for p in pts] + [pts[0][0].f + 1]
        ys = [pts[0][1].f]
        for i in range(1, len(pts)):
            ys.append(ys[-1] + mod1(pts[i][1].f - pts[i - 1][1].f))
        ys.append(ys[0] + 1)
        n = len(pts)
        removable = None
        for i in range(n):
            # slope to the left of breakpoint i vs to the right
            lx0, lx1 = xs[i - 1] if i else xs[n - 1] - 1, xs[i]
            ly0, ly1 = ys[i - 1] if i else ys[n - 1] - 1, ys[i]
            left = (ly1 - ly0) / (lx1 - lx0)
            right = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
            if left == right:
                removable = i
                break
        if removable is None:
            return pts
        pts = pts[:removable] + pts[removable + 1 :]
    # everything pruned: pure rotation, anchor at 0
    x, y = pts[0]
    return [(Angle(Fraction(0)), Angle(y.f - x.f))]


def rotation(amount) -> PLCircleMap:
    """Rotation by the given grid amount, stored with its synthetic breakpoint."""
    return PLCircleMap([(Fraction(0), _frac(amount))])


def pl_eval(f: PLCircleMap, t: Angle):
    """Exact image of t.  Returns an Angle when the image lies on the grid,
    otherwise the raw Fraction (only possible for maps outside T_B)."""
    result = f.eval_fraction(t.f)
    if _on_grid(result.denominator):
        return Angle(result)
    return result


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
