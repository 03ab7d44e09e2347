"""Exact arithmetic on the circle R/Z and piecewise-linear circle maps.

Points live on the grid k/(3*2^n): every denominator is 2^a or 3*2^a.
At the API edge a point is a ``Fraction`` in [0, 1) that ``grid_point``
has checked, or an ``Angle`` wrapping one.  A piecewise-linear map holds
one exponent N, the least that puts all its breakpoints on the grid, and
its breakpoints lifted to the real line as integer numerators over
D = 3*2^N; only its constructor, ``breakpoints`` and ``eval_fraction``
convert to and from ``Fraction``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import ParseError, UnsupportedDenominator, excerpt


def grid_exponent(den: int) -> int | None:
    """The least N such that den divides 3*2^N; None off the grid."""
    low = den & -den
    return low.bit_length() - 1 if den // low in (1, 3) else None


def mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def grid_point(x) -> Fraction:
    """x mod 1, as a Fraction in [0, 1); UnsupportedDenominator off the grid."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if not 0 <= x < 1:
        x = mod1(x)
    if grid_exponent(x.denominator) is None:
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

    ``xs`` and ``ys`` are the breakpoints sorted by x and lifted to strictly
    increasing numerators over D = 3*2^``exp``, xs[0] and ys[0] in [0, D),
    closed by xs[n] = xs[0] + D, ys[n] = ys[0] + D.  Collinear breakpoints
    are pruned; a pure rotation keeps the synthetic breakpoint (0, rotation(0)).
    """

    __slots__ = ("exp", "xs", "ys")

    def __init__(self, breakpoints):
        pts = [(grid_point(x), grid_point(y)) for x, y in breakpoints]
        exp = max((grid_exponent(q.denominator) for p in pts for q in p), default=0)
        d = 3 << exp
        self.exp, self.xs, self.ys = _build(exp, [(int(x * d), int(y * d)) for x, y in pts])

    @property
    def breakpoints(self) -> tuple:
        """The (x, y) breakpoint pairs as Fractions in [0, 1), sorted by x."""
        d = 3 << self.exp
        return tuple((Fraction(x, d), Fraction(y % d, d)) for x, y in zip(self.xs[:-1], self.ys))

    def is_rotation(self) -> bool:
        return len(self.xs) == 2

    def at(self, exp: int):
        """(xs, ys) as numerators over 3*2^exp, for exp >= self.exp."""
        return [x << exp - self.exp for x in self.xs], [y << exp - self.exp for y in self.ys]

    def eval_fraction(self, t) -> Fraction:
        """Exact image of t (any rational mod 1), as a Fraction in [0, 1)."""
        t = mod1(Fraction(t))
        d = 3 << self.exp
        p, q = lift_image(self.xs, self.ys, d, t.numerator * d, t.denominator)
        return mod1(Fraction(p, q * d))

    def __eq__(self, other) -> bool:
        return isinstance(other, PLCircleMap) and (self.xs, self.ys) == (other.xs, other.ys)

    def __hash__(self) -> int:
        return hash((self.xs, self.ys))

    def __str__(self) -> str:
        return ",".join(f"{x}:{y}" for x, y in self.breakpoints)

    def __repr__(self) -> str:
        return f"PLCircleMap({self})"


def grid_map(exp: int, pts) -> PLCircleMap:
    """The map through (x, y) numerator pairs over 3*2^exp, both in [0, 3*2^exp)."""
    f = PLCircleMap.__new__(PLCircleMap)
    f.exp, f.xs, f.ys = _build(exp, pts)
    return f


_NOT_INCREASING = "breakpoint images not strictly increasing in cyclic order"


def _build(exp: int, pts):
    """(exp, xs, ys) of ``PLCircleMap`` from the pairs: sorted, lifted, pruned
    and at the least exponent.  ValueError unless the x are distinct and the
    images go once around the circle in cyclic order (degree one)."""
    pts = sorted(pts)
    if not pts:
        raise ValueError("breakpoint list must be nonempty")
    if any(pts[i][0] == pts[i + 1][0] for i in range(len(pts) - 1)):
        raise ValueError("duplicate breakpoint abscissa")
    d = 3 << exp
    steps = [(b - a) % d for (_, a), (_, b) in zip(pts, pts[1:])]
    if 0 in steps:
        raise ValueError(_NOT_INCREASING)
    xs = [x for x, _ in pts] + [pts[0][0] + d]
    ys = [*accumulate(steps, initial=pts[0][1]), pts[0][1] + d]
    if ys[-1] <= ys[-2]:  # the step back to ys[0] is 0 iff ys[-2] - ys[0] is whole
        raise ValueError(_NOT_INCREASING if (ys[-2] - ys[0]) % d == 0 else "map is not degree one")
    # drop breakpoints where the left and right slopes agree; one pass
    # suffices, as dropping one leaves the slopes beside every other as they were
    dx = [xs[i + 1] - xs[i] for i in range(len(pts))]
    dy = [ys[i + 1] - ys[i] for i in range(len(pts))]
    kept = [i for i in range(len(pts)) if dy[i - 1] * dx[i] != dy[i] * dx[i - 1]]
    if kept:
        xs, ys = [xs[i] for i in kept], [ys[i] - ys[kept[0]] // d * d for i in kept]
    else:  # no slope changes: a pure rotation, anchored at 0
        xs, ys = [0], [(ys[0] - xs[0]) % d]
    xs, ys = xs + [xs[0] + d], ys + [ys[0] + d]
    shift = min((v & -v).bit_length() for v in xs + ys if v) - 1  # at most exp: xs[-1] = xs[0] + d
    return exp - shift, tuple(x >> shift for x in xs), tuple(y >> shift for y in ys)


def lift_image(xs, ys, d: int, p: int, q: int):
    """The image of the point p/(q*d) of [0, 1) under the lift (xs, ys) over
    d, as (p', q') with value p'/(q'*d), not reduced and not taken mod 1."""
    if p < xs[0] * q:
        p += d * q
    i = bisect_right(xs, p // q) - 1
    dx = xs[i + 1] - xs[i]
    return ys[i] * dx * q + (ys[i + 1] - ys[i]) * (p - xs[i] * q), dx * q


def rotation(amount) -> PLCircleMap:
    """Rotation by the given grid amount, stored with its synthetic breakpoint."""
    return PLCircleMap([(0, amount)])


def pl_inverse(f: PLCircleMap) -> PLCircleMap:
    d = 3 << f.exp
    return grid_map(f.exp, [(y % d, x) for x, y in zip(f.xs[:-1], f.ys)])


def pl_compose(f: PLCircleMap, g: PLCircleMap) -> PLCircleMap:
    """The composition f after g, with collinear breakpoints pruned.  Its
    breakpoints are among those of g and the preimages under g of those of
    f; g takes each to a breakpoint coordinate.  With e the larger exponent,
    a preimage lies at most e + 1 levels below e, and its image under f at
    most e + 1 below that: on the grid iff an integer over 3*2^(3e+2)."""
    exp = 3 * max(f.exp, g.exp) + 2
    d = 3 << exp
    (fx, fy), (gx, gy) = f.at(exp), g.at(exp)
    preimages = [lift_image(gy, gx, d, x, 1) + (x,) for x in fx[:-1]]
    off = [mod1(Fraction(p, q * d)) for p, q, _ in preimages if p % q]
    if off:
        raise UnsupportedDenominator("composition breakpoint off grid", min(off))
    image = dict(zip(gx[:-1], gy)) | {p // q % d: x for p, q, x in preimages}
    pts = []
    for x in sorted(image):
        p, q = lift_image(fx, fy, d, image[x] % d, 1)
        if p % q:
            grid_point(Fraction(p, q * d))  # raises, naming the denominator
        pts.append((x, p // q % d))
    return grid_map(exp, pts)


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
