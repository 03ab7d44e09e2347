"""Independent checks, written without the kernel.

Piecewise-linear circle maps are rebuilt here from the kernel's text
formats (breakpoint tables ``x1:y1,x2:y2,...``, elements ``[domain ; range
; offset]`` over the four base intervals, tree pairs over the two halves),
and arcs of the Basilica lamination are recognised by their closed form
{(3k-1)/(3*2^n), (3k+1)/(3*2^n)} with k even, plus {1/3, 2/3}.  The
workloads compare kernel results against these computations, never against
stored output.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction


def frac(text) -> Fraction:
    return Fraction(str(text).strip())


def mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


class PLMap:
    """Degree-one PL circle map through the given (x, y) pairs, lifted once.

    Collinear pairs are allowed, so two maps are compared as functions,
    never by their tables.
    """

    __slots__ = ("pairs", "xs", "ys")

    def __init__(self, pairs):
        self.pairs = sorted((mod1(Fraction(x)), mod1(Fraction(y))) for x, y in pairs)
        xs = [x for x, _ in self.pairs]
        ys = [self.pairs[0][1]]
        for (_, y0), (_, y1) in zip(self.pairs, self.pairs[1:]):
            ys.append(ys[-1] + mod1(y1 - y0))
        self.xs = xs + [xs[0] + 1]
        self.ys = ys + [ys[0] + 1]

    def __call__(self, t) -> Fraction:
        xs, ys = self.xs, self.ys
        t = mod1(Fraction(t))
        if t < xs[0]:
            t += 1
        i = min(bisect_right(xs, t) - 1, len(xs) - 2)
        return mod1(ys[i] + (ys[i + 1] - ys[i]) * (t - xs[i]) / (xs[i + 1] - xs[i]))

    def points(self) -> list:
        return self.xs[:-1]

    def slopes(self) -> list:
        xs, ys = self.xs, self.ys
        return [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]

    def inverse(self) -> "PLMap":
        return PLMap((y, x) for x, y in self.pairs)


IDENTITY_MAP = PLMap([(0, 0)])


def same_map(a: PLMap, b: PLMap) -> bool:
    """Two degree-one PL maps agree iff they agree at every breakpoint of both."""
    return all(a(x) == b(x) for x in set(a.points()) | set(b.points()))


def composes_to(h: PLMap, f: PLMap, g: PLMap) -> bool:
    """Is h equal to f after g?  Between consecutive test points g is affine
    and stays between breakpoints of f, so agreement there is agreement."""
    g_inv = g.inverse()
    points = set(h.points()) | set(g.points()) | {g_inv(x) for x in f.points()}
    return all(h(x) == f(g(x)) for x in points)


# -- text formats ------------------------------------------------------------

TERNARY_BASES = ((Fraction(1, 6), Fraction(1, 6)), (Fraction(1, 3), Fraction(1, 3)),
                 (Fraction(2, 3), Fraction(1, 6)), (Fraction(5, 6), Fraction(1, 3)))
BINARY_BASES = ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))


def _ternary(text, pos, lo, length, out):
    """Left endpoints of the leaves of the tree at text[pos:]; 1:2:1 split."""
    if text[pos] == ".":
        out.append(lo)
        return pos + 1
    q = length / 4
    for child_lo, child_length in ((lo, q), (lo + q, 2 * q), (lo + 3 * q, q)):
        pos = _ternary(text, pos + 1, child_lo, child_length, out)
    return pos + 1


def _binary(text, pos, lo, length, out):
    """Left endpoints of the leaves of the tree at text[pos:]; halving."""
    if text[pos] == ".":
        out.append(lo)
        return pos + 1
    half = length / 2
    for child_lo in (lo, lo + half):
        pos = _binary(text, pos + 1, child_lo, half, out)
    return pos + 1


def _pair_map(text, bases, walk) -> PLMap:
    """Map of ``[domain ; range ; offset]``: domain leaf i goes to range
    leaf i + offset, left endpoint to left endpoint."""
    sides = str(text).strip()[1:-1].split(";")
    if len(sides) != 3:
        raise ValueError(f"not a pair of forests: {text!r}")
    points = []
    for side in sides[:2]:
        side = side.replace(" ", "")
        out: list = []
        pos = 0
        for lo, length in bases:
            pos = walk(side, pos, lo, length, out) + 1
        if pos != len(side) + 1:
            raise ValueError(f"trailing text in {side!r}")
        points.append(out)
    domain, range_ = points
    offset, m = int(sides[2]), len(domain)
    if len(range_) != m:
        raise ValueError("leaf counts differ")
    return PLMap((domain[i], range_[(i + offset) % m]) for i in range(m))


def element_map(text) -> PLMap:
    """PL map of an element printed as ``[domain ; range ; offset]``."""
    return _pair_map(text, TERNARY_BASES, _ternary)


def treepair_map(text) -> PLMap:
    """PL map of a tree pair of Thompson's T, printed the same way."""
    return _pair_map(text, BINARY_BASES, _binary)


def table_map(text) -> PLMap:
    """PL map of a breakpoint table ``x1:y1,x2:y2,...``."""
    return PLMap(tuple(frac(v) for v in chunk.split(":")) for chunk in str(text).split(","))


def element_arc_counts(text) -> tuple:
    """Arcs of the domain and of the range of ``[domain ; range ; offset]``:
    one per internal node of each forest, plus the two base arcs."""
    domain, range_, _ = str(text).strip()[1:-1].split(";")
    return domain.count("(") + 2, range_.count("(") + 2


# -- arcs and slopes ---------------------------------------------------------

def is_pow2(q: Fraction) -> bool:
    n, d = q.numerator, q.denominator
    return n > 0 and n & (n - 1) == 0 and d & (d - 1) == 0


def _three_two_power(d: int) -> bool:
    """d == 3 * 2^n with n >= 1."""
    if d % 6:
        return False
    d //= 3
    return d & (d - 1) == 0


def is_endpoint(x: Fraction) -> bool:
    """Is x an endpoint of some arc of the lamination?"""
    x = mod1(x)
    p, d = x.numerator, x.denominator
    if d == 3:
        return True
    if not _three_two_power(d):
        return False
    if p % 3 == 2:
        return (p + 1) // 3 % 2 == 0
    if p % 3 == 1:
        return (p - 1) // 3 % 2 == 0
    return False


def is_arc(a: Fraction, b: Fraction) -> bool:
    """Is {a, b} an arc: {1/3, 2/3}, or {(3k-1)/d, (3k+1)/d}, d = 3*2^n, k even?"""
    a, b = mod1(a), mod1(b)
    if {a, b} == {Fraction(1, 3), Fraction(2, 3)}:
        return True
    d = a.denominator
    if d != b.denominator or not _three_two_power(d):
        return False
    for lo, hi in ((a, b), (b, a)):
        if lo.numerator % 3 == 2 and mod1(hi - lo) == Fraction(2, d):
            return (lo.numerator + 1) // 3 % 2 == 0
    return False


def parse_arc(text) -> tuple:
    """Endpoints of an arc printed as ``{a,b}``."""
    body = str(text).strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"not an arc: {text!r}")
    a, b = body[1:-1].split(",")
    return frac(a), frac(b)


def arc_not_preserved(f: PLMap, arc_text) -> bool:
    """The printed arc is an arc, and its image under f is not one."""
    a, b = parse_arc(arc_text)
    return is_arc(a, b) and not is_arc(f(a), f(b))


def a_parity(word) -> int:
    """Number of a / a' letters mod 2: the abelianization to Z/2."""
    return sum(1 for letter in word if letter[0] == "a") % 2
