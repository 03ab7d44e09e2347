import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import basilica

from basilica.circle import (
    Angle,
    PLCircleMap,
    parse_angle,
    parse_pl,
    pl_compose,
    pl_inverse,
    rotation,
)
from basilica.errors import ParseError, UnsupportedDenominator
from basilica.words import random_element

from oracles import eval_linear


def cyclic_between(a: Angle, b: Angle, c: Angle) -> bool:
    """True iff b lies in the open counterclockwise interval from a to c."""
    if a == c:
        return False
    if a.f < c.f:
        return a.f < b.f < c.f
    return b.f > a.f or b.f < c.f


def is_identity(f: PLCircleMap) -> bool:
    return len(f.breakpoints) == 1 and f.breakpoints[0][0] == f.breakpoints[0][1]


def test_angle_normalizes_into_unit_interval():
    assert Angle(Fraction(7, 6)) == Angle(Fraction(1, 6))
    assert Angle(Fraction(-1, 3)) == Angle(Fraction(2, 3))


def test_angle_rejects_off_grid_denominators():
    for bad in (Fraction(1, 5), Fraction(1, 9), Fraction(2, 7)):
        with pytest.raises(UnsupportedDenominator):
            Angle(bad)


def test_parse_angle():
    assert parse_angle("5/12") == Angle(Fraction(5, 12))
    assert parse_angle("0") == Angle(Fraction(0))
    with pytest.raises(ParseError):
        parse_angle("x/3")


def test_cyclic_between_wraps():
    a, b, c = parse_angle("5/6"), parse_angle("1/12"), parse_angle("1/6")
    assert cyclic_between(a, b, c)
    assert not cyclic_between(c, b, a)


def test_rotation_eval_and_inverse():
    r = rotation(Fraction(1, 2))
    assert r.eval_fraction(Fraction(0)) == Fraction(1, 2)
    assert is_identity(pl_compose(r, r))
    assert pl_inverse(r) == r


def test_pruning_produces_canonical_breakpoints():
    # breakpoint at 1/2 is collinear: the map is a pure rotation in disguise
    f = PLCircleMap([(Fraction(0), Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 4))])
    assert f.is_rotation()
    assert f == rotation(Fraction(1, 4))


def test_degree_one_violation_rejected():
    with pytest.raises(ValueError):
        PLCircleMap([(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0))])
    # malformed wire formats, each with its own message
    for text, error, message in [
        ("1/6:1/6,1/6:1/3", ParseError, "duplicate breakpoint abscissa"),
        ("0:0,1/2:0", ParseError, "breakpoint images not strictly increasing in cyclic order"),
        ("0:0,1/4:1/2,1/2:1/4", ParseError, "map is not degree one"),
        ("0:1/5", UnsupportedDenominator, "denominator 5"),
        ("x", ParseError, "bad breakpoint 'x'"),
    ]:
        with pytest.raises(error) as caught:
            parse_pl(text)
        assert str(caught.value) == message, text


def test_compose_against_pointwise_oracle():
    rng = random.Random(11)
    f = parse_pl("1/3:1/6,2/3:5/6")
    g = parse_pl("1/6:1/6,2/3:7/24,17/24:1/3,5/6:5/6")
    fg = pl_compose(f, g)
    for _ in range(200):
        t = Fraction(rng.randrange(0, 3 * 2 ** 8), 3 * 2 ** 8)
        assert fg.eval_fraction(t) == f.eval_fraction(g.eval_fraction(t))


def test_inverse_against_pointwise_oracle():
    f = parse_pl("1/6:1/6,2/3:7/24,17/24:1/3,5/6:5/6")
    finv = pl_inverse(f)
    rng = random.Random(12)
    for _ in range(100):
        t = Fraction(rng.randrange(0, 96), 96)
        assert finv.eval_fraction(f.eval_fraction(t)) == t


def test_orientation_preserved():
    f = parse_pl("1/3:1/6,2/3:5/6")
    rng = random.Random(13)
    for _ in range(60):
        pts = sorted(
            {Fraction(rng.randrange(0, 192), 192) for _ in range(3)}
        )
        if len(pts) < 3:
            continue
        a, b, c = (Angle(f.eval_fraction(p)) for p in pts)
        assert cyclic_between(a, b, c)


def test_format_parse_roundtrip():
    f = parse_pl("1/3:1/6,2/3:5/6")
    assert parse_pl(str(f)) == f
    assert str(rotation(Fraction(0))) == "0:0"


def random_maps(seed, count):
    """Maps of random products of the generators, and rotations by k/24."""
    rng = random.Random(seed)
    maps = [random_element(rng.randrange(10 ** 6), rng.randrange(1, 9)).to_pl() for _ in range(count)]
    return maps + [rotation(Fraction(k, 24)) for k in range(24)]


def test_padding_with_collinear_points_keeps_breakpoints():
    rng = random.Random(14)
    for f in random_maps(15, 30):
        xs = {x for x, _ in f.breakpoints}
        pad = {Fraction(rng.randrange(3 * 2 ** 7), 3 * 2 ** 7) for _ in range(rng.randrange(1, 12))}
        pts = list(f.breakpoints) + [(x, f.eval_fraction(x)) for x in pad - xs]
        assert PLCircleMap(pts).breakpoints == f.breakpoints


def test_bisect_evaluation_matches_linear_scan():
    for f in random_maps(16, 30):
        xs = [x for x, _ in f.breakpoints]
        points = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:] + [xs[0] + 1])]
        points += [Fraction(k, 48) for k in range(48)]
        points += [Fraction(1, 5), Fraction(2, 7), Fraction(-3, 11), Fraction(7, 3)]  # off the grid
        for t in points:
            assert f.eval_fraction(t) == eval_linear(f, t)


def _float_or_math(node) -> bool:
    """A float literal, the name ``float`` or ``math``, or an import of ``math``."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Name):
        return node.id in ("float", "math")
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "math" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "math"
    return False


def test_no_floats_outside_render():
    # the kernel is exact: only the SVG renderer may touch floats
    for path in sorted(Path(basilica.__file__).parent.glob("*.py")):
        if path.name != "render.py":
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                assert not _float_or_math(node), f"{path.name}:{node.lineno}"
