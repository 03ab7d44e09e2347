"""Command line front end.

Exit codes: 0 success, 1 malformed input, 2 semantic rejection (printed
as ``REJECT <code> <witness>`` on stdout).
"""

from __future__ import annotations

import argparse
import sys

from . import element as el
from . import render as rd
from . import thompson as th
from . import words as wd
from .circle import parse_angle, parse_pl
from .diagram import parse_diagram
from .errors import (
    ArcMismatch,
    BasilicaError,
    LeafCountMismatch,
    ParseError,
    UnsupportedDenominator,
    excerpt,
)
from .lamination import parse_gap
from .membership import recognize

_PARSE_ERRORS = (ParseError, UnsupportedDenominator, LeafCountMismatch, ArcMismatch)


def _stdin_or(value: str) -> str:
    return sys.stdin.read() if value == "-" else value


def _element_from_args(args) -> el.Element:
    if getattr(args, "word", None) is not None:
        return wd.eval_word(wd.parse_word(_stdin_or(args.word)))
    if getattr(args, "element", None) is None:
        raise ParseError("need --element or --word")
    return el.parse_element(_stdin_or(args.element))


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as malformed input: exit 2 means REJECT.  The
    message is cut short, since argparse quotes the offending value whole."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {excerpt(message, 100)}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tb", description="exact arithmetic on Basilica rearrangements"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, **flags):
        p = sub.add_parser(name)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        p.add_argument("--out", help="write output to a file instead of stdout")
        return p

    add("reduce", element={}, word={})
    add("compose", element={"action": "append", "required": True})
    add("invert", element={}, word={})
    add("eval", element={}, word={}, angle={"required": True})
    add("recognize", pl={"required": True})
    add("decompose", element={}, word={})
    add("word", word={"required": True})
    p = add("tau", element={}, word={}, treepair={}, boundary={"action": "store_true"})
    p.add_argument("--inverse", action="store_true")
    add("abelianize", element={}, word={})
    add("gap", gap={"required": True}, word={})
    add(
        "random",
        seed={"type": int, "required": True},
        length={"type": int, "required": True},
    )
    add("render", element={}, word={}, diagram={})
    return parser


def _run(args) -> str:
    verb = args.verb
    if verb == "reduce":
        return str(el.reduce(_element_from_args(args)))
    if verb == "compose":
        parts = [el.parse_element(_stdin_or(text)) for text in args.element]
        out = el.identity()
        for part in parts:
            out = el.compose(out, part)
        return str(out)
    if verb == "invert":
        return str(el.inverse(_element_from_args(args)))
    if verb == "eval":
        e = _element_from_args(args)
        return str(el.evaluate(e, parse_angle(args.angle)))
    if verb == "recognize":
        return str(recognize(parse_pl(_stdin_or(args.pl))))
    if verb == "decompose":
        return wd.format_word(wd.decompose(_element_from_args(args)))
    if verb == "word":
        return str(_element_from_args(args))
    if verb == "tau":
        if args.inverse:
            if args.treepair is None:
                raise ParseError("tau --inverse needs --treepair")
            return str(th.tau_inverse(th.parse_treepair(_stdin_or(args.treepair))))
        e = _element_from_args(args)
        if args.boundary:
            return str(th.boundary_action(e))
        return str(th.tau(e))
    if verb == "abelianize":
        return str(wd.abelianize(_element_from_args(args)))
    if verb == "gap":
        gap = parse_gap(_stdin_or(args.gap))
        if args.word is not None:
            return str(el.image_of_gap(_element_from_args(args), gap))
        return wd.format_word(wd.transport_gap_to_center(gap))
    if verb == "random":
        if args.length < 0:
            raise ParseError(f"length {args.length} is negative")
        return str(wd.random_element(args.seed, args.length))
    if verb == "render":
        if args.diagram is not None:
            return rd.render_diagram(parse_diagram(_stdin_or(args.diagram)))
        return rd.render_element(_element_from_args(args))
    raise AssertionError(f"unhandled verb {verb}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = _run(args)
    except _PARSE_ERRORS as exc:
        print(f"error: {excerpt(str(exc), 100)}", file=sys.stderr)
        return 1
    except BasilicaError as exc:
        witness = "" if exc.witness is None else f" {exc.witness}"
        print(f"REJECT {exc.code}{witness}")
        return 2
    _emit(args, output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
