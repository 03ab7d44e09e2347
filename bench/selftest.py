"""Self-test of the benchmark's checks: a wrong result must count as failed.

Run from the root of a checkout:

    python3 bench/selftest.py

It takes operations of each kind, confirms that the
kernel's real result passes, then feeds the same check a deliberately wrong
result (a moved breakpoint, a wrong witness, a dropped letter, a wrong exit
code, ...) and asserts that ``run_op`` counts it as failed, both on a first
sight and after the correct result has been verified.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

failures = []


def outcome(op, value=None, error=None, verified=None):
    """Record of ``op``'s check applied to a given value or error."""
    def call():
        if error is not None:
            raise error
        return value
    fake = workloads.Op(op.kind, op.key, call, op.check, op.size, None, op.known_fault)
    return run.run_op(fake, {} if verified is None else verified)


def expect(label, op, wrong_value=None, wrong_error=None):
    """The real result of ``op`` passes; the wrong one fails, before and
    after the real one has been verified."""
    verified: dict = {}
    real = run.run_op(op, verified)
    if not real.ok:
        failures.append(f"{label}: the kernel's own result failed its check")
    for memo in ({}, verified):
        if outcome(op, wrong_value, wrong_error, memo).ok:
            failures.append(f"{label}: a wrong result passed")
    print(f"{'ok  ' if real.ok else 'FAIL'} {label}")


def by_kind(ops, kind, key=None):
    return next(op for op in ops if op.kind == kind and (key is None or op.key == key))


def main() -> int:
    k = workloads.Kernel(run.SRC)
    el, th, er = k.element, k.thompson, k.errors

    def shifted(e):
        """The same diagrams with the leaves matched one step further: every
        breakpoint image moves."""
        return el.Element(e.domain, e.range, e.offset + 1)

    arith = workloads.Arith(k, 0)
    ops = arith.ops
    op = by_kind(ops, "compose")
    expect("arith compose: moved breakpoint", op, shifted(op.call()))
    op = by_kind(ops, "inverse")
    expect("arith inverse: not the inverse", op, shifted(op.call()))
    op = by_kind(ops, "cancel")
    expect("arith cancel: not the identity", op, el.generator("delta"))
    op = by_kind(ops, "reduce")
    expect("arith reduce: unreduced result", op, el.expand_pair(op.call(), 0))
    op = by_kind(ops, "tau", (0, "fg"))
    t = op.call()
    expect("arith tau: wrong offset", op, th.TreePair(t.domain, t.range, t.offset + 1))
    op = by_kind(ops, "tau", (0, "f"))
    t = op.call()
    expect("arith tau round trip: wrong offset", op, th.TreePair(t.domain, t.range, t.offset + 1))
    op = by_kind(ops, "tp_compose")
    t = op.call()
    expect("arith tp_compose: wrong offset", op, th.TreePair(t.domain, t.range, t.offset + 1))

    membership = workloads.Membership(k, 0)
    ops = membership.small + membership.fast + membership.slow + membership.hopeless
    op = by_kind(ops, "small")
    expect("membership accept: moved breakpoint", op, shifted(op.call()))
    expect("membership accept: rejected instead", op,
           wrong_error=er.ArcNotPreserved(k.lamination.BASE_ARC_HALF))
    op = by_kind(ops, "reject", ("slope", 0))
    expect("membership slope: power-of-two witness", op,
           wrong_error=er.SlopeNotPowerOfTwo(Fraction(2)))
    expect("membership slope: accepted instead", op, el.identity())
    op = by_kind(ops, "reject", ("dyadic", 0))
    expect("membership breakpoint: endpoint as witness", op,
           wrong_error=er.BreakpointNotArcEndpoint(k.circle.Angle(Fraction(1, 6))))
    op = by_kind(ops, "reject", ("slow", "b"))
    expect("membership arc: wrong code", op,
           wrong_error=er.ImageNotStandard(k.lamination.BASE_ARC_HALF))
    expect("membership arc: preserved arc as witness", op,
           wrong_error=er.ArcNotPreserved(k.lamination.BASE_ARC_ZERO))
    op = by_kind(ops, "hopeless")
    if outcome(op, error=run.OpTimeout()).ok:
        failures.append("membership: a timed-out operation passed")
    print("ok   membership time limit: counted as failed")

    op = by_kind(arith.sentinels, "decompose")
    word = op.call()
    expect("decompose: dropped letter", op, word[:-1])
    expect("decompose: extra a", op, word + ["a"])

    arith.tb.in_process = True
    ops = [op for op in arith.sentinels if op.kind == "call"]
    for op in ops[:10]:
        run.run_op(op, {})  # fills the outputs later calls read
    op = by_kind(ops, "call", "eval")
    code, out, err = op.call()
    expect("cli eval: wrong exit code", op, (3, out, err))
    expect("cli eval: traceback on stderr", op, (0, out, "Traceback (most recent call last):\n"))
    moved = workloads.checks.mod1(workloads.checks.frac(out) + Fraction(1, 3))
    expect("cli eval: wrong angle", op, (0, f"{moved}\n", err))
    op = by_kind(ops, "call", "render")
    code, out, err = op.call()
    expect("cli render: arc missing", op, (0, out.replace('<path class="arc"', "<path", 1), err))
    op = by_kind(ops, "call", "reject")
    code, out, err = op.call()
    expect("cli reject: exit 0", op, (0, out, err))

    for line in failures:
        print("FAIL", line)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
