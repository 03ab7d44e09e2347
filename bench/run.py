"""Benchmark of the basilica kernel.

Run from the root of a checkout:

    python3 bench/run.py --workload arith --seed 1 --seconds 40 --trace 0

One process, one workload, closed loop: each operation starts when the
previous one and its check have finished.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The kernel is imported from ``src/`` next to
this directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


class OpTimeout(Exception):
    pass


class Record:
    __slots__ = ("kind", "key", "seconds", "ok", "known_fault", "size")

    def __init__(self, op, seconds, ok, size):
        self.kind = op.kind
        self.key = op.key
        self.seconds = seconds
        self.ok = ok
        self.known_fault = op.known_fault
        self.size = size


def _alarm(signum, frame):
    raise OpTimeout()


def fingerprint(value, error) -> str:
    if error is not None:
        return f"{type(error).__name__} {getattr(error, 'code', '')} {getattr(error, 'witness', '')}"
    return str(value)


def run_op(op, verified) -> Record:
    """Time one call (the fastest of ``op.repeat``); check its outcome
    outside the timed region.

    The first outcome of each (kind, input) is checked in full and its
    fingerprint kept in ``verified``; a later outcome passes if it is the
    same, and is checked in full otherwise."""
    value = error = None
    if op.limit:
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, op.limit)
    try:
        seconds = float("inf")
        for _ in range(op.repeat):
            start = time.perf_counter()
            try:
                value, error = op.call(), None
            except Exception as exc:  # the check decides whether it was expected
                value, error = None, exc
            seconds = min(seconds, time.perf_counter() - start)
    finally:
        if op.limit:
            signal.setitimer(signal.ITIMER_REAL, 0)
    ok = False
    if not isinstance(error, OpTimeout):
        seen = fingerprint(value, error)
        ok = verified.get((op.kind, op.key)) == seen
        if not ok:
            try:
                ok = bool(op.check(value, error))
            except Exception:  # a result the check cannot even read is wrong
                ok = False
            if ok:
                verified[(op.kind, op.key)] = seen
    size = op.size(value) if ok and op.size else None
    return Record(op, seconds, ok, size)


def run_rounds(workload, rounds=None, seconds=None) -> list:
    """Whole rounds: at least ``workload.cover``, then more until ``seconds``
    have passed; or exactly ``rounds``."""
    log = []
    verified: dict = {}
    start = time.perf_counter()
    r = 0
    while True:
        if rounds is not None and r >= rounds:
            break
        if rounds is None and r >= workload.cover and time.perf_counter() - start >= seconds:
            break
        log.extend(run_op(op, verified) for op in workload.round(r))
        r += 1
    return log


def summary(log) -> dict:
    return {
        "correct": all(rec.ok or rec.known_fault for rec in log),
        "attempted": len(log),
        "failed": sum(1 for rec in log if not rec.ok),
    }


def peak_rss_mib() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "basilica" / "__init__.py").is_file():
        print(f"error: no kernel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    factory = workloads.WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        kernel = workloads.Kernel(SRC)
        workload = factory(kernel, args.seed)
        setup_times.append(time.perf_counter() - start)
    gc.collect()

    if args.trace:
        import layers

        log, metrics = layers.traced_run(kernel, workload, run_rounds)
    else:
        log = run_rounds(workload, seconds=args.seconds)
        metrics = workloads.metrics(log)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    result = summary(log)
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
