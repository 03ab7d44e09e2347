import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


def test_bench_selftest_passes():
    # the benchmark builds elements and tree pairs from their constructors,
    # reads their sides and feeds B/G/D letters to word_to_tp: a change to
    # that kernel API fails here rather than in a benchmark run
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().splitlines()[-1] == "0 failure(s)"
