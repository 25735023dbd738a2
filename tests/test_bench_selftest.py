"""The benchmark's self-test runs as part of the test suite.

``bench/`` calls library functions by name and with keyword arguments, and
wraps some of them for its traces, so a library change that breaks one of
those calls fails here rather than only when the benchmark runs.
"""
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=BENCH.parent,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
