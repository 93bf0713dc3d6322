"""The benchmark harness still runs against the package.

The benchmark wraps pipeline and solver functions by name to trace them,
so a refactor that renames or drops one of those names breaks the
benchmark; its self-test (every workload at its tiny size, traced and
untraced) catches that here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "benchmarks/selftest.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
