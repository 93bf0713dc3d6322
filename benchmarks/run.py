"""Run one uotmorph benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload blobs2d-exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from its
``src/`` directory, never from an installed copy, and the run fails without
printing a result when that source is missing.  With ``--trace 0`` the
result holds the end-to-end metrics, with ``--trace 1`` the per-layer ones.
The last line of standard output is the result object; the line before it
reports the environment, the reference gap, the error rate and any
failures.  BLAS and OpenMP pools are pinned to one thread so that the
pipeline's two workers do not oversubscribe two cores.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_package():
    """Import uotmorph from this checkout's src/, refusing any other copy."""
    if not (SRC / "uotmorph" / "__init__.py").is_file():
        raise SystemExit(f"error: no uotmorph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import uotmorph

    if Path(uotmorph.__file__).resolve().parent != SRC / "uotmorph":
        raise SystemExit(f"error: imported uotmorph from {uotmorph.__file__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    report, result = workloads.run_workload(args.workload, seed, args.seconds,
                                            args.trace)
    report["environment"] = environment()
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
