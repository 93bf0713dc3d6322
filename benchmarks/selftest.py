"""Fast self-test of the benchmark harness (about half a minute).

    python3 benchmarks/selftest.py

Checks that:

* every workload, run at its tiny size, traced and untraced, emits exactly
  the metric names ``BENCHMARK.json`` lists, each a finite number, and
  passes every correctness check;
* a deliberately infeasible input (lambda = inf with unequal totals, which
  raises ``InfeasibleError``) is counted in ``failed`` and ``error_rate``
  while the run still completes and reports.
"""

from __future__ import annotations

import json
import math
import sys

from run import ROOT, import_package

def check_result(what, result, expected) -> list[str]:
    problems = []
    metrics = result["metrics"]
    if set(metrics) != expected:
        problems.append(f"{what}: metric names differ from BENCHMARK.json: "
                        f"missing {sorted(expected - set(metrics))}, "
                        f"extra {sorted(set(metrics) - expected)}")
    for name, m in metrics.items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{what}: {name} is not a finite number: {m['value']!r}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{what}: {result['failed']}/{result['attempted']} failed")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            report, result = workloads.run_workload(workload, 7, 0.5, trace, size="tiny")
            what = f"{workload} trace={trace}"
            found = check_result(what, result, expected[trace])
            if found:
                found.append(f"{what} report: {json.dumps(report)}")
            problems += found
            print(f"{what}: {result['attempted']} operations checked", file=sys.stderr)

    # lambda = inf on unequal totals is infeasible; half the solves raise
    report, result = workloads.run_workload("blobs2d-exact", 7, 0.5, 0, size="tiny",
                                            lambdas=(0.0, math.inf))
    failures = report["failures"]
    if not (result["failed"] * 2 == result["attempted"] and report["error_rate"] == 0.5
            and failures and all("InfeasibleError" in f for f in failures)):
        problems.append(f"infeasible input not counted as failures: {report} {result}")
    print(f"infeasible input: {result['failed']}/{result['attempted']} counted as "
          f"failed", file=sys.stderr)

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    import_package()
    import workloads

    sys.exit(main())
