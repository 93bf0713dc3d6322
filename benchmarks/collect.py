"""Run the benchmark on several seeds per workload and summarise the spread.

    python3 benchmarks/collect.py --runs 10 [--workload NAME ...] [--out FILE]

Each run is ``benchmarks/run.py`` in a fresh process with its own seed
(1, 2, ...).  For every end-to-end metric the summary gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the bound
``BENCHMARK.json`` sets.  With ``--out`` every run's report and result are
written to a JSON file, such as a committed baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "trace": trace, "process_s": elapsed,
            "report": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarise(runs, bounds) -> dict:
    values = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    out = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "bound": bounds.get(name)}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workload or names:
        runs = []
        for k in range(args.runs):
            run = run_once(workload, 1 + k, args.seconds, args.trace)
            runs.append(run)
            res = run["result"]
            values = " ".join(f"{name}={m['value']:.4g}"
                              for name, m in res["metrics"].items())
            print(f"{workload} seed={run['seed']} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  f"process={run['process_s']:.1f}s {values}",
                  file=sys.stderr, flush=True)
        stats = summarise(runs, bounds)
        for name, s in stats.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {workload:20s} {name:28s} median={s['median']:.6g} "
                  f"spread={spread} bound={s['bound']}", file=sys.stderr)
        summary[workload] = {"summary": stats, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(
            {"run_seconds": args.seconds, "trace": args.trace, "workloads": summary},
            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
