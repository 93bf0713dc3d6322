"""Regenerate benchmarks/reference.json: exact objectives at the default seed.

    python3 benchmarks/make_reference.py

Every (workload, pair or subject, lambda) objective comes from the dense
network simplex (``solve_unbalanced``), also where the workload itself runs
the multiscale solver.  Instances with at most 64k arcs are cross-checked
against scipy's HiGHS dual simplex here, never inside a timed run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from run import import_package

HIGHS_MAX_ARCS = 64_000
HIGHS_RTOL = 1e-9


def highs_objective(problem) -> float:
    """Optimum of the flow problem as an LP solved by HiGHS' dual simplex."""
    arcs = np.arange(problem.n_arcs)
    incidence = coo_matrix(
        (np.r_[np.ones(problem.n_arcs), -np.ones(problem.n_arcs)],
         (np.r_[problem.tails, problem.heads], np.r_[arcs, arcs])),
        shape=(problem.n_nodes, problem.n_arcs),
    ).tocsr()
    res = linprog(problem.costs, A_eq=incidence, b_eq=problem.supplies,
                  bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return res.fun * problem.mass_per_unit


def exact(mu, nu, lam, counters):
    """Dense simplex objective, checked against HiGHS on small networks."""
    w = workloads
    alloc = w.AllocationSpec(lam=lam)
    sol = w.solve_unbalanced(mu, nu, w.COST, alloc, w.QUANT)
    problem = w.network.build_unbalanced_problem(mu, nu, w.COST, alloc, w.QUANT)
    if problem.n_arcs <= HIGHS_MAX_ARCS:
        other = highs_objective(problem)
        rel = abs(other - sol.objective) / abs(sol.objective)
        if rel > HIGHS_RTOL:
            raise RuntimeError(f"simplex {sol.objective!r} vs HiGHS {other!r} "
                               f"(rel {rel:.2e}) at lambda={lam!r}")
        counters["highs"] += 1
        counters["worst_rel"] = max(counters["worst_rel"], rel)
    return sol.objective


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    w = workloads
    seed = w.DEFAULT_SEED
    counters = {"highs": 0, "worst_rel": 0.0}
    table = {"seed": seed, "workloads": {}}
    for name, sizes in w.CONFIGS.items():
        cfg = sizes["full"]
        if isinstance(cfg, w.AnnulusConfig):
            work = w.HERE / ".work" / "reference"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            cfg_path = work / "config.json"
            cfg_path.write_text(json.dumps(w.annulus_config(cfg, seed, work / "out")))
            if w.cli.main(["template", "--config", str(cfg_path)]) != 0:
                raise RuntimeError("template stage failed")
            template, subjects = w.pipeline_inputs(work / "out", cfg.downsample_factor)
            objectives = {sid: [exact(template, m, lam, counters) for lam in cfg.lambdas]
                          for sid, m in subjects.items()}
            shutil.rmtree(work)
        else:
            objectives = []
            for index in range(cfg.pairs):
                mu, nu = w.blob_pair(seed, index, cfg.dims)
                objectives.append([exact(mu, nu, lam, counters) for lam in cfg.lambdas])
        table["workloads"][name] = {"key": w.reference_key(cfg),
                                    "objectives": objectives}
        print(f"{name}: {len(objectives)} instances", file=sys.stderr)
    with open(w.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print(f"HiGHS cross-checks: {counters['highs']} instances, worst relative "
          f"difference {counters['worst_rel']:.2e}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    import_package()
    import workloads

    sys.exit(main())
