"""Seeded benchmark workloads for uotmorph, their correctness gate and metrics.

Every workload is a closed loop in one process: the next round starts when
the previous one has finished.  Only the annulus pipeline starts worker
processes (the transport stage's pool of ``workers=2``).

* ``blobs2d-exact``: seeded 2D three-blob pairs (the criterion-7 generator,
  widths scaled to the grid) solved with ``solve_unbalanced`` at lambda 0,
  two mid-continuum values and one past the largest cost.
* ``blobs3d-multiscale``: seeded 3D blob pairs solved with
  ``solve_multiscale``; the only workload that runs the pyramid and the
  restricted network build.
* ``annulus-pipeline``: ``cli.main(["run", ...])`` on the annulus
  ``random_total`` cohort, cold in a fresh output directory, then a warm
  rerun that changes only ``smoothing.sigma``.

A round of a library workload solves one of the run's pairs at every
lambda, cycling through the pairs, so every pass after the first reruns
them; a round of the pipeline is one cold run and a warm rerun.  Each
timing is the median of its repeats on one input, then the mean over inputs.
A failed solve or check is counted, never raised.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import uotmorph
from uotmorph import cli, grid, pipeline, stats, synth
from uotmorph.grid import (
    GridDomain,
    GridMeasure,
    downsample,
    load_manifest,
    load_measure,
)
from uotmorph.solver import (
    AllocationSpec,
    CostSpec,
    QuantizationSpec,
    api,
    feasibility_violation_units,
    load_solution,
    multiscale,
    network,
    solve_multiscale,
    solve_unbalanced,
)
from uotmorph.solver.specs import ARC_TRANSPORT

from spans import Tracer

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
UNITS = 10**6
QUANT = QuantizationSpec(units=UNITS)
COST = CostSpec()
REGIMES = ("local", "mid", "global")
SETUP_REPEATS = 7  # at least; more while set-up takes under SETUP_SHARE of the run
SETUP_SHARE = 0.1
RERUN_SIGMA = 1.5
PIN = hasattr(os, "sched_setaffinity")
EXACT_RTOL = 1e-9
MULTISCALE_MAX_GAP = 0.05


def regime(lam: float, max_cost: float) -> str:
    """local: lambda = 0; global: 2 lambda >= max cost; mid: in between."""
    if lam == 0:
        return "local"
    return "global" if 2 * lam >= max_cost else "mid"


# ---------------------------------------------------------------------------
# workload configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlobConfig:
    dims: tuple
    lambdas: tuple
    multiscale: bool
    pairs: int
    coarsen_threshold: int = 1000


@dataclass(frozen=True)
class AnnulusConfig:
    n_subjects: int
    dims: tuple
    downsample_factor: int
    lambdas: tuple


CONFIGS = {
    "blobs2d-exact": {
        "full": BlobConfig(dims=(12, 12), lambdas=(0.0, 10.0, 100.0, 2000.0),
                           multiscale=False, pairs=64),
        "tiny": BlobConfig(dims=(6, 6), lambdas=(0.0, 10.0, 2000.0),
                           multiscale=False, pairs=1),
    },
    "blobs3d-multiscale": {
        "full": BlobConfig(dims=(5, 5, 5), lambdas=(0.0, 10.0, 2000.0),
                           multiscale=True, pairs=64, coarsen_threshold=20),
        "tiny": BlobConfig(dims=(4, 4, 4), lambdas=(0.0, 10.0, 2000.0),
                           multiscale=True, pairs=1, coarsen_threshold=10),
    },
    "annulus-pipeline": {
        "full": AnnulusConfig(n_subjects=40, dims=(64, 64), downsample_factor=4,
                              lambdas=(0.0, 10.0, 4000.0)),
        "tiny": AnnulusConfig(n_subjects=8, dims=(48, 48), downsample_factor=4,
                              lambdas=(0.0, 10.0, 4000.0)),
    },
}
WORKLOADS = tuple(CONFIGS)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def blob_field(rng: np.random.Generator, dims) -> np.ndarray:
    """Floor of 0.05 plus three Gaussian blobs; widths 2..8 cells at 32 cells."""
    field = np.full(dims, 0.05)
    axes = np.meshgrid(*(np.arange(d, dtype=float) for d in dims), indexing="ij")
    scale = min(dims) / 32
    for _ in range(3):
        centre = rng.random(len(dims)) * np.asarray(dims)
        width = (2 + rng.random() * 6) * scale
        sq = sum((a - c) ** 2 for a, c in zip(axes, centre))
        field += np.exp(-sq / (2 * width * width))
    return field


def blob_pair(seed: int, index: int, dims) -> tuple[GridMeasure, GridMeasure]:
    """Pair ``index`` of the workload seeded by ``seed`` (template, subject)."""
    rng = np.random.default_rng([seed, index, len(dims)])
    nd = len(dims)
    dom = GridDomain(dims=tuple(dims), spacing=(1.0,) * nd, origin=(0.0,) * nd)
    mu = GridMeasure(dom, blob_field(rng, dims))
    return mu, GridMeasure(dom, blob_field(rng, dims))


def annulus_config(cfg: AnnulusConfig, seed: int, output_dir, sigma=1.0) -> dict:
    return {
        "output_dir": str(output_dir),
        "synth": {"kind": "annuli", "n_subjects": cfg.n_subjects,
                  "dims": list(cfg.dims), "inner_radii": [8, 12],
                  "outer_radii": [20, 24], "case": "random_total"},
        "downsample_factor": cfg.downsample_factor,
        "template": {"method": "sparse", "sparse_threshold_fraction": 0.9},
        "lambdas": list(cfg.lambdas),
        "multiscale": {"enabled": True},
        "smoothing": {"sigma": sigma, "truncation_radius": 3},
        "quantization_units": UNITS,
        "covariates": ["outer_mass", "total_mass"],
        "alpha": 0.05,
        "workers": 2,
        "seed": seed,
    }


def pipeline_inputs(out_dir, downsample_factor):
    """Template and downsampled subjects of a finished pipeline run."""
    template = load_measure(os.path.join(out_dir, "template", "template.otfg"))
    manifest_path = os.path.join(out_dir, "dataset", "manifest.csv")
    manifest = load_manifest(manifest_path)
    subjects = {}
    for entry in manifest.entries:
        m = load_measure(os.path.join(os.path.dirname(manifest_path), entry.image_path))
        subjects[entry.subject_id] = downsample(m, downsample_factor)
    return template, subjects


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def check_solution(sol, mu, nu, lam, ref=None, is_multiscale=False):
    """Problems with one solution (empty when correct) and its reference gap."""
    problems = []
    violation = feasibility_violation_units(sol, mu.flat, nu.flat, UNITS)
    if violation:
        problems.append(f"feasibility violation of {violation} units")
    if lam == 0 and any(i != j for i, j, _ in sol.plan_arcs):
        problems.append("mass transported off the diagonal at lambda=0")
    if regime(lam, COST.max_on_domain(mu.domain)) == "global" and math.isfinite(lam):
        excess = abs(sol.gross_allocation() - abs(sol.delta)) / sol.mass_per_unit
        if excess > 1:
            problems.append(f"gross allocation exceeds |delta| by {excess:.1f} units")
    gap = None
    if ref is not None:
        gap = (sol.objective - ref) / abs(ref)
        if is_multiscale:
            if sol.objective < ref * (1 - EXACT_RTOL) or gap > MULTISCALE_MAX_GAP:
                problems.append(f"multiscale gap {gap:.3e} outside [0, 5%]")
        elif abs(gap) > EXACT_RTOL:
            problems.append(f"objective off the reference by {gap:.3e}")
    return problems, gap


def significance_problems(maps_dir, lam) -> list[str]:
    """Criterion-3 pattern of the random_total cohort at a global lambda.

    The total_mass allocation map has significant voxels and all of them
    correlate with one sign.
    """
    path = os.path.join(maps_dir, pipeline._lambda_dirname(lam), "total_mass",
                        "allocation.summary.csv")
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().split()[1:]]
    signs = {float(r[1]) > 0 for r in rows if r[4] == "1"}
    if len(signs) != 1:
        return [f"lambda={lam!r}: total_mass allocation significance pattern "
                f"broken ({len(signs)} signs among significant voxels)"]
    return []


class Record:
    """Attempted and failed operations, reference gaps, and failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.gaps: list[float] = []

    def run(self, what, op, check):
        """Run ``op``, then ``check(result)``; either raising counts as a failure."""
        self.attempted += 1
        try:
            result = op()
            problems = check(result)
        except Exception as exc:  # noqa: BLE001 - a failure is counted, not raised
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.failures.append(f"{what}: {'; '.join(problems)}")
            return None
        return result


def solution_digest(sol) -> bytes:
    """Digest of every field of a solution (float reprs are exact).

    Reruns are compared against digests rather than stored solutions, so the
    harness does not hold the plans of every pair, whose objects would make
    the collector's full passes in later solves slower as the run goes on.
    """
    return hashlib.sha256(repr(sol).encode()).digest()


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


class Bench:
    """One workload run: its configuration, samples, record and tracer.

    Samples are kept per input (a library pair; the pipeline has one cohort)
    so that each timing can be the median of its repeats on one input.
    """

    def __init__(self, name, seed, size="full", lambdas=None, workdir=None):
        self.seed = seed
        self.cfg = CONFIGS[name][size]
        if lambdas is not None:
            self.cfg = replace(self.cfg, lambdas=tuple(lambdas))
        verified = seed == DEFAULT_SEED and size == "full"
        self.refs = load_reference(name, self.cfg) if verified else None
        self.rec = Record()
        self.tracer: Tracer | None = None
        self.workdir = Path(workdir) if workdir else None
        # seconds per (regime, lambda) -> input -> repeats; walls: input -> repeats
        self.solve = defaultdict(lambda: defaultdict(list))
        self.walls = defaultdict(list)
        self.reruns = defaultdict(list)
        self.pairs = {}
        self.first_digests = {}
        self.first_tree = None
        self.cpus = sorted(os.sched_getaffinity(0)) if PIN else []

    @property
    def is_pipeline(self) -> bool:
        return isinstance(self.cfg, AnnulusConfig)

    @property
    def min_rounds(self) -> int:
        """Rounds a run always completes: every library pair, and one rerun."""
        return 1 if self.is_pipeline else self.cfg.pairs + 1

    def pin(self, slot=None):
        """Run on CPU ``slot`` mod the CPUs allowed, or on all of them for None.

        One co-tenant can slow one CPU for seconds while the other is fast;
        moving between CPUs from round to round exposes every input to both.
        """
        if self.cpus:
            os.sched_setaffinity(0, self.cpus if slot is None
                                 else {self.cpus[slot % len(self.cpus)]})

    def call(self, name, fn, *args, **kwargs):
        """A call into the package, traced as a top-level span when tracing."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, args, kwargs)

    def make_inputs(self):
        """Generate the run's library pairs from the seed (part of set-up)."""
        if not self.is_pipeline:
            self.pairs = {k: blob_pair(self.seed, k, self.cfg.dims)
                          for k in range(self.cfg.pairs)}

    def round(self, index) -> tuple[int, float]:
        """Run round ``index``; returns its input and its timed wall seconds."""
        try:
            if self.is_pipeline:
                return 0, self._pipeline_round(index)
            return self._library_round(index)
        finally:
            self.pin(None)

    # -- library workloads --------------------------------------------------

    def _library_round(self, index):
        cfg = self.cfg
        pair = index % cfg.pairs
        mu, nu = self.pairs[pair]
        max_cost = COST.max_on_domain(mu.domain)
        refs = self.refs[pair] if self.refs else None
        span = "multiscale" if cfg.multiscale else "api.solve"
        fn = solve_multiscale if cfg.multiscale else solve_unbalanced
        kwargs = {"coarsen_threshold": cfg.coarsen_threshold} if cfg.multiscale else {}
        # neighbouring rounds, and the passes over one pair, alternate CPUs
        self.pin(index + index // cfg.pairs)
        wall = 0.0
        for k, lam in enumerate(cfg.lambdas):
            reg = regime(lam, max_cost)
            if self.tracer is not None:
                self.tracer.new_run(round=index, pair=pair, regime=reg, lam=lam)
            first = self.first_digests.get((pair, lam))
            out = {}

            def op():
                sol, out["dt"] = timed(self.call, span, fn, mu, nu, COST,
                                       AllocationSpec(lam=lam), QUANT, **kwargs)
                return sol

            def check(sol):
                if first is not None:
                    return ([] if solution_digest(sol) == first
                            else ["rerun differs from the first solve"])
                problems, gap = check_solution(
                    sol, mu, nu, lam, refs[k] if refs else None, cfg.multiscale)
                if gap is not None and not problems:
                    self.rec.gaps.append(gap)
                self.first_digests[pair, lam] = solution_digest(sol)
                return problems

            self.rec.run(f"pair {pair} lambda={lam!r} round {index}", op, check)
            if "dt" in out:
                wall += out["dt"]
                self.solve[reg, lam][pair].append(out["dt"])
        self.walls[pair].append(wall)
        if index >= cfg.pairs:
            self.reruns[pair].append(wall)
        return pair, wall

    # -- pipeline workload --------------------------------------------------

    def _pipeline_run(self, what, cfg_path, check):
        def op():
            rc, dt = timed(self.call, "pipeline.cli", cli.main,
                           ["run", "--config", str(cfg_path)])
            if rc != 0:
                raise RuntimeError(f"uotmorph run exited with {rc}")
            return dt

        return self.rec.run(what, op, check)

    def _pipeline_round(self, index):
        cfg = self.cfg
        base = self.workdir / f"round{index}"
        shutil.rmtree(base, ignore_errors=True)
        out = base / "out"
        base.mkdir(parents=True)
        cfg_path = base / "config.json"
        run_log = out / "run_log.jsonl"

        def log_entries():
            with open(run_log, encoding="utf-8") as fh:
                return [json.loads(line) for line in fh]

        cfg_path.write_text(json.dumps(annulus_config(cfg, self.seed, out)))
        if self.tracer is not None:
            self.tracer.new_run(round=index, phase="cold")
        stage_walls = {}

        def check_cold(_dt):
            problems = []
            template, subjects = pipeline_inputs(out, cfg.downsample_factor)
            max_cost = COST.max_on_domain(template.domain)
            # solve_multiscale hands supports at or below the threshold to
            # the exact solver, and those solves are held to the exact tolerance
            threshold = pipeline.MultiscaleConfig().coarsen_threshold
            for entry in log_entries():
                if entry["stage"] == "transport":
                    stage_walls[regime(entry["lam"], max_cost), entry["lam"]] = (
                        entry["wall_time"] / len(subjects))
            for k, lam in enumerate(cfg.lambdas):
                sol_dir = out / "solutions" / pipeline._lambda_dirname(lam)
                for sid, subject in subjects.items():
                    ref = self.refs[sid][k] if self.refs else None
                    sol = load_solution(sol_dir / f"{sid}.plan.csv")
                    coarsened = max(np.count_nonzero(template.flat),
                                    np.count_nonzero(subject.flat)) > threshold
                    found, gap = check_solution(sol, template, subject, lam, ref,
                                                coarsened)
                    problems += [f"{sid} lambda={lam!r}: {p}" for p in found]
                    if gap is not None and not found:
                        self.rec.gaps.append(gap)
            problems += significance_problems(out / "maps", max(cfg.lambdas))
            tree = pipeline.tree_checksums(out)
            if self.first_tree is None:
                self.first_tree = tree
            elif tree != self.first_tree:
                problems.append("artifact tree differs from the first cold run")
            return problems

        cold = self._pipeline_run(f"round {index} cold run", cfg_path, check_cold)
        if cold is None:
            return 0.0
        self.walls[0].append(cold)
        for key, per_subject in stage_walls.items():
            self.solve[key][0].append(per_subject)

        # the cold run's pool needs every CPU; reruns alternate between them
        self.pin(index)
        cfg_path.write_text(json.dumps(annulus_config(cfg, self.seed, out, RERUN_SIGMA)))
        if self.tracer is not None:
            self.tracer.new_run(round=index, phase="warm")
        before = len(log_entries())

        def check_warm(_dt):
            stages = [e["stage"] for e in log_entries()[before:]]
            problems = []
            if "transport" in stages:
                problems.append("warm rerun solved transport again")
            if stages.count("features") != len(cfg.lambdas):
                problems.append("warm rerun did not recompute every feature set")
            return problems + significance_problems(out / "maps", max(cfg.lambdas))

        wall = cold
        warm = self._pipeline_run(f"round {index} rerun", cfg_path, check_warm)
        if warm is not None:
            self.reruns[0].append(warm)
            wall += warm
        shutil.rmtree(base, ignore_errors=True)
        return wall


def median_mean(repeats: dict) -> float:
    """Mean over inputs of the median of each input's repeats.

    Every input weighs the same however often the run repeated it, so the
    figure describes the run's fixed set of inputs.
    """
    medians = [statistics.median(v) for v in repeats.values() if v]
    return statistics.fmean(medians) if medians else 0.0


def regime_seconds(samples) -> dict[str, float]:
    """Per regime: mean over its lambdas of ``median_mean`` seconds per solve."""
    by_regime = defaultdict(list)
    for (reg, _lam), repeats in samples.items():
        if any(repeats.values()):
            by_regime[reg].append(median_mean(repeats))
    return {reg: statistics.fmean(by_regime[reg]) if by_regime[reg] else 0.0
            for reg in REGIMES}


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def reference_key(cfg) -> dict:
    return {"dims": list(cfg.dims), "lambdas": list(cfg.lambdas),
            **({"n_subjects": cfg.n_subjects, "downsample_factor": cfg.downsample_factor}
               if isinstance(cfg, AnnulusConfig) else
               {"pairs": cfg.pairs, "coarsen_threshold": cfg.coarsen_threshold})}


def load_reference(name, cfg):
    """Exact objectives at the default seed, or an error if they are stale."""
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        table = json.load(fh)
    entry = table["workloads"][name]
    if table["seed"] != DEFAULT_SEED or entry["key"] != reference_key(cfg):
        raise RuntimeError(f"benchmarks/reference.json is stale for {name}; "
                           "regenerate it with benchmarks/make_reference.py")
    return entry["objectives"]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _on_build(span, args, kwargs, problem):
    mu, nu = args[0], args[1]
    candidates = int(np.count_nonzero(mu.flat)) * int(np.count_nonzero(nu.flat))
    transport = int(np.count_nonzero(problem.arc_kind == ARC_TRANSPORT))
    span.info.update(nodes=problem.n_nodes, arcs=problem.n_arcs,
                     pruned=max(0, candidates - transport))


def _on_simplex(span, args, kwargs, result):
    flows = result[0]
    span.info.update(arcs=len(flows), used=int(np.count_nonzero(flows)))


def _on_admit(span, args, kwargs, pairs):
    span.info["pairs"] = len(pairs[0])


def _on_write(path_index):
    def on_exit(span, args, kwargs, result):
        span.info["bytes"] = os.path.getsize(args[path_index])
    return on_exit


def install_tracer(tracer: Tracer):
    """Wrap the package's layer boundaries, including names imported by name.

    Solves in the pipeline's worker processes are not traced; the time the
    transport stage waits for them is the ``pool.wait`` span.
    """

    class TracedPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            # the stage consumes the iterator at once; wait for it in the span
            def wait():
                return list(super(TracedPool, self).map(fn, *iterables, **kwargs))

            return iter(tracer.call("pool.wait", wait, (), {}))

    tracer.patch(pipeline, "ProcessPoolExecutor", TracedPool)
    tracer.wrap(api._ENGINES, "simplex", "simplex", _on_simplex)
    tracer.wrap(multiscale, "solve_min_cost_flow", "simplex", _on_simplex)
    tracer.wrap(network, "build_unbalanced_problem", "network.build", _on_build)
    tracer.wrap(network, "extract_solution", "api.extract")
    tracer.wrap(multiscale, "solve_unbalanced", "api.solve")
    tracer.wrap(multiscale, "_admitted_pairs", "multiscale.admit", _on_admit)
    tracer.wrap(cli, "run_pipeline", "pipeline.run")
    for stage in ("synth", "template", "transport", "features", "correlate"):
        tracer.wrap(pipeline, f"stage_{stage}", f"pipeline.{stage}")
    tracer.wrap(pipeline, "export_solution", "api.export")
    tracer.wrap(pipeline, "load_solution", "api.load")
    tracer.wrap(pipeline, "extract_features", "features.extract")
    tracer.wrap(pipeline, "correlate_stack", "stats.correlate")
    tracer.wrap(pipeline, "export_map", "stats.export_map")
    for owner, attr, path_index in (
        (synth, "save_measure", 1), (synth, "save_manifest", 1),
        (pipeline, "save_measure", 1), (grid, "save_field", 2),
        (stats, "save_field", 2),
    ):
        tracer.wrap(owner, attr, "grid.io", _on_write(path_index))
    for owner, attr in ((pipeline, "load_measure"), (pipeline, "load_manifest"),
                        (grid, "load_field")):
        tracer.wrap(owner, attr, "grid.io")


def layer_metrics(bench: Bench, rounds: int, overhead: float) -> dict:
    """Per-layer metrics from the spans of the traced rounds.

    Seconds are self time per traced round, except ``simplex.solve_s.*``
    (simplex seconds per solve, aggregated like ``solve_s.*``) and the
    pipeline stages (inclusive seconds per cold run).  Counts come from
    round 0, so they repeat exactly for a seed.  ``trace.overhead`` is the
    traced over the untraced wall of the same inputs.
    """
    tracer = bench.tracer
    spans = tracer.spans
    own = tracer.name_self()
    layer = tracer.layer_self()
    per_round = {k: v / rounds for k, v in own.items()}

    per_solve = defaultdict(float)
    for s in spans:
        if s.name == "simplex" and "regime" in s.info:
            info = s.info
            per_solve[info["regime"], info["lam"], info["pair"], s.run] += s.duration
    grouped = defaultdict(lambda: defaultdict(list))
    for (reg, lam, pair, _run), seconds in per_solve.items():
        grouped[reg, lam][pair].append(seconds)
    simplex = regime_seconds(grouped)

    first = [s for s in spans if s.info.get("round") == 0]
    builds = [s for s in first if s.name == "network.build" and "nodes" in s.info]
    global_lp = [s for s in first if s.name == "simplex" and "used" in s.info
                 and s.info["regime"] == "global"]
    admits = [s for s in first if s.name == "multiscale.admit" and "pairs" in s.info]
    fallbacks = [s for s in first if s.info.get("error") == "InfeasibleError"
                 and s.parent is not None and spans[s.parent].name == "multiscale"]
    stage = defaultdict(float)
    for s in spans:
        if s.name.startswith("pipeline.") and s.info.get("phase") == "cold":
            stage[s.name] += s.duration

    seconds = {
        **{f"simplex.solve_s.{reg}": simplex[reg] for reg in REGIMES},
        "network.build_s": per_round.get("network.build", 0.0),
        "multiscale.self_s": layer.get("multiscale", 0.0) / rounds,
        **{f"pipeline.{st}_s": stage[f"pipeline.{st}"] / rounds
           for st in ("synth", "template", "transport", "features", "correlate")},
        "pipeline.self_s": layer.get("pipeline", 0.0) / rounds,
        "api.extract_s": per_round.get("api.extract", 0.0),
        "api.export_s": per_round.get("api.export", 0.0),
        "api.load_s": per_round.get("api.load", 0.0),
        "features.extract_s": per_round.get("features.extract", 0.0),
        "stats.correlate_s": per_round.get("stats.correlate", 0.0),
        "stats.export_map_s": per_round.get("stats.export_map", 0.0),
        "grid.io_s": per_round.get("grid.io", 0.0),
        "pool.wait_s": per_round.get("pool.wait", 0.0),
    }
    used = sum(s.info["used"] for s in global_lp)
    built = sum(s.info["arcs"] for s in global_lp)
    counts = {
        "network.nodes": sum(s.info["nodes"] for s in builds),
        "network.arcs": sum(s.info["arcs"] for s in builds),
        "network.arcs_pruned": sum(s.info["pruned"] for s in builds),
        "multiscale.levels": len(admits),
        "multiscale.admitted_pairs": sum(s.info["pairs"] for s in admits),
        "multiscale.fallbacks": len(fallbacks),
    }
    metrics = {name: (value, "s") for name, value in seconds.items()}
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics["grid.bytes_written"] = (
        sum(s.info.get("bytes", 0) for s in first if s.name == "grid.io"), "B")
    metrics["network.arc_use_ratio"] = (used / built if built else 0.0, "ratio")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# a whole run
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_workload(name, seed, seconds, trace, size="full", lambdas=None):
    """Set up, run rounds for ``seconds``, and return (report, result)."""
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    try:
        return _run(name, seed, seconds, trace, size, lambdas, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, seed, seconds, trace, size, lambdas, workdir):
    bench = Bench(name, seed, size, lambdas, workdir / "main")
    setups = []

    def set_up():
        """Make the run's inputs from the seed and warm every code path.

        The warm-up is the workload's tiny instance at the default seed, so
        its cost does not depend on the run's seed.
        """
        t0 = time.perf_counter()
        warm = Bench(name, DEFAULT_SEED, "tiny", lambdas, workdir / f"setup{len(setups)}")
        bench.make_inputs()
        warm.make_inputs()
        for index in range(warm.min_rounds):
            warm.round(index)
        setups.append(time.perf_counter() - t0)
        bench.rec.attempted += warm.rec.attempted
        bench.rec.failed += warm.rec.failed
        bench.rec.failures += warm.rec.failures

    # The machine's speed drifts over seconds, so the set-up is repeated at
    # even intervals across the run, not only before it, and its median is
    # reported.  A short set-up varies most, so it is repeated most often.
    # A traced run sets up once.
    set_up()
    repeats = 1 if trace else max(SETUP_REPEATS, min(
        4 * SETUP_REPEATS, int(SETUP_SHARE * seconds / setups[0])))

    # closed loop; a traced run runs every round untraced and traced, in
    # alternating order, since the second of the two finds warmer caches
    modes = (None, Tracer()) if trace else (None,)
    mode_walls = [defaultdict(list) for _ in modes]
    start = time.perf_counter()
    index = 0
    while index < bench.min_rounds or time.perf_counter() - start < seconds:
        order = list(enumerate(modes))
        for mode, tracer in order if index % 2 == 0 else order[::-1]:
            bench.tracer = tracer
            if tracer is not None:
                install_tracer(tracer)
            try:
                pair, wall = bench.round(index)
            finally:
                if tracer is not None:
                    tracer.unwrap_all()
                bench.tracer = None
            mode_walls[mode][pair].append(wall)
        index += 1
        if len(setups) < repeats and (
                time.perf_counter() - start >= len(setups) * seconds / repeats):
            set_up()
    while len(setups) < repeats:
        set_up()

    rec = bench.rec
    if trace:
        overhead = median_mean(mode_walls[1]) / median_mean(mode_walls[0])
        bench.tracer = modes[1]
        metrics = layer_metrics(bench, index, overhead)
    else:
        solve = regime_seconds(bench.solve)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (median_mean(bench.walls), "s"),
            **{f"solve_s.{reg}": (solve[reg], "s") for reg in REGIMES},
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    verified = seed == DEFAULT_SEED and size == "full"
    report = {
        "workload": name,
        "seed": seed,
        "trace": bool(trace),
        "rounds": index,
        "setups_s": setups,
        "solves": sum(len(v) for per_input in bench.solve.values()
                      for v in per_input.values()),
        "rerun_s": median_mean(bench.reruns),
        "objective_gap": (max(rec.gaps) if rec.gaps else 0.0) if verified else None,
        "error_rate": rec.failed / max(rec.attempted, 1),
        "failures": rec.failures[:20],
        "uotmorph": os.path.relpath(uotmorph.__file__, HERE.parent),
    }
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result
