"""End-to-end batch pipeline: generate, template, transport, features, maps.

A single JSON config drives every stage.  Each block's keys and defaults
are the fields of its dataclass; unknown keys, and values of the wrong type
or range, raise ConfigError (CLI exit 2) when the config loads.
``run_pipeline`` alone knows the stage order (``STAGES``); it loads the
manifest, images and image digests once and hands them to the stages.
Each stage writes into its own directory under the output tree together
with a ``.stage.json`` marker holding a content hash of its inputs, and
``_run_stage`` skips it when the marker matches:

* synth: the ``synth`` config block and the seed;
* template: the image digests, template spec, downsample factor and
  ``SOLVER_VERSION``, plus for ``ot_barycenter`` the solve settings
  (``_solve_specs``) at the first lambda;
* transport (per lambda): the image digests, template file digest, the
  solve settings at that lambda, multiscale settings, downsample factor
  and ``SOLVER_VERSION``;
* features (per lambda): the solution file digests and smoothing;
* correlate (per lambda and covariate): the feature file digests, alpha,
  the covariate's name and its values.

A failed stage removes its partial outputs and aborts, naming the stage,
lambda, covariate and cause.  The per-subject work of the template,
transport and features stages goes through ``_Cohort.each``: on one
process pool per invocation of min(workers, subjects, CPUs in the
process's affinity set) workers, one contiguous batch of subjects per
worker and stage, in-process when that is 1.  Transport tasks write their
plan CSVs and features tasks their feature images; the main process keeps
the hashing, stage directories, markers, run log and correlation.  With a
fixed config, seed, and worker count, the artifact tree (everything except
the run_log.jsonl diagnostics) is byte-reproducible; results do not depend
on the worker count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import ConfigError, DataError, UotmorphError, is_integer, is_number
from .features import extract_features
from .grid import downsample, load_manifest, load_measure, save_measure
from .solver import (
    SOLVER_VERSION,
    AllocationSpec,
    CostSpec,
    QuantizationSpec,
    export_solution,
    load_solution,
    solve_multiscale,
)
from .stats import correlate_stack, export_map
from .synth import (
    AnnulusSpec,
    StripSpec,
    generate_annuli,
    generate_strips,
    save_dataset,
)
from .templates import METHOD_OT_BARYCENTER, TemplateSpec, build_template

# progress of each stage; log records never enter the artifact tree
logger = logging.getLogger("uotmorph.pipeline")
_COST = CostSpec()


class StageFailure(UotmorphError):
    def __init__(self, stage: str, cause: Exception, subject: str | None = None):
        at = f" (subject {subject})" if subject else ""
        super().__init__(f"stage {stage!r}{at} failed: {cause}")
        self.stage = stage
        self.subject = subject
        self.cause = cause


@dataclass(frozen=True)
class MultiscaleConfig:
    enabled: bool = False
    coarsen_threshold: int = 1000
    neighborhood_radius: int = 1

    def __post_init__(self):
        if not isinstance(self.enabled, bool):
            raise ConfigError(f"multiscale enabled must be true or false, "
                              f"got {self.enabled!r}")
        for name in ("coarsen_threshold", "neighborhood_radius"):
            value = getattr(self, name)
            if not (is_integer(value) and value >= 0):
                raise ConfigError(f"multiscale {name} must be an integer >= 0, "
                                  f"got {value!r}")


@dataclass(frozen=True)
class SmoothingConfig:
    sigma: float = 1.0
    truncation_radius: int | None = None

    def __post_init__(self):
        if not (is_number(self.sigma) and self.sigma >= 0):
            raise ConfigError(f"smoothing sigma must be >= 0, got {self.sigma!r}")
        radius = self.truncation_radius
        if radius is not None and not (is_integer(radius) and radius >= 0):
            raise ConfigError("smoothing truncation_radius must be null or an "
                              f"integer >= 0, got {radius!r}")


@dataclass(frozen=True)
class PipelineConfig:
    output_dir: str
    manifest: str | None = None
    synth: dict | None = None
    downsample_factor: int = 1
    template: TemplateSpec = field(default_factory=TemplateSpec)
    lambdas: tuple[float, ...] = (1.0,)
    quantization_units: int = QuantizationSpec.units
    multiscale: MultiscaleConfig = field(default_factory=MultiscaleConfig)
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    covariates: tuple[str, ...] = ()
    alpha: float = 0.05
    workers: int = 1
    seed: int = 0

    def __post_init__(self):
        if not self.lambdas:
            raise ConfigError("lambda list must be non-empty")
        if not 0 < self.alpha < 1:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.workers < 1:
            raise ConfigError(f"worker count must be >= 1, got {self.workers}")
        if self.downsample_factor < 1:
            raise ConfigError("downsample_factor must be >= 1")
        if (self.manifest is None) == (self.synth is None):
            raise ConfigError("config needs exactly one of 'manifest' and 'synth'")
        if not all(isinstance(name, str) for name in self.covariates):
            raise ConfigError(f"covariates must be names, got {list(self.covariates)}")
        # fail fast on a bad synth block, lambda or unit count
        if self.synth is not None:
            _synth_spec(self)
        for lam in self.lambdas:
            _solve_specs(self, lam)


def _solve_specs(cfg: PipelineConfig, lam: float):
    """``(alloc, quant, hash_inputs)`` of a solve at ``lam``; the last is hashed."""
    alloc = AllocationSpec(lam=lam)
    quant = QuantizationSpec(units=cfg.quantization_units)
    return alloc, quant, {"lambda": lam, "units": quant.units}


_SYNTH_KINDS = {"strips": (StripSpec, generate_strips),
                "annuli": (AnnulusSpec, generate_annuli)}


def _synth_spec(cfg: PipelineConfig):
    """``(spec, generate)`` of the synth block; its seed defaults to ``cfg.seed``."""
    raw = cfg.synth if isinstance(cfg.synth, dict) else {}
    if raw.get("kind") not in tuple(_SYNTH_KINDS):  # a list kind is not hashable
        raise ConfigError("synth must be an object whose kind is 'strips' or "
                          f"'annuli', got {cfg.synth!r}")
    spec_type, generate = _SYNTH_KINDS[raw["kind"]]
    values = {k: tuple(v) if isinstance(v, list) else v
              for k, v in raw.items() if k != "kind"}
    spec = _load(spec_type, {"seed": cfg.seed, **values}, "synth", seed=_integer,
                 n_subjects=_integer, dims=lambda v: tuple(map(_integer, v)))
    return spec, generate


def _check_keys(raw, allowed, where: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys in {where}: {sorted(unknown)}")


def _load(cls, raw, where: str, **convert):
    """``cls`` from the JSON object ``raw``, converting the keys in ``convert``.

    Keys must be fields of ``cls``; absent ones take its defaults.  A value
    that a conversion or ``cls`` rejects is a ConfigError naming ``where``.
    """
    _check_keys(raw, [f.name for f in dataclasses.fields(cls)], where)
    values = {}
    for key, value in raw.items():
        try:
            values[key] = convert[key](value) if key in convert else value
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r} in {where}: {exc}") from None
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in {where}: {exc}") from None


def _integer(value) -> int:
    """A JSON integer; an integral float such as 1e7 counts, 2.5, true or "3" not."""
    if not (is_integer(value) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _number(value) -> float:
    """A JSON number as a float; true or a string is not a number."""
    if not is_number(value):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _items(values) -> tuple:
    """A JSON list as a tuple; a string is not split into characters."""
    if isinstance(values, str):
        raise ValueError(f"expected a list, got {values!r}")
    return tuple(values)


def parse_config(raw: dict, base_dir: str = ".") -> PipelineConfig:
    if "output_dir" not in raw:
        raise ConfigError("config key 'output_dir' is required")
    path = partial(os.path.join, base_dir)
    return _load(
        PipelineConfig, raw, "pipeline config",
        output_dir=path, manifest=path, downsample_factor=_integer,
        template=lambda v: _load(TemplateSpec, v, "template",
                                 barycenter_max_iters=_integer),
        lambdas=lambda v: tuple(map(_number, _items(v))),
        quantization_units=_integer,
        multiscale=lambda v: _load(MultiscaleConfig, v, "multiscale",
                                   coarsen_threshold=_integer,
                                   neighborhood_radius=_integer),
        smoothing=lambda v: _load(SmoothingConfig, v, "smoothing", truncation_radius=(
            lambda r: r if r is None else _integer(r))),
        covariates=_items, alpha=_number, workers=_integer, seed=_integer,
    )


def load_config(path) -> PipelineConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# stage bookkeeping
# ---------------------------------------------------------------------------

STAGES = ("synth", "template", "transport", "features", "correlate")
# feature kinds: the name of each map, and the suffix of each feature file
_FEATURES = (("allocation", "alloc"), ("transport_cost", "tcost"))


def _digest_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _stage_hash(parts) -> str:
    return hashlib.sha256(
        json.dumps(parts, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _marker_path(stage_dir) -> str:
    return os.path.join(stage_dir, ".stage.json")


def _stage_complete(stage_dir, input_hash) -> bool:
    try:
        with open(_marker_path(stage_dir), encoding="utf-8") as fh:
            marker = json.load(fh)
        return marker.get("input_hash") == input_hash
    except (OSError, json.JSONDecodeError):
        return False


class _RunLog:
    def __init__(self, path):
        self.path = path

    def record(self, **payload):
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")


def _run_stage(log: _RunLog, stage, label, stage_dir, input_hash, work, **record):
    """Run ``work(stage_dir)`` unless the directory's marker holds ``input_hash``.

    The directory is emptied before the work and marked complete after it;
    a failure removes it and is raised as a StageFailure naming the stage
    and ``label`` (lambda, covariate).  ``work`` may return extra run-log
    fields.  The logged wall time spans everything after the skip check.
    """
    name = f"{stage}[{label}]" if label else stage
    if _stage_complete(stage_dir, input_hash):
        logger.info("%s: up to date, skipped", name)
        return
    logger.info("%s: start", name)
    t0 = time.perf_counter()
    try:
        # emptied in place: deleting and recreating the directory costs more
        os.makedirs(stage_dir, exist_ok=True)
        with os.scandir(stage_dir) as entries:
            for entry in entries:
                if entry.is_dir(follow_symlinks=False):
                    shutil.rmtree(entry.path)
                else:
                    os.unlink(entry.path)
        record.update(work(stage_dir) or {})
        with open(_marker_path(stage_dir), "w", encoding="utf-8") as fh:
            json.dump({"stage": stage, "input_hash": input_hash}, fh, sort_keys=True)
    except Exception as exc:
        shutil.rmtree(stage_dir, ignore_errors=True)
        raise StageFailure(name, exc, getattr(exc, "subject", None)) from exc
    wall_time = time.perf_counter() - t0
    logger.info("%s: done in %.2f s", name, wall_time)
    log.record(stage=stage, wall_time=wall_time, **record)


def _require(name, paths, producer) -> None:
    for path in paths:
        if not os.path.exists(path):
            raise StageFailure(
                name, DataError(f"missing {path}; run the {producer} stage")
            )


def _lambda_dirname(lam: float) -> str:
    return f"lambda={lam!r}"


def _run_batch(task, batch) -> list:
    """``task(sid, item)`` for each ``(sid, item)`` of ``batch``, in order.

    Every task runs: a failure is returned in its place, not raised, and
    carries the subject id as ``subject``.
    """
    results = []
    for sid, item in batch:
        try:
            results.append(task(sid, item))
        except Exception as exc:
            exc.subject = sid  # pickled with the exception out of a worker
            results.append(exc)
    return results


def _drop_sid(fn, _sid, item):
    return fn(item)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Cohort:
    """The manifest of one invocation; images and digests load on first use."""

    def __init__(self, cfg: PipelineConfig, manifest_path):
        self.manifest = load_manifest(manifest_path)
        base = os.path.dirname(os.path.abspath(manifest_path))
        self.ids = [e.subject_id for e in self.manifest.entries]
        self.paths = [os.path.join(base, e.image_path) for e in self.manifest.entries]
        self.downsample_factor = cfg.downsample_factor
        # a worker takes at least one subject and needs a CPU of its own, so
        # more workers would only idle or share a CPU
        self.workers = min(cfg.workers, len(self.ids), _usable_cpus())
        self.pool_map = map  # run_pipeline points it at its worker pool

    def each(self, task, items) -> list:
        """``task(sid, item)`` per subject on ``pool_map``, in subject order.

        Each worker gets one contiguous batch of ceil(subjects / workers)
        subjects.  Every task runs to completion before the first failure in
        subject order is raised, so no worker still writes into a stage
        directory that a failed stage removes; the failure names its subject.
        """
        pairs = list(zip(self.ids, items))
        size = math.ceil(len(pairs) / self.workers)
        batches = [pairs[k:k + size] for k in range(0, len(pairs), size)]
        results = [result for batch in self.pool_map(partial(_run_batch, task), batches)
                   for result in batch]
        for result in results:
            if isinstance(result, Exception):
                raise result
        return results

    @cached_property
    def digests(self) -> list[str]:
        return [_digest_file(p) for p in self.paths]

    @cached_property
    def images(self) -> list:
        images = []
        for sid, path in zip(self.ids, self.paths):
            m = load_measure(path)
            if self.downsample_factor > 1:
                m = downsample(m, self.downsample_factor)
            if images and m.domain != images[0].domain:
                raise DataError(f"subject {sid}: domain mismatch")
            images.append(m)
        return images

    @property
    def domain(self):
        return self.images[0].domain


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def stage_synth(cfg: PipelineConfig, log: _RunLog) -> None:
    """Generate the configured synthetic cohort into dataset/."""
    spec, generate = _synth_spec(cfg)
    kind = cfg.synth["kind"]

    def work(dataset_dir):
        measures, manifest = generate(spec)
        save_dataset(measures, manifest, dataset_dir)
        with open(os.path.join(dataset_dir, "generation.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({**dataclasses.asdict(spec), "kind": kind}, fh,
                      sort_keys=True, indent=2)
        return {"subjects": len(measures)}

    input_hash = _stage_hash({"synth": cfg.synth, "seed": cfg.seed, "kind": kind})
    _run_stage(log, "synth", None, os.path.join(cfg.output_dir, "dataset"),
               input_hash, work)


def stage_template(cfg: PipelineConfig, cohort: _Cohort, log: _RunLog) -> None:
    """Build and save the template as template/template.otfg."""
    alloc, quant, solve_inputs = _solve_specs(cfg, cfg.lambdas[0])
    inputs = {
        "template": cfg.template,
        "downsample": cfg.downsample_factor,
        "solver_version": SOLVER_VERSION,
        "images": cohort.digests,
    }
    if cfg.template.method == METHOD_OT_BARYCENTER:
        # only the barycenter solves transport, so only it reads these
        inputs.update(solve_inputs)

    def work(template_dir):
        template, meta = build_template(
            cohort.images, cfg.template, cost=_COST, alloc=alloc, quant=quant,
            pool_map=lambda solve, images: cohort.each(partial(_drop_sid, solve),
                                                       images),
        )
        save_measure(template, os.path.join(template_dir, "template.otfg"))
        with open(os.path.join(template_dir, "template.txt"), "w",
                  encoding="utf-8") as fh:
            for key in sorted(meta):
                fh.write(f"{key}={meta[key]}\n")
        return {"total_mass": template.total_mass}

    _run_stage(log, "template", None, os.path.join(cfg.output_dir, "template"),
               _stage_hash(inputs), work)


def _transport_task(solve, stage_dir, sid, image) -> float:
    """Solve one subject, write its plan CSV and return the objective."""
    sol = solve(image)
    export_solution(sol, os.path.join(stage_dir, f"{sid}.plan.csv"))
    return sol.objective


def stage_transport(cfg: PipelineConfig, cohort: _Cohort, log: _RunLog) -> None:
    """Solve template -> subject transport for every lambda and subject."""
    template_path = os.path.join(cfg.output_dir, "template", "template.otfg")
    _require("transport", [template_path], "template")
    template = load_measure(template_path)
    ms = cfg.multiscale
    base_hash = {
        "template": _digest_file(template_path),
        "images": cohort.digests,
        "multiscale": ms,
        "downsample": cfg.downsample_factor,
        "solver_version": SOLVER_VERSION,
    }
    for lam in cfg.lambdas:
        alloc, quant, solve_inputs = _solve_specs(cfg, lam)

        def work(stage_dir):
            if template.domain != cohort.domain:
                raise DataError("template domain does not match cohort")
            # with multiscale off, every problem is one level: an exact solve
            solve = partial(
                solve_multiscale, template, cost=_COST, alloc=alloc, quant=quant,
                coarsen_threshold=ms.coarsen_threshold if ms.enabled else math.inf,
                neighborhood_radius=ms.neighborhood_radius)
            objectives = cohort.each(partial(_transport_task, solve, stage_dir),
                                     cohort.images)
            return {"objectives": dict(zip(cohort.ids, objectives))}

        label = _lambda_dirname(lam)
        _run_stage(log, "transport", label,
                   os.path.join(cfg.output_dir, "solutions", label),
                   _stage_hash({**base_hash, **solve_inputs}), work, lam=lam)


def _features_task(domain, smoothing: SmoothingConfig, stage_dir, sid, sol_path):
    """Load one subject's plan, check its voxels and write its feature images."""
    # not imported at module top: the benchmark wraps grid.save_field after
    # this module loads; it times only in-process writes, so with a worker
    # pool the benchmark's save_field wrappers see only the map writes
    from .grid import save_field

    sol = load_solution(sol_path)
    voxels = (sol.plan_arcs[:, :2], sol.allocation[:, 1])
    if max(v.max(initial=0) for v in voxels) >= domain.size:
        raise DataError(f"{sol_path}: voxel index outside the {domain.dims} domain")
    images = extract_features(sol, _COST, domain, sigma=smoothing.sigma,
                              truncation_radius=smoothing.truncation_radius)
    for (_, suffix), image in zip(_FEATURES, images):
        save_field(domain, image, os.path.join(stage_dir, f"{sid}.{suffix}.otfg"))


def stage_features(cfg: PipelineConfig, cohort: _Cohort, log: _RunLog) -> None:
    """Turn solutions into smoothed allocation / transport-cost images."""
    for lam in cfg.lambdas:
        label = _lambda_dirname(lam)
        sol_dir = os.path.join(cfg.output_dir, "solutions", label)
        sol_paths = [os.path.join(sol_dir, f"{sid}.plan.csv") for sid in cohort.ids]
        _require(f"features[{label}]", sol_paths, "transport")

        def work(stage_dir):
            cohort.each(partial(_features_task, cohort.domain, cfg.smoothing,
                                stage_dir), sol_paths)

        input_hash = _stage_hash({
            "solutions": [_digest_file(p) for p in sol_paths],
            "smoothing": cfg.smoothing,
        })
        _run_stage(log, "features", label,
                   os.path.join(cfg.output_dir, "features", label),
                   input_hash, work, lam=lam)


def stage_correlate(cfg: PipelineConfig, cohort: _Cohort, log: _RunLog,
                    values: dict) -> None:
    """Voxel-wise correlation maps for every lambda and covariate.

    ``values`` maps each covariate name to its values, one per subject.  A
    lambda's feature stacks are loaded once, by its first covariate whose
    maps are not up to date, and shared by the rest.
    """
    from .grid import load_field

    for lam in cfg.lambdas:
        label = _lambda_dirname(lam)
        feat_dir = os.path.join(cfg.output_dir, "features", label)
        paths = {kind: [os.path.join(feat_dir, f"{sid}.{suffix}.otfg")
                        for sid in cohort.ids]
                 for kind, suffix in _FEATURES}
        for kind_paths in paths.values():
            _require(f"correlate[{label}]", kind_paths, "features")
        digests = {kind: [_digest_file(p) for p in kind_paths]
                   for kind, kind_paths in paths.items()}
        stacks = {}  # kind -> (domain, stacked fields), filled on first use
        for cov in values:

            def work(stage_dir):
                for kind, kind_paths in paths.items():
                    if kind not in stacks:
                        domains, arrays = zip(*(load_field(p) for p in kind_paths))
                        stacks[kind] = domains[-1], np.stack(arrays)
                    domain, stack = stacks[kind]
                    cmap = correlate_stack(stack, values[cov],
                                           alpha=cfg.alpha, domain=domain)
                    export_map(
                        cmap,
                        r_path=os.path.join(stage_dir, f"{kind}.r.otfg"),
                        p_path=os.path.join(stage_dir, f"{kind}.p_adj.otfg"),
                        csv_path=os.path.join(stage_dir, f"{kind}.summary.csv"),
                    )

            input_hash = _stage_hash({
                "features": digests, "alpha": cfg.alpha, "covariate": cov,
                "values": values[cov].tolist(),
            })
            _run_stage(log, "correlate", f"{label}/{cov}",
                       os.path.join(cfg.output_dir, "maps", label, cov),
                       input_hash, work, lam=lam, covariate=cov)


def run_pipeline(cfg: PipelineConfig, upto: str = "correlate",
                 stage_only: bool = False) -> None:
    """Run the stages up to ``upto`` in order, skipping completed ones.

    With ``stage_only`` only the ``upto`` stage runs, and it fails with a
    DataError cause when its upstream artifacts are missing.  A configured
    manifest that does not exist is a DataError before any output.  Unless
    this run generates the manifest, it is loaded and checked before any
    output.  The manifest, images and image digests are loaded once and
    shared by the stages; the covariates and the 3-subject minimum of
    correlation are checked as soon as the manifest loads.  The worker pool
    has at most one worker per subject.
    """
    if cfg.manifest is not None and not os.path.exists(cfg.manifest):
        raise DataError(f"manifest {cfg.manifest!r} not found")
    last = STAGES.index(upto)
    runs = {upto} if stage_only else set(STAGES[:last + 1])
    manifest_path = cfg.manifest or os.path.join(cfg.output_dir, "dataset",
                                                 "manifest.csv")
    log = _RunLog(os.path.join(cfg.output_dir, "run_log.jsonl"))
    if "synth" in runs and cfg.synth is not None:
        os.makedirs(cfg.output_dir, exist_ok=True)
        stage_synth(cfg, log)
    if last == 0:
        return
    _require(upto, [manifest_path], "synth")
    cohort = _Cohort(cfg, manifest_path)
    if "correlate" in runs:
        names = cfg.covariates or cohort.manifest.covariate_names
        try:
            values = {cov: cohort.manifest.covariate_vector(cov) for cov in names}
        except DataError as exc:
            raise StageFailure("correlate", exc) from exc
        if len(cohort.ids) < 3:
            raise StageFailure("correlate", DataError(
                f"correlation needs at least 3 subjects, got {len(cohort.ids)}"))
    os.makedirs(cfg.output_dir, exist_ok=True)
    # workers start at the first task, so a run whose stages are all up to
    # date forks none
    with (ProcessPoolExecutor(max_workers=cohort.workers) if cohort.workers > 1
          else nullcontext()) as pool:
        if pool:
            cohort.pool_map = pool.map
        if "template" in runs:
            stage_template(cfg, cohort, log)
        if "transport" in runs:
            stage_transport(cfg, cohort, log)
        if "features" in runs:
            stage_features(cfg, cohort, log)
        if "correlate" in runs:
            stage_correlate(cfg, cohort, log, values)


def tree_checksums(root, exclude=("run_log.jsonl",)) -> dict:
    """Relative path -> sha256 for every artifact file under a directory."""
    sums = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if name in exclude:
                continue
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root)
            sums[rel] = _digest_file(full)
    return sums
