"""End-to-end batch pipeline: generate, template, transport, features, maps.

A single JSON config drives every stage.  Unknown config keys are errors.
Each stage writes into its own directory under the output tree together
with a ``.stage.json`` marker holding a content hash of its inputs;
rerunning a completed stage with unchanged inputs is a no-op.  A failed
stage removes its partial outputs and aborts, naming the stage, subject,
and cause.  With a fixed config, seed, and worker count, the artifact tree
(everything except the run_log.jsonl diagnostics) is byte-reproducible;
results do not depend on the worker count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, UotmorphError
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
    solve_unbalanced,
)
from .stats import correlate_stack, export_map
from .synth import (
    AnnulusSpec,
    StripSpec,
    generate_annuli,
    generate_strips,
    generate_sweep,
    save_dataset,
)
from .templates import TemplateSpec, build_template

# progress of each stage; log records never enter the artifact tree
logger = logging.getLogger("uotmorph.pipeline")


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


@dataclass(frozen=True)
class SmoothingConfig:
    sigma: float = 1.0
    truncation_radius: int | None = None


@dataclass(frozen=True)
class PipelineConfig:
    output_dir: str
    manifest: str | None = None
    synth: dict | None = None
    downsample_factor: int = 1
    template: TemplateSpec = field(default_factory=TemplateSpec)
    cost: CostSpec = field(default_factory=CostSpec)
    lambdas: tuple[float, ...] = (1.0,)
    allocation_side: str = "source_only"
    tiebreak_epsilon: float = 1e-9
    quantization_units: int = 10_000_000
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
        if self.manifest is None and self.synth is None:
            raise ConfigError("config needs either 'manifest' or 'synth'")
        if any(lam < 0 for lam in self.lambdas):
            raise ConfigError("lambda values must be >= 0")
        # fail fast on a bad side or tiebreak instead of mid-run
        AllocationSpec(
            lam=1.0, side=self.allocation_side,
            tiebreak_epsilon=self.tiebreak_epsilon,
        )


def _check_keys(mapping: dict, allowed, where: str):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys in {where}: {sorted(unknown)}")


def parse_config(raw: dict, base_dir: str = ".") -> PipelineConfig:
    _check_keys(
        raw,
        {
            "output_dir", "manifest", "synth", "downsample_factor", "template",
            "cost", "lambdas", "allocation_side", "tiebreak_epsilon",
            "quantization_units", "multiscale", "smoothing", "covariates",
            "alpha", "workers", "seed",
        },
        "pipeline config",
    )
    if "output_dir" not in raw:
        raise ConfigError("config key 'output_dir' is required")

    tmpl_raw = dict(raw.get("template", {}))
    _check_keys(
        tmpl_raw,
        {"method", "sparse_threshold_fraction", "barycenter_max_iters",
         "barycenter_tolerance"},
        "template",
    )
    template = TemplateSpec(**tmpl_raw)

    ms_raw = dict(raw.get("multiscale", {}))
    _check_keys(
        ms_raw, {"enabled", "coarsen_threshold", "neighborhood_radius"}, "multiscale"
    )
    multiscale = MultiscaleConfig(**ms_raw)

    sm_raw = dict(raw.get("smoothing", {}))
    _check_keys(sm_raw, {"sigma", "truncation_radius"}, "smoothing")
    smoothing = SmoothingConfig(**sm_raw)

    synth = raw.get("synth")
    if synth is not None:
        synth = dict(synth)
        kind = synth.get("kind")
        if kind == "strips":
            _check_keys(
                synth, {"kind", "seed", "n_subjects", "dims", "removal_range"},
                "synth",
            )
        elif kind == "annuli":
            _check_keys(
                synth,
                {"kind", "seed", "n_subjects", "dims", "inner_radii",
                 "outer_radii", "case", "outer_fraction_range", "total_range"},
                "synth",
            )
        elif kind == "sweep":
            _check_keys(
                synth,
                {"kind", "seed", "n_subjects", "dims", "removal_range",
                 "n_list", "sigma_list"},
                "synth",
            )
        else:
            raise ConfigError(
                f"synth kind must be 'strips', 'annuli' or 'sweep', got {kind!r}"
            )

    manifest = raw.get("manifest")
    if manifest is not None and not os.path.isabs(manifest):
        manifest = os.path.join(base_dir, manifest)
    output_dir = raw["output_dir"]
    if not os.path.isabs(output_dir):
        output_dir = os.path.join(base_dir, output_dir)

    try:
        lambdas = tuple(float(v) for v in raw.get("lambdas", (1.0,)))
    except (TypeError, ValueError):
        raise ConfigError(f"bad lambda list {raw.get('lambdas')!r}") from None

    return PipelineConfig(
        output_dir=output_dir,
        manifest=manifest,
        synth=synth,
        downsample_factor=int(raw.get("downsample_factor", 1)),
        template=template,
        cost=CostSpec(kind=raw.get("cost", "squared_euclidean")),
        lambdas=lambdas,
        allocation_side=raw.get("allocation_side", "source_only"),
        tiebreak_epsilon=float(raw.get("tiebreak_epsilon", 1e-9)),
        quantization_units=int(raw.get("quantization_units", 10_000_000)),
        multiscale=multiscale,
        smoothing=smoothing,
        covariates=tuple(raw.get("covariates", ())),
        alpha=float(raw.get("alpha", 0.05)),
        workers=int(raw.get("workers", 1)),
        seed=int(raw.get("seed", 0)),
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


def _write_marker(stage_dir, stage, input_hash) -> None:
    with open(_marker_path(stage_dir), "w", encoding="utf-8") as fh:
        json.dump({"stage": stage, "input_hash": input_hash}, fh, sort_keys=True)


class _RunLog:
    def __init__(self, path):
        self.path = path

    def record(self, **payload):
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")


def _lambda_dirname(lam: float) -> str:
    return f"lambda={lam!r}"


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def _load_cohort(cfg: PipelineConfig, manifest_path):
    manifest = load_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    images = []
    for entry in manifest.entries:
        path = entry.image_path
        if not os.path.isabs(path):
            path = os.path.join(base, path)
        m = load_measure(path)
        if cfg.downsample_factor > 1:
            m = downsample(m, cfg.downsample_factor)
        images.append(m)
    domain = images[0].domain
    for im, entry in zip(images[1:], manifest.entries[1:]):
        if im.domain != domain:
            raise DataError(f"subject {entry.subject_id}: domain mismatch")
    return manifest, images


def stage_synth(cfg: PipelineConfig, log: _RunLog) -> str | None:
    """Generate the synthetic cohort (when configured).

    Returns the manifest path, or None for the sweep kind, which emits one
    dataset per sample size under dataset/n=<n>/ and cannot feed the
    single-cohort pipeline directly.
    """
    if cfg.synth is None:
        return cfg.manifest
    dataset_dir = os.path.join(cfg.output_dir, "dataset")
    manifest_path = os.path.join(dataset_dir, "manifest.csv")
    synth = dict(cfg.synth)
    kind = synth.pop("kind")
    synth.setdefault("seed", cfg.seed)
    input_hash = _stage_hash({"synth": cfg.synth, "seed": cfg.seed, "kind": kind})
    if _stage_complete(dataset_dir, input_hash):
        logger.info("synth: up to date, skipped")
        return None if kind == "sweep" else manifest_path
    logger.info("synth: start")
    t0 = time.perf_counter()
    try:
        if os.path.isdir(dataset_dir):
            shutil.rmtree(dataset_dir)
        for key in ("dims", "inner_radii", "outer_radii", "removal_range",
                    "outer_fraction_range", "total_range"):
            if key in synth:
                synth[key] = tuple(synth[key])
        if kind == "strips":
            spec = StripSpec(**synth)
            measures, manifest = generate_strips(spec)
            save_dataset(measures, manifest, dataset_dir)
            provenance = {"kind": kind, **dataclasses.asdict(spec)}
            n_subjects = len(measures)
        elif kind == "annuli":
            spec = AnnulusSpec(**synth)
            measures, manifest = generate_annuli(spec)
            save_dataset(measures, manifest, dataset_dir)
            provenance = {"kind": kind, **dataclasses.asdict(spec)}
            n_subjects = len(measures)
        else:
            n_list = synth.pop("n_list")
            sigma_list = synth.pop("sigma_list")
            synth.pop("n_subjects", None)
            spec = StripSpec(n_subjects=1, **synth)
            datasets, provenance = generate_sweep(spec, n_list, sigma_list)
            provenance["kind"] = kind
            for n, (measures, manifest) in datasets.items():
                save_dataset(measures, manifest, os.path.join(dataset_dir, f"n={n}"))
            n_subjects = sum(n_list)
        with open(os.path.join(dataset_dir, "generation.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(provenance, fh, sort_keys=True, indent=2)
        _write_marker(dataset_dir, "synth", input_hash)
    except Exception as exc:
        shutil.rmtree(dataset_dir, ignore_errors=True)
        raise StageFailure("synth", exc) from exc
    wall_time = time.perf_counter() - t0
    logger.info("synth: done, %d subjects in %.2f s", n_subjects, wall_time)
    log.record(stage="synth", wall_time=wall_time, subjects=n_subjects)
    return None if kind == "sweep" else manifest_path


def stage_template(cfg: PipelineConfig, manifest_path, log: _RunLog) -> str:
    """Build and save the template; returns its OTFG path."""
    template_dir = os.path.join(cfg.output_dir, "template")
    out_path = os.path.join(template_dir, "template.otfg")
    manifest, images = _load_cohort(cfg, manifest_path)
    input_hash = _stage_hash(
        {
            "template": cfg.template,
            "downsample": cfg.downsample_factor,
            "solver_version": SOLVER_VERSION,
            "images": [_digest_file(_resolve(manifest_path, e.image_path))
                       for e in manifest.entries],
        }
    )
    if _stage_complete(template_dir, input_hash):
        logger.info("template: up to date, skipped")
        return out_path
    logger.info("template: start")
    t0 = time.perf_counter()
    try:
        if os.path.isdir(template_dir):
            shutil.rmtree(template_dir)
        os.makedirs(template_dir)
        alloc = AllocationSpec(
            lam=cfg.lambdas[0] if cfg.lambdas else 1.0,
            side=cfg.allocation_side,
            tiebreak_epsilon=cfg.tiebreak_epsilon,
        )
        template, meta = build_template(
            images,
            cfg.template,
            cost=cfg.cost,
            alloc=alloc,
            quant=QuantizationSpec(units=cfg.quantization_units),
            workers=cfg.workers,
        )
        save_measure(template, out_path)
        with open(os.path.join(template_dir, "template.txt"), "w",
                  encoding="utf-8") as fh:
            for key in sorted(meta):
                fh.write(f"{key}={meta[key]}\n")
        _write_marker(template_dir, "template", input_hash)
    except StageFailure:
        shutil.rmtree(template_dir, ignore_errors=True)
        raise
    except Exception as exc:
        shutil.rmtree(template_dir, ignore_errors=True)
        raise StageFailure("template", exc) from exc
    wall_time = time.perf_counter() - t0
    logger.info("template: done in %.2f s", wall_time)
    log.record(stage="template", wall_time=wall_time,
               total_mass=template.total_mass)
    return out_path


def _resolve(manifest_path, image_path):
    if os.path.isabs(image_path):
        return image_path
    return os.path.join(os.path.dirname(os.path.abspath(manifest_path)), image_path)


def _solve_subject(args):
    (template, subject, cost, alloc, quant, ms) = args
    if ms.enabled:
        return solve_multiscale(
            template, subject, cost, alloc, quant,
            coarsen_threshold=ms.coarsen_threshold,
            neighborhood_radius=ms.neighborhood_radius,
        )
    return solve_unbalanced(template, subject, cost, alloc, quant)


def stage_transport(cfg: PipelineConfig, manifest_path, template_path,
                    log: _RunLog) -> None:
    """Solve template -> subject transport for every lambda and subject."""
    manifest, images = _load_cohort(cfg, manifest_path)
    template = load_measure(template_path)
    if cfg.downsample_factor > 1 and template.domain != images[0].domain:
        raise StageFailure(
            "transport", DataError("template domain does not match cohort")
        )
    quant = QuantizationSpec(units=cfg.quantization_units)
    base_hash = {
        "template": _digest_file(template_path),
        "images": [_digest_file(_resolve(manifest_path, e.image_path))
                   for e in manifest.entries],
        "side": cfg.allocation_side,
        "tiebreak": cfg.tiebreak_epsilon,
        "units": cfg.quantization_units,
        "multiscale": cfg.multiscale,
        "downsample": cfg.downsample_factor,
        "cost": cfg.cost.kind,
        "solver_version": SOLVER_VERSION,
    }
    for lam in cfg.lambdas:
        stage_dir = os.path.join(cfg.output_dir, "solutions", _lambda_dirname(lam))
        input_hash = _stage_hash({**base_hash, "lambda": lam})
        name = f"transport[{_lambda_dirname(lam)}]"
        if _stage_complete(stage_dir, input_hash):
            logger.info("%s: up to date, skipped", name)
            continue
        logger.info("%s: start, %d subjects", name, len(images))
        t0 = time.perf_counter()
        alloc = AllocationSpec(
            lam=lam, side=cfg.allocation_side,
            tiebreak_epsilon=cfg.tiebreak_epsilon,
        )
        args = [(template, img, cfg.cost, alloc, quant, cfg.multiscale)
                for img in images]
        try:
            if os.path.isdir(stage_dir):
                shutil.rmtree(stage_dir)
            os.makedirs(stage_dir)
            if cfg.workers > 1:
                with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                    sols = list(pool.map(_solve_subject, args))
            else:
                sols = [_solve_subject(a) for a in args]
            objectives = {}
            for entry, sol in zip(manifest.entries, sols):
                export_solution(
                    sol, os.path.join(stage_dir, f"{entry.subject_id}.plan.csv")
                )
                objectives[entry.subject_id] = sol.objective
            _write_marker(stage_dir, "transport", input_hash)
        except Exception as exc:
            shutil.rmtree(stage_dir, ignore_errors=True)
            raise StageFailure(name, exc) from exc
        wall_time = time.perf_counter() - t0
        logger.info("%s: done in %.2f s", name, wall_time)
        log.record(stage="transport", lam=lam, wall_time=wall_time,
                   objectives=objectives)


def stage_features(cfg: PipelineConfig, manifest_path, template_path,
                   log: _RunLog) -> None:
    """Turn solutions into smoothed allocation / transport-cost images."""
    manifest, images = _load_cohort(cfg, manifest_path)
    domain = images[0].domain
    from .grid import save_field  # local import to keep module top tidy

    for lam in cfg.lambdas:
        sol_dir = os.path.join(cfg.output_dir, "solutions", _lambda_dirname(lam))
        stage_dir = os.path.join(cfg.output_dir, "features", _lambda_dirname(lam))
        sol_paths = [
            os.path.join(sol_dir, f"{e.subject_id}.plan.csv")
            for e in manifest.entries
        ]
        for p in sol_paths:
            if not os.path.exists(p):
                raise StageFailure(
                    f"features[{_lambda_dirname(lam)}]",
                    DataError(f"missing solution {p}; run the transport stage"),
                )
        input_hash = _stage_hash(
            {
                "solutions": [_digest_file(p) for p in sol_paths],
                "smoothing": cfg.smoothing,
            }
        )
        name = f"features[{_lambda_dirname(lam)}]"
        if _stage_complete(stage_dir, input_hash):
            logger.info("%s: up to date, skipped", name)
            continue
        logger.info("%s: start", name)
        t0 = time.perf_counter()
        try:
            if os.path.isdir(stage_dir):
                shutil.rmtree(stage_dir)
            os.makedirs(stage_dir)
            for entry, sol_path in zip(manifest.entries, sol_paths):
                sol = load_solution(sol_path)
                feats = extract_features(
                    entry.subject_id, sol, cfg.cost, domain,
                    sigma=cfg.smoothing.sigma,
                    truncation_radius=cfg.smoothing.truncation_radius,
                )
                save_field(
                    domain, feats.allocation,
                    os.path.join(stage_dir, f"{entry.subject_id}.alloc.otfg"),
                )
                save_field(
                    domain, feats.transport_cost,
                    os.path.join(stage_dir, f"{entry.subject_id}.tcost.otfg"),
                )
            _write_marker(stage_dir, "features", input_hash)
        except StageFailure:
            shutil.rmtree(stage_dir, ignore_errors=True)
            raise
        except Exception as exc:
            shutil.rmtree(stage_dir, ignore_errors=True)
            raise StageFailure(name, exc) from exc
        wall_time = time.perf_counter() - t0
        logger.info("%s: done in %.2f s", name, wall_time)
        log.record(stage="features", lam=lam, wall_time=wall_time)


def stage_correlate(cfg: PipelineConfig, manifest_path, log: _RunLog) -> None:
    """Voxel-wise correlation maps for every lambda and covariate."""
    from .grid import load_field

    manifest = load_manifest(manifest_path)
    covariates = cfg.covariates or manifest.covariate_names
    for lam in cfg.lambdas:
        feat_dir = os.path.join(cfg.output_dir, "features", _lambda_dirname(lam))
        for kind, suffix in (("allocation", "alloc"), ("transport_cost", "tcost")):
            paths = [
                os.path.join(feat_dir, f"{e.subject_id}.{suffix}.otfg")
                for e in manifest.entries
            ]
            for p in paths:
                if not os.path.exists(p):
                    raise StageFailure(
                        f"correlate[{_lambda_dirname(lam)}]",
                        DataError(f"missing feature image {p}; run features"),
                    )
        for cov in covariates:
            stage_dir = os.path.join(
                cfg.output_dir, "maps", _lambda_dirname(lam), cov
            )
            feature_digests = {}
            for kind, suffix in (("allocation", "alloc"), ("transport_cost", "tcost")):
                feature_digests[kind] = [
                    _digest_file(
                        os.path.join(feat_dir, f"{e.subject_id}.{suffix}.otfg")
                    )
                    for e in manifest.entries
                ]
            input_hash = _stage_hash(
                {"features": feature_digests, "alpha": cfg.alpha, "covariate": cov}
            )
            name = f"correlate[{_lambda_dirname(lam)}/{cov}]"
            if _stage_complete(stage_dir, input_hash):
                logger.info("%s: up to date, skipped", name)
                continue
            logger.info("%s: start", name)
            t0 = time.perf_counter()
            try:
                if os.path.isdir(stage_dir):
                    shutil.rmtree(stage_dir)
                os.makedirs(stage_dir)
                values = manifest.covariate_vector(cov)
                for kind, suffix in (
                    ("allocation", "alloc"),
                    ("transport_cost", "tcost"),
                ):
                    stack, domain = [], None
                    for e in manifest.entries:
                        domain, arr = load_field(
                            os.path.join(feat_dir, f"{e.subject_id}.{suffix}.otfg")
                        )
                        stack.append(arr)
                    cmap = correlate_stack(
                        np.stack(stack), values, alpha=cfg.alpha, domain=domain
                    )
                    export_map(
                        cmap,
                        r_path=os.path.join(stage_dir, f"{kind}.r.otfg"),
                        p_path=os.path.join(stage_dir, f"{kind}.p_adj.otfg"),
                        csv_path=os.path.join(stage_dir, f"{kind}.summary.csv"),
                    )
                _write_marker(stage_dir, "correlate", input_hash)
            except Exception as exc:
                shutil.rmtree(stage_dir, ignore_errors=True)
                raise StageFailure(name, exc) from exc
            wall_time = time.perf_counter() - t0
            logger.info("%s: done in %.2f s", name, wall_time)
            log.record(stage="correlate", lam=lam, covariate=cov,
                       wall_time=wall_time)


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run all stages; returns a summary dict of key artifact paths."""
    if cfg.synth is not None and cfg.synth.get("kind") == "sweep":
        raise ConfigError(
            "sweep datasets emit one cohort per sample size and cannot drive "
            "the full pipeline; use the 'synth' stage command and point "
            "per-cohort configs at dataset/n=<n>/manifest.csv"
        )
    os.makedirs(cfg.output_dir, exist_ok=True)
    log = _RunLog(os.path.join(cfg.output_dir, "run_log.jsonl"))
    manifest_path = stage_synth(cfg, log)
    if manifest_path is None or not os.path.exists(manifest_path):
        raise StageFailure(
            "synth", DataError(f"manifest {manifest_path!r} not found")
        )
    template_path = stage_template(cfg, manifest_path, log)
    stage_transport(cfg, manifest_path, template_path, log)
    stage_features(cfg, manifest_path, template_path, log)
    stage_correlate(cfg, manifest_path, log)
    return {
        "manifest": manifest_path,
        "template": template_path,
        "output_dir": cfg.output_dir,
    }


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
