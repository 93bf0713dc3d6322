import json
import logging
import os

import numpy as np
import pytest

from uotmorph import pipeline
from uotmorph.cli import main
from uotmorph.grid import GridDomain, load_manifest, save_field
from uotmorph.pipeline import tree_checksums

TINY_ANNULUS = {
    "synth": {
        "kind": "annuli",
        "n_subjects": 5,
        "dims": [20, 20],
        "inner_radii": [2, 4],
        "outer_radii": [6, 8],
        "case": "random_total",
    },
    "lambdas": [150.0],
    "covariates": ["total_mass"],
    "smoothing": {"sigma": 0.0},
    "quantization_units": 100000,
    "seed": 5,
}


def allow_cpus(monkeypatch, n):
    """Give the process an affinity set of ``n`` CPUs as the pipeline sees it,
    so that a test of the pool forks it on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {**TINY_ANNULUS, "output_dir": str(tmp_path / "out"), **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_unknown_config_key_exit_2(tmp_path):
    path = write_config(tmp_path, typo_key=1)
    assert main(["run", "--config", str(path)]) == 2


def test_bad_json_exit_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2


def test_missing_output_dir_exit_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lambdas": [1.0], "manifest": "x.csv"}))
    assert main(["run", "--config", str(path)]) == 2


def test_invalid_alpha_exit_2(tmp_path):
    path = write_config(tmp_path, alpha=1.5)
    assert main(["run", "--config", str(path)]) == 2


@pytest.mark.parametrize("overrides", [
    {"template": "sparse"},
    {"multiscale": 5},
    {"smoothing": [1]},
    {"synth": "annuli"},
    {"workers": "two"},
    {"alpha": "x"},
    {"seed": None},
    {"covariates": 5},
    {"covariates": "total_mass"},
    {"template": {"sparse_threshold_fraction": "x"}},
    {"template": {"method": "ot_barycenter", "barycenter_max_iters": 2.5}},
    {"multiscale": {"enabled": "no"}},
    {"multiscale": {"enabled": True, "coarsen_threshold": "big"}},
    {"multiscale": {"enabled": True, "neighborhood_radius": -1}},
    {"smoothing": {"sigma": "x"}},
    {"smoothing": {"sigma": -1}},
    {"smoothing": {"truncation_radius": -2}},
    {"synth": {**TINY_ANNULUS["synth"], "dims": 48}},
    {"synth": {**TINY_ANNULUS["synth"], "seed": "x"}},
    {"template": {"method": "ot_barycenter", "barycenter_tolerance": "x"}},
    {"downsample_factor": 2.7},
    {"workers": 1.5},
    {"seed": 3.9},
    {"quantization_units": True},
    {"multiscale": {"enabled": True, "coarsen_threshold": True}},
    {"synth": {**TINY_ANNULUS["synth"], "n_subjects": 6.5}},
    {"synth": {**TINY_ANNULUS["synth"], "dims": [48.5, 48]}},
    {"synth": {**TINY_ANNULUS["synth"], "seed": True}},
    {"template": {"method": "ot_barycenter", "barycenter_max_iters": True}},
    {"smoothing": {"truncation_radius": False}},
    {"lambdas": [True]},
    {"lambdas": ["2"]},
    {"allocation_side": "source_only"},
    {"tiebreak_epsilon": 1e-9},
    {"cost": "squared_euclidean"},
    {"alpha": "0.05"},
    {"smoothing": {"sigma": True}},
    {"template": {"sparse_threshold_fraction": True}},
    {"template": {"method": "ot_barycenter", "barycenter_tolerance": True}},
    {"seed": "3"},
], ids=lambda overrides: json.dumps(overrides))
def test_malformed_config_value_exit_2(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "uotmorph: " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_nan_lambda_exit_2_before_any_output(tmp_path, capsys):
    # a bad later lambda is a config error, not a failure after the first
    # lambda's outputs are written
    path = write_config(tmp_path, lambdas=[0.0, float("nan")])
    assert main(["run", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integral_float_is_an_integer_config_value(tmp_path):
    raw = {**TINY_ANNULUS, "output_dir": "out", "quantization_units": 1e7,
           "workers": 2.0,
           "synth": {**TINY_ANNULUS["synth"], "seed": 11.0, "n_subjects": 4.0,
                     "dims": [20.0, 20]},
           "multiscale": {"coarsen_threshold": 1e3, "neighborhood_radius": 2.0},
           "smoothing": {"truncation_radius": 3.0},
           "template": {"barycenter_max_iters": 20.0}}
    cfg = pipeline.parse_config(raw, base_dir=str(tmp_path))
    spec, _ = pipeline._synth_spec(cfg)
    values = (cfg.quantization_units, cfg.workers, cfg.multiscale.coarsen_threshold,
              cfg.multiscale.neighborhood_radius, cfg.smoothing.truncation_radius,
              cfg.template.barycenter_max_iters, spec.seed, spec.n_subjects, *spec.dims)
    assert values == (10**7, 2, 1000, 2, 3, 20, 11, 4, 20, 20)
    assert all(type(value) is int for value in values)


def annulus(**keys):
    return {"synth": {**TINY_ANNULUS["synth"], **keys}}


def strips(**keys):
    return {"synth": {"kind": "strips", "n_subjects": 2, "dims": [8, 16], **keys}}


@pytest.mark.parametrize("overrides", [
    annulus(inner_radii=[True, 3]),
    annulus(inner_radii=[-3, 3]),
    strips(removal_range=[0, True]),
    annulus(inner_radii=[2]),
    annulus(outer_fraction_range=["0.3", 0.7]),
    annulus(total_range=[2, 1]),
    annulus(dims=[16, 16], inner_radii=[0, 0.5]),
    annulus(outer_fraction_range=[-1, 3]),
    annulus(dims=[16]),
    annulus(dims=[16, 16, 16]),
    strips(dims=[4, 0]),
    {"synth": {"kind": "sweep", "dims": [8, 16], "n_list": [2], "sigma_list": [0.0]}},
    {"covariates": [1]},
    {"manifest": "cohort/manifest.csv"},
], ids=lambda overrides: json.dumps(overrides))
def test_malformed_synth_exit_2_before_any_output(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    assert main(["synth", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "uotmorph: config error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "synth", "template"])
def test_missing_manifest_exit_3(tmp_path, capsys, command):
    # a data error of the config itself: no stage is named, nothing is written
    manifest = str(tmp_path / "nope.csv")
    cfg = {"output_dir": str(tmp_path / "out"), "manifest": manifest, "lambdas": [1.0]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"uotmorph: data error: manifest {manifest!r} not found" in err
    assert "stage" not in err
    assert not (tmp_path / "out").exists()


def test_unknown_covariate_exit_3_before_any_solve(tmp_path, capsys):
    path = write_config(tmp_path, covariates=["total_mas"])
    assert main(["run", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "stage 'correlate' failed: unknown covariate 'total_mas'" in err
    assert not (tmp_path / "out" / "template").exists()
    assert not (tmp_path / "out" / "solutions").exists()


def test_unknown_covariate_stops_only_correlate(tmp_path, capsys):
    # covariates are resolved only when correlate is among the stages to run
    path = write_config(tmp_path, covariates=["total_mas"])
    assert main(["features", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "features").is_dir()
    assert main(["correlate", "--config", str(path), "--stage-only"]) == 3
    err = capsys.readouterr().err
    assert "stage 'correlate' failed: unknown covariate 'total_mas'" in err
    assert not (tmp_path / "out" / "maps").exists()


def manifest_config(tmp_path):
    """A config that reads the TINY_ANNULUS cohort through a manifest generated
    outside its output tree; returns the config path and the manifest path."""
    gen = write_config(tmp_path, "gen.json", output_dir=str(tmp_path / "gen"))
    assert main(["synth", "--config", str(gen)]) == 0
    manifest = tmp_path / "gen" / "dataset" / "manifest.csv"
    cfg = {key: value for key, value in TINY_ANNULUS.items()
           if key not in ("synth", "covariates")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "output_dir": str(tmp_path / "out"),
                                "manifest": str(manifest)}))
    return path, manifest


def set_manifest_cell(manifest, lineno, column, value):
    lines = manifest.read_text().splitlines()
    cells = lines[lineno - 1].split(",")
    cells[column] = value
    lines[lineno - 1] = ",".join(cells)
    manifest.write_text("\n".join(lines) + "\n")


def test_covariate_name_cannot_clear_the_output_tree(tmp_path, capsys):
    path, manifest = manifest_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    before = tree_checksums(tmp_path / "out")
    set_manifest_cell(manifest, 1, 2, "../..")
    assert main(["run", "--config", str(path)]) == 3
    assert f"{manifest}:1: covariate name '../..'" in capsys.readouterr().err
    assert tree_checksums(tmp_path / "out") == before


def test_subject_id_cannot_write_outside_the_output_tree(tmp_path, capsys):
    path, manifest = manifest_config(tmp_path)
    set_manifest_cell(manifest, 3, 0, "../../../x")

    def outside():
        return {name: digest for name, digest in tree_checksums(tmp_path).items()
                if not name.startswith("out" + os.sep)}

    before = outside()
    assert main(["run", "--config", str(path)]) == 3
    assert f"{manifest}:3: subject id '../../../x'" in capsys.readouterr().err
    assert outside() == before


def test_non_finite_covariate_exit_3_before_any_solve(tmp_path, capsys):
    path, manifest = manifest_config(tmp_path)
    set_manifest_cell(manifest, 3, 2, "nan")
    assert main(["run", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"{manifest}:3: covariate 'outer_mass' value 'nan' is not a finite" in err
    assert not (tmp_path / "out" / "template").exists()
    assert not (tmp_path / "out" / "solutions").exists()


@pytest.mark.parametrize("command", ["run", "transport"])
@pytest.mark.parametrize("lineno, column, value, message", [
    pytest.param(1, 1, "image", "manifest header must start with 'subject_id,path'",
                 id="bad-header"),
    pytest.param(3, 2, "nan", "covariate 'outer_mass' value 'nan' is not a finite number",
                 id="nan-covariate"),
])
def test_rejected_manifest_exit_3_before_any_output(tmp_path, capsys, command,
                                                    lineno, column, value, message):
    path, manifest = manifest_config(tmp_path)
    set_manifest_cell(manifest, lineno, column, value)
    assert main([command, "--config", str(path)]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_two_subjects_fail_correlate_before_any_solve(tmp_path, capsys):
    path = write_config(tmp_path, synth={**TINY_ANNULUS["synth"], "n_subjects": 2})
    assert main(["run", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "stage 'correlate' failed: correlation needs at least 3 subjects" in err
    assert not (tmp_path / "out" / "template").exists()
    assert not (tmp_path / "out" / "solutions").exists()
    # without correlate, two subjects are a cohort
    assert main(["features", "--config", str(path)]) == 0


def test_stage_only_requires_upstream(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["template", "--config", str(path), "--stage-only"]) == 3
    assert "stage 'template' failed: missing " in capsys.readouterr().err


@pytest.mark.parametrize("template, failed_dir", [
    ({"method": "sparse"}, "solutions/lambda=inf"),
    ({"method": "ot_barycenter", "barycenter_max_iters": 2}, "template"),
], ids=["sparse", "ot_barycenter"])
def test_solver_failure_exit_4(tmp_path, capsys, monkeypatch, template, failed_dir):
    # JSON 1e999 parses to infinity: allocation disabled, unbalanced cohort;
    # the sparse template fails in transport, the barycenter in template
    path = write_config(tmp_path, lambdas=[1e999], template=template)
    assert main(["run", "--config", str(path)]) == 4
    message = capsys.readouterr().err
    manifest = load_manifest(tmp_path / "out" / "dataset" / "manifest.csv")
    ids = [e.subject_id for e in manifest.entries]
    assert any(f"(subject {sid})" in message for sid in ids), message
    # the same subject is named whether the solves run in workers or not, and
    # the failed stage leaves no directory behind
    allow_cpus(monkeypatch, 2)
    for workers in ("1", "2"):
        assert main(["run", "--config", str(path), "--workers", workers]) == 4
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out" / failed_dir).exists()


def test_features_failure_runs_every_task_first(tmp_path, capsys, monkeypatch):
    from uotmorph import grid

    # feature writes leave a side record outside the stage directory, also
    # from forked workers, which inherit the wrapped grid.save_field
    written = tmp_path / "written"
    written.mkdir()
    save = grid.save_field

    def recording_save(domain, field, path):
        save(domain, field, path)
        (written / os.path.basename(path)).touch()

    monkeypatch.setattr(grid, "save_field", recording_save)
    allow_cpus(monkeypatch, 2)
    path = write_config(tmp_path)
    assert main(["transport", "--config", str(path)]) == 0
    plan = tmp_path / "out" / "solutions" / "lambda=150.0" / "s0000.plan.csv"
    rows = plan.read_text().splitlines()
    rows[-1] = "arc,0,400," + rows[-1].split(",")[3]  # off the 20x20 grid
    plan.write_text("\n".join(rows) + "\n")
    messages = []
    for workers in ("1", "2"):
        for record in written.iterdir():
            record.unlink()
        assert main(["features", "--config", str(path), "--stage-only",
                     "--workers", workers]) == 3
        messages.append(capsys.readouterr().err)
        assert not (tmp_path / "out" / "features" / "lambda=150.0").exists()
        # the first subject failed; every later subject still ran to the end
        assert sorted(r.name for r in written.iterdir()) == [
            f"s{k:04d}.{suffix}.otfg" for k in range(1, 5)
            for suffix in ("alloc", "tcost")]
    assert messages[0] == messages[1]
    assert "stage 'features[lambda=150.0]' (subject s0000) failed: " in messages[0]
    assert str(plan) in messages[0]


def test_failure_names_the_failing_subject(tmp_path, capsys, monkeypatch):
    # at lambda = inf only s0002's quantized total differs from the template's
    from uotmorph.grid import (GridMeasure, ManifestEntry, SubjectManifest,
                               save_manifest, save_measure)

    dom = GridDomain(dims=(4, 4), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    values = np.random.default_rng(3).random((4, 4)) + 0.1
    data = tmp_path / "data"
    data.mkdir()
    for k in range(5):
        scale = 1 + 1e-5 if k == 2 else 1.0
        save_measure(GridMeasure(dom, values * scale), data / f"s{k:04d}.otfg")
    save_manifest(SubjectManifest(
        covariate_names=("score",),
        entries=tuple(ManifestEntry(f"s{k:04d}", f"s{k:04d}.otfg", {"score": float(k)})
                      for k in range(5)),
    ), data / "manifest.csv")
    cfg = {"output_dir": str(tmp_path / "out"), "manifest": str(data / "manifest.csv"),
           "lambdas": [1e999], "quantization_units": 100000,
           "template": {"method": "euclidean"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    allow_cpus(monkeypatch, 2)
    for workers in ("1", "2"):
        assert main(["run", "--config", str(path), "--workers", workers]) == 4
        assert "(subject s0002)" in capsys.readouterr().err


@pytest.mark.parametrize("workers, pools", [(1, 0), (2, 1)])
def test_one_pool_per_invocation(tmp_path, monkeypatch, workers, pools):
    started = []
    spawned = []

    class CountingPool(pipeline.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

        def _spawn_process(self):
            spawned.append(self)
            super()._spawn_process()

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", CountingPool)
    allow_cpus(monkeypatch, 2)
    path = write_config(tmp_path, lambdas=[10.0, 150.0], workers=workers,
                        template={"method": "ot_barycenter",
                                  "barycenter_max_iters": 2})
    assert main(["run", "--config", str(path)]) == 0
    assert len(started) == pools
    assert len(spawned) == workers * pools
    # workers start at the first task: an up-to-date rerun forks none
    assert main(["run", "--config", str(path)]) == 0
    assert len(spawned) == workers * pools


@pytest.mark.parametrize("cpus, pool", [(64, TINY_ANNULUS["synth"]["n_subjects"]),
                                        (3, 3)], ids=["64-cpus", "3-cpus"])
def test_pool_has_at_most_one_worker_per_subject(tmp_path, monkeypatch, cpus, pool):
    # and at most one per CPU of the affinity set
    asked = []

    class InProcessPool:
        """Records the pool size and maps in-process: starts no process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InProcessPool)
    allow_cpus(monkeypatch, cpus)
    p64 = write_config(tmp_path, "c64.json", output_dir=str(tmp_path / "o64"),
                       workers=64)
    p1 = write_config(tmp_path, "c1.json", output_dir=str(tmp_path / "o1"), workers=1)
    assert main(["run", "--config", str(p64)]) == 0
    assert main(["run", "--config", str(p1)]) == 0
    assert asked == [pool]
    assert tree_checksums(tmp_path / "o64") == tree_checksums(tmp_path / "o1")


def test_full_run_and_stage_idempotence(tmp_path):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / "out"
    maps_dir = out / "maps" / "lambda=150.0" / "total_mass"
    assert (maps_dir / "allocation.summary.csv").exists()
    assert (maps_dir / "transport_cost.r.otfg").exists()
    sidecar = (out / "template" / "template.txt").read_text()
    assert "method=sparse" in sidecar

    # rerun: markers make every stage a no-op; artifacts untouched
    before = {p: p.stat().st_mtime_ns for p in out.rglob("*") if p.is_file()
              and p.name != "run_log.jsonl"}
    assert main(["run", "--config", str(path)]) == 0
    after = {p: p.stat().st_mtime_ns for p in out.rglob("*") if p.is_file()
             and p.name != "run_log.jsonl"}
    assert before == after


def test_solver_version_change_invalidates_cached_plans(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    marker = out / "solutions" / "lambda=150.0" / ".stage.json"
    assert main(["run", "--config", str(path)]) == 0
    current = json.loads(marker.read_text())["input_hash"]

    # rewrite the marker as another solver version would have left it
    monkeypatch.setattr(pipeline, "SOLVER_VERSION", pipeline.SOLVER_VERSION + 1)
    assert main(["transport", "--config", str(path), "--stage-only"]) == 0
    assert json.loads(marker.read_text())["input_hash"] != current
    monkeypatch.undo()

    log = out / "run_log.jsonl"

    def transport_solves():
        lines = log.read_text().splitlines()
        return sum(json.loads(line)["stage"] == "transport" for line in lines)

    before = transport_solves()
    assert main(["run", "--config", str(path)]) == 0
    assert transport_solves() == before + 1
    assert json.loads(marker.read_text())["input_hash"] == current


def test_stage_commands_chain(tmp_path):
    path = write_config(tmp_path)
    assert main(["synth", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "dataset" / "manifest.csv").exists()
    assert main(["template", "--config", str(path), "--stage-only"]) == 0
    assert main(["correlate", "--config", str(path)]) == 0
    assert (
        tmp_path / "out" / "maps" / "lambda=150.0" / "total_mass"
        / "allocation.summary.csv"
    ).exists()


@pytest.mark.parametrize("template", [
    {"method": "sparse"},
    {"method": "ot_barycenter", "barycenter_max_iters": 3},
], ids=["sparse", "ot_barycenter"])
def test_worker_count_does_not_change_results(tmp_path, monkeypatch, template):
    allow_cpus(monkeypatch, 2)
    p1 = write_config(tmp_path, "c1.json", output_dir=str(tmp_path / "o1"), workers=1,
                      template=template)
    p2 = write_config(tmp_path, "c2.json", output_dir=str(tmp_path / "o2"), workers=2,
                      template=template)
    assert main(["run", "--config", str(p1)]) == 0
    assert main(["run", "--config", str(p2)]) == 0
    assert tree_checksums(tmp_path / "o1") == tree_checksums(tmp_path / "o2")
    # a features-only rerun: a new smoothing recomputes features and maps
    before = tree_checksums(tmp_path / "o1")
    for out, workers in (("o1", 1), ("o2", 2)):
        path = write_config(tmp_path, f"{out}.json", output_dir=str(tmp_path / out),
                            workers=workers, template=template,
                            smoothing={"sigma": 1.0})
        assert main(["run", "--config", str(path)]) == 0
    after = tree_checksums(tmp_path / "o1")
    assert after == tree_checksums(tmp_path / "o2")
    changed = {rel for rel in after if after[rel] != before[rel]}
    assert changed and all(rel.startswith(("features", "maps")) for rel in changed)


def test_run_pipeline_identity_dataset(tmp_path):
    # every subject identical: all-zero features, nothing significant
    cfg = write_config(
        tmp_path,
        synth={
            "kind": "annuli",
            "n_subjects": 4,
            "dims": [20, 20],
            "inner_radii": [2, 4],
            "outer_radii": [6, 8],
            "case": "fixed_total",
            "outer_fraction_range": [0.5, 0.5],
        },
        covariates=["outer_mass"],
    )
    assert main(["run", "--config", str(cfg)]) == 3  # zero-variance covariate
    cfg2 = write_config(
        tmp_path,
        "cfg2.json",
        output_dir=str(tmp_path / "out2"),
        synth={
            "kind": "annuli",
            "n_subjects": 4,
            "dims": [20, 20],
            "inner_radii": [2, 4],
            "outer_radii": [6, 8],
            "case": "random_total",
            "outer_fraction_range": [0.5, 0.5],
        },
        covariates=["total_mass"],
    )
    assert main(["run", "--config", str(cfg2)]) == 0
    from uotmorph.grid import load_field

    _, alloc_r = load_field(
        tmp_path / "out2" / "maps" / "lambda=150.0" / "total_mass"
        / "allocation.r.otfg"
    )
    assert np.isfinite(alloc_r).all()


def test_identity_dataset_nothing_significant(tmp_path):
    # all subjects share one image; covariate varies -> every voxel untested
    from uotmorph.grid import (GridDomain, GridMeasure, ManifestEntry,
                               SubjectManifest, save_manifest, save_measure)

    rng = np.random.default_rng(8)
    dom = GridDomain(dims=(6, 6), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    m = GridMeasure(dom, rng.random((6, 6)))
    data = tmp_path / "data"
    data.mkdir()
    save_measure(m, data / "shared.otfg")
    manifest = SubjectManifest(
        covariate_names=("score",),
        entries=tuple(
            ManifestEntry(f"s{k}", "shared.otfg", {"score": float(k)})
            for k in range(4)
        ),
    )
    save_manifest(manifest, data / "manifest.csv")
    cfg = {
        "output_dir": str(tmp_path / "out"),
        "manifest": str(data / "manifest.csv"),
        "lambdas": [5.0],
        "covariates": ["score"],
        "smoothing": {"sigma": 0.0},
        "template": {"method": "euclidean"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 0
    for kind in ("allocation", "transport_cost"):
        rows = (
            tmp_path / "out" / "maps" / "lambda=5.0" / "score"
            / f"{kind}.summary.csv"
        ).read_text().strip().splitlines()
        assert len(rows) == 1  # header only: no voxel varies across subjects


def test_lambda_zero_features_are_pointwise_differences(tmp_path):
    from uotmorph.grid import load_field, load_measure

    cfg = {
        "output_dir": str(tmp_path / "out"),
        "synth": {"kind": "strips", "n_subjects": 4, "dims": [8, 16]},
        "lambdas": [0.0],
        "covariates": ["dAll"],
        "smoothing": {"sigma": 0.0},
        "template": {"method": "euclidean"},
        "quantization_units": 1000000,
        "seed": 77,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["features", "--config", str(path)]) == 0
    out = tmp_path / "out"
    template = load_measure(out / "template" / "template.otfg")
    for k in range(4):
        subject = load_measure(out / "dataset" / f"s{k:04d}.otfg")
        _, alloc = load_field(out / "features" / "lambda=0.0" / f"s{k:04d}.alloc.otfg")
        expected = template.values - subject.values
        # f32 storage of the template plus quantization bound the error
        assert np.max(np.abs(alloc - expected)) < 1e-4
        _, tcost = load_field(out / "features" / "lambda=0.0" / f"s{k:04d}.tcost.otfg")
        assert not tcost.any()


def test_analytic_command(tmp_path):
    cfg = {
        "p": 0.5,
        "n_max": 10,
        "panels": [
            {"t_h": 0.85, "t_p_list": [0.5, 0.8], "output": "a.csv"},
            {"t_h": 0.65, "t_p_list": [0.5], "output": "b.csv"},
        ],
    }
    path = tmp_path / "analytic.json"
    path.write_text(json.dumps(cfg))
    assert main(["analytic", "--config", str(path)]) == 0
    rows = (tmp_path / "a.csv").read_text().strip().splitlines()
    assert rows[0] == "n,t_p,r_vbm,r_otf"
    assert len(rows) - 1 == 2 * 10
    rows_b = (tmp_path / "b.csv").read_text().strip().splitlines()
    assert len(rows_b) - 1 == 10


def test_analytic_unknown_key_exit_2(tmp_path):
    path = tmp_path / "analytic.json"
    path.write_text(json.dumps({"panels": [], "bogus": 1}))
    assert main(["analytic", "--config", str(path)]) == 2


@pytest.mark.parametrize("cfg", [
    5,
    {"panels": [{"t_h": "x", "t_p_list": [0.5], "output": "a.csv"}]},
    {"panels": [{"t_h": 0.85, "t_p_list": 0.1, "output": "a.csv"}]},
    {"panels": [{"t_h": 0.85, "t_p_list": [0.5], "n_max": "many",
                 "output": "a.csv"}]},
    {"n_max": 2.5, "panels": [{"t_h": 0.85, "t_p_list": [0.5], "output": "a.csv"}]},
    {"n_max": True, "panels": [{"t_h": 0.85, "t_p_list": [0.5], "output": "a.csv"}]},
    {"panels": [{"t_h": "0.85", "t_p_list": [0.5], "output": "a.csv"}]},
    {"panels": [{"t_h": 0.85, "t_p_list": ["0.5"], "output": "a.csv"}]},
    {"p": "0.5", "panels": [{"t_h": 0.85, "t_p_list": [0.5], "output": "a.csv"}]},
    {"n_max": 0, "panels": [{"t_h": 0.85, "t_p_list": [0.5], "output": "a.csv"}]},
    {"panels": [{"t_h": 0.85, "t_p_list": [0.5], "n_max": -3, "output": "a.csv"}]},
    {"panels": [{"t_h": 0.85, "t_p_list": [], "output": "a.csv"}]},
], ids=["not-an-object", "t_h", "t_p_list", "n_max", "n_max-fraction", "n_max-true",
        "t_h-string", "t_p-string", "p-string", "n_max-zero", "n_max-negative",
        "t_p_list-empty"])
def test_analytic_malformed_value_exit_2(tmp_path, capsys, cfg):
    path = tmp_path / "analytic.json"
    path.write_text(json.dumps(cfg))
    assert main(["analytic", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("second", [
    {"t_h": 0.65, "t_p_list": [0.5], "n_max": 0, "output": "b.csv"},
    {"t_h": 0.65, "t_p_list": [], "output": "b.csv"},
    {"t_h": 1.5, "t_p_list": [0.5], "output": "b.csv"},
], ids=["n_max-zero", "t_p_list-empty", "t_h-out-of-range"])
def test_analytic_bad_later_panel_writes_nothing(tmp_path, capsys, second):
    cfg = {"n_max": 5,
           "panels": [{"t_h": 0.85, "t_p_list": [0.5], "output": "a.csv"}, second]}
    path = tmp_path / "analytic.json"
    path.write_text(json.dumps(cfg))
    assert main(["analytic", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()
    assert not (tmp_path / "b.csv").exists()


def test_synth_writes_provenance(tmp_path):
    path = write_config(tmp_path)
    assert main(["synth", "--config", str(path)]) == 0
    prov = json.loads((tmp_path / "out" / "dataset" / "generation.json").read_text())
    assert prov["kind"] == "annuli"
    assert prov["n_subjects"] == 5
    assert prov["seed"] == 5


def test_failed_stage_removes_partial_outputs(tmp_path, capsys):
    # every subject has the same total mass: its correlation fails after the
    # outer-mass maps are written
    synth = {**TINY_ANNULUS["synth"], "case": "fixed_total"}
    path = write_config(tmp_path, synth=synth, covariates=["outer_mass", "total_mass"])
    assert main(["run", "--config", str(path)]) == 3
    assert "zero-variance covariate" in capsys.readouterr().err
    maps = tmp_path / "out" / "maps" / "lambda=150.0"
    assert (maps / "outer_mass" / "allocation.r.otfg").is_file()
    assert not (maps / "total_mass").exists()


def test_export_slice_zero_map_is_mid_gray(tmp_path):
    dom = GridDomain(dims=(4, 4), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    save_field(dom, np.zeros((4, 4)), tmp_path / "r.otfg")
    assert main(
        ["export-slice", "--input", str(tmp_path / "r.otfg"),
         "--output", str(tmp_path / "s.pgm"), "--bound", "0.65"]
    ) == 0
    pixels = (tmp_path / "s.pgm").read_bytes().split(b"255\n", 1)[1]
    assert pixels == bytes([128] * 16)


@pytest.mark.parametrize("args, message", [
    (["--index", "7"], "slice index 7 is outside axis 0 of size 3"),
    (["--index", "-1"], "slice index -1 is outside axis 0 of size 3"),
    (["--axis", "5"], "slice axis 5 is outside the field's 3 axes"),
    (["--bound", "nan"], "ramp bound must be positive and finite, got nan"),
    (["--bound", "-1"], "ramp bound must be positive and finite, got -1.0"),
], ids=["index-past-end", "index-negative", "axis", "bound-nan", "bound-negative"])
def test_export_slice_bad_argument_exit_3(tmp_path, capsys, args, message):
    dom = GridDomain(dims=(3, 4, 5), spacing=(1.0,) * 3, origin=(0.0,) * 3)
    save_field(dom, np.zeros((3, 4, 5)), tmp_path / "r.otfg")
    assert main(
        ["export-slice", "--input", str(tmp_path / "r.otfg"),
         "--output", str(tmp_path / "s.pgm"), *args]
    ) == 3
    assert f"data error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "s.pgm").exists()


def test_pipeline_logs_stage_progress(tmp_path, caplog):
    names = ["synth", "template", "transport[lambda=150.0]",
             "features[lambda=150.0]", "correlate[lambda=150.0/total_mass]"]

    def pipeline_messages():
        return [r.getMessage() for r in caplog.records
                if r.name == "uotmorph.pipeline" and r.levelno == logging.INFO]

    path = write_config(tmp_path)
    with caplog.at_level(logging.INFO, logger="uotmorph.pipeline"):
        assert main(["run", "--config", str(path)]) == 0
    messages = pipeline_messages()
    for name in names:
        assert f"{name}: start" in [m.split(",")[0] for m in messages]
        assert any(m.startswith(f"{name}: done") for m in messages)

    caplog.clear()
    with caplog.at_level(logging.INFO, logger="uotmorph.pipeline"):
        assert main(["run", "--config", str(path)]) == 0
    assert pipeline_messages() == [f"{name}: up to date, skipped" for name in names]

    # the same run without logging leaves an identical artifact tree
    quiet = write_config(tmp_path, name="quiet.json",
                         output_dir=str(tmp_path / "quiet"))
    assert main(["run", "--config", str(quiet)]) == 0
    assert tree_checksums(tmp_path / "out") == tree_checksums(tmp_path / "quiet")


def artifact_mtimes(out):
    return {p: p.stat().st_mtime_ns for p in out.rglob("*")
            if p.is_file() and p.name != "run_log.jsonl"}


@pytest.mark.parametrize("stage", ["transport", "features", "correlate"])
def test_stage_only_on_fresh_output_exit_3(tmp_path, capsys, stage):
    path = write_config(tmp_path)
    assert main([stage, "--config", str(path), "--stage-only"]) == 3
    err = capsys.readouterr().err
    assert f"stage {stage!r} failed: missing " in err
    assert "manifest.csv; run the synth stage" in err
    assert not (tmp_path / "out").exists()


def test_stage_only_after_run_touches_nothing(tmp_path):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    before = artifact_mtimes(tmp_path / "out")
    for stage in pipeline.STAGES:
        assert main([stage, "--config", str(path), "--stage-only"]) == 0
        assert artifact_mtimes(tmp_path / "out") == before


def test_run_stage_only_is_rejected(tmp_path):
    path = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(path), "--stage-only"])
    assert exc.value.code == 2


def test_cold_run_loads_each_subject_image_once(tmp_path, monkeypatch):
    loaded = []
    load = pipeline.load_measure

    def counting_load(path):
        loaded.append(os.path.basename(path))
        return load(path)

    monkeypatch.setattr(pipeline, "load_measure", counting_load)
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    subjects = sorted(name for name in loaded if name != "template.otfg")
    assert subjects == [f"s{k:04d}.otfg" for k in range(5)]


def test_correlate_loads_each_feature_file_once(tmp_path, monkeypatch):
    from uotmorph import grid

    loaded = []
    load = grid.load_field

    def counting_load(path):
        loaded.append(os.path.relpath(path, tmp_path / "out"))
        return load(path)

    monkeypatch.setattr(grid, "load_field", counting_load)
    path = write_config(tmp_path, lambdas=[0.0, 150.0],
                        covariates=["outer_mass", "total_mass"])
    assert main(["run", "--config", str(path)]) == 0
    assert sorted(loaded) == sorted(
        os.path.join("features", f"lambda={lam}", f"s{k:04d}.{suffix}.otfg")
        for lam in (0.0, 150.0) for k in range(5)
        for suffix in ("alloc", "tcost"))


def test_template_cache_follows_barycenter_settings(tmp_path):
    template = tmp_path / "out" / "template" / "template.otfg"
    # a sparse template does not solve transport: quantization leaves it cached
    path = write_config(tmp_path)
    assert main(["template", "--config", str(path)]) == 0
    before = artifact_mtimes(tmp_path / "out")
    path = write_config(tmp_path, quantization_units=7)
    assert main(["template", "--config", str(path)]) == 0
    assert artifact_mtimes(tmp_path / "out") == before

    barycenter = {"method": "ot_barycenter", "barycenter_max_iters": 3}
    path = write_config(tmp_path, template=barycenter)
    assert main(["template", "--config", str(path)]) == 0
    first = template.read_bytes()
    changed = {"template": barycenter, "quantization_units": 7, "lambdas": [0.5]}
    path = write_config(tmp_path, **changed)
    assert main(["template", "--config", str(path)]) == 0
    fresh = write_config(tmp_path, "fresh.json",
                         output_dir=str(tmp_path / "fresh"), **changed)
    assert main(["template", "--config", str(fresh)]) == 0
    expected = (tmp_path / "fresh" / "template" / "template.otfg").read_bytes()
    assert expected != first
    assert template.read_bytes() == expected


def test_correlate_cache_follows_covariate_values(tmp_path):
    from uotmorph.grid import (GridDomain, GridMeasure, ManifestEntry,
                               SubjectManifest, save_manifest, save_measure)

    rng = np.random.default_rng(11)
    dom = GridDomain(dims=(6, 6), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    data = tmp_path / "data"
    data.mkdir()
    for k in range(6):
        save_measure(GridMeasure(dom, rng.random((6, 6))), data / f"s{k}.otfg")

    def write_manifest(scores):
        save_manifest(SubjectManifest(
            covariate_names=("score",),
            entries=tuple(ManifestEntry(f"s{k}", f"s{k}.otfg", {"score": score})
                          for k, score in enumerate(scores)),
        ), data / "manifest.csv")

    def run(out):
        cfg = {"output_dir": str(tmp_path / out),
               "manifest": str(data / "manifest.csv"), "lambdas": [5.0],
               "covariates": ["score"], "smoothing": {"sigma": 0.0},
               "template": {"method": "euclidean"}}
        path = tmp_path / f"{out}.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 0
        return (tmp_path / out / "maps" / "lambda=5.0" / "score"
                / "allocation.summary.csv").read_text()

    scores = [float(k * k) for k in range(6)]
    write_manifest(scores)
    first = run("out")
    write_manifest(scores[::-1])
    rerun = run("out")
    fresh = run("fresh")
    assert fresh != first
    assert rerun == fresh


@pytest.mark.parametrize("row", [
    "arc,0,1",  # three fields
    "arc,0,400,{mass}",  # target voxel off the 20x20 grid
    "add_src,-3,,{mass}",
    "arc,0,0,nan",
])
def test_corrupted_plan_exit_3(tmp_path, capsys, row):
    path = write_config(tmp_path)
    assert main(["transport", "--config", str(path)]) == 0
    plan = sorted((tmp_path / "out" / "solutions" / "lambda=150.0").glob("*.csv"))[0]
    rows = plan.read_text().splitlines()
    rows[-1] = row.format(mass=rows[-1].split(",")[3])
    plan.write_text("\n".join(rows) + "\n")
    assert main(["features", "--config", str(path), "--stage-only"]) == 3
    assert str(plan) in capsys.readouterr().err
