import dataclasses
import hashlib

import numpy as np
import pytest

from uotmorph.errors import ConfigError
from uotmorph.synth import (
    AnnulusSpec,
    StripSpec,
    generate_annuli,
    generate_strips,
    save_dataset,
    stream,
)


def _dataset_digest(measures, manifest):
    h = hashlib.sha256()
    for m in measures:
        h.update(m.values.tobytes())
    for e in manifest.entries:
        h.update(repr(sorted(e.covariates.items())).encode())
    return h.hexdigest()


def test_stream_is_deterministic_and_keyed():
    a = stream(7, "strips", 0, 1).random(4)
    b = stream(7, "strips", 0, 1).random(4)
    c = stream(7, "strips", 0, 2).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_strips_deterministic():
    spec = StripSpec(seed=42, n_subjects=5)
    d1 = _dataset_digest(*generate_strips(spec))
    d2 = _dataset_digest(*generate_strips(spec))
    assert d1 == d2
    d3 = _dataset_digest(*generate_strips(StripSpec(seed=43, n_subjects=5)))
    assert d1 != d3


def test_strips_byte_identical_on_disk(tmp_path):
    spec = StripSpec(seed=1, n_subjects=3, dims=(8, 16))
    for sub in ("a", "b"):
        measures, manifest = generate_strips(spec)
        save_dataset(measures, manifest, tmp_path / sub)
    for name in [e.image_path for e in generate_strips(spec)[1].entries] + [
        "manifest.csv"
    ]:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_strips_covariate_consistency():
    spec = StripSpec(seed=3, n_subjects=6, dims=(8, 32))
    measures, manifest = generate_strips(spec)
    slices = spec.region_slices()
    for m, entry in zip(measures, manifest.entries):
        for region, sl in zip("ABCD", slices):
            foreground = np.prod(m.values[sl].shape)
            observed = m.values[sl].sum()
            assert entry.covariates[f"d{region}"] == foreground - observed
        assert entry.covariates["dAll"] == pytest.approx(
            sum(entry.covariates[f"d{r}"] for r in "ABCD")
        )
        assert entry.covariates["dCD"] == pytest.approx(
            entry.covariates["dC"] + entry.covariates["dD"]
        )


def test_strips_zero_removal_range():
    spec = StripSpec(seed=5, n_subjects=2, removal_range=(0.0, 0.0))
    measures, manifest = generate_strips(spec)
    for m, e in zip(measures, manifest.entries):
        assert m.total_mass == float(np.prod(spec.dims))
        assert all(v == 0.0 for v in e.covariates.values())


def test_strips_full_removal_of_one_region():
    spec = StripSpec(seed=5, n_subjects=2, removal_range=(1.0, 1.0))
    measures, manifest = generate_strips(spec)
    region_size = spec.dims[0] * (spec.dims[1] // 4)
    for m, e in zip(measures, manifest.entries):
        assert m.total_mass == 0.0
        assert e.covariates["dD"] == region_size


@pytest.mark.parametrize("keys", [
    {"dims": (10, 30)},  # not divisible by 4
    {"dims": (4, 0)},
    {"dims": (4, 8, 8)},
    {"removal_range": (0.5, 0.1)},
    {"removal_range": (0, True)},
    {"removal_range": (0, 1.5)},
])
def test_strips_validation(keys):
    with pytest.raises(ConfigError):
        StripSpec(**keys)


def test_annuli_case1_constant_total():
    spec = AnnulusSpec(seed=9, n_subjects=8, case="fixed_total")
    measures, manifest = generate_annuli(spec)
    totals = manifest.covariate_vector("total_mass")
    assert totals.var() == 0.0
    outer = manifest.covariate_vector("outer_mass")
    assert outer.var() > 0.0
    # constructed totals match the measures up to f32-free accumulation
    for m, t in zip(measures, totals):
        assert m.total_mass == pytest.approx(t, rel=1e-12)


def test_annuli_disjoint_and_uniform():
    spec = AnnulusSpec(seed=10, n_subjects=2, dims=(32, 32),
                       inner_radii=(4.0, 6.0), outer_radii=(10.0, 12.0))
    measures, _ = generate_annuli(spec)
    vals = measures[0].values
    inner_vals = {v for v in vals.reshape(-1) if v > 0}
    assert len(inner_vals) == 2  # one intensity per annulus


def test_annuli_case2_reproducible():
    spec = AnnulusSpec(seed=11, n_subjects=5, case="random_total")
    _, m1 = generate_annuli(spec)
    _, m2 = generate_annuli(spec)
    assert np.array_equal(
        m1.covariate_vector("total_mass"), m2.covariate_vector("total_mass")
    )
    assert m1.covariate_vector("total_mass").var() > 0


@pytest.mark.parametrize("keys", [
    {"inner_radii": (8.0, 21.0), "outer_radii": (20.0, 24.0)},
    {"dims": (32, 32)},  # default outer radius does not fit
    {"dims": (64, 64, 64)},
    {"dims": (64,)},
    {"case": "weird"},
    {"inner_radii": (True, 3)},
    {"inner_radii": (-3, 3)},
    {"inner_radii": (2,)},
    {"inner_radii": (0, 0.5)},  # the inner ring holds no voxel
    {"outer_fraction_range": ("0.3", 0.7)},
    {"outer_fraction_range": (-1, 3)},
    {"outer_fraction_range": (0.3, 1.2)},
    {"total_range": (2, 1)},
    {"total_range": (0.5, float("inf"))},
])
def test_annuli_validation(keys):
    with pytest.raises(ConfigError):
        AnnulusSpec(**keys)


def test_strips_prefix_property():
    spec = StripSpec(seed=21, n_subjects=4, dims=(8, 16))
    small, small_manifest = generate_strips(spec)
    large, large_manifest = generate_strips(dataclasses.replace(spec, n_subjects=8))
    for k in range(4):
        assert np.array_equal(small[k].values, large[k].values)
        assert small_manifest.entries[k] == large_manifest.entries[k]


def test_strips_seed_changes_stream():
    d1 = generate_strips(StripSpec(seed=1, n_subjects=3, dims=(8, 16)))
    d2 = generate_strips(StripSpec(seed=2, n_subjects=3, dims=(8, 16)))
    assert _dataset_digest(*d1) != _dataset_digest(*d2)
