"""Seeded synthetic datasets: strip phantoms and concentric annuli.

Randomness comes from counter-based Philox streams keyed by
(seed, dataset kind, subject, region), so datasets are platform-stable,
byte-reproducible, and extension-stable: growing a cohort never changes
the subjects already generated (smaller datasets are prefixes of larger
ones with the same seed).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, is_integer, is_number
from .grid import (
    GridDomain,
    GridMeasure,
    ManifestEntry,
    SubjectManifest,
    save_manifest,
    save_measure,
)

_MASK64 = (1 << 64) - 1


def _mix(x: int) -> int:
    """SplitMix64 finalizer; deterministic 64-bit hash step."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def stream(seed: int, *fields) -> np.random.Generator:
    """Independent generator keyed by (seed, *fields)."""
    k0 = _mix(seed & _MASK64)
    k1 = 0
    for f in fields:
        if isinstance(f, str):
            for ch in f.encode("utf-8"):
                k1 = _mix(k1 ^ ch)
        else:
            k1 = _mix(k1 ^ (int(f) & _MASK64))
    key = np.array([k0, k1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


REGION_NAMES = ("A", "B", "C", "D")


def _is_pair(value, test) -> bool:
    return isinstance(value, (tuple, list)) and len(value) == 2 and all(map(test, value))


def _check_counts(spec):
    if not is_integer(spec.seed):
        raise ConfigError(f"seed must be an integer, got {spec.seed!r}")
    if not (is_integer(spec.n_subjects) and spec.n_subjects >= 1):
        raise ConfigError(f"n_subjects must be an integer >= 1, got {spec.n_subjects!r}")
    if not (_is_pair(spec.dims, is_integer) and min(spec.dims) >= 1):
        raise ConfigError(f"dims must be two integers >= 1, got {spec.dims!r}")


def _check_range(spec, name, top=math.inf):
    """``spec.<name>`` is two finite numbers with 0 <= lo <= hi <= top."""
    value = getattr(spec, name)
    if not (_is_pair(value, is_number) and 0 <= value[0] <= value[1] <= top
            and math.isfinite(value[1])):
        bound = "" if top == math.inf else f" <= {top}"
        raise ConfigError(f"{name} must be two numbers with 0 <= lo <= hi{bound}, "
                          f"got {value!r}")


@dataclass(frozen=True)
class StripSpec:
    """Four-region strip phantom with random per-region tissue removal."""

    seed: int = 0
    n_subjects: int = 20
    dims: tuple[int, int] = (20, 80)
    removal_range: tuple[float, float] = (0.0, 0.5)

    def __post_init__(self):
        _check_counts(self)
        if self.dims[1] % 4 != 0:
            raise ConfigError(
                f"strip dims must have the last axis divisible by 4, got {self.dims}"
            )
        _check_range(self, "removal_range", top=1)

    def region_slices(self):
        width = self.dims[1] // 4
        return [
            (slice(None), slice(r * width, (r + 1) * width)) for r in range(4)
        ]


@dataclass(frozen=True)
class AnnulusSpec:
    """Two concentric annuli with mass split between them."""

    seed: int = 0
    n_subjects: int = 40
    dims: tuple[int, int] = (64, 64)
    inner_radii: tuple[float, float] = (8.0, 12.0)
    outer_radii: tuple[float, float] = (20.0, 24.0)
    case: str = "fixed_total"  # or "random_total"
    outer_fraction_range: tuple[float, float] = (0.3, 0.7)
    total_range: tuple[float, float] = (0.5, 1.5)  # relative to reference mass

    def __post_init__(self):
        _check_counts(self)
        if self.case not in ("fixed_total", "random_total"):
            raise ConfigError(f"unknown annulus case {self.case!r}")
        for name in ("inner_radii", "outer_radii", "total_range"):
            _check_range(self, name)
        _check_range(self, "outer_fraction_range", top=1)
        if self.inner_radii[1] > self.outer_radii[0]:
            raise ConfigError("annuli must be disjoint: inner < outer")
        if self.outer_radii[1] > min(self.dims) / 2:
            raise ConfigError("outer annulus does not fit inside the domain")
        if not all(mask.any() for mask in _annulus_masks(self)):
            raise ConfigError(f"radii {self.inner_radii} and {self.outer_radii} leave "
                              f"an annulus without a voxel on {self.dims}")


def _subject_id(k: int) -> str:
    return f"s{k:04d}"


def generate_strips(spec: StripSpec):
    """Strip cohort plus covariates dA..dD, dAll, dCD.

    Each subject starts as a full white image; per region a removal
    fraction is drawn uniformly from ``removal_range`` and each pixel of
    that region is cleared i.i.d. with that probability.  Covariates record
    the mass actually removed per region and the three disease composites.
    """
    domain = GridDomain(dims=spec.dims, spacing=(1.0, 1.0), origin=(0.0, 0.0))
    slices = spec.region_slices()
    lo, hi = spec.removal_range
    measures, entries = [], []
    for k in range(spec.n_subjects):
        img = np.ones(spec.dims)
        removed = {}
        for r, sl in enumerate(slices):
            gen = stream(spec.seed, "strips", k, r)
            rho = gen.uniform(lo, hi)
            block = img[sl]
            mask = gen.random(block.shape) < rho
            block[mask] = 0.0
            removed[REGION_NAMES[r]] = float(mask.sum())
        covs = {f"d{name}": removed[name] for name in REGION_NAMES}
        covs["dAll"] = sum(removed.values())
        covs["dCD"] = removed["C"] + removed["D"]
        sid = _subject_id(k)
        measures.append(GridMeasure(domain, img))
        entries.append(ManifestEntry(sid, f"{sid}.otfg", covs))
    manifest = SubjectManifest(
        covariate_names=("dA", "dB", "dC", "dD", "dAll", "dCD"),
        entries=tuple(entries),
    )
    return measures, manifest


def _annulus_masks(spec: AnnulusSpec):
    center = (np.asarray(spec.dims) - 1) / 2.0
    yy, xx = np.mgrid[0 : spec.dims[0], 0 : spec.dims[1]]
    rr = np.sqrt((yy - center[0]) ** 2 + (xx - center[1]) ** 2)
    inner = (rr >= spec.inner_radii[0]) & (rr < spec.inner_radii[1])
    outer = (rr >= spec.outer_radii[0]) & (rr < spec.outer_radii[1])
    return inner, outer


def generate_annuli(spec: AnnulusSpec):
    """Annulus cohort plus covariates outer_mass and total_mass.

    The reference mass M0 is the total annulus voxel count (mean intensity
    one).  Case fixed_total keeps every subject at M0 and only varies the
    outer-annulus share; case random_total also draws the total uniformly
    from ``total_range`` times M0.  Intensity is uniform within each
    annulus.
    """
    domain = GridDomain(dims=spec.dims, spacing=(1.0, 1.0), origin=(0.0, 0.0))
    inner, outer = _annulus_masks(spec)
    n_inner = int(inner.sum())
    n_outer = int(outer.sum())
    m0 = float(n_inner + n_outer)
    flo, fhi = spec.outer_fraction_range
    tlo, thi = spec.total_range
    measures, entries = [], []
    for k in range(spec.n_subjects):
        gen = stream(spec.seed, "annuli", spec.case, k)
        beta = gen.uniform(flo, fhi)
        total = m0 if spec.case == "fixed_total" else m0 * gen.uniform(tlo, thi)
        img = np.zeros(spec.dims)
        img[outer] = beta * total / n_outer
        img[inner] = (1 - beta) * total / n_inner
        sid = _subject_id(k)
        measures.append(GridMeasure(domain, img))
        entries.append(
            ManifestEntry(
                sid,
                f"{sid}.otfg",
                {"outer_mass": beta * total, "total_mass": total},
            )
        )
    manifest = SubjectManifest(
        covariate_names=("outer_mass", "total_mass"), entries=tuple(entries)
    )
    return measures, manifest


def save_dataset(measures, manifest: SubjectManifest, directory) -> str:
    """Write measures plus manifest.csv into a directory; returns manifest path."""
    os.makedirs(directory, exist_ok=True)
    for m, entry in zip(measures, manifest.entries):
        save_measure(m, os.path.join(directory, entry.image_path))
    path = os.path.join(directory, "manifest.csv")
    save_manifest(manifest, path)
    return path
