"""Voxel-wise Pearson correlation maps with Bonferroni correction.

Voxels whose feature values are constant across subjects are untestable;
they are excluded from the Bonferroni denominator and flagged NaN in the
r and p fields rather than reported as zero correlation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .errors import DataError
from .grid import GridDomain, save_field


@dataclass(frozen=True)
class CorrelationMap:
    domain: GridDomain
    r: np.ndarray  # NaN where untested
    p_raw: np.ndarray
    p_adj: np.ndarray
    significant: np.ndarray  # bool
    tested: np.ndarray  # bool
    tested_voxel_count: int


def correlation_p(r, n: int):
    """Two-sided p-value of the t-test for a Pearson correlation.

    t = r * sqrt((n-2) / (1 - r^2)) against Student's t with n-2 degrees of
    freedom, evaluated through the regularized incomplete beta function.
    ``r`` is a scalar (the result is a float) or an array (elementwise);
    NaN gives NaN and |r| >= 1 gives 0.
    """
    if n < 3:
        raise DataError("correlation test needs n >= 3")
    r = np.asarray(r, dtype=np.float64)
    df = n - 2
    with np.errstate(divide="ignore", invalid="ignore"):
        t2 = r * r * df / (1.0 - r * r)
        p = np.where(np.abs(r) >= 1.0, 0.0, betainc(df / 2.0, 0.5, df / (df + t2)))
    return float(p) if p.ndim == 0 else p


def correlate_stack(fields, covariate, alpha: float = 0.05, domain: GridDomain | None = None):
    """Per-voxel correlation of a feature stack against a covariate.

    ``fields`` is a sequence of equally-shaped arrays (one per subject) or a
    single (n_subjects, ...) array. Bonferroni correction runs over the
    voxels actually tested.
    """
    stack = np.asarray(fields, dtype=np.float64)
    if stack.ndim < 2:
        raise DataError("feature stack must be (subjects, voxels...)")
    n = stack.shape[0]
    covariate = np.asarray(covariate, dtype=np.float64)
    if covariate.shape != (n,):
        raise DataError(
            f"covariate length {covariate.shape} does not match {n} subjects"
        )
    if n < 3:
        raise DataError("correlation needs at least 3 subjects")
    shape = stack.shape[1:]
    flat = stack.reshape(n, -1)

    dy = covariate - covariate.mean()
    syy = float(dy @ dy)
    if syy == 0.0:
        raise DataError("zero-variance covariate: every voxel untestable")

    dx = flat - flat.mean(axis=0)
    sxx = np.einsum("ij,ij->j", dx, dx)
    # a constant voxel can keep an ulp of variance around its float mean;
    # sxx > 0 still guards against a variance that underflows
    tested = (sxx > 0.0) & (flat != flat[0]).any(axis=0)
    m = int(tested.sum())

    r = np.full(flat.shape[1], np.nan)
    p_raw = np.full(flat.shape[1], np.nan)
    p_adj = np.full(flat.shape[1], np.nan)
    significant = np.zeros(flat.shape[1], dtype=bool)
    if m:
        num = dy @ dx[:, tested]
        r_t = num / np.sqrt(sxx[tested] * syy)
        r_t = np.clip(r_t, -1.0, 1.0)
        p_t = correlation_p(r_t, n)
        r[tested] = r_t
        p_raw[tested] = p_t
        p_adj[tested] = np.minimum(1.0, p_t * m)
        significant[tested] = p_adj[tested] < alpha

    return CorrelationMap(
        domain=domain,
        r=r.reshape(shape),
        p_raw=p_raw.reshape(shape),
        p_adj=p_adj.reshape(shape),
        significant=significant.reshape(shape),
        tested=tested.reshape(shape),
        tested_voxel_count=m,
    )


def export_map(cmap: CorrelationMap, r_path=None, p_path=None, csv_path=None) -> None:
    """Write r / adjusted-p fields as signed OTFG plus a CSV summary.

    The CSV holds one row per tested voxel:
    ``voxel_index,r,p_raw,p_adj,significant``.
    """
    if (r_path or p_path) and cmap.domain is None:
        raise DataError("field export needs a CorrelationMap with a domain")
    if r_path:
        save_field(cmap.domain, np.nan_to_num(cmap.r, nan=0.0), r_path)
    if p_path:
        save_field(cmap.domain, np.nan_to_num(cmap.p_adj, nan=1.0), p_path)
    if csv_path:
        tested = cmap.tested.reshape(-1)
        r = cmap.r.reshape(-1)
        p_raw = cmap.p_raw.reshape(-1)
        p_adj = cmap.p_adj.reshape(-1)
        sig = cmap.significant.reshape(-1)
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["voxel_index", "r", "p_raw", "p_adj", "significant"])
            for idx in np.flatnonzero(tested):
                writer.writerow(
                    [int(idx), repr(float(r[idx])), repr(float(p_raw[idx])),
                     repr(float(p_adj[idx])), int(sig[idx])]
                )


def render_pgm_slice(
    r_field: np.ndarray,
    path,
    axis: int = 0,
    index: int = 0,
    bound: float = 0.65,
) -> None:
    """8-bit PGM (P5) of one slice with a symmetric diverging ramp.

    Values are clipped to [-bound, bound] and mapped linearly to 0..255;
    r = 0 (and NaN) lands on mid-gray.  A 2D field is its own slice; in a 3D
    field an axis or index outside it is a ``DataError``, as is a bound that
    is not positive and finite.  Nothing is written when the call fails.
    """
    field = np.asarray(r_field, dtype=np.float64)
    if field.ndim == 2:
        plane = field
    elif field.ndim == 3:
        if not 0 <= axis < 3:
            raise DataError(f"slice axis {axis} is outside the field's 3 axes")
        size = field.shape[axis]
        if not 0 <= index < size:
            raise DataError(
                f"slice index {index} is outside axis {axis} of size {size}"
            )
        plane = np.take(field, index, axis=axis)
    else:
        raise DataError(f"cannot slice field of ndim {field.ndim}")
    if not (math.isfinite(bound) and bound > 0):
        raise DataError(f"ramp bound must be positive and finite, got {bound}")
    plane = np.nan_to_num(plane, nan=0.0)
    ramp = (np.clip(plane, -bound, bound) + bound) / (2 * bound)
    pixels = np.rint(ramp * 255.0).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
