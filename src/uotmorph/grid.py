"""Grid domains, non-negative measures on grids, and OTFG file I/O.

The OTFG binary format (little-endian):

    magic "OTFG" | u32 version=1 | u32 ndim | ndim x u64 dims
    | ndim x f64 spacing | ndim x f64 origin | payload (prod(dims) x f32)

Payload values are stored in linear order with the last axis fastest
(C order). Feature files (signed scalar fields) insert a u32 flag with
value 1 between the origin block and the payload; its presence is
detected from the file length, so plain measure files keep the exact
base layout. Values are f32 on disk and widened to f64 in memory.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, OTFGFormatError

_MAGIC = b"OTFG"
_VERSION = 1


@dataclass(frozen=True)
class GridDomain:
    """Regular 2D/3D grid geometry: voxel counts, physical spacing, origin."""

    dims: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        origin = tuple(float(o) for o in self.origin)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)
        if len(dims) not in (2, 3):
            raise DataError(f"grid must be 2D or 3D, got ndim={len(dims)}")
        if not (len(dims) == len(spacing) == len(origin)):
            raise DataError("dims, spacing and origin must have equal length")
        if any(d < 1 for d in dims):
            raise DataError(f"all dims must be >= 1, got {dims}")
        if any(s <= 0 for s in spacing):
            raise DataError(f"all spacing entries must be > 0, got {spacing}")
        if not all(map(math.isfinite, spacing + origin)):
            raise DataError(f"spacing and origin must be finite, got {spacing + origin}")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return int(np.prod(self.dims))


def voxel_positions(domain: GridDomain, indices) -> np.ndarray:
    """Physical coordinates ``origin + spacing * multi-index`` of linear indices.

    Returns an array of shape (n, ndim). Linear order is C order (last axis
    fastest), matching the on-disk payload order.
    """
    indices = np.asarray(indices, dtype=np.int64)
    multi = np.column_stack(np.unravel_index(indices, domain.dims))
    return np.asarray(domain.origin) + np.asarray(domain.spacing) * multi


class GridMeasure:
    """Non-negative mass values on a GridDomain.

    Values are held as a read-only float64 array of shape ``domain.dims``;
    the flattened C-order view is the canonical linear order.
    """

    def __init__(self, domain: GridDomain, values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape == (domain.size,):
            values = values.reshape(domain.dims)
        if values.shape != tuple(domain.dims):
            raise DataError(
                f"value array shape {values.shape} does not match dims {domain.dims}"
            )
        if not np.isfinite(values).all():
            raise DataError("measure values must be finite")
        if (values < 0).any():
            bad = int(np.argmin(values.ravel()))
            raise DataError(f"negative mass at linear index {bad}")
        values.flags.writeable = False
        self.domain = domain
        self.values = values
        self.total_mass = float(values.sum())

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def __eq__(self, other):
        if not isinstance(other, GridMeasure):
            return NotImplemented
        return self.domain == other.domain and np.array_equal(self.values, other.values)

    def __repr__(self):
        return (
            f"GridMeasure(dims={self.domain.dims}, total_mass={self.total_mass:.6g})"
        )


def downsample(m: GridMeasure, factor: int) -> GridMeasure:
    """Sum-pool a measure by an integer factor per axis, conserving total mass.

    Output dims are ceil(dims/factor); spacing is multiplied by factor. Each
    output voxel is the sum of its (up to factor^ndim) children, so mass is
    conserved exactly up to float summation.
    """
    factor = int(factor)
    if factor < 1:
        raise DataError(f"downsample factor must be >= 1, got {factor}")
    if factor == 1:
        return m
    dims = m.domain.dims
    out_dims = tuple(-(-d // factor) for d in dims)
    padded_dims = tuple(od * factor for od in out_dims)
    pad = [(0, pd - d) for pd, d in zip(padded_dims, dims)]
    vals = np.pad(m.values, pad)
    # reshape each axis into (coarse, factor) blocks and sum the block axes
    shape = []
    for od in out_dims:
        shape.extend((od, factor))
    vals = vals.reshape(shape).sum(axis=tuple(range(1, 2 * len(out_dims), 2)))
    domain = GridDomain(
        dims=out_dims,
        spacing=tuple(s * factor for s in m.domain.spacing),
        origin=m.domain.origin,
    )
    return GridMeasure(domain, vals)


# ---------------------------------------------------------------------------
# OTFG binary I/O
# ---------------------------------------------------------------------------


def _write_otfg(path, domain: GridDomain, values: np.ndarray, signed: bool) -> None:
    ndim = domain.ndim
    header = bytearray()
    header += _MAGIC
    header += struct.pack("<I", _VERSION)
    header += struct.pack("<I", ndim)
    header += struct.pack(f"<{ndim}Q", *domain.dims)
    header += struct.pack(f"<{ndim}d", *domain.spacing)
    header += struct.pack(f"<{ndim}d", *domain.origin)
    if signed:
        header += struct.pack("<I", 1)
    payload = np.ascontiguousarray(values, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(header))
        fh.write(payload)


def _read_otfg(path):
    """Parse an OTFG file. Returns (domain, float64 values, signed flag)."""
    with open(path, "rb") as fh:
        data = fh.read()

    def need(offset, count, what):
        if len(data) < offset + count:
            raise OTFGFormatError(f"truncated file while reading {what}", len(data))

    need(0, 4, "magic")
    if data[:4] != _MAGIC:
        raise OTFGFormatError(f"bad magic {data[:4]!r}, expected {_MAGIC!r}", 0)
    need(4, 4, "version")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != _VERSION:
        raise OTFGFormatError(f"unsupported version {version}", 4)
    need(8, 4, "ndim")
    (ndim,) = struct.unpack_from("<I", data, 8)
    if ndim not in (2, 3):
        raise OTFGFormatError(f"ndim must be 2 or 3, got {ndim}", 8)
    off = 12
    need(off, 8 * ndim, "dims")
    dims = struct.unpack_from(f"<{ndim}Q", data, off)
    if any(d < 1 for d in dims):
        raise OTFGFormatError(f"dims must all be >= 1, got {dims}", off)
    off += 8 * ndim
    need(off, 8 * ndim, "spacing")
    spacing = struct.unpack_from(f"<{ndim}d", data, off)
    if any(not np.isfinite(s) or s <= 0 for s in spacing):
        raise OTFGFormatError(f"spacing must be positive, got {spacing}", off)
    off += 8 * ndim
    need(off, 8 * ndim, "origin")
    origin = struct.unpack_from(f"<{ndim}d", data, off)
    if not all(map(math.isfinite, origin)):
        raise OTFGFormatError(f"origin must be finite, got {origin}", off)
    off += 8 * ndim

    count = 1
    for d in dims:
        count *= d
    payload_bytes = 4 * count
    remaining = len(data) - off
    signed = False
    if remaining == payload_bytes + 4:
        (flag,) = struct.unpack_from("<I", data, off)
        if flag != 1:
            raise OTFGFormatError(f"unknown header flag {flag}", off)
        signed = True
        off += 4
    elif remaining != payload_bytes:
        raise OTFGFormatError(
            f"payload size mismatch: header declares {count} values "
            f"({payload_bytes} bytes) but {remaining} bytes remain",
            off,
        )

    raw = np.frombuffer(data, dtype="<f4", count=count, offset=off)
    finite = np.isfinite(raw)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise OTFGFormatError(f"non-finite value at linear index {bad}", off + 4 * bad)
    domain = GridDomain(dims=dims, spacing=spacing, origin=origin)
    values = raw.astype(np.float64).reshape(dims)
    return domain, values, signed, off


def save_measure(m: GridMeasure, path) -> None:
    """Write a measure in the OTFG base layout (no signed flag)."""
    _write_otfg(path, m.domain, m.values, signed=False)


def load_measure(path) -> GridMeasure:
    """Read an OTFG measure file, enforcing non-negativity."""
    domain, values, signed, payload_off = _read_otfg(path)
    if signed:
        raise DataError(
            f"{path}: file carries the signed-field flag; use load_field()"
        )
    flat = values.reshape(-1)
    neg = flat < 0
    if neg.any():
        bad = int(np.argmax(neg))
        raise OTFGFormatError(
            f"negative mass {flat[bad]} at linear index {bad}", payload_off + 4 * bad
        )
    return GridMeasure(domain, values)


def save_field(domain: GridDomain, values, path) -> None:
    """Write a signed scalar field (feature image) with the signed flag set."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape == (domain.size,):
        values = values.reshape(domain.dims)
    if values.shape != tuple(domain.dims):
        raise DataError(
            f"field shape {values.shape} does not match dims {domain.dims}"
        )
    _write_otfg(path, domain, values, signed=True)


def load_field(path):
    """Read a scalar field; accepts both signed and plain measure files.

    Returns (domain, float64 array of shape dims).
    """
    domain, values, _signed, _off = _read_otfg(path)
    return domain, values


# ---------------------------------------------------------------------------
# Subject manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    subject_id: str
    image_path: str
    covariates: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SubjectManifest:
    """Cohort listing: one image per subject plus per-subject covariates."""

    covariate_names: tuple[str, ...]
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if e.subject_id in seen:
                raise DataError(f"duplicate subject_id {e.subject_id!r}")
            seen.add(e.subject_id)
            missing = [c for c in self.covariate_names if c not in e.covariates]
            if missing:
                raise DataError(
                    f"subject {e.subject_id!r} missing covariates {missing}"
                )

    def covariate_vector(self, name: str) -> np.ndarray:
        if name not in self.covariate_names:
            raise DataError(f"unknown covariate {name!r}")
        return np.array([e.covariates[name] for e in self.entries], dtype=np.float64)


def _check_name(path, lineno: int, what: str, name: str) -> None:
    """Subject ids and covariate names become file and directory names."""
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise DataError(f"{path}:{lineno}: {what} {name!r} is not a valid file name")


def load_manifest(path) -> SubjectManifest:
    """Read a manifest CSV with header `subject_id,path,<covariate>...`.

    A subject id or covariate name that is empty, ``.`` or ``..``, or holds
    ``/``, ``\\`` or NUL, a covariate named twice, and a covariate value that
    is not a finite number raise DataError naming the line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty manifest") from None
        if len(header) < 2 or header[0] != "subject_id" or header[1] != "path":
            raise DataError(
                f"{path}: manifest header must start with 'subject_id,path', got {header}"
            )
        cov_names = tuple(header[2:])
        for name in cov_names:
            _check_name(path, 1, "covariate name", name)
            if cov_names.count(name) > 1:
                raise DataError(f"{path}:1: covariate {name!r} is named twice")
        entries = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            _check_name(path, lineno, "subject id", row[0])
            covs = {}
            for name, cell in zip(cov_names, row[2:]):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise DataError(f"{path}:{lineno}: covariate {name!r} value "
                                    f"{cell!r} is not a finite number")
                covs[name] = value
            entries.append(ManifestEntry(row[0], row[1], covs))
    return SubjectManifest(covariate_names=cov_names, entries=tuple(entries))


def save_manifest(manifest: SubjectManifest, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "path", *manifest.covariate_names])
        for e in manifest.entries:
            writer.writerow(
                [e.subject_id, e.image_path]
                + [repr(float(e.covariates[c])) for c in manifest.covariate_names]
            )
