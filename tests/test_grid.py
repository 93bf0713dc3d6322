import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uotmorph.errors import DataError, OTFGFormatError
from uotmorph.grid import (
    GridDomain,
    GridMeasure,
    ManifestEntry,
    SubjectManifest,
    downsample,
    load_field,
    load_manifest,
    load_measure,
    save_field,
    save_manifest,
    save_measure,
    voxel_positions,
)


def test_domain_invariants():
    with pytest.raises(DataError):
        GridDomain(dims=(4,), spacing=(1.0,), origin=(0.0,))
    with pytest.raises(DataError):
        GridDomain(dims=(4, 4), spacing=(1.0,), origin=(0.0, 0.0))
    with pytest.raises(DataError):
        GridDomain(dims=(4, 0), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    with pytest.raises(DataError):
        GridDomain(dims=(4, 4), spacing=(1.0, 0.0), origin=(0.0, 0.0))
    for spacing, origin in (((1.0, np.inf), (0.0, 0.0)), ((np.nan, 1.0), (0.0, 0.0)),
                            ((1.0, 1.0), (np.nan, 0.0)), ((1.0, 1.0), (0.0, -np.inf))):
        with pytest.raises(DataError, match="finite"):
            GridDomain(dims=(4, 4), spacing=spacing, origin=origin)


def test_measure_rejects_negatives_and_caches_total():
    dom = GridDomain(dims=(2, 2), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    m = GridMeasure(dom, [0.0, 1.0, 2.0, 3.0])
    assert m.total_mass == 6.0
    with pytest.raises(DataError, match="negative mass"):
        GridMeasure(dom, [0.0, -1.0, 2.0, 3.0])
    with pytest.raises(DataError):
        GridMeasure(dom, [0.0, np.nan, 2.0, 3.0])


def test_measure_values_immutable():
    dom = GridDomain(dims=(2, 2), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    m = GridMeasure(dom, np.arange(4.0))
    with pytest.raises(ValueError):
        m.values[0, 0] = 5.0


def test_voxel_positions_examples():
    d = GridDomain(dims=(2, 2), spacing=(2.0, 2.0), origin=(0.0, 0.0))
    # multi-index (1, 1) has linear index 1*2 + 1 = 3
    assert np.allclose(voxel_positions(d, [3, 0]), [[2.0, 2.0], [0.0, 0.0]])
    d2 = GridDomain(dims=(1, 3), spacing=(1.0, 3.0), origin=(1.0, 0.0))
    assert np.allclose(voxel_positions(d2, [2]), [[1.0, 6.0]])


@given(
    a=st.integers(min_value=1, max_value=6),
    b=st.integers(min_value=1, max_value=6),
    i=st.integers(min_value=0, max_value=5),
    j=st.integers(min_value=0, max_value=5),
)
def test_linear_order_last_axis_fastest(a, b, i, j):
    i, j = i % a, j % b
    d = GridDomain(dims=(a, b), spacing=(1.0, 2.0), origin=(0.0, 0.0))
    lin = i * b + j
    assert np.allclose(voxel_positions(d, [lin]), [[i * 1.0, j * 2.0]])


def test_downsample_sum_pooling():
    dom = GridDomain(dims=(4, 4), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    m = GridMeasure(dom, np.ones((4, 4)))
    out = downsample(m, 2)
    assert out.domain.dims == (2, 2)
    assert out.domain.spacing == (2.0, 2.0)
    assert np.array_equal(out.values, np.full((2, 2), 4.0))
    assert out.total_mass == 16.0


def test_downsample_identity_and_odd_dims():
    dom = GridDomain(dims=(3, 3), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    m = GridMeasure(dom, np.ones((3, 3)))
    assert downsample(m, 1) is m
    out = downsample(m, 2)
    assert out.domain.dims == (2, 2)
    # frozen by hand enumeration of child cells of each coarse voxel
    assert out.values.reshape(-1).tolist() == [4.0, 2.0, 2.0, 1.0]


@given(
    dims=st.tuples(
        st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7)
    ),
    factor=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=50, deadline=None)
def test_downsample_conserves_mass(dims, factor, seed):
    rng = np.random.default_rng(seed)
    dom = GridDomain(dims=dims, spacing=(1.0, 1.0), origin=(0.0, 0.0))
    m = GridMeasure(dom, rng.random(dims))
    out = downsample(m, factor)
    assert abs(out.total_mass - m.total_mass) <= 1e-12 * max(m.total_mass, 1.0)
    assert out.domain.dims == tuple(-(-d // factor) for d in dims)


# ---------------------------------------------------------------------------
# OTFG I/O
# ---------------------------------------------------------------------------


def test_otfg_round_trip(tmp_path):
    dom = GridDomain(dims=(2, 2), spacing=(1.0, 1.5), origin=(-1.0, 2.0))
    m = GridMeasure(dom, [0.0, 1.0, 2.0, 3.0])
    path = tmp_path / "m.otfg"
    save_measure(m, path)
    back = load_measure(path)
    assert back == m
    assert back.total_mass == 6.0
    # byte-identical rewrite
    save_measure(back, tmp_path / "m2.otfg")
    assert (tmp_path / "m.otfg").read_bytes() == (tmp_path / "m2.otfg").read_bytes()


def test_otfg_zero_measure_and_3d(tmp_path):
    dom = GridDomain(dims=(2, 2), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    save_measure(GridMeasure(dom, np.zeros((2, 2))), tmp_path / "z.otfg")
    assert load_measure(tmp_path / "z.otfg").total_mass == 0.0

    dom3 = GridDomain(dims=(4, 4, 4), spacing=(1.0, 1.0, 1.0), origin=(0.0,) * 3)
    vals = np.arange(64, dtype=np.float64).reshape(4, 4, 4)
    save_measure(GridMeasure(dom3, vals), tmp_path / "v.otfg")
    raw = (tmp_path / "v.otfg").read_bytes()
    payload = np.frombuffer(raw[-256:], dtype="<f4")
    assert np.array_equal(payload, np.arange(64, dtype=np.float32))


@given(
    vals=st.lists(
        st.floats(min_value=0, max_value=1e6, width=32, allow_nan=False),
        min_size=4,
        max_size=4,
    )
)
@settings(max_examples=40, deadline=None)
def test_otfg_bit_exact_property(vals, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("otfg")
    dom = GridDomain(dims=(2, 2), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    m = GridMeasure(dom, np.array(vals, dtype=np.float32).astype(np.float64))
    save_measure(m, tmp / "m.otfg")
    back = load_measure(tmp / "m.otfg")
    assert np.array_equal(back.values, m.values)


def test_otfg_negative_value_offset(tmp_path):
    dom = GridDomain(dims=(2, 2), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    save_measure(GridMeasure(dom, [0.0, 1.0, 2.0, 3.0]), tmp_path / "m.otfg")
    raw = bytearray((tmp_path / "m.otfg").read_bytes())
    header = len(raw) - 16
    raw[header + 4 : header + 8] = struct.pack("<f", -1.0)
    (tmp_path / "bad.otfg").write_bytes(bytes(raw))
    with pytest.raises(OTFGFormatError, match="negative mass") as exc:
        load_measure(tmp_path / "bad.otfg")
    assert exc.value.offset == header + 4


def test_otfg_malformed_headers(tmp_path):
    dom = GridDomain(dims=(2, 2), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    good = tmp_path / "m.otfg"
    save_measure(GridMeasure(dom, [0.0, 1.0, 2.0, 3.0]), good)
    raw = good.read_bytes()

    bad = tmp_path / "bad.otfg"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(OTFGFormatError) as exc:
        load_measure(bad)
    assert exc.value.offset == 0

    bad.write_bytes(raw[:4] + struct.pack("<I", 9) + raw[8:])
    with pytest.raises(OTFGFormatError) as exc:
        load_measure(bad)
    assert exc.value.offset == 4

    # truncated payload: dimension mismatch between header and payload
    bad.write_bytes(raw[:-4])
    with pytest.raises(OTFGFormatError, match="payload size mismatch"):
        load_measure(bad)

    # a NaN origin, which would make two equal domains compare unequal
    bad.write_bytes(raw[:44] + struct.pack("<d", np.nan) + raw[52:])
    with pytest.raises(OTFGFormatError, match="origin must be finite") as exc:
        load_measure(bad)
    assert exc.value.offset == 44


def test_signed_field_round_trip(tmp_path):
    dom = GridDomain(dims=(2, 3), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    field = np.array([[-1.5, 0.0, 2.0], [3.0, -4.0, 0.25]])
    save_field(dom, field, tmp_path / "f.otfg")
    dom2, back = load_field(tmp_path / "f.otfg")
    assert dom2 == dom
    assert np.array_equal(back, field)
    # measures cannot be read from signed files
    with pytest.raises(DataError, match="signed"):
        load_measure(tmp_path / "f.otfg")
    # but fields can read plain measures
    save_measure(GridMeasure(dom, np.abs(field)), tmp_path / "m.otfg")
    _, vals = load_field(tmp_path / "m.otfg")
    assert np.array_equal(vals, np.abs(field))


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    manifest = SubjectManifest(
        covariate_names=("age", "cdr"),
        entries=(
            ManifestEntry("s1", "s1.otfg", {"age": 70.0, "cdr": 0.5}),
            ManifestEntry("s2", "s2.otfg", {"age": 81.5, "cdr": 0.0}),
        ),
    )
    path = tmp_path / "manifest.csv"
    save_manifest(manifest, path)
    back = load_manifest(path)
    assert back == manifest
    assert np.allclose(back.covariate_vector("age"), [70.0, 81.5])


def test_manifest_errors(tmp_path):
    with pytest.raises(DataError, match="duplicate"):
        SubjectManifest(
            covariate_names=(),
            entries=(
                ManifestEntry("s1", "a.otfg", {}),
                ManifestEntry("s1", "b.otfg", {}),
            ),
        )
    with pytest.raises(DataError, match="missing covariates"):
        SubjectManifest(
            covariate_names=("age",),
            entries=(ManifestEntry("s1", "a.otfg", {}),),
        )
    p = tmp_path / "bad.csv"
    p.write_text("id,path\n")
    with pytest.raises(DataError, match="header"):
        load_manifest(p)
    p.write_text("subject_id,path,age\ns1,a.otfg,not-a-number\n")
    with pytest.raises(DataError, match="age"):
        load_manifest(p)
    # non-finite covariate values
    for cell in ("nan", "inf", "-Infinity"):
        p.write_text(f"subject_id,path,age\ns1,a.otfg,1.0\ns2,b.otfg,{cell}\n")
        with pytest.raises(DataError, match=re.escape(
                f"{p}:3: covariate 'age' value {cell!r} is not a finite number")):
            load_manifest(p)
    # subject ids and covariate names become file names: none may leave the
    # directory it names a file in, and a covariate is named once
    for name in ("", ".", "..", "../..", "a/b", "a\\b", "a\0b"):
        p.write_text(f"subject_id,path,{name}\ns1,a.otfg,1.0\n")
        with pytest.raises(DataError, match=re.escape(
                f"{p}:1: covariate name {name!r} is not a valid file name")):
            load_manifest(p)
        p.write_text(f"subject_id,path,age\ns1,a.otfg,1.0\n{name},b.otfg,2.0\n")
        with pytest.raises(DataError, match=re.escape(
                f"{p}:3: subject id {name!r} is not a valid file name")):
            load_manifest(p)
    p.write_text("subject_id,path,age,sex,age\ns1,a.otfg,1.0,0.0,2.0\n")
    with pytest.raises(DataError, match=re.escape(f"{p}:1: covariate 'age' is named twice")):
        load_manifest(p)
