import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uotmorph.errors import DataError
from uotmorph.grid import GridDomain, load_field
from uotmorph.stats import (
    correlate_stack,
    correlation_p,
    export_map,
    render_pgm_slice,
)


def test_correlate_stack_r_examples():
    # voxels against covariate c: 2c, 8 - 2c, one frozen by the direct
    # formula (sum dx*dy = 1, sxx = syy = 2), and a constant one: untested (NaN)
    stack = np.array([[2.0, 6.0, 1.0, 1.0], [4.0, 4.0, 3.0, 1.0], [6.0, 2.0, 2.0, 1.0]])
    r = correlate_stack(stack, [1, 2, 3]).r
    assert r[:3] == pytest.approx([1.0, -1.0, 0.5], abs=1e-12)
    assert math.isnan(r[3])


@given(
    a=st.floats(min_value=0.1, max_value=50),
    b=st.floats(min_value=-20, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_correlate_stack_r_affine_invariance(a, b, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((8, 3))
    y = rng.standard_normal(8)
    r0 = correlate_stack(x, y).r
    r1 = correlate_stack(a * x + b, y).r
    assert r1 == pytest.approx(r0, abs=1e-12)


def test_correlation_p_examples():
    assert correlation_p(0.0, 10) == pytest.approx(1.0)
    # frozen closed form of the t CDF at one degree of freedom:
    # t = 1/sqrt(3), p = 2*(1 - (1/2 + atan(t)/pi)) = 2/3
    assert correlation_p(0.5, 3) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert correlation_p(1.0, 10) == 0.0
    assert correlation_p(-1.0, 10) == 0.0


def test_correlation_p_matches_scipy_oracle():
    from scipy import stats as sps

    rng = np.random.default_rng(7)
    for n in (4, 10, 37, 120):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        oracle = sps.pearsonr(x, y)
        assert correlation_p(oracle.statistic, n) == pytest.approx(
            oracle.pvalue, rel=1e-9)


def test_correlate_stack_p_raw_matches_scipy_oracle():
    from scipy import stats as sps

    rng = np.random.default_rng(11)
    n = 9
    covariate = rng.standard_normal(n)
    stack = rng.standard_normal((n, 5, 6))
    stack[:, 0, 0] = 2.0  # constant voxel: untested
    cmap = correlate_stack(stack, covariate)
    flat = stack.reshape(n, -1)
    p_raw = cmap.p_raw.reshape(-1)
    assert np.isnan(p_raw[0])
    for v in range(1, flat.shape[1]):
        expected = sps.pearsonr(flat[:, v], covariate).pvalue
        assert p_raw[v] == pytest.approx(expected, rel=1e-9)
    # the array form of correlation_p is the scalar form elementwise
    r = cmap.r.reshape(-1)[1:]
    assert np.array_equal(correlation_p(r, n), [correlation_p(x, n) for x in r])
    assert isinstance(correlation_p(0.25, n), float)


def test_correlation_p_monotone_in_abs_r():
    for n in (5, 20, 60):
        rs = np.linspace(0.0, 0.999, 40)
        ps = [correlation_p(r, n) for r in rs]
        assert all(b < a for a, b in zip(ps, ps[1:]))
        assert correlation_p(-0.5, n) == pytest.approx(correlation_p(0.5, n))


def test_correlate_stack_constant_covariate_errors():
    stack = np.random.default_rng(0).random((5, 4))
    with pytest.raises(DataError, match="zero-variance covariate"):
        correlate_stack(stack, np.ones(5))


def test_correlate_stack_identical_fields_all_untested():
    stack = np.tile(np.arange(6.0), (5, 1))
    cmap = correlate_stack(stack, np.arange(5.0))
    assert cmap.tested_voxel_count == 0
    assert not cmap.significant.any()
    assert np.isnan(cmap.r).all()


def test_correlate_stack_constant_voxel_off_its_float_mean_is_untested():
    # 0.1 * 3 / 3 is an ulp above 0.1, so the constant voxel 0 keeps a tiny
    # sum of squares; only voxel 1 varies and counts for Bonferroni
    stack = np.array([[0.1, 1.0], [0.1, 3.0], [0.1, 2.0]])
    cmap = correlate_stack(stack, np.array([1.0, 2.0, 4.0]))
    assert cmap.tested.tolist() == [False, True]
    assert math.isnan(cmap.r[0])
    assert cmap.tested_voxel_count == 1


def test_correlate_stack_perfect_voxel():
    rng = np.random.default_rng(1)
    n = 8
    cov = np.arange(n, dtype=float)
    stack = rng.standard_normal((n, 5))
    stack[:, 2] = cov  # voxel 2 equals the covariate exactly
    cmap = correlate_stack(stack, cov, alpha=0.05)
    assert cmap.r[2] == pytest.approx(1.0)
    assert cmap.p_adj[2] == pytest.approx(0.0, abs=1e-12)
    assert bool(cmap.significant[2])
    assert cmap.tested_voxel_count == 5


def test_bonferroni_dominance_and_alpha_monotonicity():
    rng = np.random.default_rng(2)
    stack = rng.standard_normal((10, 30))
    cov = rng.standard_normal(10)
    strict = correlate_stack(stack, cov, alpha=0.01)
    loose = correlate_stack(stack, cov, alpha=0.2)
    t = strict.tested
    assert np.all(strict.p_adj[t] >= strict.p_raw[t] - 1e-15)
    assert np.all(strict.p_adj[t] == np.minimum(1.0, strict.p_raw[t] * 30))
    assert set(np.flatnonzero(strict.significant)) <= set(
        np.flatnonzero(loose.significant)
    )


def test_export_map_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    dom = GridDomain(dims=(4, 4), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    stack = rng.standard_normal((6, 16))
    stack[:, 0] = 7.0  # untested voxel
    cov = rng.standard_normal(6)
    cmap = correlate_stack(stack.reshape(6, 4, 4), cov, domain=dom)
    export_map(
        cmap,
        r_path=tmp_path / "r.otfg",
        p_path=tmp_path / "p.otfg",
        csv_path=tmp_path / "s.csv",
    )
    rows = (tmp_path / "s.csv").read_text().strip().splitlines()
    assert rows[0] == "voxel_index,r,p_raw,p_adj,significant"
    assert len(rows) - 1 == cmap.tested_voxel_count == 15
    _, rfield = load_field(tmp_path / "r.otfg")
    assert rfield.shape == (4, 4)
    assert rfield[0, 0] == 0.0  # untested voxel exported as 0 in the field


def test_export_map_empty_when_nothing_tested(tmp_path):
    stack = np.tile(np.arange(4.0), (5, 1))
    cmap = correlate_stack(stack, np.arange(5.0))
    export_map(cmap, csv_path=tmp_path / "s.csv")
    rows = (tmp_path / "s.csv").read_text().strip().splitlines()
    assert rows == ["voxel_index,r,p_raw,p_adj,significant"]


def test_pgm_ramp_endpoints(tmp_path):
    field = np.full((3, 3), 0.65)
    render_pgm_slice(field, tmp_path / "hi.pgm", bound=0.65)
    data = (tmp_path / "hi.pgm").read_bytes()
    header, pixels = data.split(b"255\n", 1)
    assert header == b"P5\n3 3\n"
    assert pixels == bytes([255] * 9)

    render_pgm_slice(np.zeros((3, 3)), tmp_path / "mid.pgm", bound=0.65)
    pixels = (tmp_path / "mid.pgm").read_bytes().split(b"255\n", 1)[1]
    assert pixels == bytes([128] * 9)

    render_pgm_slice(np.full((3, 3), -2.0), tmp_path / "lo.pgm", bound=0.65)
    pixels = (tmp_path / "lo.pgm").read_bytes().split(b"255\n", 1)[1]
    assert pixels == bytes([0] * 9)


def test_pgm_3d_slice_selection(tmp_path):
    field = np.zeros((2, 3, 4))
    field[1] = 0.65
    render_pgm_slice(field, tmp_path / "s.pgm", axis=0, index=1, bound=0.65)
    pixels = (tmp_path / "s.pgm").read_bytes().split(b"255\n", 1)[1]
    assert pixels == bytes([255] * 12)
    # the last index of the last axis is in range
    render_pgm_slice(field, tmp_path / "s.pgm", axis=2, index=3, bound=0.65)
    header, pixels = (tmp_path / "s.pgm").read_bytes().split(b"255\n", 1)
    assert header == b"P5\n3 2\n"
    assert pixels == bytes([128] * 3 + [255] * 3)


@pytest.mark.parametrize("kwargs, message", [
    ({"axis": 0, "index": 3}, "index 3 is outside axis 0 of size 3"),
    ({"axis": 2, "index": 5}, "index 5 is outside axis 2 of size 5"),
    ({"axis": 1, "index": -1}, "index -1 is outside axis 1 of size 4"),
    ({"axis": 3}, "axis 3 is outside the field's 3 axes"),
    ({"axis": -1}, "axis -1 is outside the field's 3 axes"),
    ({"bound": 0.0}, "ramp bound must be positive and finite"),
    ({"bound": math.nan}, "ramp bound must be positive and finite"),
    ({"bound": math.inf}, "ramp bound must be positive and finite"),
], ids=["index-past-end", "index-last-axis", "index-negative", "axis-past-end",
        "axis-negative", "bound-zero", "bound-nan", "bound-inf"])
def test_pgm_slice_out_of_range_raises_and_writes_nothing(tmp_path, kwargs, message):
    with pytest.raises(DataError, match=message):
        render_pgm_slice(np.zeros((3, 4, 5)), tmp_path / "s.pgm", **kwargs)
    assert not (tmp_path / "s.pgm").exists()
