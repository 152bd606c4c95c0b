import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regionmae.errors import DegenerateDataError, GeometryError, ValidationError
from regionmae.nifti import Volume4D
from regionmae.preprocess import (
    DEFAULT_P99_THRESHOLD,
    QcReport,
    SubjectRecord,
    crop_fov,
    dice,
    estimate_brain_mask,
    mask_percentile,
    preprocess_volume,
    qc_gate,
    read_manifest,
    resample_temporal,
    write_manifest,
    write_qc_csv,
    zscore_clip,
)


def vol_of(data, affine=None, tr=1.0):
    return Volume4D(data=np.asarray(data, dtype=np.float32),
                    affine=np.eye(4) if affine is None else affine,
                    tr_seconds=tr)


# -- temporal resampling -----------------------------------------------------

def test_temporal_identity():
    data = np.arange(2 * 2 * 2 * 5, dtype=np.float32).reshape(2, 2, 2, 5)
    vol = vol_of(data, tr=0.8)
    out = resample_temporal(vol, 0.8)
    assert out.n_timepoints == 5
    np.testing.assert_array_equal(out.data, data)


def test_temporal_hand_case():
    series = np.array([0.0, 2.0, 4.0, 6.0], dtype=np.float32)
    data = np.broadcast_to(series, (2, 2, 2, 4)).copy()
    vol = vol_of(data, tr=2.0)
    out = resample_temporal(vol, 0.8)
    # duration 6 s at 0.8 s spacing: samples at 0.0, 0.8, ..., 5.6
    assert out.n_timepoints == 8
    assert out.tr_seconds == pytest.approx(0.8)
    np.testing.assert_allclose(out.data[0, 0, 0], 0.8 * np.arange(8), rtol=1e-6)


def test_temporal_constant_preserved(rng):
    const = rng.uniform(-3, 3, size=(3, 3, 3, 1)).astype(np.float32)
    data = np.repeat(const, 7, axis=3)
    out = resample_temporal(vol_of(data, tr=2.5), 0.8)
    np.testing.assert_array_equal(out.data, np.repeat(const, out.n_timepoints, axis=3))


def test_temporal_too_short():
    with pytest.raises(ValidationError):
        resample_temporal(vol_of(np.zeros((2, 2, 2, 1))), 0.8)


def resample_oracle(data, tr, target_tr):
    """Whole-array linear resampling: lo + w (hi - lo) with full-size gathers."""
    n_t = data.shape[3]
    n_out = int(np.floor((n_t - 1) * tr / target_tr + 1e-9)) + 1
    pos = np.arange(n_out, dtype=np.float64) * (target_tr / tr)
    i0 = np.minimum(np.floor(pos).astype(np.int64), n_t - 2)
    w = np.clip(pos - i0, 0.0, 1.0).astype(data.dtype)
    lo, hi = data[..., i0], data[..., i0 + 1]
    return lo + w * (hi - lo)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_x", [1, 4, 7, 9])  # slabs of 4 x-planes, a partial one last
def test_temporal_matches_whole_array_oracle(rng, dtype, n_x):
    data = rng.normal(100.0, 20.0, size=(n_x, 3, 5, 6)).astype(dtype)
    data[:, 0] = rng.normal(size=(n_x, 5, 1)).astype(dtype)  # constant series
    for tr, target_tr in ((1.2, 0.8), (2.5, 0.8), (0.8, 2.0)):
        out = resample_temporal(Volume4D(data=data, affine=np.eye(4), tr_seconds=tr),
                                target_tr)
        expect = resample_oracle(data, tr, target_tr)
        assert out.data.dtype == dtype
        assert out.data.tobytes() == expect.tobytes()
        np.testing.assert_array_equal(out.data[:, 0], np.repeat(
            data[:, 0, :, :1], out.n_timepoints, axis=-1))


def test_temporal_peak_is_the_output(rng):
    # 64x64x48x6 float32 at TR 1.2 s -> 8 frames at 0.8 s: a 6.3 MB output;
    # a full-size gather of the lower neighbours would double it
    vol = vol_of(rng.normal(size=(64, 64, 48, 6)), tr=1.2)
    tracemalloc.start()
    try:
        out = resample_temporal(vol, 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.data.shape == (64, 64, 48, 8)
    assert peak <= out.data.nbytes + 2 * 2**20


# -- field of view -----------------------------------------------------------

def test_crop_identity():
    data = np.random.default_rng(1).normal(size=(6, 6, 6, 2)).astype(np.float32)
    vol = vol_of(data)
    out = crop_fov(vol, (6, 6, 6))
    np.testing.assert_array_equal(out.data, data)
    np.testing.assert_array_equal(out.affine, np.eye(4))


def test_crop_preserves_mm_coordinates(rng):
    data = rng.normal(size=(10, 10, 10, 1)).astype(np.float32)
    affine = np.diag([2.0, 2.0, 2.0, 1.0])
    affine[:3, 3] = (-9.0, -9.0, -9.0)
    vol = vol_of(data, affine=affine)
    out = crop_fov(vol, (6, 6, 6))
    np.testing.assert_array_equal(out.data[..., 0], data[2:8, 2:8, 2:8, 0])
    # voxel (0,0,0) of the crop is voxel (2,2,2) of the source
    np.testing.assert_allclose(out.affine @ [0, 0, 0, 1], affine @ [2, 2, 2, 1], atol=1e-9)
    np.testing.assert_allclose(out.affine @ [3, 1, 4, 1], affine @ [5, 3, 6, 1], atol=1e-9)


def test_crop_pads_small_input(rng):
    data = rng.normal(size=(4, 4, 4, 2)).astype(np.float32)
    vol = vol_of(data)
    out = crop_fov(vol, (8, 8, 8))
    assert out.data.shape == (8, 8, 8, 2)
    np.testing.assert_array_equal(out.data[2:6, 2:6, 2:6], data)
    border = out.data.copy()
    border[2:6, 2:6, 2:6] = 0
    assert np.all(border == 0)
    np.testing.assert_allclose(out.affine @ [2, 2, 2, 1], np.eye(4) @ [0, 0, 0, 1])


def test_pure_crop_is_a_view(rng):
    data = rng.normal(size=(10, 9, 8, 2)).astype(np.float32)
    for fov in [(6, 6, 6), (10, 9, 8)]:
        assert np.shares_memory(crop_fov(vol_of(data), fov).data, data)


@pytest.mark.parametrize("fov", [(12, 12, 12), (6, 12, 6)])
def test_padded_crop_is_a_copy(rng, fov):
    data = rng.normal(size=(10, 9, 8, 2)).astype(np.float32)
    out = crop_fov(vol_of(data), fov)
    assert out.data.shape == fov + (2,)
    assert not np.shares_memory(out.data, data)


@pytest.mark.parametrize("tr", [0.8, 1.2])
def test_preprocess_volume_leaves_its_input_alone(rng, tr):
    # the crop is a view of the input, so nothing after it may write there
    data = np.zeros((12, 12, 12, 6), dtype=np.float32)
    data[2:10, 2:10, 2:10] = rng.uniform(50, 150, size=(8, 8, 8, 6))
    before = data.copy()
    out, _, _ = preprocess_volume(vol_of(data, tr=tr), fov=(10, 10, 10))
    assert not np.shares_memory(out.data, data)
    assert data.tobytes() == before.tobytes()


# -- standardization ---------------------------------------------------------

def test_zscore_hand_case():
    data = np.zeros((5, 1, 1, 1), dtype=np.float32)
    data[:, 0, 0, 0] = [1, 2, 3, 4, 5]
    mask = np.ones((5, 1, 1), dtype=bool)
    out, stats = zscore_clip(vol_of(data), mask)
    assert stats.mu == pytest.approx(3.0)
    assert stats.sigma == pytest.approx(np.sqrt(2.0))
    expect = np.array([-2, -1, 0, 1, 2]) / np.sqrt(2.0)
    np.testing.assert_allclose(out.data[:, 0, 0, 0], expect, rtol=1e-6)


def test_zscore_outside_mask_zero(rng):
    data = rng.normal(5.0, 2.0, size=(6, 6, 6, 3)).astype(np.float32)
    mask = np.zeros((6, 6, 6), dtype=bool)
    mask[1:5, 1:5, 1:5] = True
    out, _ = zscore_clip(vol_of(data), mask)
    assert np.all(out.data[~mask] == 0)
    assert np.any(out.data[mask] != 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zscore_matches_direct_formula(rng, dtype):
    # far below the in-mask mean, so a zeroing that kept the sign of the
    # z-score would leave -0.0 outside the mask
    data = rng.normal(100.0, 10.0, size=(9, 8, 7, 4)).astype(dtype)
    mask = rng.uniform(size=(9, 8, 7)) < 0.6
    data[~mask] = -50.0
    out, stats = zscore_clip(Volume4D(data=data, affine=np.eye(4)), mask,
                             clip=(-2.0, 2.0))
    values = data[mask]
    mu, sigma = values.mean(dtype=np.float64), values.std(dtype=np.float64)
    want = ((data - dtype(mu)) / dtype(sigma)).clip(-2.0, 2.0).astype(dtype)
    want[~mask] = 0
    assert (stats.mu, stats.sigma) == (float(mu), float(sigma))
    assert out.data.dtype == dtype
    assert out.data.tobytes() == want.tobytes()
    assert not np.signbit(out.data[~mask]).any()


def test_zscore_clips_extremes():
    # 99 zeros and one spike: z(spike) = 990/99.5 ~ 9.9, well past the bound
    data = np.zeros((100, 1, 1, 1), dtype=np.float32)
    data[0, 0, 0, 0] = 1000.0
    mask = np.ones((100, 1, 1), dtype=bool)
    out, stats = zscore_clip(vol_of(data), mask)
    assert (1000.0 - stats.mu) / stats.sigma > 5.0
    assert out.data.max() == pytest.approx(5.0)
    assert out.data.min() >= -5.0


def test_zscore_moment_invariant(rng):
    # uniform data keeps all z-scores well inside the clip range
    data = rng.uniform(10.0, 20.0, size=(12, 12, 12, 6)).astype(np.float32)
    mask = rng.uniform(size=(12, 12, 12)) < 0.7
    out, _ = zscore_clip(vol_of(data), mask)
    values = out.data[mask].astype(np.float64)
    assert abs(values.mean()) <= 1e-6
    assert abs(values.std() - 1.0) <= 1e-6


def test_zscore_constant_rejected():
    data = np.full((3, 3, 3, 2), 7.0, dtype=np.float32)
    mask = np.ones((3, 3, 3), dtype=bool)
    with pytest.raises(DegenerateDataError):
        zscore_clip(vol_of(data), mask)


def test_zscore_empty_mask_rejected():
    with pytest.raises(DegenerateDataError):
        zscore_clip(vol_of(np.ones((3, 3, 3, 1))), np.zeros((3, 3, 3), dtype=bool))


# -- brain mask and dice -----------------------------------------------------

def test_brain_mask_bright_cube():
    data = np.zeros((16, 16, 16, 2), dtype=np.float32)
    data[4:9, 4:9, 4:9] = 100.0
    mask = estimate_brain_mask(vol_of(data))
    expect = np.zeros((16, 16, 16), dtype=bool)
    expect[4:9, 4:9, 4:9] = True
    np.testing.assert_array_equal(mask, expect)


def test_brain_mask_constant_full():
    mask = estimate_brain_mask(vol_of(np.full((5, 5, 5, 1), 3.0)))
    assert mask.all()


def test_brain_mask_two_blobs():
    data = np.zeros((20, 10, 10, 1), dtype=np.float32)
    data[2:5, 2:5, 2:5] = 50.0
    data[14:17, 2:5, 2:5] = 80.0
    mask = estimate_brain_mask(vol_of(data))
    assert mask[3, 3, 3] and mask[15, 3, 3]
    assert mask.sum() == 2 * 27


def test_brain_mask_all_zero_rejected():
    with pytest.raises(DegenerateDataError):
        estimate_brain_mask(vol_of(np.zeros((4, 4, 4, 1))))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_brain_mask_non_finite_voxel_rejected(bad):
    data = np.zeros((16, 16, 16, 2), dtype=np.float32)
    data[4:9, 4:9, 4:9] = 100.0
    data[6, 6, 6, 1] = bad
    with pytest.raises(ValidationError, match="NaN or infinite"):
        estimate_brain_mask(vol_of(data))


def test_dice_hand_cases():
    a = np.zeros((5,), dtype=bool)
    b = np.zeros((5,), dtype=bool)
    a[:3] = True
    b[1:4] = True
    assert dice(a, b) == pytest.approx(4 / 6)
    assert dice(a, a) == 1.0
    assert dice(a, ~a) == 0.0
    assert dice(np.zeros(3, bool), np.zeros(3, bool)) == 0.0
    with pytest.raises(GeometryError):
        dice(np.zeros(3, bool), np.zeros(4, bool))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**30 - 1))
def test_dice_symmetric_bounded(seed):
    r = np.random.default_rng(seed)
    a = r.uniform(size=(6, 6)) < 0.4
    b = r.uniform(size=(6, 6)) < 0.4
    d1, d2 = dice(a, b), dice(b, a)
    assert d1 == d2
    assert 0.0 <= d1 <= 1.0


# -- QC gate -----------------------------------------------------------------

def test_qc_gate_pass():
    rep = qc_gate(0.94, 1.5)
    assert not rep.excluded and rep.reasons == []


def test_qc_gate_dice_fail():
    rep = qc_gate(0.84, 1.0)
    assert rep.excluded and rep.reasons == ["DICE_FAIL"]


def test_qc_gate_p99_fail():
    rep = qc_gate(0.90, 1.90)
    assert rep.excluded and rep.reasons == ["P99_FAIL"]


def test_qc_gate_boundaries():
    assert qc_gate(0.85, 1.0).excluded  # dice at threshold is a failure
    assert not qc_gate(0.86, 1.8862).excluded  # p99 at threshold passes
    both = qc_gate(0.5, 99.0)
    assert both.reasons == ["DICE_FAIL", "P99_FAIL"]


def test_qc_report_consistency_enforced():
    with pytest.raises(ValidationError):
        QcReport(dice=0.9, p99=1.0, excluded=True, reasons=[])


def test_iqr_threshold_hand_case():
    # the default p99 gate is the Tukey fence Q3 + 1.5 IQR of the cohort
    q1, q3 = 1.2646, 1.5132
    thr = q3 + 1.5 * (q3 - q1)
    assert thr == pytest.approx(DEFAULT_P99_THRESHOLD, abs=5e-4)


# -- files -------------------------------------------------------------------

def test_manifest_roundtrip(tmp_path):
    records = [
        SubjectRecord("s01", "/data/s01.nii.gz", 1),
        SubjectRecord("s02", "/data/s02.nii.gz", 0),
        SubjectRecord("s03", "/data/s03.nii.gz", None),
    ]
    p = tmp_path / "manifest.csv"
    write_manifest(records, p)
    back = read_manifest(p)
    assert back == records


def test_qc_csv_roundtrip(tmp_path):
    reports = [qc_gate(0.9, 1.2, subject_id="a"), qc_gate(0.3, 9.9, subject_id="b")]
    p = tmp_path / "qc.csv"
    write_qc_csv(reports, p)
    with open(p, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert [r["subject_id"] for r in back] == ["a", "b"]
    assert back[0]["excluded"] == "false"
    assert back[1]["reasons"].split(";") == ["DICE_FAIL", "P99_FAIL"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("src, fov", [
    ((9, 10, 11), (6, 6, 6)),  # crop every axis
    ((4, 5, 3), (8, 8, 8)),  # zero-pad every axis
    ((9, 4, 7), (6, 8, 7)),  # crop, pad and keep
])
def test_crop_commutes_with_temporal_resampling(rng, dtype, src, fov):
    data = rng.normal(100.0, 20.0, size=src + (6,)).astype(dtype)
    affine = np.diag([2.0, 2.5, 3.0, 1.0])
    affine[:3, 3] = (-9.0, 4.0, 1.5)
    vol = Volume4D(data=data, affine=affine, tr_seconds=1.2)
    cropped_first = resample_temporal(crop_fov(vol, fov), 0.8)
    resampled_first = crop_fov(resample_temporal(vol, 0.8), fov)
    assert cropped_first.data.shape == fov + (8,)
    assert cropped_first.data.dtype == resampled_first.data.dtype == dtype
    assert cropped_first.data.tobytes() == resampled_first.data.tobytes()
    assert cropped_first.affine.tobytes() == resampled_first.affine.tobytes()
    assert cropped_first.tr_seconds == resampled_first.tr_seconds


# -- end to end --------------------------------------------------------------

def test_preprocess_volume_pipeline(rng):
    # uniform in-mask intensities: normalized p99 ~ 1.70, inside the QC fence
    data = np.zeros((20, 20, 20, 6), dtype=np.float32)
    data[4:16, 4:16, 4:16] = rng.uniform(50, 150, size=(12, 12, 12, 6))
    vol = vol_of(data, tr=0.8)
    template = np.zeros((16, 16, 16), dtype=bool)
    template[2:14, 2:14, 2:14] = True

    out, stats, report = preprocess_volume(
        vol, target_tr=0.8, fov=(16, 16, 16), template_mask=template, subject_id="s1",
    )
    assert out.data.shape[:3] == (16, 16, 16)
    assert out.tr_seconds == pytest.approx(0.8)
    assert stats.sigma > 0
    assert report.subject_id == "s1"
    assert report.dice == pytest.approx(1.0)  # crop centers the cube on the template
    assert not report.excluded
    mask = estimate_brain_mask(crop_fov(vol, (16, 16, 16)))
    assert np.all(out.data[~mask] == 0)
