import csv

import numpy as np
import pytest

from regionmae import autodiff as ad
from regionmae.attribution import (
    MEAN,
    ZERO,
    AttributionConfig,
    AttributionMap,
    aggregate_group,
    ig_sq,
    integrated_gradients,
    project_rois,
    smooth_per_timepoint,
    threshold_and_project,
    threshold_map,
    write_roi_csv,
)
from regionmae.autodiff import Tensor
from regionmae.errors import (
    AttributionError,
    ConfigurationError,
    DegenerateDataError,
    ValidationError,
)
from regionmae.model import MA, HybridModel, ModelConfig
from regionmae.nifti import LabelVolume

SHAPE = (6, 6, 6, 2)
N = int(np.prod(SHAPE))


def flat_input(vol):
    if isinstance(vol, Tensor):
        return ad.reshape(vol, (1, int(np.prod(vol.shape))))
    return Tensor(np.asarray(vol, dtype=np.float64).reshape(1, -1))


class LinearModel:
    """f(x) = w . x, the closed-form reference for integrated gradients."""

    def __init__(self, w):
        self.w = Tensor(np.asarray(w, dtype=np.float64).reshape(-1, 1))

    def forward_classify(self, vol):
        return ad.reshape(ad.matmul(flat_input(vol), self.w), ())


class TwoLayerModel:
    def __init__(self, seed=0, hidden=16):
        rng = np.random.default_rng(seed)
        self.w1 = Tensor(rng.normal(0, 0.4, size=(N, hidden)))
        self.b1 = Tensor(rng.normal(0, 0.1, size=(hidden,)))
        self.w2 = Tensor(rng.normal(0, 0.4, size=(hidden, 1)))

    def forward_classify(self, vol):
        h = ad.gelu(ad.add(ad.matmul(flat_input(vol), self.w1), self.b1))
        return ad.reshape(ad.matmul(h, self.w2), ())


def call_f(model, x):
    return float(model.forward_classify(Tensor(np.asarray(x))).data)


# config ---------------------------------------------------------------------------


def test_config_validation():
    AttributionConfig()  # defaults are valid
    with pytest.raises(ValidationError):
        AttributionConfig(ig_steps=1)
    with pytest.raises(ValidationError):
        AttributionConfig(baseline="BLACK")
    with pytest.raises(ValidationError):
        AttributionConfig(sg_samples=0)
    with pytest.raises(ValidationError):
        AttributionConfig(sg_noise_std=-0.1)
    with pytest.raises(ValidationError):
        AttributionConfig(top_percentile=100.0)
    with pytest.raises(ValidationError):
        AttributionConfig(min_roi_voxels=0)


def test_attribution_map_validation():
    with pytest.raises(ValidationError):
        AttributionMap(map3d=np.ones((4, 4)))
    with pytest.raises(AttributionError):
        AttributionMap(map3d=np.full((2, 2, 2), np.nan))
    with pytest.raises(ValidationError):
        AttributionMap(map3d=-np.ones((2, 2, 2)))


# integrated gradients -------------------------------------------------------------


def test_linear_model_gives_w_times_x_exactly(rng):
    w = rng.normal(size=N)
    x = rng.normal(size=SHAPE)
    model = LinearModel(w)
    for steps in (1, 8, 32):
        attr = integrated_gradients(model, x, ZERO, steps=steps)
        np.testing.assert_array_equal(attr, w.reshape(SHAPE) * x)
    attr = integrated_gradients(model, x, ZERO, steps=5)
    np.testing.assert_allclose(attr, w.reshape(SHAPE) * x, rtol=1e-15, atol=0)


def test_input_equal_to_baseline_gives_zero(rng):
    x = np.zeros(SHAPE)
    attr = integrated_gradients(TwoLayerModel(), x, ZERO, steps=4)
    np.testing.assert_array_equal(attr, np.zeros(SHAPE))

    x = rng.normal(size=SHAPE)
    model = LinearModel(rng.normal(size=N))
    attr = integrated_gradients(model, x, baseline=x.copy(), steps=4)
    np.testing.assert_array_equal(attr, np.zeros(SHAPE))


def test_completeness_error_shrinks_with_steps(rng):
    model = TwoLayerModel(seed=1)
    x = rng.normal(size=SHAPE)
    gap = call_f(model, x) - call_f(model, np.zeros(SHAPE))
    errs = []
    for steps in (8, 64, 256):
        attr = integrated_gradients(model, x, ZERO, steps=steps)
        errs.append(abs(attr.sum() - gap) / abs(gap))
    assert errs[2] <= errs[1] <= errs[0]
    assert errs[2] <= 1e-2


def test_completeness_mean_baseline(rng):
    model = TwoLayerModel(seed=2)
    x = rng.normal(size=SHAPE)
    x0 = np.full(SHAPE, x.mean())
    gap = call_f(model, x) - call_f(model, x0)
    attr = integrated_gradients(model, x, MEAN, steps=256)
    assert abs(attr.sum() - gap) / abs(gap) <= 1e-2


def small_model():
    return HybridModel(ModelConfig(embed_dim=8, stage_depths=(1, 1), heads=2,
                                   window=(4, 4, 4, 2), ssm_state_dim=4,
                                   t_patch=4, configuration=MA))


def test_completeness_holds_for_the_real_model(rng):
    # float64 weights and volume, then the float32 model on a float32 volume,
    # whose passes and gap both run in float32
    for dtype in (np.float64, np.float32):
        model = small_model()
        model.to_dtype(dtype)
        x = rng.normal(size=(12, 12, 12, 4)).astype(dtype)
        gap = call_f(model, x) - call_f(model, np.zeros_like(x))
        attr = integrated_gradients(model, x, ZERO, steps=128)
        assert attr.dtype == np.float64
        assert abs(attr.sum() - gap) / abs(gap) <= 2e-2, dtype


def test_float32_volume_runs_float32_passes(rng, monkeypatch):
    seen = []
    real = HybridModel.forward_classify

    def spy(self, vol):
        seen.append(vol.dtype)
        return real(self, vol)

    monkeypatch.setattr(HybridModel, "forward_classify", spy)
    model = small_model()
    x = rng.normal(size=(12, 12, 12, 4)).astype(np.float32)
    integrated_gradients(model, x, ZERO, steps=2)
    ig_sq(model, x, AttributionConfig(ig_steps=2, sg_samples=2))
    assert seen == [np.float32] * 6
    integrated_gradients(model, x.astype(np.float64), ZERO, steps=2)
    assert seen[6:] == [np.float64] * 2


def test_float32_volume_matches_float64_volume(rng):
    model = small_model()  # float32 weights on both paths
    x = rng.normal(size=(12, 12, 12, 4)).astype(np.float32)
    ref = integrated_gradients(model, x.astype(np.float64), ZERO, steps=4)
    got = integrated_gradients(model, x, ZERO, steps=4)
    assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()


def test_zero_baseline_matches_an_explicit_zero_volume(rng):
    # the ZERO baseline skips the zero volume and its add into each point;
    # an explicit zero array still takes that path, so results agree bytewise
    model = small_model()
    for dtype in (np.float32, np.float64):
        x = rng.normal(size=(12, 12, 12, 4)).astype(dtype)
        x[:2] = 0.0
        x[-2:] = -0.0
        got = integrated_gradients(model, x, ZERO, steps=4)
        want = integrated_gradients(model, x, np.zeros(x.shape), steps=4)
        assert got.tobytes() == want.tobytes(), dtype


def test_parameters_get_no_gradients(rng):
    model = small_model()
    x = rng.normal(size=(12, 12, 12, 4)).astype(np.float32)

    def untouched():
        return all(p.grad is None and p.requires_grad
                   for p in model.params.values())

    integrated_gradients(model, x, ZERO, steps=2)
    assert untouched()
    model.params["cls.w"].data[0, 0] = np.nan
    with pytest.raises(AttributionError):
        integrated_gradients(model, x, ZERO, steps=2)
    assert untouched()


def test_nonfinite_gradients_raise(rng):
    model = LinearModel(np.full(N, np.nan))
    with pytest.raises(AttributionError):
        integrated_gradients(model, rng.normal(size=SHAPE), ZERO, steps=2)


def test_bad_steps_and_baseline(rng):
    model = LinearModel(np.ones(N))
    x = rng.normal(size=SHAPE)
    with pytest.raises(ValidationError):
        integrated_gradients(model, x, ZERO, steps=0)
    with pytest.raises(ValidationError):
        integrated_gradients(model, x, np.zeros((2, 2)), steps=2)


# ig-sq ----------------------------------------------------------------------------


def test_igsq_degenerate_equals_plain_squared_ig(rng):
    model = TwoLayerModel(seed=3)
    x = rng.normal(size=SHAPE)
    cfg = AttributionConfig(ig_steps=8, sg_samples=1, sg_noise_std=0.0,
                            gauss_sigma=0.0)
    amap = ig_sq(model, x, cfg)
    plain = integrated_gradients(model, x, ZERO, steps=8)
    np.testing.assert_allclose(amap.map3d, (plain ** 2).mean(axis=3), rtol=1e-12)


def test_igsq_nonnegative_and_deterministic(rng):
    model = TwoLayerModel(seed=4)
    x = rng.normal(size=SHAPE)
    cfg = AttributionConfig(ig_steps=4, sg_samples=3, sg_noise_std=0.2,
                            gauss_sigma=1.0)
    a = ig_sq(model, x, cfg, subject_id="s1", seed=9)
    b = ig_sq(model, x, cfg, subject_id="s1", seed=9)
    assert a.map3d.min() >= 0
    assert np.all(np.isfinite(a.map3d))
    np.testing.assert_array_equal(a.map3d, b.map3d)
    c = ig_sq(model, x, cfg, seed=10)
    assert not np.array_equal(a.map3d, c.map3d)


def test_smoothing_preserves_mass_and_sigma_zero_is_identity(rng):
    field = rng.uniform(0.0, 1.0, size=(10, 9, 8, 3))
    smoothed = smooth_per_timepoint(field, 1.5)
    for t in range(field.shape[3]):
        np.testing.assert_allclose(smoothed[..., t].sum(), field[..., t].sum(),
                                   rtol=1e-6)
    np.testing.assert_array_equal(smooth_per_timepoint(field, 0.0), field)


# aggregation ----------------------------------------------------------------------


def map_of(arr):
    return AttributionMap(map3d=arr)


def test_aggregate_single_map_is_l1_normalized(rng):
    arr = rng.uniform(0.1, 1.0, size=(4, 4, 4))
    out = aggregate_group([map_of(arr)])
    np.testing.assert_allclose(out.map3d, arr / arr.sum(), rtol=1e-12)
    assert out.normalized
    np.testing.assert_allclose(out.map3d.sum(), 1.0, rtol=1e-12)


def test_aggregate_is_scale_invariant(rng):
    arr = rng.uniform(0.1, 1.0, size=(4, 4, 4))
    a = aggregate_group([map_of(arr), map_of(arr * 7.3)])
    b = aggregate_group([map_of(arr), map_of(arr)])
    np.testing.assert_allclose(a.map3d, b.map3d, rtol=1e-12)
    np.testing.assert_allclose(a.map3d, arr / arr.sum(), rtol=1e-12)


def test_aggregate_rejects_zero_map_and_grid_mismatch(rng):
    good = map_of(rng.uniform(0.1, 1.0, size=(4, 4, 4)))
    with pytest.raises(DegenerateDataError):
        aggregate_group([good, map_of(np.zeros((4, 4, 4)))])
    with pytest.raises(ValidationError):
        aggregate_group([good, map_of(np.ones((5, 4, 4)))])
    with pytest.raises(ValidationError):
        aggregate_group([])


# threshold + ROI projection -------------------------------------------------------


def test_threshold_keeps_only_top_percentile(rng):
    gmap = rng.uniform(0.0, 1.0, size=(10, 10, 10))
    out = threshold_map(gmap, 99.0)
    cutoff = np.percentile(gmap, 99.0)
    assert np.all(out[gmap < cutoff] == 0.0)
    np.testing.assert_array_equal(out[gmap >= cutoff], gmap[gmap >= cutoff])
    # roughly 1% of voxels survive
    assert 0.005 <= (out > 0).mean() <= 0.02


def toy_atlas():
    labels = np.zeros((12, 12, 12), dtype=np.int32)
    labels[:6, :, :] = 1          # 864 voxels
    labels[6:, :6, :6] = 2        # 216 voxels
    labels[11, 11, :9] = 3        # 9 voxels -> excluded by default
    return LabelVolume(labels=labels, affine=np.eye(4))


def test_roi_means_ranking_and_small_roi_exclusion():
    atlas = toy_atlas()
    gmap = np.zeros((12, 12, 12))
    gmap[atlas.labels == 1] = 0.2
    gmap[atlas.labels == 2] = 0.5
    gmap[atlas.labels == 3] = 0.9
    cfg = AttributionConfig()
    rows = project_rois(gmap, atlas, cfg, names={1: "front", 2: "deep"})
    assert [r.roi_label for r in rows] == [2, 1]
    assert [r.rank for r in rows] == [1, 2]
    assert rows[0].roi_name == "deep" and rows[0].mean_attr == pytest.approx(0.5)
    assert rows[1].voxels == 864
    # the 9-voxel ROI is included once the floor drops
    rows = project_rois(gmap, atlas, AttributionConfig(min_roi_voxels=9))
    assert [r.roi_label for r in rows] == [3, 2, 1]
    assert rows[0].roi_name == "roi_3"


def test_roi_means_use_pre_threshold_map():
    atlas = toy_atlas()
    rng = np.random.default_rng(0)
    gmap = rng.uniform(0.0, 1.0, size=(12, 12, 12))
    cfg = AttributionConfig(top_percentile=99.0)
    rows, displayed = threshold_and_project(gmap, atlas, cfg)
    by_label = {r.roi_label: r for r in rows}
    for label in (1, 2):
        sel = atlas.labels == label
        assert by_label[label].mean_attr == pytest.approx(gmap[sel].mean())
        # the displayed map is mostly zero, so means computed on it would differ
        assert displayed[sel].mean() < gmap[sel].mean()


def test_constant_map_gives_equal_roi_means():
    atlas = toy_atlas()
    rows = project_rois(np.full((12, 12, 12), 0.7), atlas, AttributionConfig())
    assert all(r.mean_attr == pytest.approx(0.7, rel=1e-12) for r in rows)
    # ties rank by label for a stable report
    assert [r.roi_label for r in rows] == [1, 2]


def test_empty_atlas_rejected():
    atlas = LabelVolume(labels=np.zeros((4, 4, 4), dtype=np.int32),
                        affine=np.eye(4))
    with pytest.raises(ConfigurationError):
        project_rois(np.ones((4, 4, 4)), atlas, AttributionConfig())
    with pytest.raises(ValidationError):
        project_rois(np.ones((5, 4, 4)), toy_atlas(), AttributionConfig())


def test_roi_csv_roundtrip(tmp_path):
    atlas = toy_atlas()
    gmap = np.random.default_rng(1).uniform(size=(12, 12, 12))
    rows = project_rois(gmap, atlas, AttributionConfig(), names={1: "front"})
    path = tmp_path / "rois.csv"
    write_roi_csv(path, rows)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert [(int(r["roi_label"]), r["roi_name"], int(r["voxels"]), int(r["rank"]))
            for r in back] == \
        [(r.roi_label, r.roi_name, r.voxels, r.rank) for r in rows]
    for a, b in zip(back, rows):
        assert float(a["mean_attr"]) == pytest.approx(b.mean_attr, rel=1e-9)
