import csv
import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from regionmae import attribution
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
from regionmae.model import (
    ALTERNATE,
    CONFIGURATIONS,
    MA,
    MAMBA,
    HybridModel,
    ModelConfig,
)
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
    for field in ("sg_noise_std", "gauss_sigma"):
        with pytest.raises(ValidationError, match=field):
            AttributionConfig(**{field: float("nan")})
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
    real = HybridModel.classify_embedded

    def spy(self, tokens, dims):
        seen.append(tokens.dtype)
        return real(self, tokens, dims)

    monkeypatch.setattr(HybridModel, "classify_embedded", spy)
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


class VoxelOnly:
    """A model seen through ``forward_classify`` alone, so integrated
    gradients runs its passes on the volume, not at the token embedding."""

    def __init__(self, model):
        self.model = model
        self.params = model.params

    def forward_classify(self, vol):
        return self.model.forward_classify(vol)


# the embedding path moves maps by rounding only, and no further
EMBEDDING_TOLERANCE = {np.float32: 1e-6, np.float64: 1e-12}


@pytest.mark.parametrize("conf", CONFIGURATIONS)
def test_token_path_matches_voxel_path_bytewise(rng, conf):
    # passes at the token embedding give the voxel path's map up to
    # rounding; they no longer match it bytewise. Non-cubic patches, so a
    # wrong axis order cannot pass by symmetry
    model = HybridModel(ModelConfig(embed_dim=8, stage_depths=(1, 1), heads=2,
                                    window=(4, 4, 4, 2), ssm_state_dim=4,
                                    patch_size=(2, 3, 4), t_patch=2,
                                    configuration=conf))
    voxels = VoxelOnly(model)
    for dtype, tol in EMBEDDING_TOLERANCE.items():
        x = rng.normal(size=(16, 12, 16, 4)).astype(dtype)
        for baseline in (ZERO, MEAN, rng.normal(size=x.shape),
                         rng.normal(size=x.shape).astype(np.float32)):
            got = integrated_gradients(model, x, baseline, steps=4)
            want = integrated_gradients(voxels, x, baseline, steps=4)
            assert got.flags.c_contiguous and got.dtype == np.float64
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err <= tol, (dtype, baseline, err)
        cfg = AttributionConfig(ig_steps=2, sg_samples=2, baseline=MEAN)
        got = ig_sq(model, x, cfg, seed=5).map3d
        want = ig_sq(voxels, x, cfg, seed=5).map3d
        # squared maps: twice the relative error of the maps
        assert np.abs(got - want).max() <= 2 * tol * np.abs(want).max(), dtype


def test_no_pass_permutes_the_volume(rng, monkeypatch):
    sizes, embeds, held = [], [], []
    real_transpose, real_embed, real_record = (
        ad.transpose, HybridModel.patch_embed, ad.Tape.record)

    def transpose_spy(t, axes):
        sizes.append(t.size)
        return real_transpose(t, axes)

    def embed_spy(self, vol):
        embeds.append(vol.shape)
        return real_embed(self, vol)

    def record_spy(tape, output, backward):
        # the largest array a backward closure keeps, and the op's output
        cells = [c.cell_contents for c in backward.__closure__ or ()]
        held.append(max([a.nbytes for a in cells if isinstance(a, np.ndarray)]
                        + [output.dtype.itemsize * int(np.prod(output.shape))]))
        return real_record(tape, output, backward)

    monkeypatch.setattr(ad, "transpose", transpose_spy)
    monkeypatch.setattr(HybridModel, "patch_embed", embed_spy)
    monkeypatch.setattr(ad.Tape, "record", record_spy)
    model = small_model()  # MA: its attention blocks still transpose
    # 64 tokens: the [k, D0] embedding weight is an eighth of the volume
    x = rng.normal(size=(24, 24, 24, 4)).astype(np.float32)
    integrated_gradients(model, x, ZERO, steps=2)
    assert sizes and max(sizes) < x.size
    assert embeds == []  # the passes start at the embedding
    sizes.clear()
    held.clear()
    integrated_gradients(VoxelOnly(model), x, ZERO, steps=2)
    assert sizes and max(sizes) < x.size
    assert embeds == [x.shape] * 2  # one embedding per pass
    # the embedding keeps only its weight for the volume's gradient
    assert held and max(held) < x.nbytes


def test_explicit_baseline_is_not_copied_into_token_order(rng):
    # float64 passes on a float64 baseline: the token rows (of x0, then of
    # x - x0) take one volume and are dropped before the passes, which run
    # on [N, D0] embeddings; the result takes one volume at the end, and the
    # row gradient is multiplied into it one lattice z-slab at a time. Any
    # other volume held beside it would take a second
    model = HybridModel(ModelConfig(embed_dim=8, stage_depths=(1, 1),
                                    ssm_state_dim=4, configuration=MAMBA))
    x = rng.normal(size=(48, 48, 48, 4))
    x0 = x + 0.1 * rng.normal(size=x.shape)
    integrated_gradients(model, x, x0, steps=2)  # warm the model's caches
    tracemalloc.start()
    try:
        integrated_gradients(model, x, x0, steps=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * x.nbytes, peak / x.nbytes


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
    field = rng.uniform(0.0, 1.0, size=(10, 9, 8))
    smoothed = smooth_per_timepoint(field, 1.5)
    np.testing.assert_allclose(smoothed.sum(), field.sum(), rtol=1e-6)
    np.testing.assert_array_equal(smooth_per_timepoint(field, 0.0), field)


def spy_on_ig(monkeypatch):
    """Copies of what each integrated_gradients call returns (ig_sq squares
    the returned array in place)."""
    calls = []
    real = attribution.integrated_gradients

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(out.copy())
        return out

    monkeypatch.setattr(attribution, "integrated_gradients", spy)
    return calls


def smooth_then_mean(attrs, sigma):
    """The map in the order of the definition: average the squares, smooth
    each timepoint, then take the temporal mean."""
    acc = np.zeros_like(attrs[0])
    for a in attrs:
        acc += a ** 2
    acc /= len(attrs)
    if sigma:
        for t in range(acc.shape[3]):
            acc[..., t] = gaussian_filter(acc[..., t], sigma=sigma, mode="reflect")
    return acc.mean(axis=3)


def test_smoothing_matches_a_per_timepoint_loop(rng):
    field = rng.uniform(0.0, 1.0, size=(11, 8, 6, 3))  # non-cubic
    for t in range(field.shape[3]):
        plane = field[..., t].copy()
        want = gaussian_filter(plane, sigma=1.5, mode="reflect")
        assert smooth_per_timepoint(plane, 1.5).tobytes() == want.tobytes()
    for bad in (field, field[..., 0, 0]):  # only a 3D map is smoothed
        with pytest.raises(ValidationError):
            smooth_per_timepoint(bad, 1.5)


def test_igsq_smooths_once_after_the_temporal_mean(rng, monkeypatch):
    # smoothing is linear and per timepoint, so one smoothing of the mean
    # equals the mean of the smoothed timepoints up to rounding
    calls = spy_on_ig(monkeypatch)
    model = small_model()
    x = rng.normal(size=(12, 12, 12, 4)).astype(np.float32)
    for sigma in (1.0, 0.0):
        calls.clear()
        cfg = AttributionConfig(ig_steps=2, sg_samples=3, gauss_sigma=sigma)
        got = ig_sq(model, x, cfg, seed=3).map3d
        assert len(calls) == 3
        want = smooth_then_mean(calls, sigma)
        if sigma:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        else:
            assert got.tobytes() == want.tobytes()


def test_igsq_without_noise_runs_integrated_gradients_once(rng, monkeypatch):
    calls = spy_on_ig(monkeypatch)
    model = TwoLayerModel(seed=5)
    x = rng.normal(size=SHAPE)
    cfg = AttributionConfig(ig_steps=4, sg_samples=3, sg_noise_std=0.0)
    amap = ig_sq(model, x, cfg)
    assert len(calls) == 1
    ig = integrated_gradients(model, x, ZERO, steps=4)
    want = gaussian_filter((ig ** 2).mean(axis=3), sigma=1.0, mode="reflect")
    np.testing.assert_allclose(amap.map3d, want, rtol=1e-12)


def test_integrated_gradients_releases_memory_once_after_its_passes(rng, monkeypatch):
    events = []
    real = HybridModel.classify_embedded
    monkeypatch.setattr(HybridModel, "classify_embedded",
                        lambda self, *a: events.append("pass") or real(self, *a))
    monkeypatch.setattr(ad, "_malloc_trim", lambda pad: events.append("release"))
    integrated_gradients(small_model(), rng.normal(size=(12, 12, 12, 4)), ZERO, steps=2)
    assert events == ["pass", "pass", "release"]


def test_igsq_holds_no_float64_copies_of_the_volume(rng):
    # float32 passes at 2 x 2: one integrated_gradients call peaks at 2
    # float64 volumes (the mean row gradient and the result); ig_sq adds
    # only the float64 accumulator and the float32 resample (3.5 in all),
    # not a float64 copy of the input, a float64 noisy resample and a
    # zeroed accumulator beside them
    model = HybridModel(ModelConfig(embed_dim=8, stage_depths=(1, 1), heads=2,
                                    ssm_state_dim=4, configuration=ALTERNATE))
    x = rng.normal(size=(48, 48, 48, 4)).astype(np.float32)
    cfg = AttributionConfig(ig_steps=2, sg_samples=2)
    ig_sq(model, x, cfg)  # warm the model's caches
    tracemalloc.start()
    try:
        ig_sq(model, x, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    volume64 = x.size * 8
    assert peak <= 4 * volume64, peak / volume64


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
