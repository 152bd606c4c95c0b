import numpy as np
import pytest

from conftest import traced_peak

from regionmae.atlas import MACROREGIONS, classify_patches
from regionmae.errors import ValidationError
from regionmae.nifti import read_nifti
from regionmae.preprocess import preprocess_volume, read_manifest
from regionmae.synth import (
    SLAB,
    SynthConfig,
    brain_ellipsoid,
    synth_cohort,
    synth_subject,
    wedge_atlas,
    write_cohort,
)

CFG = SynthConfig(n_subjects=4, shape=(48, 48, 48), n_timepoints=8, seed=0)


def test_config_validation():
    with pytest.raises(ValidationError):
        SynthConfig(n_subjects=0)
    with pytest.raises(ValidationError):
        SynthConfig(shape=(48, 48))
    with pytest.raises(ValidationError):
        SynthConfig(signal_region="cortexx")
    with pytest.raises(ValidationError):
        SynthConfig(noise_amplitude=-0.1)


def test_ellipsoid_is_plausible():
    mask = brain_ellipsoid((48, 48, 48))
    frac = mask.mean()
    assert 0.2 <= frac <= 0.4  # ellipsoid of radii 0.42 * side
    assert not mask[0, 0, 0] and not mask[-1, -1, -1]
    assert mask[24, 24, 24]


def test_wedge_atlas_covers_all_macroregions():
    atlas, regions = wedge_atlas(CFG)
    mask = brain_ellipsoid(CFG.shape)
    labels = atlas.labels
    present = set(np.unique(labels)) - {0}
    assert present == set(range(1, 15))
    assert np.all(labels[~mask] == 0)
    assert np.all(labels[mask] > 0)
    # every ROI has substance, every macroregion owns exactly two labels
    for label in range(1, 15):
        assert (labels == label).sum() > 500
    for region in MACROREGIONS:
        assert len(regions.labels_for(region)) == 2


def test_cohort_is_deterministic_and_balanced():
    a = synth_cohort(CFG)
    b = synth_cohort(CFG)
    for va, vb in zip(a.volumes, b.volumes):
        np.testing.assert_array_equal(va.data, vb.data)
    c = synth_cohort(SynthConfig(n_subjects=4, seed=1))
    assert not np.array_equal(a.volumes[0].data, c.volumes[0].data)
    assert [r.label for r in a.records] == [0, 1, 0, 1]


def test_intensities_bounded_inside_zero_outside():
    cohort = synth_cohort(CFG)
    mask = cohort.brain_mask
    bound = (1.0 + CFG.signal_amplitude + CFG.noise_amplitude
             + CFG.smooth_amplitude + CFG.temporal_amplitude + 1e-6)
    for vol in cohort.volumes:
        assert np.all(vol.data[~mask] == 0.0)
        inside = vol.data[mask]
        assert inside.min() > 0.0
        assert inside.max() < bound


def test_planted_signal_has_the_right_size():
    cfg = SynthConfig(n_subjects=10, seed=2)
    cohort = synth_cohort(cfg)
    sig = np.isin(cohort.atlas.labels, cohort.regions.labels_for(cfg.signal_region))
    means = {0: [], 1: []}
    for rec, vol in zip(cohort.records, cohort.volumes):
        means[rec.label].append(vol.data[sig].mean())
    gap = np.mean(means[0]) - np.mean(means[1])  # class 1 is dimmer
    assert gap == pytest.approx(cfg.signal_amplitude, abs=0.03)


def test_every_subject_survives_preprocessing_qc():
    cohort = synth_cohort(SynthConfig(n_subjects=6, seed=3))
    for rec, vol in zip(cohort.records, cohort.volumes):
        normalized, stats, report = preprocess_volume(
            vol, fov=cohort.config.shape, template_mask=cohort.brain_mask,
            target_tr=cohort.config.tr_seconds, subject_id=rec.subject_id)
        assert not report.excluded, report.reasons
        assert report.dice == 1.0
        assert report.p99 < 1.80  # comfortable margin under the gate
        inside = normalized.data[cohort.brain_mask]
        assert abs(inside.mean()) < 1e-5
        assert abs(inside.std() - 1.0) < 1e-5


def test_atlas_feeds_patch_classification():
    atlas, regions = wedge_atlas(CFG)
    sets = classify_patches(atlas, regions)
    total_any = sum(len(sets.any_sets[r]) for r in MACROREGIONS)
    assert total_any >= sets.grid.n_patches * 0.3
    for region in MACROREGIONS:
        assert len(sets.majority_sets[region]) > 0


def test_write_cohort_roundtrip(tmp_path):
    cfg = SynthConfig(n_subjects=3, shape=(24, 24, 24), n_timepoints=4, seed=5)
    manifest = write_cohort(cfg, tmp_path)
    records = read_manifest(manifest)
    assert len(records) == 3
    assert [r.label for r in records] == [0, 1, 0]

    cohort = synth_cohort(cfg)
    for rec, vol in zip(records, cohort.volumes):
        back = read_nifti(rec.path, kind="volume")
        assert back.data.dtype == vol.data.dtype
        assert back.data.tobytes() == vol.data.tobytes()
        np.testing.assert_allclose(back.affine, vol.affine, atol=1e-5)
    atlas = read_nifti(tmp_path / "atlas.nii.gz", kind="labels")
    np.testing.assert_array_equal(atlas.labels, cohort.atlas.labels)
    assert (tmp_path / "region_map.csv").exists()
    assert (tmp_path / "brain_mask.nii.gz").exists()
    assert (tmp_path / "synth_params.json").exists()


def test_write_cohort_holds_one_subject_at_a_time(tmp_path):
    cfg = SynthConfig(n_subjects=1, shape=(32, 32, 32), n_timepoints=4, seed=6)
    write_cohort(cfg, tmp_path / "warm")
    _, one = traced_peak(write_cohort, cfg, tmp_path / "one")
    _, four = traced_peak(write_cohort, SynthConfig(
        n_subjects=4, shape=cfg.shape, n_timepoints=4, seed=6), tmp_path / "four")
    volume = 32 ** 3 * 4 * 4  # one float32 subject as written
    assert four - one < volume, (four - one) / volume


def test_synth_subject_builds_the_noise_in_place():
    # the float32 output and float64 slabs; a whole float64 volume and a
    # whole noise draw beside it would be two volumes
    cfg = SynthConfig(shape=(32, 32, 32), n_timepoints=4, seed=7)
    atlas, regions = wedge_atlas(cfg)
    rng = np.random.default_rng(0)
    synth_subject(cfg, rng, 1, atlas, regions)  # warm
    _, peak = traced_peak(synth_subject, cfg, rng, 1, atlas, regions)
    volume64 = 32 ** 3 * 4 * 8
    assert peak < 2 * volume64, peak / volume64


def dense_grids(shape, scale=False):
    return np.meshgrid(*[np.arange(s, dtype=np.float64) / (s if scale else 1)
                         for s in shape], indexing="ij")


def whole_volume_subject(cfg, rng, label, atlas, regions):
    """A subject built the direct way: dense grids, one float64 volume."""
    grids = dense_grids(cfg.shape, scale=True)
    field = np.zeros(cfg.shape)
    weights = rng.uniform(0.5, 1.0, size=3)
    for j in range(3):
        k = rng.integers(1, 4, size=3)
        phase = rng.uniform(0, 2 * np.pi)
        arg = 2 * np.pi * sum(int(k[i]) * grids[i] for i in range(3)) + phase
        field += weights[j] * np.cos(arg)
    base = 1.0 + cfg.smooth_amplitude * field / weights.sum()
    if label:
        in_signal = np.isin(atlas.labels, regions.labels_for(cfg.signal_region))
        base -= cfg.signal_amplitude * in_signal
    t = np.arange(cfg.n_timepoints, dtype=np.float64)
    temporal = cfg.temporal_amplitude * np.sin(
        2 * np.pi * t / max(cfg.n_timepoints, 2) + rng.uniform(0, 2 * np.pi))
    u = rng.uniform(0.0, 1.0, size=(*cfg.shape, cfg.n_timepoints))
    data = base[..., None] + temporal + -cfg.noise_amplitude * np.cos(np.pi * u)
    data[atlas.labels == 0] = 0.0
    return data.astype(np.float32)


@pytest.mark.parametrize("label", [0, 1])
def test_synth_subject_equals_a_whole_volume_build(label):
    cfg = SynthConfig(shape=(2 * SLAB + 5, 20, 14), n_timepoints=5, seed=8)
    assert cfg.shape[0] % SLAB  # a short last slab
    atlas, regions = wedge_atlas(cfg)
    vol = synth_subject(cfg, np.random.default_rng(3), label, atlas, regions)
    want = whole_volume_subject(cfg, np.random.default_rng(3), label, atlas, regions)
    assert vol.data.dtype == np.float32
    assert vol.data.tobytes() == want.tobytes()


def test_atlas_equals_a_dense_grid_build():
    cfg = SynthConfig(shape=(21, 16, 13))
    xs, ys, zs = dense_grids(cfg.shape)
    center = (np.asarray(cfg.shape, dtype=np.float64) - 1) / 2.0
    radii = 0.42 * np.asarray(cfg.shape, dtype=np.float64)
    r2 = sum(((g - c) / r) ** 2 for g, c, r in zip((xs, ys, zs), center, radii))
    phi = np.arctan2(ys - center[1], xs - center[0])
    sector = np.clip(np.floor((phi + np.pi) / (2 * np.pi) * len(MACROREGIONS)),
                     0, len(MACROREGIONS) - 1).astype(np.int32)
    want = np.where(r2 <= 1.0, 1 + 2 * sector + (zs > center[2]), 0)
    np.testing.assert_array_equal(brain_ellipsoid(cfg.shape), r2 <= 1.0)
    atlas, _ = wedge_atlas(cfg)
    assert atlas.labels.dtype == np.int32
    np.testing.assert_array_equal(atlas.labels, want)
