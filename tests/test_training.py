import csv
import dataclasses
import math

import numpy as np
import pytest

from regionmae import autodiff as ad
from regionmae.atlas import PatchGrid, RegionMap, classify_patches
from regionmae.autodiff import Tape, Tensor
from regionmae.errors import ConfigurationError, TrainingError, ValidationError
from regionmae.masking import (
    RANDOM_TUBE,
    TUBE,
    MaskSpec,
    MaskTensor,
    build_mask,
)
from regionmae.model import ALTERNATE, MAMBA, HybridModel, ModelConfig
from regionmae.nifti import LabelVolume
from regionmae.optim import AdamW
from regionmae.preprocess import SubjectRecord
from regionmae.training import (
    FINETUNE,
    PRETRAIN,
    MetricsRow,
    RunConfig,
    _voxel_mask,
    finetune,
    masked_mse,
    pretrain,
    split_subjects,
    write_metrics_csv,
)


def simple_sets(shape=(24, 24, 24)):
    atlas = LabelVolume(labels=np.ones(shape, dtype=np.int32), affine=np.eye(4))
    rmap = RegionMap({1: "frontal"})
    return classify_patches(atlas, rmap)


def tiny_model(**kw):
    base = dict(embed_dim=8, stage_depths=(1, 1), heads=2, window=(4, 4, 4, 2),
                ssm_state_dim=4, t_patch=4, configuration=MAMBA)
    base.update(kw)
    return HybridModel(ModelConfig(**base))


# masked objective ---------------------------------------------------------------


def single_slot_mask(n_patches=64, t_patches=2, slot=(5, 1)):
    m = np.zeros((n_patches, t_patches), dtype=bool)
    m[slot] = True
    return MaskTensor(mask=m, voxels_per_patch=216, t_patch_len=4)


def test_voxel_mask_expands_to_the_right_block():
    mt = single_slot_mask()
    vox = _voxel_mask(mt, (24, 24, 24, 8))
    grid = PatchGrid.for_shape((24, 24, 24), (6, 6, 6))
    inside = grid.patch_index_volume() == 5
    expected = np.zeros((24, 24, 24, 8), dtype=bool)
    expected[inside, 4:8] = True
    np.testing.assert_array_equal(vox, expected)


def test_masked_mse_ignores_unmasked_voxels():
    rng = np.random.default_rng(0)
    target = rng.normal(size=(24, 24, 24, 8)).astype(np.float32)
    mt = single_slot_mask()
    vox = _voxel_mask(mt, target.shape)
    recon = target.copy()
    recon[~vox] = 999.0  # garbage everywhere outside the mask
    assert masked_mse(recon, target, mt) == 0.0


def test_masked_mse_constant_offset_is_one():
    target = np.zeros((12, 12, 12, 4), dtype=np.float32)
    mt = MaskTensor(mask=np.ones((8, 1), dtype=bool), voxels_per_patch=216,
                    t_patch_len=4)
    assert masked_mse(target + 1.0, target, mt) == pytest.approx(1.0)


def test_masked_mse_half_off_by_two():
    target = np.zeros((12, 12, 12, 4), dtype=np.float32)
    mt = MaskTensor(mask=np.ones((8, 1), dtype=bool), voxels_per_patch=216,
                    t_patch_len=4)
    recon = target.copy()
    half = np.zeros(target.shape, dtype=bool)
    half.reshape(-1)[::2] = True
    recon[half] += 2.0
    assert masked_mse(recon, target, mt) == pytest.approx(2.0)


def test_masked_mse_empty_mask_rejected():
    target = np.zeros((12, 12, 12, 4), dtype=np.float32)
    mt = MaskTensor(mask=np.zeros((8, 1), dtype=bool), voxels_per_patch=216,
                    t_patch_len=4)
    with pytest.raises(ValidationError):
        masked_mse(target, target, mt)


def test_masked_mse_tensor_path_matches_numpy_and_localizes_grads():
    rng = np.random.default_rng(1)
    target = rng.normal(size=(12, 12, 12, 4)).astype(np.float32)
    recon_np = rng.normal(size=target.shape).astype(np.float32)
    mt = single_slot_mask(n_patches=8, t_patches=1, slot=(3, 0))

    recon = Tensor(recon_np.copy(), requires_grad=True)
    with Tape() as tape:
        loss = masked_mse(recon, target, mt)
        tape.backward(loss)
    assert float(loss.data) == pytest.approx(masked_mse(recon_np, target, mt),
                                             rel=1e-6)
    vox = _voxel_mask(mt, target.shape)
    assert np.all(recon.grad[~vox] == 0.0)
    n = vox.sum()
    np.testing.assert_allclose(recon.grad[vox],
                               2.0 * (recon_np[vox] - target[vox]) / n,
                               rtol=1e-5)


def test_masked_mse_perturbation_outside_mask_changes_nothing():
    rng = np.random.default_rng(2)
    target = rng.normal(size=(12, 12, 12, 4)).astype(np.float32)
    mt = single_slot_mask(n_patches=8, t_patches=1, slot=(2, 0))
    vox = _voxel_mask(mt, target.shape)
    recon = rng.normal(size=target.shape).astype(np.float32)
    base = masked_mse(recon, target, mt)
    for _ in range(20):
        noisy = recon.copy()
        noise = rng.normal(size=target.shape).astype(np.float32)
        noise[vox] = 0.0
        noisy += noise
        assert masked_mse(noisy, target, mt) == base


# splits --------------------------------------------------------------------------


def make_records(n, labels=None):
    return [SubjectRecord(subject_id=f"s{i:03d}", path=f"/data/s{i:03d}.nii",
                          label=None if labels is None else int(labels[i]))
            for i in range(n)]


def test_split_ten_subjects_is_8_1_1():
    tr, va, te = split_subjects(make_records(10), seed=0)
    assert (len(tr), len(va), len(te)) == (8, 1, 1)


def test_split_stratified_balance():
    labels = [0] * 50 + [1] * 50
    tr, va, te = split_subjects(make_records(100, labels), seed=3)
    for part in (tr, va, te):
        ones = sum(r.label for r in part)
        zeros = len(part) - ones
        assert abs(ones - zeros) <= 1


def test_split_disjoint_exhaustive_deterministic():
    recs = make_records(37, labels=np.random.default_rng(0).integers(0, 2, 37))
    a = split_subjects(recs, seed=11)
    b = split_subjects(recs, seed=11)
    c = split_subjects(recs, seed=12)
    ids = lambda split: [r.subject_id for r in split]
    assert [ids(s) for s in a] == [ids(s) for s in b]
    assert [ids(s) for s in a] != [ids(s) for s in c]
    all_ids = sum((ids(s) for s in a), [])
    assert sorted(all_ids) == sorted(r.subject_id for r in recs)
    assert len(set(all_ids)) == len(all_ids)


def test_split_too_few_subjects():
    with pytest.raises(ConfigurationError):
        split_subjects(make_records(9))


# run config ------------------------------------------------------------------------


def test_run_config_validation():
    with pytest.raises(ValidationError):
        RunConfig(phase="TRAIN")
    with pytest.raises(ValidationError):
        RunConfig(epochs=0)
    with pytest.raises(ValidationError):
        RunConfig(lr=-1.0)
    with pytest.raises(ValidationError):
        RunConfig(split=(1.0, 0.0, 0.0))
    assert RunConfig(phase=FINETUNE).phase == FINETUNE


def test_metrics_csv_roundtrip(tmp_path):
    rows = [MetricsRow(0, "train", 0.5), MetricsRow(0, "val", 0.4, 0.9, 0.95)]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, rows)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert back == [
        {"epoch": "0", "split": "train", "loss": "0.5", "acc": "", "auroc": ""},
        {"epoch": "0", "split": "val", "loss": "0.4", "acc": "0.9", "auroc": "0.95"},
    ]


# mask derivation -------------------------------------------------------------------


def test_full_ratio_mask_is_fixed_across_steps():
    sets = simple_sets()
    spec = MaskSpec(strategy=RANDOM_TUBE, ratio=1.0, temporal_mode=TUBE, seed=0)
    m1 = build_mask(dataclasses.replace(spec, seed=1), sets, 2, t_patch_len=4)
    m2 = build_mask(dataclasses.replace(spec, seed=999), sets, 2, t_patch_len=4)
    np.testing.assert_array_equal(m1.mask, m2.mask)


def test_partial_ratio_mask_resamples_each_step():
    sets = simple_sets()
    spec = MaskSpec(strategy=RANDOM_TUBE, ratio=0.5, temporal_mode=TUBE, seed=0)
    m1 = build_mask(dataclasses.replace(spec, seed=1), sets, 2, t_patch_len=4)
    m2 = build_mask(dataclasses.replace(spec, seed=999), sets, 2, t_patch_len=4)
    assert not np.array_equal(m1.mask, m2.mask)


# pretraining -----------------------------------------------------------------------


def pretrain_fixture(seed=0):
    rng = np.random.default_rng(seed)
    vol = rng.uniform(-1, 1, size=(24, 24, 24, 8)).astype(np.float32)
    sets = simple_sets()
    spec = MaskSpec(strategy=RANDOM_TUBE, ratio=1.0, temporal_mode=TUBE, seed=0)
    return vol, sets, spec


def smooth_volume(shape=(24, 24, 24, 8)):
    x, y, z, t = np.meshgrid(*[np.arange(s) for s in shape], indexing="ij")
    f = (np.sin(2 * np.pi * x / shape[0]) * np.cos(2 * np.pi * y / shape[1])
         + 0.5 * np.sin(2 * np.pi * z / shape[2] + 2 * np.pi * t / shape[3]))
    return f.astype(np.float32)


def test_pretrain_overfits_single_subject():
    vol = smooth_volume()
    sets = simple_sets()
    spec = MaskSpec(strategy=RANDOM_TUBE, ratio=0.5, temporal_mode=TUBE, seed=0)
    model = tiny_model()
    run = RunConfig(phase=PRETRAIN, epochs=120, batch_size=8, lr=1e-2, seed=0,
                    mask_spec=spec)
    result = pretrain(model, [("s0", vol)], [("s0", vol)], run, sets)
    val_curve = [m.loss for m in result.metrics if m.split == "val"]
    # judged on a fixed held-out mask so per-step mask resampling noise
    # does not blur the verdict
    assert result.best_val_loss < 0.1 * val_curve[0]
    assert result.best_val_loss == min(val_curve)


def test_pretrain_zero_lr_keeps_loss_constant():
    vol, sets, spec = pretrain_fixture()
    model = tiny_model()
    run = RunConfig(phase=PRETRAIN, epochs=3, batch_size=8, lr=0.0, seed=0,
                    mask_spec=spec)
    result = pretrain(model, [("s0", vol)], [], run, sets)
    curve = [m.loss for m in result.metrics if m.split == "train"]
    assert len(curve) == 3
    assert curve[0] == curve[1] == curve[2]


def test_pretrain_same_seed_same_curve():
    vol, sets, _ = pretrain_fixture()
    spec = MaskSpec(strategy=RANDOM_TUBE, ratio=0.5, temporal_mode=TUBE, seed=0)
    curves = []
    for _ in range(2):
        model = tiny_model()
        run = RunConfig(phase=PRETRAIN, epochs=4, batch_size=8, lr=1e-3, seed=7,
                        mask_spec=spec)
        result = pretrain(model, [("s0", vol)], [("s0", vol)], run, sets)
        curves.append([m.loss for m in result.metrics if m.split == "train"])
    assert curves[0] == curves[1]


def test_pretrain_tracks_best_validation_epoch():
    vol, sets, spec = pretrain_fixture()
    model = tiny_model()
    run = RunConfig(phase=PRETRAIN, epochs=5, batch_size=8, lr=3e-3, seed=1,
                    mask_spec=spec)
    result = pretrain(model, [("s0", vol)], [("s0", vol)], run, sets)
    val_losses = [m.loss for m in result.metrics if m.split == "val"]
    assert result.best_val_loss == min(val_losses)
    assert result.best_epoch == int(np.argmin(val_losses))
    assert set(result.best_state) == set(model.params)


def test_pretrain_requires_mask_spec():
    vol, sets, _ = pretrain_fixture()
    run = RunConfig(phase=PRETRAIN, epochs=1, mask_spec=None)
    with pytest.raises(ConfigurationError):
        pretrain(tiny_model(), [("s0", vol)], [], run, sets)


def test_pretrain_aborts_on_nonfinite_loss():
    vol, sets, spec = pretrain_fixture()
    model = tiny_model()
    model.params["embed.w"].data[0, 0] = np.nan
    run = RunConfig(phase=PRETRAIN, epochs=1, batch_size=8, lr=1e-3, seed=0,
                    mask_spec=spec)
    with pytest.raises(TrainingError):
        pretrain(model, [("s0", vol)], [], run, sets)


# fine-tuning -----------------------------------------------------------------------


def labeled_cohort(n, shift=2.0, seed=0, shape=(12, 12, 12, 4)):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = i % 2
        vol = rng.uniform(-1, 1, size=shape).astype(np.float32) + shift * label
        out.append((f"s{i:02d}", vol, label))
    return out


def test_finetune_separable_reaches_perfect_test_metrics():
    cohort = labeled_cohort(14)
    train, val, test = cohort[:10], cohort[10:12], cohort[12:]
    model = tiny_model(configuration=ALTERNATE)
    run = RunConfig(phase=FINETUNE, epochs=25, batch_size=8, lr=5e-2, seed=0,
                    freeze_encoder=True)
    result = finetune(model, train, val, test, run)
    assert result.test_acc == 1.0
    assert result.test_auroc == 1.0


def test_finetune_end_to_end_flag_also_runs():
    cohort = labeled_cohort(12)
    model = tiny_model(configuration=ALTERNATE)
    run = RunConfig(phase=FINETUNE, epochs=2, batch_size=8, lr=1e-3, seed=0,
                    freeze_encoder=False)
    result = finetune(model, cohort[:8], cohort[8:10], cohort[10:], run)
    splits = {m.split for m in result.metrics}
    assert splits == {"train", "val", "test"}
    assert np.isfinite(result.test_loss)


def test_finetune_single_class_train_rejected():
    cohort = [(f"s{i}", np.zeros((12, 12, 12, 4), dtype=np.float32), 1)
              for i in range(6)]
    run = RunConfig(phase=FINETUNE, epochs=1)
    with pytest.raises(ConfigurationError):
        finetune(tiny_model(), cohort, [], [], run)


def test_finetune_permuted_labels_stay_near_chance():
    rng = np.random.default_rng(3)
    cohort = labeled_cohort(16, shift=2.0, seed=3)
    shuffled_labels = rng.permutation([c[2] for c in cohort])
    cohort = [(sid, vol, int(lbl)) for (sid, vol, _), lbl
              in zip(cohort, shuffled_labels)]
    model = tiny_model(configuration=ALTERNATE)
    run = RunConfig(phase=FINETUNE, epochs=4, batch_size=8, lr=5e-2, seed=0,
                    freeze_encoder=True)
    result = finetune(model, cohort[:12], cohort[12:14], cohort[14:], run)
    train_rows = [m for m in result.metrics if m.split == "train"]
    assert train_rows[-1].auroc is None or 0.0 <= train_rows[-1].auroc <= 1.0
    assert np.isfinite(result.test_loss)


def test_finetune_restores_best_validation_state():
    cohort = labeled_cohort(14)
    train, val, test = cohort[:10], cohort[10:12], cohort[12:]
    model = tiny_model(configuration=ALTERNATE)
    run = RunConfig(phase=FINETUNE, epochs=6, batch_size=8, lr=5e-2, seed=0,
                    freeze_encoder=True)
    result = finetune(model, train, val, test, run)
    for name, arr in result.best_state.items():
        np.testing.assert_array_equal(model.params[name].data, arr)


def test_frozen_encoder_finetune_leaves_encoder_without_gradients():
    cohort = labeled_cohort(8)
    model = tiny_model(configuration=ALTERNATE)
    run = RunConfig(phase=FINETUNE, epochs=2, batch_size=4, lr=5e-2, seed=0,
                    freeze_encoder=True)
    finetune(model, cohort[:6], cohort[6:7], cohort[7:], run)
    assert all(p.requires_grad for p in model.params.values())
    assert all(p.grad is None for name, p in model.params.items()
               if not name.startswith("cls."))
    assert model.params["cls.w"].grad is not None


# both drivers -----------------------------------------------------------------------


def test_both_drivers_step_once_per_batch(monkeypatch):
    steps = []
    step = AdamW.step

    def counted(opt):
        steps.append(opt)
        return step(opt)

    monkeypatch.setattr(AdamW, "step", counted)
    n, batch_size, epochs = 5, 2, 2
    vol, sets, spec = pretrain_fixture()
    pretrain(tiny_model(), [(f"s{i}", vol) for i in range(n)], [],
             RunConfig(phase=PRETRAIN, epochs=epochs, batch_size=batch_size,
                       lr=1e-3, mask_spec=spec), sets)
    assert len(steps) == epochs * math.ceil(n / batch_size)
    assert steps[-1].steps == len(steps)

    steps.clear()
    finetune(tiny_model(configuration=ALTERNATE), labeled_cohort(n), [], [],
             RunConfig(phase=FINETUNE, epochs=epochs, batch_size=batch_size,
                       lr=1e-3, freeze_encoder=True))
    assert len(steps) == epochs * math.ceil(n / batch_size)
    assert steps[-1].steps == len(steps)
