"""Pretraining and fine-tuning drivers.

Pretraining minimizes mean squared error over masked voxels only; a fresh
mask is sampled every step (at ratio 1.0 the candidate set is exhausted, so
the realized mask is the same fixed set each step). Fine-tuning trains the
classification head (optionally end-to-end) with binary cross-entropy and
tracks accuracy/AUROC, keeping the parameters with the best validation AUROC
for the final test evaluation.

Both loops accumulate per-sample gradients across a batch, clip the global
gradient norm, and step a decoupled-weight-decay Adam optimizer.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, frozen
from .errors import ConfigurationError, TrainingError, ValidationError
from .masking import MaskSpec, MaskTensor, build_mask
from .optim import AdamW
from .stats import accuracy, auroc

PRETRAIN = "PRETRAIN"
FINETUNE = "FINETUNE"
PHASES = (PRETRAIN, FINETUNE)


@dataclass(frozen=True)
class RunConfig:
    phase: str = PRETRAIN
    epochs: int = 20
    batch_size: int = 8
    lr: float = 5e-5
    seed: int = 0
    mask_spec: MaskSpec | None = None
    split: tuple[float, float, float] = (8.0, 1.0, 1.0)
    clip_norm: float = 1.0
    weight_decay: float = 0.0
    freeze_encoder: bool = False

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise ValidationError(f"unknown phase {self.phase!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be >= 1")
        if self.lr < 0:
            raise ValidationError("lr must be non-negative")
        if len(self.split) != 3 or any(r <= 0 for r in self.split):
            raise ValidationError("split needs three positive ratios")


@dataclass
class MetricsRow:
    epoch: int
    split: str
    loss: float
    acc: float | None = None
    auroc: float | None = None


def write_metrics_csv(path, rows: Sequence[MetricsRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "split", "loss", "acc", "auroc"])
        for r in rows:
            writer.writerow([
                r.epoch, r.split, f"{r.loss:.10g}",
                "" if r.acc is None else f"{r.acc:.10g}",
                "" if r.auroc is None else f"{r.auroc:.10g}",
            ])


def read_metrics_csv(path) -> list[MetricsRow]:
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(MetricsRow(
                epoch=int(rec["epoch"]), split=rec["split"],
                loss=float(rec["loss"]),
                acc=float(rec["acc"]) if rec["acc"] else None,
                auroc=float(rec["auroc"]) if rec["auroc"] else None,
            ))
    return rows


# ---------------------------------------------------------------------------
# Masked reconstruction objective


def _voxel_mask(mask: MaskTensor, vol_shape) -> np.ndarray:
    """Expand a patch-slot mask to a voxel-level boolean [X, Y, Z, T]."""
    x, y, z, n_t = vol_shape
    vpp = mask.voxels_per_patch
    side = round(vpp ** (1.0 / 3.0))
    if side ** 3 != vpp:
        raise ValidationError(f"voxels_per_patch {vpp} is not a cube")
    if x % side or y % side or z % side:
        raise ValidationError(f"volume {vol_shape} not divisible by patch side {side}")
    gx, gy, gz = x // side, y // side, z // side
    if gx * gy * gz != mask.n_patches:
        raise ValidationError(
            f"mask has {mask.n_patches} patches; volume implies {gx * gy * gz}")
    if mask.t_patches * mask.t_patch_len != n_t:
        raise ValidationError(
            f"mask covers {mask.t_patches}x{mask.t_patch_len} timepoints, volume has {n_t}")
    lat = mask.to_lattice((gx, gy, gz))  # [gx, gy, gz, T']
    out = np.repeat(np.repeat(np.repeat(lat, side, axis=0), side, axis=1),
                    side, axis=2)
    return np.repeat(out, mask.t_patch_len, axis=3)


def masked_mse(recon, target, mask):
    """Mean squared error over masked voxels only.

    ``recon`` may be an autodiff tensor (gradients flow) or a numpy array
    (plain float result). ``mask`` is a patch-slot MaskTensor.
    """
    target = np.asarray(target)
    if isinstance(recon, Tensor):
        target = target.astype(recon.dtype, copy=False)
    shape = recon.shape
    if tuple(shape) != tuple(target.shape):
        raise ValidationError(f"recon {shape} and target {target.shape} differ")
    idx = np.flatnonzero(_voxel_mask(mask, shape).reshape(-1))
    if idx.size == 0:
        raise ValidationError("mask selects no voxels")

    tgt = target.reshape(-1)[idx]
    if isinstance(recon, Tensor):
        flat = ad.reshape(recon, (int(np.prod(shape)),))
        diff = ad.sub(ad.take_rows(flat, idx), Tensor(tgt))
        return ad.mul(ad.sum_sq(diff), 1.0 / idx.size)
    flat = np.asarray(recon).reshape(-1)[idx]
    return float(np.mean((flat.astype(np.float64) - tgt.astype(np.float64)) ** 2))


# ---------------------------------------------------------------------------
# Subject-level splits


def split_subjects(records: Sequence, ratios=(8.0, 1.0, 1.0), seed: int = 0):
    """Deterministic stratified subject-level split into train/val/test."""
    records = list(records)
    if len(records) < 10:
        raise ConfigurationError(f"need at least 10 subjects, got {len(records)}")
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.shape != (3,) or np.any(ratios <= 0):
        raise ConfigurationError("ratios must be three positive numbers")
    ratios = ratios / ratios.sum()

    def label_of(rec):
        return getattr(rec, "label", None)

    groups: dict = {}
    for rec in records:
        groups.setdefault(label_of(rec), []).append(rec)

    rng = np.random.default_rng(seed)
    splits: tuple[list, list, list] = ([], [], [])
    for key in sorted(groups, key=lambda k: (k is None, k)):
        group = groups[key]
        order = rng.permutation(len(group))
        quotas = ratios * len(group)
        base = np.floor(quotas).astype(int)
        remainder = len(group) - base.sum()
        # hand leftovers to the largest fractional quotas, train-first on ties
        for i in np.argsort(-(quotas - base), kind="stable")[:remainder]:
            base[i] += 1
        start = 0
        for si in range(3):
            for j in order[start:start + base[si]]:
                splits[si].append(group[j])
            start += base[si]
    return splits


# ---------------------------------------------------------------------------
# Optimizer plumbing shared by both drivers


def _check_finite(loss_value: float, context: str) -> None:
    if not np.isfinite(loss_value):
        raise TrainingError(f"non-finite loss ({loss_value}) at {context}")


def _select_params(model, freeze_encoder: bool, head_only_names=("cls.",)):
    if not freeze_encoder:
        return dict(model.params)
    return {k: v for k, v in model.params.items()
            if any(k.startswith(p) for p in head_only_names)}


@dataclass
class PretrainResult:
    metrics: list[MetricsRow]
    best_val_loss: float
    best_epoch: int
    best_state: dict[str, np.ndarray]
    loss_curve: list[float] = field(default_factory=list)


def _derive_mask(spec: MaskSpec, sets, t_patches: int, t_patch_len: int,
                 step_seed: int) -> MaskTensor:
    per_step = dataclasses.replace(spec, seed=step_seed)
    return build_mask(per_step, sets, t_patches, t_patch_len=t_patch_len)


def pretrain(model, train_vols: Sequence[tuple[str, np.ndarray]],
             val_vols: Sequence[tuple[str, np.ndarray]],
             run: RunConfig, sets) -> PretrainResult:
    """Masked-reconstruction training loop.

    ``train_vols``/``val_vols`` are (subject_id, [X,Y,Z,T] float array) pairs,
    already preprocessed. ``sets`` is the PatchSets object the mask spec draws
    candidates from.
    """
    if run.mask_spec is None:
        raise ConfigurationError("pretraining needs a mask_spec")
    if not train_vols:
        raise ConfigurationError("empty training set")
    t_patch = model.config.t_patch
    n_t = train_vols[0][1].shape[3]
    t_patches = n_t // t_patch

    opt = AdamW(_select_params(model, freeze_encoder=False), lr=run.lr,
                weight_decay=run.weight_decay, clip_norm=run.clip_norm)
    rng = np.random.default_rng(run.seed)
    val_mask = _derive_mask(run.mask_spec, sets, t_patches, t_patch,
                            step_seed=run.seed)

    metrics: list[MetricsRow] = []
    curve: list[float] = []
    best_val = np.inf
    best_epoch = -1
    best_state: dict[str, np.ndarray] = {
        k: v.data.copy() for k, v in model.params.items()}

    step = 0
    for epoch in range(run.epochs):
        order = rng.permutation(len(train_vols))
        epoch_losses = []
        for start in range(0, len(order), run.batch_size):
            batch = order[start:start + run.batch_size]
            opt.zero_grad()
            batch_loss = 0.0
            for j in batch:
                sid, vol = train_vols[j]
                mask = _derive_mask(run.mask_spec, sets, t_patches, t_patch,
                                    step_seed=int(rng.integers(2 ** 31)))
                with Tape() as tape:
                    # no local keeps the voxel reconstruction: the backward
                    # does not read it, so it is freed before the backward
                    loss = masked_mse(model.forward_pretrain(vol, mask), vol, mask)
                    scaled = ad.mul(loss, 1.0 / len(batch))
                    tape.backward(scaled)
                sample_loss = float(loss.data)
                _check_finite(sample_loss, f"epoch {epoch}, subject {sid}")
                batch_loss += sample_loss / len(batch)
            opt.step()
            epoch_losses.append(batch_loss)
            step += 1
        train_loss = float(np.mean(epoch_losses))
        curve.append(train_loss)
        metrics.append(MetricsRow(epoch, "train", train_loss))

        if val_vols:
            val_losses = [masked_mse(model.forward_pretrain(v, val_mask).data,
                                     v, val_mask) for _, v in val_vols]
            val_loss = float(np.mean(val_losses))
            metrics.append(MetricsRow(epoch, "val", val_loss))
            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                best_state = {k: v.data.copy() for k, v in model.params.items()}

    if not val_vols:
        best_val = curve[-1]
        best_epoch = run.epochs - 1
        best_state = {k: v.data.copy() for k, v in model.params.items()}
    return PretrainResult(metrics, best_val, best_epoch, best_state, curve)


@dataclass
class FinetuneResult:
    metrics: list[MetricsRow]
    best_val_auroc: float
    best_epoch: int
    best_state: dict[str, np.ndarray]
    test_acc: float
    test_auroc: float
    test_loss: float


def _evaluate_classifier(model, samples):
    scores, labels, losses = [], [], []
    for _, vol, label in samples:
        logit = model.forward_classify(vol)
        z = float(logit.data)
        scores.append(z)
        labels.append(int(label))
        losses.append(float(np.logaddexp(0.0, z) - z * label))
    labels_arr = np.asarray(labels)
    acc = accuracy(scores, labels_arr)
    auc = auroc(scores, labels_arr) if 0 < labels_arr.sum() < len(labels_arr) else None
    return float(np.mean(losses)), acc, auc


def finetune(model, train, val, test, run: RunConfig) -> FinetuneResult:
    """Supervised loop over (subject_id, volume, label) triples."""
    if not train:
        raise ConfigurationError("empty training set")
    train_labels = {int(lbl) for _, _, lbl in train}
    if len(train_labels) < 2:
        raise ConfigurationError("training split contains a single class")

    params = _select_params(model, run.freeze_encoder)
    # parameters left out of the optimizer get no gradients at all
    with frozen(v for k, v in model.params.items() if k not in params):
        return _finetune_loop(model, train, val, test, run, params)


def _finetune_loop(model, train, val, test, run: RunConfig, params) -> FinetuneResult:
    opt = AdamW(params, lr=run.lr, weight_decay=run.weight_decay,
                clip_norm=run.clip_norm)
    rng = np.random.default_rng(run.seed)

    metrics: list[MetricsRow] = []
    best_auc = -np.inf
    best_epoch = -1
    best_state = {k: v.data.copy() for k, v in model.params.items()}

    for epoch in range(run.epochs):
        order = rng.permutation(len(train))
        epoch_losses = []
        for start in range(0, len(order), run.batch_size):
            batch = order[start:start + run.batch_size]
            opt.zero_grad()
            batch_loss = 0.0
            for j in batch:
                sid, vol, label = train[j]
                with Tape() as tape:
                    logit = model.forward_classify(vol)
                    loss = ad.bce_with_logits(ad.reshape(logit, (1,)),
                                              np.array([float(label)]))
                    tape.backward(ad.mul(loss, 1.0 / len(batch)))
                sample_loss = float(loss.data)
                _check_finite(sample_loss, f"epoch {epoch}, subject {sid}")
                batch_loss += sample_loss / len(batch)
            opt.step()
            epoch_losses.append(batch_loss)
        train_loss = float(np.mean(epoch_losses))
        tr_loss, tr_acc, tr_auc = _evaluate_classifier(model, train)
        metrics.append(MetricsRow(epoch, "train", train_loss, tr_acc, tr_auc))

        if val:
            v_loss, v_acc, v_auc = _evaluate_classifier(model, val)
            metrics.append(MetricsRow(epoch, "val", v_loss, v_acc, v_auc))
            score = v_auc if v_auc is not None else v_acc
            if score > best_auc:
                best_auc = score
                best_epoch = epoch
                best_state = {k: v.data.copy() for k, v in model.params.items()}

    if val:
        for k, p in model.params.items():
            p.data = best_state[k].copy()
    else:
        best_auc = metrics[-1].auroc if metrics[-1].auroc is not None else np.nan
        best_epoch = run.epochs - 1
        best_state = {k: v.data.copy() for k, v in model.params.items()}

    t_loss, t_acc, t_auc = _evaluate_classifier(model, test) if test else (np.nan,) * 3
    if test:
        metrics.append(MetricsRow(run.epochs, "test", t_loss, t_acc, t_auc))
    return FinetuneResult(metrics, float(best_auc), best_epoch, best_state,
                          t_acc if test else np.nan,
                          t_auc if test else np.nan,
                          t_loss if test else np.nan)
