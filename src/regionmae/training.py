"""Pretraining and fine-tuning drivers.

Pretraining minimizes mean squared error over masked voxels only; a fresh
mask is sampled every step (at ratio 1.0 the candidate set is exhausted, so
the realized mask is the same fixed set each step). Fine-tuning trains the
classification head (optionally end-to-end) with binary cross-entropy and
tracks accuracy/AUROC, keeping the parameters with the best validation AUROC
for the final test evaluation.

Both drivers run the same epoch loop, ``_train_epoch``, with their own
per-sample loss: it accumulates per-sample gradients across a batch, then
steps a decoupled-weight-decay Adam optimizer that clips the global gradient
norm first.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import artifacts
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
        # written as "not (x >= 0)" so that NaN fails too
        if not self.lr >= 0:
            raise ValidationError(f"lr must be non-negative, got {self.lr}")
        if not self.clip_norm > 0:
            raise ValidationError(f"clip_norm must be > 0, got {self.clip_norm}")
        if not self.weight_decay >= 0:
            raise ValidationError(f"weight_decay must be non-negative, got {self.weight_decay}")
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
    fmt = lambda v: "" if v is None else f"{v:.10g}"
    artifacts.write_csv(path, ["epoch", "split", "loss", "acc", "auroc"],
                        ([r.epoch, r.split, fmt(r.loss), fmt(r.acc), fmt(r.auroc)]
                         for r in rows))


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
# The batch loop shared by both drivers


def _snapshot(model) -> dict[str, np.ndarray]:
    return {k: v.data.copy() for k, v in model.params.items()}


def _train_epoch(opt: AdamW, rng, samples: Sequence, batch_size: int, epoch: int,
                 sample_loss) -> float:
    """One pass over ``samples`` in a fresh random order; returns the mean
    batch loss.

    ``sample_loss(sample)`` returns a sample's scalar loss tensor and runs
    inside the tape scope. Each batch accumulates the gradients of its
    samples' losses over the batch size, then ``opt.step()`` clips and
    updates. ``samples[i][0]`` is the subject ID a non-finite loss names.
    """
    order = rng.permutation(len(samples))
    batch_losses = []
    for start in range(0, len(order), batch_size):
        batch = order[start:start + batch_size]
        opt.zero_grad()
        batch_loss = 0.0
        for j in batch:
            with Tape() as tape:
                loss = sample_loss(samples[j])
                tape.backward(ad.mul(loss, 1.0 / len(batch)))
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss ({value}) at epoch {epoch}, "
                                    f"subject {samples[j][0]}")
            batch_loss += value / len(batch)
        opt.step()
        batch_losses.append(batch_loss)
    return float(np.mean(batch_losses))


@dataclass
class PretrainResult:
    metrics: list[MetricsRow]
    best_val_loss: float
    best_epoch: int
    best_state: dict[str, np.ndarray]


def pretrain(model, train_vols: Sequence[tuple[str, np.ndarray]],
             val_vols: Sequence[tuple[str, np.ndarray]],
             run: RunConfig, sets) -> PretrainResult:
    """Masked-reconstruction training loop.

    ``train_vols``/``val_vols`` are (subject_id, [X,Y,Z,T] float array) pairs,
    already preprocessed. ``sets`` is the PatchSets object the mask spec draws
    candidates from. ``run.seed`` seeds the batch order, every step's mask
    and the fixed validation mask.
    """
    if run.mask_spec is None:
        raise ConfigurationError("pretraining needs a mask_spec")
    if not train_vols:
        raise ConfigurationError("empty training set")
    t_patch = model.config.t_patch
    t_patches = train_vols[0][1].shape[3] // t_patch

    def mask_for(seed: int) -> MaskTensor:
        return build_mask(dataclasses.replace(run.mask_spec, seed=seed), sets,
                          t_patches, t_patch_len=t_patch)

    opt = AdamW(model.params, lr=run.lr, weight_decay=run.weight_decay,
                clip_norm=run.clip_norm)
    rng = np.random.default_rng(run.seed)
    val_mask = mask_for(run.seed)

    def sample_loss(sample):
        _, vol = sample
        mask = mask_for(int(rng.integers(2 ** 31)))
        # no local keeps the voxel reconstruction: the backward does not
        # read it, so it is freed before the backward
        return masked_mse(model.forward_pretrain(vol, mask), vol, mask)

    metrics: list[MetricsRow] = []
    best_val, best_epoch, best_state = np.inf, -1, _snapshot(model)
    for epoch in range(run.epochs):
        train_loss = _train_epoch(opt, rng, train_vols, run.batch_size, epoch,
                                  sample_loss)
        metrics.append(MetricsRow(epoch, "train", train_loss))
        if val_vols:
            val_loss = float(np.mean([
                masked_mse(model.forward_pretrain(v, val_mask).data, v, val_mask)
                for _, v in val_vols]))
            metrics.append(MetricsRow(epoch, "val", val_loss))
            if val_loss < best_val:
                best_val, best_epoch, best_state = val_loss, epoch, _snapshot(model)

    if not val_vols:
        best_val, best_epoch, best_state = train_loss, run.epochs - 1, _snapshot(model)
    return PretrainResult(metrics, best_val, best_epoch, best_state)


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
    """Supervised loop over (subject_id, volume, label) triples.

    With ``run.freeze_encoder`` only the ``cls.*`` head is trained.
    """
    if not train:
        raise ConfigurationError("empty training set")
    train_labels = {int(lbl) for _, _, lbl in train}
    if len(train_labels) < 2:
        raise ConfigurationError("training split contains a single class")

    params = {k: v for k, v in model.params.items()
              if not run.freeze_encoder or k.startswith("cls.")}
    opt = AdamW(params, lr=run.lr, weight_decay=run.weight_decay,
                clip_norm=run.clip_norm)
    rng = np.random.default_rng(run.seed)

    def sample_loss(sample):
        _, vol, label = sample
        logit = model.forward_classify(vol)
        return ad.bce_with_logits(ad.reshape(logit, (1,)), np.array([float(label)]))

    metrics: list[MetricsRow] = []
    best_auc, best_epoch, best_state = -np.inf, -1, _snapshot(model)
    # parameters left out of the optimizer get no gradients at all
    with frozen(v for k, v in model.params.items() if k not in params):
        for epoch in range(run.epochs):
            train_loss = _train_epoch(opt, rng, train, run.batch_size, epoch,
                                      sample_loss)
            _, tr_acc, tr_auc = _evaluate_classifier(model, train)
            metrics.append(MetricsRow(epoch, "train", train_loss, tr_acc, tr_auc))
            if val:
                v_loss, v_acc, v_auc = _evaluate_classifier(model, val)
                metrics.append(MetricsRow(epoch, "val", v_loss, v_acc, v_auc))
                score = v_auc if v_auc is not None else v_acc
                if score > best_auc:
                    best_auc, best_epoch, best_state = score, epoch, _snapshot(model)

    if val:
        for k, p in model.params.items():
            p.data = best_state[k].copy()
    else:
        best_auc = metrics[-1].auroc if metrics[-1].auroc is not None else np.nan
        best_epoch = run.epochs - 1
        best_state = _snapshot(model)

    t_loss, t_acc, t_auc = _evaluate_classifier(model, test) if test else (np.nan,) * 3
    if test:
        metrics.append(MetricsRow(run.epochs, "test", t_loss, t_acc, t_auc))
    return FinetuneResult(metrics, float(best_auc), best_epoch, best_state,
                          t_acc, t_auc, t_loss)
