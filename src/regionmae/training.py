"""Pretraining and fine-tuning drivers.

Pretraining minimizes mean squared error over masked voxels only; a fresh
mask is sampled every step (at ratio 1.0 the candidate set is exhausted, so
the realized mask is the same fixed set each step). Fine-tuning trains the
classification head (optionally end-to-end) with binary cross-entropy.

Both drivers run one fit loop, ``_fit``, with their own per-sample loss and
validation score: it accumulates per-sample gradients across a batch, steps a
decoupled-weight-decay Adam optimizer that clips the global gradient norm
first, and keeps the parameters of the best-scoring epoch (lowest val loss,
highest val AUROC). A fine-tuning train row takes its accuracy/AUROC from the
epoch's own taped logits; only val and test get extra forwards. ``finetune``
loads the best state for its test evaluation, ``pretrain`` returns it.
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
    if mask.t_patches * mask.t_patch_len != n_t:
        raise ValidationError(
            f"mask covers {mask.t_patches}x{mask.t_patch_len} timepoints, volume has {n_t}")
    lat = mask.to_lattice((x // side, y // side, z // side))  # [gx, gy, gz, T']
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

    groups: dict = {}
    for rec in records:
        groups.setdefault(getattr(rec, "label", None), []).append(rec)

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
            splits[si].extend(group[j] for j in order[start:start + base[si]])
            start += base[si]
    return splits


# ---------------------------------------------------------------------------
# The fit loop shared by both drivers


def _snapshot(model) -> dict[str, np.ndarray]:
    return {k: v.data.copy() for k, v in model.params.items()}


def _fit(model, run: RunConfig, rng, params: dict, samples: Sequence, sample_loss,
         train_row, validate, score):
    """Train ``params``, the rest of ``model.params`` frozen; returns the
    metrics rows and the best score, its epoch and its parameters.

    Each epoch visits ``samples`` in an order drawn from ``rng``; a batch
    accumulates the gradients of ``sample_loss(sample)`` over its size, then
    ``AdamW.step()`` clips and updates. ``train_row(epoch, mean batch loss)``
    and ``validate(epoch)`` (None without a val split) make the epoch's rows.
    The best val row has the highest ``score``; without validation the last
    epoch is the best, scored on its train row.
    """
    opt = AdamW(params, lr=run.lr, weight_decay=run.weight_decay, clip_norm=run.clip_norm)
    metrics: list[MetricsRow] = []
    best_score, best_epoch, best_state = -np.inf, -1, _snapshot(model)
    # parameters left out of the optimizer get no gradients at all
    with frozen(v for k, v in model.params.items() if k not in params):
        for epoch in range(run.epochs):
            order = rng.permutation(len(samples))
            batch_losses = []
            for start in range(0, len(order), run.batch_size):
                batch = order[start:start + run.batch_size]
                opt.zero_grad()
                batch_loss = 0.0
                for j in batch:
                    with Tape() as tape:
                        loss = sample_loss(samples[j])
                        tape.backward(ad.mul(loss, 1.0 / len(batch)))
                    value = float(loss.data)
                    if not np.isfinite(value):
                        raise TrainingError(f"non-finite loss ({value}) at epoch "
                                            f"{epoch}, subject {samples[j][0]}")
                    batch_loss += value / len(batch)
                opt.step()
                batch_losses.append(batch_loss)
            metrics.append(train_row(epoch, float(np.mean(batch_losses))))
            if validate is not None:
                metrics.append(validate(epoch))
            if (score(metrics[-1]) > best_score if validate is not None
                    else epoch == run.epochs - 1):
                best_score, best_epoch, best_state = score(metrics[-1]), epoch, _snapshot(model)
    return metrics, best_score, best_epoch, best_state


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
    already preprocessed; each must span ``sets.grid.volume_shape`` and the
    same number of timepoints, a multiple of the model's ``t_patch``.
    ``sets`` is the PatchSets object the mask spec draws candidates from.
    ``run.seed`` seeds the batch order, every step's mask and the fixed
    validation mask. The best state is returned, not loaded.
    """
    if run.phase != PRETRAIN:
        raise ConfigurationError(f"pretrain needs phase {PRETRAIN}, got {run.phase}")
    if run.mask_spec is None:
        raise ConfigurationError("pretraining needs a mask_spec")
    if not train_vols:
        raise ConfigurationError("empty training set")
    t_patch = model.config.t_patch
    n_t = train_vols[0][1].shape[-1]
    want = (*sets.grid.volume_shape, n_t)
    for sid, vol in (*train_vols, *val_vols):
        if vol.shape != want or n_t % t_patch:
            raise ValidationError(f"subject {sid}: volume shape {vol.shape}, expected "
                                  f"{want}, timepoints a multiple of t_patch {t_patch}")

    def mask_for(seed: int) -> MaskTensor:
        return build_mask(dataclasses.replace(run.mask_spec, seed=seed), sets,
                          n_t // t_patch, t_patch_len=t_patch)

    rng = np.random.default_rng(run.seed)
    val_mask = mask_for(run.seed)

    def sample_loss(sample):
        _, vol = sample
        mask = mask_for(int(rng.integers(2 ** 31)))
        # no local keeps the voxel reconstruction: the backward does not
        # read it, so it is freed before the backward
        return masked_mse(model.forward_pretrain(vol, mask), vol, mask)

    def validate(epoch: int) -> MetricsRow:
        return MetricsRow(epoch, "val", float(np.mean([
            masked_mse(model.forward_pretrain(v, val_mask).data, v, val_mask)
            for _, v in val_vols])))

    metrics, best, best_epoch, best_state = _fit(
        model, run, rng, model.params, train_vols, sample_loss,
        lambda epoch, loss: MetricsRow(epoch, "train", loss),
        validate if val_vols else None, lambda row: -row.loss)
    return PretrainResult(metrics, -best, best_epoch, best_state)


@dataclass
class FinetuneResult:
    """``best_val_auroc`` is the best val AUROC, or the val accuracy where
    the val AUROC is undefined, or without a val split the last train AUROC."""

    metrics: list[MetricsRow]
    best_val_auroc: float
    best_epoch: int
    best_state: dict[str, np.ndarray]
    test_acc: float
    test_auroc: float
    test_loss: float


def _classifier_row(epoch: int, split: str, loss: float, scores, labels) -> MetricsRow:
    labels = np.asarray(labels)
    auc = auroc(scores, labels) if 0 < labels.sum() < len(labels) else None
    return MetricsRow(epoch, split, loss, accuracy(scores, labels), auc)


def _evaluate_classifier(model, samples, epoch: int, split: str) -> MetricsRow:
    """One untaped forward per (subject_id, volume, label) triple."""
    scores = [float(model.forward_classify(vol).data) for _, vol, _ in samples]
    labels = [int(label) for _, _, label in samples]
    losses = [float(np.logaddexp(0.0, z) - z * y) for z, y in zip(scores, labels)]
    return _classifier_row(epoch, split, float(np.mean(losses)), scores, labels)


def finetune(model, train, val, test, run: RunConfig) -> FinetuneResult:
    """Supervised loop over (subject_id, volume, label) triples.

    With ``run.freeze_encoder`` only the ``cls.*`` head is trained. A train
    row's acc/AUROC come from the logits of the epoch's own taped forwards,
    so they describe the weights during the epoch, as its loss does. The
    best state is loaded into ``model`` before the test evaluation.
    """
    if run.phase != FINETUNE:
        raise ConfigurationError(f"finetune needs phase {FINETUNE}, got {run.phase}")
    if not train:
        raise ConfigurationError("empty training set")
    if len({int(lbl) for _, _, lbl in train}) < 2:
        raise ConfigurationError("training split contains a single class")

    params = {k: v for k, v in model.params.items()
              if not run.freeze_encoder or k.startswith("cls.")}
    seen: list[tuple[float, int]] = []  # this epoch's taped (logit, label)

    def sample_loss(sample):
        _, vol, label = sample
        logit = model.forward_classify(vol)
        seen.append((float(logit.data), int(label)))
        return ad.bce_with_logits(ad.reshape(logit, (1,)), np.array([float(label)]))

    def train_row(epoch: int, loss: float) -> MetricsRow:
        scores, labels = zip(*seen)
        seen.clear()
        return _classifier_row(epoch, "train", loss, scores, labels)

    metrics, best_auc, best_epoch, best_state = _fit(
        model, run, np.random.default_rng(run.seed), params, train, sample_loss, train_row,
        (lambda epoch: _evaluate_classifier(model, val, epoch, "val")) if val else None,
        lambda row: row.auroc if row.auroc is not None else row.acc)
    for k, p in model.params.items():
        p.data = best_state[k].copy()

    if test:
        metrics.append(_evaluate_classifier(model, test, run.epochs, "test"))
    t = metrics[-1] if test else MetricsRow(run.epochs, "test", np.nan, np.nan, np.nan)
    return FinetuneResult(metrics, float(best_auc), best_epoch, best_state,
                          t.acc, t.auroc, t.loss)
