"""Temporal resampling, FOV cropping, intensity standardization, and QC gating.

All operations are pure functions over :class:`~regionmae.nifti.Volume4D`
and boolean masks: none writes into its input, so a caller can process
subjects in parallel without coordination. Outputs may share memory with
inputs, though: a pure crop in :func:`crop_fov` returns a view of the
input's data, not a copy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .errors import DegenerateDataError, GeometryError, ValidationError
from .nifti import Volume4D

DICE_FAIL = "DICE_FAIL"
P99_FAIL = "P99_FAIL"

DEFAULT_DICE_THRESHOLD = 0.85
DEFAULT_P99_THRESHOLD = 1.8862
DEFAULT_CLIP = (-5.0, 5.0)
DEFAULT_FOV = (96, 96, 96)
DEFAULT_TR = 0.8
DEFAULT_MASK_FRACTION = 0.2

# x-planes per slab of resample_temporal's in-place interpolation
_RESAMPLE_SLAB = 4


@dataclass
class NormStats:
    """Pre-clip standardization statistics over brain voxels x timepoints."""

    mu: float
    sigma: float
    clip_lo: float = DEFAULT_CLIP[0]
    clip_hi: float = DEFAULT_CLIP[1]

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValidationError("sigma must be non-negative")
        if not self.clip_lo < self.clip_hi:
            raise ValidationError("clip_lo must be below clip_hi")


@dataclass
class QcReport:
    dice: float
    p99: float
    excluded: bool
    reasons: list[str] = field(default_factory=list)
    subject_id: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.dice <= 1.0:
            raise ValidationError(f"dice {self.dice} outside [0, 1]")
        if self.excluded != bool(self.reasons):
            raise ValidationError("excluded flag must mirror non-empty reasons")


@dataclass
class SubjectRecord:
    subject_id: str
    path: str
    label: int | None = None


def read_manifest(path) -> list[SubjectRecord]:
    """Read a subject manifest CSV (columns subject_id, path, label).

    A label is empty (unlabeled), 0 or 1.
    """
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if not {"subject_id", "path"} <= set(reader.fieldnames or ()):
            raise ValidationError(
                f"{path}:1: manifest needs subject_id and path columns")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            subject_id = (row["subject_id"] or "").strip()
            vol_path = (row["path"] or "").strip()
            if not subject_id or not vol_path:
                raise ValidationError(f"{where}: empty subject_id or path")
            if any(r.subject_id == subject_id for r in records):
                raise ValidationError(f"{where}: duplicate subject_id {subject_id!r}")
            raw_label = (row.get("label") or "").strip()
            if raw_label not in ("", "0", "1"):
                raise ValidationError(
                    f"{where}: label must be empty, 0 or 1, got {raw_label!r}")
            records.append(SubjectRecord(subject_id=subject_id, path=vol_path,
                                         label=int(raw_label) if raw_label else None))
    if not records:
        raise ValidationError(f"manifest {path} has no rows")
    return records


def write_manifest(records, path) -> None:
    artifacts.write_csv(path, ["subject_id", "path", "label"],
                        ([rec.subject_id, rec.path, "" if rec.label is None else rec.label]
                         for rec in records))


# ---------------------------------------------------------------------------
# Resampling


def resample_temporal(vol: Volume4D, target_tr: float) -> Volume4D:
    """Linearly resample the time axis to a new sampling interval.

    Output frames sit at k * target_tr for k = 0..K-1, covering the original
    duration (T-1) * tr; constants are preserved exactly.
    """
    if target_tr <= 0:
        raise ValidationError("target_tr must be positive")
    n_t = vol.n_timepoints
    if n_t < 2:
        raise ValidationError("temporal resampling needs at least 2 timepoints")
    tr = vol.tr_seconds
    if abs(tr - target_tr) < 1e-12:
        return Volume4D(data=vol.data.copy(), affine=vol.affine, tr_seconds=target_tr)

    duration = (n_t - 1) * tr
    n_out = int(np.floor(duration / target_tr + 1e-9)) + 1
    pos = np.arange(n_out, dtype=np.float64) * (target_tr / tr)
    i0 = np.minimum(np.floor(pos).astype(np.int64), n_t - 2)
    w = np.clip(pos - i0, 0.0, 1.0).astype(vol.data.dtype if vol.data.dtype == np.float64 else np.float32)
    # lo + w (hi - lo) keeps constant series bit-exact (the delta vanishes).
    # It is built in the gathered copy of hi, one slab of x-planes at a time,
    # so only a slab of lo is ever gathered beside the output.
    data = vol.data[..., i0 + 1]
    out = data if data.dtype == w.dtype else np.empty(data.shape, np.result_type(w, data))
    for x0 in range(0, data.shape[0], _RESAMPLE_SLAB):
        x1 = x0 + _RESAMPLE_SLAB
        lo = vol.data[x0:x1][..., i0]
        delta = data[x0:x1]
        delta -= lo
        slab = np.multiply(w, delta, out=out[x0:x1])
        slab += lo
    return Volume4D(data=out, affine=vol.affine, tr_seconds=target_tr)


def crop_fov(vol: Volume4D, target=DEFAULT_FOV) -> Volume4D:
    """Center-crop (or symmetrically zero-pad) to a fixed field of view.

    A pure crop (no axis of ``vol`` shorter than ``target``'s) returns a
    view of the input's data, so it copies nothing and shares memory with
    ``vol``; once any axis needs padding the result is a fresh zero-filled
    array.
    The affine translation is updated so every retained voxel keeps its
    original mm coordinate.
    """
    target = tuple(int(t) for t in target)
    if len(target) != 3 or any(t <= 0 for t in target):
        raise ValidationError(f"target FOV must be 3 positive ints, got {target}")

    data = vol.data
    src = data.shape[:3]
    start = [(s - t) // 2 for s, t in zip(src, target)]

    if min(start) >= 0:
        out = data[tuple(slice(st, st + t) for st, t in zip(start, target))]
    else:
        out = np.zeros(target + (data.shape[3],), dtype=data.dtype)
        src_lo = [max(st, 0) for st in start]
        src_hi = [min(st + t, s) for st, t, s in zip(start, target, src)]
        dst_lo = [sl - st for sl, st in zip(src_lo, start)]
        dst_hi = [sh - st for sh, st in zip(src_hi, start)]
        out[dst_lo[0]:dst_hi[0], dst_lo[1]:dst_hi[1], dst_lo[2]:dst_hi[2]] = (
            data[src_lo[0]:src_hi[0], src_lo[1]:src_hi[1], src_lo[2]:src_hi[2]]
        )

    affine = np.asarray(vol.affine, dtype=np.float64).copy()
    affine[:3, 3] = (vol.affine @ np.array([start[0], start[1], start[2], 1.0]))[:3]
    return Volume4D(data=out, affine=affine, tr_seconds=vol.tr_seconds)


# ---------------------------------------------------------------------------
# Intensity standardization and QC


def estimate_brain_mask(vol: Volume4D,
                        fraction: float = DEFAULT_MASK_FRACTION) -> np.ndarray:
    """Threshold the temporal-mean image at ``fraction`` of its robust max.

    The robust max is the 98th percentile of the mean image. No
    connected-component pruning is applied. A NaN or infinite voxel makes
    its mean non-finite and raises :class:`ValidationError`.
    """
    if not 0 < fraction < 1:
        raise ValidationError("fraction must lie in (0, 1)")
    mean_img = vol.data.mean(axis=3, dtype=np.float64)
    if not np.isfinite(mean_img).all():
        raise ValidationError("volume has NaN or infinite values")
    robust_max = np.percentile(mean_img, 98)
    mask = mean_img > fraction * robust_max
    if not mask.any():
        raise DegenerateDataError("brain mask is empty (all-zero volume?)")
    return mask


def zscore_clip(vol: Volume4D, mask: np.ndarray, clip=DEFAULT_CLIP):
    """Standardize in-mask intensities to zero mean / unit variance, clip,
    and zero everything outside the mask.

    Returns the normalized volume and the pre-clip statistics.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != vol.spatial_shape:
        raise GeometryError(f"mask shape {mask.shape} != volume shape {vol.spatial_shape}")
    if not mask.any():
        raise DegenerateDataError("mask is empty")
    lo, hi = float(clip[0]), float(clip[1])
    if not lo < hi:
        raise ValidationError("clip bounds must be ordered")

    values = vol.data[mask]  # [n_mask, T]
    mu = float(values.mean(dtype=np.float64))
    sigma = float(values.std(dtype=np.float64))
    del values  # before the output is allocated
    if sigma == 0.0:
        raise DegenerateDataError("constant volume: sigma is zero")

    dtype = np.float64 if vol.data.dtype == np.float64 else np.float32
    z = np.subtract(vol.data, np.asarray(mu, dtype=dtype), dtype=dtype)
    z /= np.asarray(sigma, dtype=dtype)
    np.clip(z, lo, hi, out=z)
    np.copyto(z, 0, where=~mask[..., None])
    return (Volume4D(data=z, affine=vol.affine, tr_seconds=vol.tr_seconds),
            NormStats(mu=mu, sigma=sigma, clip_lo=lo, clip_hi=hi))


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """Dice overlap 2|A∩B| / (|A|+|B|); 0 by convention when both are empty."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise GeometryError(f"mask shapes differ: {a.shape} vs {b.shape}")
    denom = int(a.sum()) + int(b.sum())
    if denom == 0:
        return 0.0
    return 2.0 * int(np.logical_and(a, b).sum()) / denom


def mask_percentile(vol: Volume4D, mask: np.ndarray, q: float = 99.0) -> float:
    """Percentile of in-mask intensities over all voxels x timepoints."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != vol.spatial_shape:
        raise GeometryError("mask shape mismatch")
    if not mask.any():
        raise DegenerateDataError("mask is empty")
    return float(np.percentile(vol.data[mask], q))


def qc_gate(
    dice_value: float,
    p99: float,
    dice_thresh: float = DEFAULT_DICE_THRESHOLD,
    p99_thresh: float = DEFAULT_P99_THRESHOLD,
    subject_id: str = "",
) -> QcReport:
    """Exclusion gate: a subject fails on dice <= dice_thresh or p99 > p99_thresh."""
    if not 0.0 <= dice_value <= 1.0:
        raise ValidationError(f"dice {dice_value} outside [0, 1]")
    reasons = []
    if dice_value <= dice_thresh:
        reasons.append(DICE_FAIL)
    if p99 > p99_thresh:
        reasons.append(P99_FAIL)
    return QcReport(dice=dice_value, p99=p99, excluded=bool(reasons), reasons=reasons,
                    subject_id=subject_id)


def write_qc_csv(reports, path) -> None:
    artifacts.write_csv(path, ["subject_id", "dice", "p99", "excluded", "reasons"],
                        ([rep.subject_id, f"{rep.dice:.6f}", f"{rep.p99:.6f}",
                          str(rep.excluded).lower(), ";".join(rep.reasons)]
                         for rep in reports))


def preprocess_volume(
    vol: Volume4D,
    target_tr: float = DEFAULT_TR,
    fov=DEFAULT_FOV,
    template_mask: np.ndarray | None = None,
    mask_fraction: float = DEFAULT_MASK_FRACTION,
    clip=DEFAULT_CLIP,
    dice_thresh: float = DEFAULT_DICE_THRESHOLD,
    p99_thresh: float = DEFAULT_P99_THRESHOLD,
    subject_id: str = "",
):
    """Full per-subject pipeline: crop, resample in time, standardize, QC.

    The volume is center-cropped to ``fov``, then resampled to ``target_tr``
    along time only. Both act on each voxel's series alone and zero padding
    resamples to exact zeros, so the result is byte-identical to resampling
    first, at the cost of the cropped grid instead of the raw one. The QC
    dice compares the estimated subject mask against ``template_mask`` on
    the cropped grid; with no template the dice gate trivially passes
    (dice = 1.0).
    """
    vol = crop_fov(vol, fov)
    if vol.n_timepoints >= 2 and abs(vol.tr_seconds - target_tr) > 1e-12:
        vol = resample_temporal(vol, target_tr)
    mask = estimate_brain_mask(vol, fraction=mask_fraction)
    normalized, stats = zscore_clip(vol, mask, clip=clip)
    del vol  # the cropped and resampled input, before the QC percentile
    if template_mask is not None:
        template_mask = np.asarray(template_mask, dtype=bool)
        dice_value = dice(mask, template_mask)
    else:
        dice_value = 1.0
    p99 = mask_percentile(normalized, mask, 99.0)
    report = qc_gate(dice_value, p99, dice_thresh, p99_thresh, subject_id=subject_id)
    return normalized, stats, report
