"""Input attribution for the classifier: integrated gradients, squared
SmoothGrad averaging, per-timepoint spatial smoothing, temporal collapse,
cross-run aggregation, and ROI projection.

The gradient path runs through the same autodiff tape as training; the
volume is wrapped in a differentiable tensor and the scalar logit is
backpropagated to the voxels, with the model's parameters held constant.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .autodiff import Tape, Tensor, frozen
from .errors import (
    AttributionError,
    ConfigurationError,
    DegenerateDataError,
    ValidationError,
)
from .nifti import LabelVolume, Volume4D

ZERO = "ZERO"
MEAN = "MEAN"
BASELINES = (ZERO, MEAN)


@dataclass(frozen=True)
class AttributionConfig:
    ig_steps: int = 32
    baseline: str = ZERO
    sg_samples: int = 8
    sg_noise_std: float = 0.1  # in units of the input's standard deviation
    gauss_sigma: float = 1.0  # voxels
    top_percentile: float = 99.0
    min_roi_voxels: int = 10

    def __post_init__(self) -> None:
        if self.ig_steps < 2:
            raise ValidationError(f"ig_steps must be >= 2, got {self.ig_steps}")
        if self.baseline not in BASELINES:
            raise ValidationError(f"unknown baseline {self.baseline!r}")
        if self.sg_samples < 1:
            raise ValidationError("sg_samples must be >= 1")
        if self.sg_noise_std < 0 or self.gauss_sigma < 0:
            raise ValidationError("noise std and sigma must be non-negative")
        if not 0.0 < self.top_percentile < 100.0:
            raise ValidationError(
                f"top_percentile must lie in (0, 100), got {self.top_percentile}")
        if self.min_roi_voxels < 1:
            raise ValidationError("min_roi_voxels must be >= 1")


@dataclass
class AttributionMap:
    """A non-negative 3D importance map for one subject/seed."""

    map3d: np.ndarray
    subject_id: str = ""
    seed: int = 0
    normalized: bool = False

    def __post_init__(self) -> None:
        self.map3d = np.asarray(self.map3d, dtype=np.float64)
        if self.map3d.ndim != 3:
            raise ValidationError("attribution map must be 3D")
        if not np.all(np.isfinite(self.map3d)):
            raise AttributionError("attribution map contains non-finite values")
        if self.map3d.min() < 0:
            raise ValidationError("attribution map must be non-negative")


def _as_volume_array(vol) -> tuple[np.ndarray, np.dtype]:
    """The volume in float64, and the dtype its classifier passes run at:
    float32 for a float32 volume, float64 otherwise."""
    data = vol.data if isinstance(vol, (Volume4D, Tensor)) else np.asarray(vol)
    if data.ndim != 4:
        raise ValidationError("attribution input must be a 4D volume")
    dtype = np.dtype(np.float32 if data.dtype == np.float32 else np.float64)
    return np.asarray(data, dtype=np.float64), dtype


def _baseline_array(x: np.ndarray, baseline) -> np.ndarray | None:
    """The baseline as a float64 array, or None for the zero baseline."""
    if isinstance(baseline, str):
        if baseline == ZERO:
            return None
        if baseline == MEAN:
            return np.full_like(x, x.mean())
        raise ValidationError(f"unknown baseline {baseline!r}")
    b = np.asarray(baseline, dtype=x.dtype)
    if b.shape != x.shape:
        raise ValidationError(f"baseline shape {b.shape} != input {x.shape}")
    return b


def integrated_gradients(model, vol, baseline=ZERO, steps: int = 32) -> np.ndarray:
    """Riemann-midpoint integrated gradients of the classifier logit.

    Returns (x - x0) * mean of input gradients sampled at the midpoints
    x0 + (k + 0.5)/steps * (x - x0), k = 0..steps-1.

    Each pass runs at the input's precision: a float32 volume gives float32
    path points, anything else float64; the points are built in that dtype
    in one reused buffer. The baseline, the path difference, the gradient
    sum and the result are float64 either way. With the zero baseline the
    path difference is ``x`` itself and a point is ``x`` scaled, so no
    baseline volume is built. The model's parameters are held constant
    during the passes, so only the input gradient is computed and no
    parameter ``.grad`` is touched.
    """
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    x, dtype = _as_volume_array(vol)
    x0 = _baseline_array(x, baseline)
    delta = x if x0 is None else x - x0
    start = None if x0 is None else x0.astype(dtype, copy=False)
    span = delta.astype(dtype, copy=False)
    buf = np.empty_like(span)

    # pairwise accumulation: for power-of-two step counts every combine is
    # a doubling, so a constant gradient averages back to itself bit-exactly
    partials: list[np.ndarray] = []
    with frozen(getattr(model, "params", {}).values()):
        for k in range(steps):
            np.multiply(span, (k + 0.5) / steps, out=buf)
            if start is not None:
                buf += start
            point = Tensor(buf, requires_grad=True)
            with Tape() as tape:
                logit = model.forward_classify(point)
                tape.backward(logit)
            if point.grad is None or not np.all(np.isfinite(point.grad)):
                raise AttributionError(f"non-finite gradient at step {k}")
            node = point.grad.astype(np.float64, copy=True)
            i = k + 1
            while i % 2 == 0:
                node = partials.pop() + node
                i //= 2
            partials.append(node)
    grad_sum = partials.pop()
    while partials:
        grad_sum = partials.pop() + grad_sum
    return delta * (grad_sum / steps)


def smooth_per_timepoint(attr4d: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-smooth each timepoint independently (reflective boundaries)."""
    if sigma == 0:
        return attr4d.copy()
    out = np.empty_like(attr4d)
    for t in range(attr4d.shape[3]):
        out[..., t] = gaussian_filter(attr4d[..., t], sigma=sigma, mode="reflect")
    return out


def ig_sq(model, vol, cfg: AttributionConfig, subject_id: str = "",
          seed: int = 0) -> AttributionMap:
    """Squared integrated gradients averaged over noisy resamples.

    Noise is drawn per sample at sg_noise_std * std(input); the squared
    attributions are averaged, smoothed per timepoint, then collapsed by a
    temporal mean into a single non-negative 3D map. Each noisy resample is
    cast back to the input's dtype, so the passes run at the input's
    precision (float32 for a float32 volume); accumulation is float64.
    """
    x, dtype = _as_volume_array(vol)
    rng = np.random.default_rng(seed)
    scale = float(cfg.sg_noise_std) * float(x.std())

    acc = np.zeros_like(x)
    for _ in range(cfg.sg_samples):
        noisy = x if scale == 0 else x + rng.normal(0.0, scale, size=x.shape)
        attr = integrated_gradients(model, noisy.astype(dtype, copy=False),
                                    cfg.baseline, cfg.ig_steps)
        acc += attr ** 2
    acc /= cfg.sg_samples

    acc = smooth_per_timepoint(acc, cfg.gauss_sigma)
    return AttributionMap(map3d=acc.mean(axis=3), subject_id=subject_id, seed=seed)


def aggregate_group(maps) -> AttributionMap:
    """L1-normalize each map, then average across the group."""
    maps = list(maps)
    if not maps:
        raise ValidationError("aggregate_group needs at least one map")
    arrays = [m.map3d if isinstance(m, AttributionMap) else
              np.asarray(m, dtype=np.float64) for m in maps]
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ValidationError("attribution maps live on different grids")

    acc = np.zeros(shape, dtype=np.float64)
    for i, a in enumerate(arrays):
        total = a.sum()
        if total <= 0:
            raise DegenerateDataError(f"map {i} sums to {total}; cannot normalize")
        acc += a / total
    return AttributionMap(map3d=acc / len(arrays), subject_id="group",
                          normalized=True)


@dataclass
class RoiRow:
    roi_label: int
    roi_name: str
    voxels: int
    mean_attr: float
    rank: int


def threshold_map(group_map: np.ndarray, top_percentile: float) -> np.ndarray:
    """Zero all voxels below the given percentile of the map's values."""
    cutoff = np.percentile(group_map, top_percentile)
    return np.where(group_map >= cutoff, group_map, 0.0)


def project_rois(group_map, atlas: LabelVolume, cfg: AttributionConfig,
                 names: dict[int, str] | None = None) -> list[RoiRow]:
    """Mean attribution per atlas ROI, ranked descending.

    Means are taken on the raw (pre-threshold) map; ROIs smaller than
    cfg.min_roi_voxels are dropped.
    """
    gmap = group_map.map3d if isinstance(group_map, AttributionMap) else \
        np.asarray(group_map, dtype=np.float64)
    if gmap.shape != atlas.labels.shape:
        raise ValidationError(
            f"map grid {gmap.shape} does not match atlas {atlas.labels.shape}")
    labels = atlas.labels
    present = np.unique(labels)
    present = present[present > 0]
    if present.size == 0:
        raise ConfigurationError("atlas contains no ROI labels")

    rows = []
    for label in present:
        sel = labels == label
        n = int(sel.sum())
        if n < cfg.min_roi_voxels:
            continue
        name = (names or {}).get(int(label), f"roi_{int(label)}")
        rows.append(RoiRow(int(label), name, n, float(gmap[sel].mean()), 0))
    rows.sort(key=lambda r: (-r.mean_attr, r.roi_label))
    for i, row in enumerate(rows):
        row.rank = i + 1
    return rows


def threshold_and_project(group_map, atlas: LabelVolume, cfg: AttributionConfig,
                          names: dict[int, str] | None = None):
    """Ranked ROI table plus the percentile-thresholded display map."""
    gmap = group_map.map3d if isinstance(group_map, AttributionMap) else \
        np.asarray(group_map, dtype=np.float64)
    rows = project_rois(gmap, atlas, cfg, names)
    return rows, threshold_map(gmap, cfg.top_percentile)


def write_roi_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["roi_label", "roi_name", "voxels", "mean_attr", "rank"])
        for r in rows:
            writer.writerow([r.roi_label, r.roi_name, r.voxels,
                             f"{r.mean_attr:.10g}", r.rank])
