"""Input attribution for the classifier: integrated gradients, squared
SmoothGrad averaging, temporal collapse, spatial smoothing, cross-run
aggregation, and ROI projection.

The gradient path runs through the same autodiff tape as training; each
path point is wrapped in a differentiable tensor (the model's token
embeddings, or the volume for a model seen only through
``forward_classify``) and the scalar logit is backpropagated to it, with
the model's parameters held constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from . import artifacts
from .autodiff import Tape, Tensor, frozen, releases_freed_memory
from .errors import (
    AttributionError,
    ConfigurationError,
    DegenerateDataError,
    ValidationError,
)
from .nifti import LabelVolume

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
        # written as "not (x >= 0)" so that NaN fails too
        if not self.sg_noise_std >= 0:
            raise ValidationError(
                f"sg_noise_std must be non-negative, got {self.sg_noise_std}")
        if not self.gauss_sigma >= 0:
            raise ValidationError(
                f"gauss_sigma must be non-negative, got {self.gauss_sigma}")
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


def _volume_data(vol) -> tuple[np.ndarray, np.dtype]:
    """The volume as an array, and the dtype its classifier passes run at:
    float32 for a float32 volume, float64 otherwise."""
    data = np.asarray(vol)
    if data.ndim != 4:
        raise ValidationError("attribution input must be a 4D volume")
    return data, np.dtype(np.float32 if data.dtype == np.float32 else np.float64)


def _baseline(data: np.ndarray, baseline) -> np.ndarray | None:
    """The baseline in float64: None for ZERO, the 0-d mean for MEAN, else
    an array of the input's shape."""
    if isinstance(baseline, str):
        if baseline == ZERO:
            return None
        if baseline == MEAN:
            # of a float64 copy: a float32 volume's mean(dtype=float64) sums
            # in buffered chunks and can differ in the last bit
            return np.float64(np.asarray(data, dtype=np.float64).mean())
        raise ValidationError(f"unknown baseline {baseline!r}")
    b = np.asarray(baseline, dtype=np.float64)
    if b.shape != data.shape:
        raise ValidationError(f"baseline shape {b.shape} != input {data.shape}")
    return b


def _volume_path(model, data: np.ndarray, x0, dtype):
    """The path on the volume as given, for a model seen only through
    ``forward_classify``: ``(span, start, classify, times_gradient)``.

    ``span`` is ``x - x0``, taken in float64 and rounded to the pass dtype;
    ``start`` is ``x0`` in the pass dtype (a 0-d value for the mean
    baseline), or None for the zero baseline. The gradients are in voxel
    order already, so ``times_gradient(out, grad)`` is ``out *= grad``.
    """
    if x0 is None:
        span, start = np.asarray(data, dtype=dtype, order="C"), None
    else:
        span = np.empty(data.shape, dtype=dtype)
        np.subtract(data, x0, out=span, dtype=np.float64)
        start = x0.astype(dtype, copy=False)
    return span, start, model.forward_classify, lambda out, grad: np.multiply(out, grad, out=out)


def _embedding_path(model, data: np.ndarray, x0, dtype):
    """The path at the token embedding: ``(span, start, classify,
    times_gradient)``.

    The model's first layer is the affine ``embed``, ``rows @ W + b``, so
    the straight path from ``x0`` to ``x`` is the straight path from
    ``x0_rows @ W + b`` to ``x_rows @ W + b`` in its [N, D0] embeddings:
    ``span`` is ``(x - x0)_rows @ W`` and ``start`` is ``x0_rows @ W + b``
    (``b`` for the zero baseline), both in the pass dtype. The token rows
    are gathered into one buffer per call, first of ``x0``, then of
    ``x - x0`` (taken in float64, rounded to the pass dtype).
    ``times_gradient(out, grad)`` multiplies the row gradient ``grad @ W^T``
    into ``out``'s token rows in float64, one lattice z-slab of rows at a
    time, so no [N, k] row gradient is built.
    """
    view, dims = model.token_view(data)
    w, b = model.params["embed.w"].data, model.params["embed.b"].data
    rows = np.empty(model.rows_shape(dims), dtype=dtype)
    tokens = rows.reshape(view.shape)
    if x0 is None:
        np.copyto(tokens, view)
        start = b
    else:
        x0_view = model.token_view(x0)[0] if x0.ndim else x0
        np.copyto(tokens, x0_view)
        start = rows @ w + b
        np.subtract(view, x0_view, out=tokens, dtype=np.float64)
    span = rows @ w
    w_t = w.astype(np.float64).T

    def times_gradient(out: np.ndarray, grad: np.ndarray) -> None:
        out_slabs = model.token_view(out)[0]
        for out_slab, grad_slab in zip(out_slabs, grad.reshape(dims[0], -1, w.shape[1])):
            out_slab *= (grad_slab @ w_t).reshape(out_slab.shape)

    return span, start, lambda point: model.classify_embedded(point, dims), times_gradient


@releases_freed_memory  # before the caller allocates its float64 outputs
def _gradient_sum(classify, steps: int, span: np.ndarray, start) -> np.ndarray:
    """Pairwise float64 sum of the input gradients at the midpoints
    ``span * (k + 0.5)/steps (+ start)``, k = 0..steps-1, each point built
    in ``span``'s dtype in one reused buffer."""
    buf = np.empty_like(span)
    # pairwise accumulation: for power-of-two step counts every combine is
    # a doubling, so a constant gradient averages back to itself bit-exactly
    partials: list[np.ndarray] = []
    for k in range(steps):
        np.multiply(span, (k + 0.5) / steps, out=buf)
        if start is not None:
            buf += start
        point = Tensor(buf, requires_grad=True)
        with Tape() as tape:
            logit = classify(point)
            tape.backward(logit)
        if point.grad is None or not np.all(np.isfinite(point.grad)):
            raise AttributionError(f"non-finite gradient at step {k}")
        # the point is this loop's own, so a float64 gradient needs no copy,
        # and every partial is summed into in place
        node = point.grad.astype(np.float64, copy=False)
        i = k + 1
        while i % 2 == 0:
            node = _add_into(partials.pop(), node)
            i //= 2
        partials.append(node)
    grad_sum = partials.pop()
    while partials:
        grad_sum = _add_into(partials.pop(), grad_sum)
    return grad_sum


def _add_into(acc: np.ndarray, g: np.ndarray) -> np.ndarray:
    acc += g
    return acc


def integrated_gradients(model, vol, baseline=ZERO, steps: int = 32) -> np.ndarray:
    """Riemann-midpoint integrated gradients of the classifier logit.

    Returns (x - x0) * mean of input gradients sampled at the midpoints
    x0 + (k + 0.5)/steps * (x - x0), k = 0..steps-1.

    For a model with ``classify_embedded`` the passes run at the token
    embedding. Its first layer is affine, so a straight path in voxel space
    is a straight path in its [N, D0] embeddings, and the row gradient is
    the embedding gradient times ``W^T``. Every pass runs on an embedding
    point, the embedding gradients are summed, and ``W^T`` is applied to
    their mean once per call, in float64, one lattice z-slab of token rows
    at a time; IG is invariant under this
    rewrite (Sundararajan et al. 2017), so the map equals running the
    passes on the volume up to rounding. Any other model runs them on the
    volume as given, through ``forward_classify``.

    Each pass runs at the input's precision: a float32 volume gives float32
    path points, anything else float64. ``x - x0``, the gradient sum and
    the result are float64 either way. The zero baseline builds no
    baseline array and the mean baseline is one number. The model's
    parameters are held constant during the passes, so only the input
    gradient is computed and no parameter ``.grad`` is touched.
    """
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    data, dtype = _volume_data(vol)
    x0 = _baseline(data, baseline)
    path = _embedding_path if hasattr(model, "classify_embedded") else _volume_path
    span, start, classify, times_gradient = path(model, data, x0, dtype)
    with frozen(getattr(model, "params", {}).values()):
        grad_sum = _gradient_sum(classify, steps, span, start)
    del span, start
    grad_sum /= steps
    out = np.empty(data.shape)  # x - x0 in float64, then times the mean gradient
    if x0 is None:
        np.copyto(out, data)
    else:
        np.subtract(data, x0, out=out)
    times_gradient(out, grad_sum)
    return out


def smooth_per_timepoint(attr: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-smooth a 3D map (one timepoint, or a temporal mean) with
    reflective boundaries."""
    if attr.ndim != 3:
        raise ValidationError(f"cannot smooth a {attr.ndim}D array")
    if sigma == 0:
        return attr.copy()
    return gaussian_filter(attr, sigma=sigma, mode="reflect")


def ig_sq(model, vol, cfg: AttributionConfig, subject_id: str = "",
          seed: int = 0) -> AttributionMap:
    """Squared integrated gradients averaged over noisy resamples.

    Noise is drawn per sample at sg_noise_std * std(input); the squared
    attributions are averaged, collapsed by a temporal mean and then
    smoothed once into a single non-negative 3D map. Smoothing acts on each
    timepoint alone and is linear, so this equals smoothing each timepoint
    before the mean, up to rounding. Each noisy resample is cast back to
    the input's dtype, so the passes run at the input's precision (float32
    for a float32 volume); accumulation is float64. With no noise (a zero
    sg_noise_std or a constant volume) every resample is the input itself,
    so integrated gradients runs once.
    """
    data, dtype = _volume_data(vol)
    scale = float(cfg.sg_noise_std) * float(np.asarray(data, dtype=np.float64).std())
    samples = cfg.sg_samples if scale else 1
    rng = np.random.default_rng(seed)

    acc = None
    for _ in range(samples):
        noisy = data
        if scale:
            # noise + x is x + noise bytewise, with no float64 copy of x
            noisy = rng.normal(0.0, scale, size=data.shape)
            noisy += data
        noisy = noisy.astype(dtype, copy=False)
        attr = integrated_gradients(model, noisy, cfg.baseline, cfg.ig_steps)
        del noisy
        attr *= attr
        acc = attr if acc is None else _add_into(acc, attr)  # 0 + a**2 is a**2
    acc /= samples

    mean = acc.mean(axis=3)
    del acc
    return AttributionMap(map3d=smooth_per_timepoint(mean, cfg.gauss_sigma),
                          subject_id=subject_id, seed=seed)


def aggregate_group(maps) -> AttributionMap:
    """L1-normalize each AttributionMap, then average across the group. Maps
    are summed as they arrive, so a generator of maps is never held whole."""
    acc = None
    for n, m in enumerate(maps, start=1):
        a = m.map3d
        if acc is None:
            acc = np.zeros(a.shape, dtype=np.float64)
        elif a.shape != acc.shape:
            raise ValidationError("attribution maps live on different grids")
        total = a.sum()
        if total <= 0:
            raise DegenerateDataError(f"map {n - 1} sums to {total}; cannot normalize")
        acc += a / total
    if acc is None:
        raise ValidationError("aggregate_group needs at least one map")
    return AttributionMap(map3d=acc / n, subject_id="group", normalized=True)


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
    """Mean attribution per atlas ROI of a 3D map array, ranked descending.

    Means are taken on the raw (pre-threshold) map; ROIs smaller than
    cfg.min_roi_voxels are dropped.
    """
    gmap = np.asarray(group_map, dtype=np.float64)
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
    """Ranked ROI table and percentile-thresholded display map of a 3D array."""
    gmap = np.asarray(group_map, dtype=np.float64)
    rows = project_rois(gmap, atlas, cfg, names)
    return rows, threshold_map(gmap, cfg.top_percentile)


def write_roi_csv(path, rows) -> None:
    artifacts.write_csv(path, ["roi_label", "roi_name", "voxels", "mean_attr", "rank"],
                        ([r.roi_label, r.roi_name, r.voxels, f"{r.mean_attr:.10g}", r.rank]
                         for r in rows))
