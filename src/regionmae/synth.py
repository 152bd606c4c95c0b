"""Desk-scale synthetic fMRI cohorts with a planted, class-dependent
regional signal.

Volumes are bounded smooth fields plus bounded (arcsine-distributed) noise
inside an ellipsoid "brain", zero outside. The intensity distribution is
chosen so the cohort clears the preprocessing QC gate: after within-mask
standardization the 99th percentile of a Gaussian would sit near 2.33 and
fail, whereas edge-piling arcsine noise keeps it around 1.5. For the same
reason the class signal is planted as a *negative* regional mean shift
(class 1 dimmer in the signal region) — it survives global z-scoring and is
fully learnable, but leaves the gated upper tail untouched.

The atlas carves the ellipsoid into 14 angular-wedge ROIs, two per
macroregion.

:func:`synth_cohort` returns a cohort in memory; :func:`write_cohort`
streams one to disk, holding one subject at a time. Both draw the subjects
from the same per-subject loop, so they give the same volumes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import artifacts
from .atlas import MACROREGIONS, RegionMap
from .errors import ValidationError
from .nifti import LabelVolume, Volume4D, write_nifti
from .preprocess import SubjectRecord, write_manifest


@dataclass(frozen=True)
class SynthConfig:
    n_subjects: int = 4
    shape: tuple[int, int, int] = (48, 48, 48)
    n_timepoints: int = 8
    tr_seconds: float = 0.8
    seed: int = 0
    signal_region: str = "frontal"
    signal_amplitude: float = 0.30
    noise_amplitude: float = 0.40
    smooth_amplitude: float = 0.04
    temporal_amplitude: float = 0.02
    voxel_mm: float = 2.0

    def __post_init__(self) -> None:
        if self.n_subjects < 1:
            raise ValidationError("n_subjects must be >= 1")
        if len(self.shape) != 3 or any(s < 12 for s in self.shape):
            raise ValidationError("shape must be 3D with sides >= 12")
        if self.n_timepoints < 1:
            raise ValidationError("n_timepoints must be >= 1")
        if self.tr_seconds <= 0 or self.voxel_mm <= 0:
            raise ValidationError("tr_seconds and voxel_mm must be positive")
        if self.signal_region not in MACROREGIONS:
            raise ValidationError(
                f"signal_region must be one of {MACROREGIONS}")
        for name in ("signal_amplitude", "noise_amplitude",
                     "smooth_amplitude", "temporal_amplitude"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")


# x-planes per slab in :func:`synth_subject`
SLAB = 8


def default_affine(cfg: SynthConfig) -> np.ndarray:
    aff = np.diag([cfg.voxel_mm] * 3 + [1.0])
    aff[:3, 3] = -0.5 * cfg.voxel_mm * (np.asarray(cfg.shape) - 1)
    return aff


def brain_ellipsoid(shape) -> np.ndarray:
    """Boolean ellipsoid mask with radii at 42% of each side."""
    center = (np.asarray(shape, dtype=np.float64) - 1) / 2.0
    radii = 0.42 * np.asarray(shape, dtype=np.float64)
    grids = np.meshgrid(*[np.arange(s, dtype=np.float64) for s in shape],
                        indexing="ij", sparse=True)
    r2 = sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii))
    return r2 <= 1.0


def wedge_atlas(cfg: SynthConfig) -> tuple[LabelVolume, RegionMap]:
    """14-ROI atlas: 7 angular wedges x {lower, upper} hemisphere.

    Wedge k maps to MACROREGIONS[k]; each macroregion owns two labels
    (2k+1 below the axial midplane, 2k+2 above).
    """
    shape = cfg.shape
    mask = brain_ellipsoid(shape)
    center = (np.asarray(shape, dtype=np.float64) - 1) / 2.0
    xs, ys, zs = np.meshgrid(*[np.arange(s, dtype=np.float64) for s in shape],
                             indexing="ij", sparse=True)
    phi = np.arctan2(ys - center[1], xs - center[0])  # [-pi, pi]
    sector = np.floor((phi + np.pi) / (2 * np.pi) * len(MACROREGIONS))
    sector = np.clip(sector, 0, len(MACROREGIONS) - 1).astype(np.int32)
    upper = (zs > center[2]).astype(np.int32)
    labels = np.where(mask, 1 + 2 * sector + upper, 0).astype(np.int32)

    mapping = {2 * k + 1 + half: region
               for k, region in enumerate(MACROREGIONS) for half in (0, 1)}
    return LabelVolume(labels=labels, affine=default_affine(cfg)), RegionMap(mapping)


def _smooth_field(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Bounded low-frequency field: a normalized mix of random cosines.

    The grids are sparse and each cosine is built in place, so about two
    3D float64 volumes are held at a time.
    """
    shape = cfg.shape
    grids = np.meshgrid(*[np.arange(s, dtype=np.float64) / s for s in shape],
                        indexing="ij", sparse=True)
    field = np.zeros(shape, dtype=np.float64)
    weights = rng.uniform(0.5, 1.0, size=3)
    for j in range(3):
        k = rng.integers(1, 4, size=3)  # cycles per side
        phase = rng.uniform(0, 2 * np.pi)
        arg = sum(int(k[i]) * grids[i] for i in range(3))
        arg *= 2 * np.pi
        arg += phase
        np.cos(arg, out=arg)
        arg *= weights[j]
        field += arg
        del arg  # before the next cosine is built
    field *= cfg.smooth_amplitude
    field /= weights.sum()
    return field


def synth_subject(cfg: SynthConfig, rng: np.random.Generator, label: int,
                  atlas: LabelVolume, regions: RegionMap) -> Volume4D:
    """One bounded, smooth, noisy 4D volume with the planted class signal.

    The float64 sum is formed and cast to float32 one x-slab of ``SLAB``
    planes at a time, so no 4D float64 array is held whole. The slabs draw
    their noise in order, and a chunked draw equals one whole draw, so the
    volume does not depend on the slab size.
    """
    shape, n_t = cfg.shape, cfg.n_timepoints
    mask = atlas.labels > 0

    base = _smooth_field(cfg, rng)
    base += 1.0
    if label:
        # negative shift: learnable, but keeps the QC'd upper tail intact
        in_signal = np.isin(atlas.labels, regions.labels_for(cfg.signal_region))
        base -= cfg.signal_amplitude * in_signal

    t = np.arange(n_t, dtype=np.float64)
    temporal = cfg.temporal_amplitude * np.sin(
        2 * np.pi * t / max(n_t, 2) + rng.uniform(0, 2 * np.pi))

    data = np.empty((*shape, n_t), dtype=np.float32)
    for x0 in range(0, shape[0], SLAB):
        xs = slice(x0, min(x0 + SLAB, shape[0]))
        # arcsine noise on (-a, a): bounded with mass at the edges, so the
        # z-scored 99th percentile lands near 1.5, far from the 1.8862
        # gate; -a * cos(pi * u) is built in the draw's own buffer
        u = rng.uniform(0.0, 1.0, size=(xs.stop - x0, *shape[1:], n_t))
        u *= np.pi
        np.cos(u, out=u)
        u *= -cfg.noise_amplitude
        slab = base[xs, ..., None] + temporal
        slab += u
        slab[~mask[xs]] = 0.0
        data[xs] = slab
    return Volume4D(data=data, affine=default_affine(cfg),
                    tr_seconds=cfg.tr_seconds)


@dataclass
class SynthCohort:
    config: SynthConfig
    atlas: LabelVolume
    regions: RegionMap
    brain_mask: np.ndarray
    records: list[SubjectRecord]
    volumes: list[Volume4D]

    def labeled_triples(self):
        return [(r.subject_id, v.data, r.label)
                for r, v in zip(self.records, self.volumes)]


def _subjects(cfg: SynthConfig, atlas: LabelVolume, regions: RegionMap):
    """Yield each subject's record and volume in turn; labels alternate 0/1.

    Every subject draws from one generator seeded with ``cfg.seed``, so a
    caller that drops each volume before asking for the next gets the same
    volumes as one that keeps them all.
    """
    rng = np.random.default_rng(cfg.seed)
    for i in range(cfg.n_subjects):
        label = i % 2
        yield (SubjectRecord(subject_id=f"sub-{i:03d}", path="", label=label),
               synth_subject(cfg, rng, label, atlas, regions))


def synth_cohort(cfg: SynthConfig) -> SynthCohort:
    """Generate the full in-memory cohort; labels alternate 0/1."""
    atlas, regions = wedge_atlas(cfg)
    records, volumes = [], []
    for rec, vol in _subjects(cfg, atlas, regions):
        records.append(rec)
        volumes.append(vol)
    return SynthCohort(cfg, atlas, regions, atlas.labels > 0, records, volumes)


def write_cohort(cfg: SynthConfig, out_dir) -> Path:
    """Write volumes, atlas, mask, region map, params, and the manifest.

    The cohort is streamed: each subject is synthesised, written and
    dropped before the next is drawn, so one volume is held at a time. The
    files equal those of :func:`synth_cohort`'s volumes. Returns the
    manifest path; record paths point at the written NIfTIs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    atlas, regions = wedge_atlas(cfg)

    records = []
    for rec, vol in _subjects(cfg, atlas, regions):
        path = out / f"{rec.subject_id}_bold.nii.gz"
        write_nifti(vol, path)
        del vol  # before the next subject is drawn
        rec.path = str(path)
        records.append(rec)

    write_nifti(atlas, out / "atlas.nii.gz")
    write_nifti(LabelVolume(labels=(atlas.labels > 0).astype(np.int32),
                            affine=atlas.affine),
                out / "brain_mask.nii.gz")
    regions.to_csv(out / "region_map.csv")
    artifacts.write_text(out / "synth_params.json",
                         json.dumps(asdict(cfg), indent=2, sort_keys=True))

    manifest = out / "manifest.csv"
    write_manifest(records, manifest)
    return manifest
