"""Patch lattice over the volumetric grid and macroregion patch classification.

The canonical configuration tiles a 96^3 volume with 6^3 patches, giving a
16^3 lattice of 4096 patches of 216 voxels each. Each patch is classified
against every macroregion under three nested criteria:

* any      - at least one voxel carries a label of the region
* majority - strictly more than half of the patch's voxels do
* pure     - majority, and the single dominant non-zero label covers at
             least ``purity_threshold`` of the patch's labeled voxels
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import artifacts
from .errors import ConfigurationError, GeometryError, ValidationError
from .nifti import LabelVolume

MACROREGIONS = (
    "frontal",
    "parietal",
    "occipital",
    "temporal",
    "limbic",
    "subcortical",
    "cerebellum",
)
CRITERIA = ("any", "majority", "pure")

DEFAULT_PURITY_THRESHOLD = 0.70
DEFAULT_MAJORITY_THRESHOLD = 0.5

# classify_patches builds a [max label + 1] lookup table from label values to
# count-table columns
_MAX_LABEL = 100_000


@dataclass(frozen=True)
class PatchGrid:
    """Non-overlapping cubic tiling of a volume."""

    patch_size: tuple[int, int, int] = (6, 6, 6)
    grid_dims: tuple[int, int, int] = (16, 16, 16)

    def __post_init__(self) -> None:
        if any(p <= 0 for p in self.patch_size) or any(g <= 0 for g in self.grid_dims):
            raise ValidationError("patch_size and grid_dims must be positive")

    @property
    def volume_shape(self) -> tuple[int, int, int]:
        return tuple(p * g for p, g in zip(self.patch_size, self.grid_dims))

    @property
    def n_patches(self) -> int:
        return int(np.prod(self.grid_dims))

    @property
    def voxels_per_patch(self) -> int:
        return int(np.prod(self.patch_size))

    @classmethod
    def for_shape(cls, shape, patch_size=(6, 6, 6)) -> "PatchGrid":
        patch_size = tuple(int(p) for p in patch_size)
        shape = tuple(int(s) for s in shape)
        if any(p < 1 for p in patch_size):
            raise GeometryError(f"patch size {patch_size} must be positive")
        if any(s % p != 0 for s, p in zip(shape, patch_size)):
            raise GeometryError(f"shape {shape} not divisible by patch size {patch_size}")
        return cls(patch_size=patch_size,
                   grid_dims=tuple(s // p for s, p in zip(shape, patch_size)))

    def patch_index_volume(self) -> np.ndarray:
        """[X, Y, Z] int array giving every voxel's linear patch index,
        x-fastest: p = px + py*Gx + pz*Gx*Gy."""
        shape = self.volume_shape
        gx, gy, _ = self.grid_dims
        ix = np.arange(shape[0]) // self.patch_size[0]
        iy = np.arange(shape[1]) // self.patch_size[1]
        iz = np.arange(shape[2]) // self.patch_size[2]
        return (ix[:, None, None] + iy[None, :, None] * gx
                + iz[None, None, :] * gx * gy).astype(np.int64)


class RegionMap:
    """Atlas label -> macroregion mapping."""

    def __init__(self, mapping: dict[int, str]):
        if not mapping:
            raise ConfigurationError("region mapping is empty")
        clean: dict[int, str] = {}
        for label, region in mapping.items():
            label = int(label)
            if label < 1:
                raise ValidationError(f"atlas labels start at 1, got {label}")
            region = str(region).strip().lower()
            if region not in MACROREGIONS:
                raise ConfigurationError(
                    f"unknown macroregion {region!r} for label {label}; "
                    f"expected one of {MACROREGIONS}"
                )
            clean[label] = region
        self.mapping = clean

    def labels_for(self, region: str) -> list[int]:
        return sorted(l for l, r in self.mapping.items() if r == region)

    @classmethod
    def from_csv(cls, path) -> "RegionMap":
        """Read `label,macroregion` pairs; a non-numeric first row is a header."""
        mapping: dict[int, str] = {}
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = [p.strip() for p in line.split(",")]
                if len(parts) != 2:
                    raise ConfigurationError(
                        f"{path}:{line_no}: expected `label,macroregion`, got {line!r}"
                    )
                try:
                    label = int(parts[0])
                except ValueError:
                    if line_no == 1:
                        continue  # header row
                    raise ConfigurationError(f"{path}:{line_no}: label must be "
                                             f"an integer, got {parts[0]!r}") from None
                if label in mapping:
                    raise ConfigurationError(f"{path}:{line_no}: duplicate label {label}")
                mapping[label] = parts[1]
        try:
            return cls(mapping)
        except (ConfigurationError, ValidationError) as exc:
            raise type(exc)(f"{path}: {exc}") from exc

    def to_csv(self, path) -> None:
        artifacts.write_csv(path, ["label", "macroregion"],
                            sorted(self.mapping.items()), lineterminator="\n")


@dataclass
class PatchSets:
    """Classification result: each macroregion's sorted patch indices per criterion.

    The JSON form holds the grid, the two thresholds and the sets.
    :meth:`load` ignores any other key, so a file that also carries
    per-patch histograms loads to the same sets.
    """

    grid: PatchGrid
    any_sets: dict[str, np.ndarray]
    majority_sets: dict[str, np.ndarray]
    pure_sets: dict[str, np.ndarray]
    purity_threshold: float = DEFAULT_PURITY_THRESHOLD
    majority_threshold: float = DEFAULT_MAJORITY_THRESHOLD

    def sets_for(self, criterion: str) -> dict[str, np.ndarray]:
        try:
            return {"any": self.any_sets, "majority": self.majority_sets,
                    "pure": self.pure_sets}[criterion]
        except KeyError:
            raise ValidationError(f"unknown criterion {criterion!r}") from None

    def patch_set(self, region: str, criterion: str) -> np.ndarray:
        sets = self.sets_for(criterion)
        if region not in sets:
            raise ValidationError(f"unknown region {region!r}")
        return sets[region]

    def to_json_dict(self) -> dict:
        return {
            "patch_size": list(self.grid.patch_size),
            "grid_dims": list(self.grid.grid_dims),
            "purity_threshold": self.purity_threshold,
            "majority_threshold": self.majority_threshold,
            "regions": {
                region: {
                    "any": self.any_sets[region].tolist(),
                    "majority": self.majority_sets[region].tolist(),
                    "pure": self.pure_sets[region].tolist(),
                }
                for region in MACROREGIONS
            },
        }

    def save(self, path) -> None:
        artifacts.write_text(path, json.dumps(self.to_json_dict()))

    @classmethod
    def load(cls, path) -> "PatchSets":
        """Read :meth:`save`'s JSON. A file that does not decode, lacks a key,
        holds a wrong type or a patch index outside the grid raises
        ValidationError naming the file."""
        try:
            blob = json.loads(Path(path).read_text())
            grid = PatchGrid(*(_int_tuple(blob[key], key, 3)
                               for key in ("patch_size", "grid_dims")))
            sets = [{r: np.array(_int_tuple(blob["regions"][r][c], f"regions.{r}.{c}"),
                                 np.int64) for r in MACROREGIONS} for c in CRITERIA]
            if any(np.any((s < 0) | (s >= grid.n_patches))
                   for by_region in sets for s in by_region.values()):
                raise ValueError(f"a patch index lies outside [0, {grid.n_patches})")
            return cls(grid, *sets, purity_threshold=float(blob["purity_threshold"]),
                       majority_threshold=float(blob["majority_threshold"]))
        except KeyError as exc:
            raise ValidationError(f"{path}: missing key {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}: {exc}") from None


def _int_tuple(value, what: str, n: int | None = None) -> tuple[int, ...]:
    """A JSON list of ints, ``n`` of them if given, as a tuple."""
    if not isinstance(value, list) or any(type(v) is not int for v in value) \
            or n is not None and len(value) != n:
        raise TypeError(f"{what} must be {n or 'a list of'} integers, got {value!r:.40}")
    return tuple(value)


def classify_patches(
    atlas: LabelVolume,
    regions: RegionMap,
    purity_threshold: float = DEFAULT_PURITY_THRESHOLD,
    majority_threshold: float = DEFAULT_MAJORITY_THRESHOLD,
    grid: PatchGrid | None = None,
) -> PatchSets:
    """Classify every patch of the lattice against every macroregion."""
    if not 0 < purity_threshold <= 1:
        raise ValidationError("purity_threshold must lie in (0, 1]")
    if not 0 < majority_threshold < 1:
        raise ValidationError("majority_threshold must lie in (0, 1)")
    labels = atlas.labels
    if grid is None:
        grid = PatchGrid.for_shape(labels.shape)
    if grid.volume_shape != labels.shape:
        raise GeometryError(
            f"atlas shape {labels.shape} does not match the patch grid "
            f"{grid.volume_shape}"
        )

    max_label = int(labels.max(initial=0))
    if max_label > _MAX_LABEL:
        raise ValidationError(f"label values up to {max_label} exceed the supported range")
    n_patches = grid.n_patches
    vpp = grid.voxels_per_patch

    # one count column per label present, so sparse label ids cost nothing;
    # column 0 counts the unlabeled voxels
    present = np.bincount(labels.ravel(), minlength=max_label + 1) > 0
    present[0] = True
    column = np.cumsum(present) - 1  # label value -> column, for labels present
    n_cols = int(column[-1]) + 1
    joint = grid.patch_index_volume().ravel() * n_cols + column[labels.ravel()]
    counts = np.bincount(joint, minlength=n_patches * n_cols)
    counts = counts.reshape(n_patches, n_cols)  # [P, 0 and each label present]

    nonzero_counts = counts[:, 1:]  # [P, each nonzero label present]
    n_labeled = nonzero_counts.sum(axis=1)
    dom_count = nonzero_counts.max(axis=1, initial=0)  # the dominant label's count

    with np.errstate(invalid="ignore"):
        purity = np.where(n_labeled > 0, dom_count / np.maximum(n_labeled, 1), 0.0)
    is_pure_patch = (n_labeled > 0) & (purity >= purity_threshold)

    any_sets: dict[str, np.ndarray] = {}
    majority_sets: dict[str, np.ndarray] = {}
    pure_sets: dict[str, np.ndarray] = {}
    for region in MACROREGIONS:
        members = [l for l in regions.labels_for(region)
                   if l <= max_label and present[l]]
        if members:
            region_count = nonzero_counts[:, column[members] - 1].sum(axis=1)
        else:
            region_count = np.zeros(n_patches, dtype=np.int64)
        any_sets[region] = np.flatnonzero(region_count >= 1)
        maj = region_count / vpp > majority_threshold
        majority_sets[region] = np.flatnonzero(maj)
        pure_sets[region] = np.flatnonzero(maj & is_pure_patch)

    return PatchSets(
        grid=grid,
        any_sets=any_sets,
        majority_sets=majority_sets,
        pure_sets=pure_sets,
        purity_threshold=purity_threshold,
        majority_threshold=majority_threshold,
    )


def patch_set_report(sets: PatchSets) -> list[dict]:
    """Per region x criterion: patch count and voxel footprint (count x patch voxels)."""
    vpp = sets.grid.voxels_per_patch
    rows = []
    for region in MACROREGIONS:
        for criterion in CRITERIA:
            n = int(len(sets.patch_set(region, criterion)))
            rows.append({
                "region": region,
                "criterion": criterion,
                "n_patches": n,
                "n_voxels": n * vpp,
            })
    return rows


def render_report(rows) -> str:
    width = max(len(r["region"]) for r in rows)
    lines = [f"{'region':<{width}}  {'criterion':<9}  {'patches':>8}  {'voxels':>10}"]
    for r in rows:
        lines.append(
            f"{r['region']:<{width}}  {r['criterion']:<9}  "
            f"{r['n_patches']:>8d}  {r['n_voxels']:>10d}"
        )
    return "\n".join(lines)
