"""Mask generation on the patch x temporal-patch lattice, plus mask application.

Region strategies draw from a macroregion's patch set under one of the three
classification criteria; the Random/Window/Tube strategies are
region-agnostic baselines. All sampling is seed-deterministic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import artifacts
from .atlas import PatchSets
from .errors import ConfigurationError, ValidationError

REGION_ANY = "REGION_ANY"
REGION_MAJORITY = "REGION_MAJORITY"
REGION_PURE = "REGION_PURE"
RANDOM_RANDOM = "RANDOM_RANDOM"
WINDOW_RANDOM = "WINDOW_RANDOM"
RANDOM_TUBE = "RANDOM_TUBE"

STRATEGIES = (REGION_ANY, REGION_MAJORITY, REGION_PURE,
              RANDOM_RANDOM, WINDOW_RANDOM, RANDOM_TUBE)
_REGION_CRITERION = {REGION_ANY: "any", REGION_MAJORITY: "majority",
                     REGION_PURE: "pure"}

TUBE = "TUBE"
PER_FRAME = "PER_FRAME"


@dataclass(frozen=True)
class MaskSpec:
    strategy: str
    region: str | None = None
    ratio: float = 1.0
    temporal_mode: str = TUBE
    seed: int = 0
    window_block: tuple[int, int, int] = (2, 2, 2)

    def __post_init__(self) -> None:
        # an empty region means no region, as None does; a window_block
        # read back from JSON arrives as a list
        object.__setattr__(self, "region", self.region or None)
        object.__setattr__(self, "window_block", tuple(self.window_block))
        if self.strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        if not 0.0 < self.ratio <= 1.0:
            raise ValidationError(f"ratio must lie in (0, 1], got {self.ratio}")
        if self.temporal_mode not in (TUBE, PER_FRAME):
            raise ValidationError(f"unknown temporal mode {self.temporal_mode!r}")
        if self.strategy in _REGION_CRITERION and not self.region:
            raise ValidationError(f"{self.strategy} requires a region")
        if any(b < 1 for b in self.window_block):
            raise ValidationError("window_block entries must be >= 1")

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(asdict(self), sort_keys=True).encode()
        ).hexdigest()


@dataclass
class MaskTensor:
    """Boolean [n_patches, t_patches] lattice; True marks a masked slot."""

    mask: np.ndarray
    voxels_per_patch: int
    t_patch_len: int = 1

    def __post_init__(self) -> None:
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 2:
            raise ValidationError("mask must be [n_patches, t_patches]")

    @property
    def n_patches(self) -> int:
        return self.mask.shape[0]

    @property
    def t_patches(self) -> int:
        return self.mask.shape[1]

    @property
    def masked_slots(self) -> int:
        return int(self.mask.sum())

    @property
    def masked_voxels(self) -> int:
        return self.masked_slots * self.voxels_per_patch * self.t_patch_len

    def flat(self) -> np.ndarray:
        """Patch-major flattening: slot index = p * t_patches + t."""
        return self.mask.reshape(-1)

    def to_lattice(self, grid_dims: tuple[int, int, int]) -> np.ndarray:
        """[Gx, Gy, Gz, T'] view of the mask under the x-fastest patch order."""
        gx, gy, gz = grid_dims
        if gx * gy * gz != self.n_patches:
            raise ValidationError("grid_dims inconsistent with mask size")
        return self.mask.reshape(gz, gy, gx, self.t_patches).transpose(2, 1, 0, 3)


def _sample(rng: np.random.Generator, candidates: np.ndarray, ratio: float) -> np.ndarray:
    k = int(np.ceil(ratio * len(candidates)))
    if k >= len(candidates):
        return candidates
    return rng.choice(candidates, size=k, replace=False)


def _window_blocks(grid_dims, block) -> list[np.ndarray]:
    """Partition the patch lattice into contiguous blocks of patch indices."""
    gx, gy, gz = grid_dims
    bx, by, bz = block
    blocks = []
    for z0 in range(0, gz, bz):
        for y0 in range(0, gy, by):
            for x0 in range(0, gx, bx):
                xs = np.arange(x0, min(x0 + bx, gx))
                ys = np.arange(y0, min(y0 + by, gy))
                zs = np.arange(z0, min(z0 + bz, gz))
                idx = (xs[:, None, None] + ys[None, :, None] * gx
                       + zs[None, None, :] * gx * gy)
                blocks.append(idx.reshape(-1))
    return blocks


def build_mask(spec: MaskSpec, sets: PatchSets, t_patches: int,
               t_patch_len: int = 1) -> MaskTensor:
    """Realize a mask spec on the patch lattice defined by ``sets.grid``."""
    if t_patches < 1:
        raise ValidationError("t_patches must be >= 1")
    n_patches = sets.grid.n_patches
    rng = np.random.default_rng(spec.seed)
    mask = np.zeros((n_patches, t_patches), dtype=bool)

    if spec.strategy in _REGION_CRITERION:
        candidates = np.asarray(
            sets.patch_set(spec.region, _REGION_CRITERION[spec.strategy]),
            dtype=np.int64,
        )
        if len(candidates) == 0:
            raise ConfigurationError(
                f"region {spec.region!r} has no patches under "
                f"{_REGION_CRITERION[spec.strategy]}"
            )
        if spec.temporal_mode == TUBE:
            chosen = _sample(rng, candidates, spec.ratio)
            mask[chosen, :] = True
        else:
            for t in range(t_patches):
                mask[_sample(rng, candidates, spec.ratio), t] = True

    elif spec.strategy == RANDOM_RANDOM:
        slots = n_patches * t_patches
        chosen = _sample(rng, np.arange(slots), spec.ratio)
        mask.reshape(-1)[chosen] = True

    elif spec.strategy == RANDOM_TUBE:
        chosen = _sample(rng, np.arange(n_patches), spec.ratio)
        mask[chosen, :] = True

    elif spec.strategy == WINDOW_RANDOM:
        blocks = _window_blocks(sets.grid.grid_dims, spec.window_block)
        block_ids = np.arange(len(blocks))
        for t in range(t_patches):
            for b in _sample(rng, block_ids, spec.ratio):
                mask[blocks[int(b)], t] = True

    return MaskTensor(mask=mask, voxels_per_patch=sets.grid.voxels_per_patch,
                      t_patch_len=t_patch_len)


# ---------------------------------------------------------------------------
# Mask application on token matrices


def apply_mask(tokens, mask, mask_token):
    """Swap the masked rows of a [N, D] token matrix for a shared embedding.

    ``mask`` holds one bool per row, e.g. ``MaskTensor.flat()``. ``tokens``
    and ``mask_token`` may be numpy arrays or autodiff tensors: only ``*``
    and ``+`` are applied to them.
    """
    m = np.asarray(mask, dtype=bool).reshape(-1)
    n = tokens.shape[0]
    if m.shape[0] != n:
        raise ValidationError(f"mask covers {m.shape[0]} slots but tokens have {n} rows")
    w = m.astype(np.float32)[:, None]  # [N, 1]
    return tokens * (1.0 - w) + mask_token * w


# ---------------------------------------------------------------------------
# Serialization


def save_mask(tensor: MaskTensor, spec: MaskSpec, path) -> None:
    """Write the mask as a packed bitset plus a JSON sidecar."""
    path = Path(path)
    bits = np.packbits(tensor.mask.reshape(-1))
    artifacts.write_bytes(path, bits.tobytes())
    sidecar = {
        "shape": list(tensor.mask.shape),
        "masked_slots": tensor.masked_slots,
        "masked_voxels": tensor.masked_voxels,
        "voxels_per_patch": tensor.voxels_per_patch,
        "t_patch_len": tensor.t_patch_len,
        "spec": asdict(spec),
        "spec_hash": spec.digest(),
    }
    artifacts.write_text(path.with_suffix(path.suffix + ".json"),
                         json.dumps(sidecar, indent=2))


def load_mask(path) -> tuple[MaskTensor, MaskSpec]:
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    spec = MaskSpec(**sidecar["spec"])
    if spec.digest() != sidecar["spec_hash"]:
        raise ValidationError(f"spec hash mismatch in {path}")
    shape = tuple(sidecar["shape"])
    n = int(np.prod(shape))
    bits = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    mask = np.unpackbits(bits, count=n).reshape(shape).astype(bool)
    tensor = MaskTensor(mask=mask, voxels_per_patch=int(sidecar["voxels_per_patch"]),
                        t_patch_len=int(sidecar["t_patch_len"]))
    if tensor.masked_slots != sidecar["masked_slots"]:
        raise ValidationError(f"bit payload of {path} disagrees with its sidecar")
    return tensor, spec
