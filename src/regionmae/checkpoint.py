"""Checkpoint format: a flat binary blob of float32 arrays + JSON manifest.

The manifest lists every parameter's name, shape, and byte offset, plus a
config hash; loading refuses a checkpoint whose hash disagrees with the
model configuration it is being loaded into.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import artifacts
from .autodiff import Tensor
from .errors import CheckpointError


def manifest_path(blob_path) -> Path:
    p = Path(blob_path)
    return p.with_suffix(p.suffix + ".manifest.json")


def save_checkpoint(arrays: dict[str, np.ndarray], path, config_hash: str,
                    extra: dict | None = None) -> None:
    """Write ``arrays`` (name -> array, stored as float32) and the manifest."""
    path = Path(path)
    entries = []
    offset = 0
    chunks = []
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype=np.float32)
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        chunks.append(arr.tobytes())  # C order regardless of input layout
        offset += arr.nbytes
    artifacts.write_bytes(path, b"".join(chunks))
    manifest = {"config_hash": config_hash, "total_bytes": offset,
                "dtype": "float32", "params": entries}
    if extra:
        manifest["extra"] = extra
    artifacts.write_text(manifest_path(path), json.dumps(manifest, indent=2))


def load_checkpoint(path, config_hash: str | None = None) -> tuple[dict[str, np.ndarray], dict]:
    """Read arrays and manifest; verifies the config hash when given."""
    path = Path(path)
    mpath = manifest_path(path)
    if not path.exists() or not mpath.exists():
        raise CheckpointError(f"missing checkpoint blob or manifest for {path}")
    manifest = json.loads(mpath.read_text())
    if config_hash is not None and manifest.get("config_hash") != config_hash:
        raise CheckpointError(
            f"checkpoint {path} was written for config {manifest.get('config_hash')!r}, "
            f"not {config_hash!r}"
        )
    blob = path.read_bytes()
    if len(blob) != manifest["total_bytes"]:
        raise CheckpointError(f"checkpoint blob {path} is {len(blob)} bytes, "
                              f"manifest expects {manifest['total_bytes']}")
    out: dict[str, np.ndarray] = {}
    for entry in manifest["params"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype=np.float32, count=count,
                            offset=entry["offset"]).reshape(shape)
        out[entry["name"]] = arr.copy()
    return out, manifest


def restore_params(params: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into existing parameter tensors, name by name."""
    missing = set(params) - set(arrays)
    extra = set(arrays) - set(params)
    if missing or extra:
        raise CheckpointError(
            f"parameter names disagree: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    for name, p in params.items():
        src = arrays[name]
        if tuple(src.shape) != tuple(p.shape):
            raise CheckpointError(f"shape mismatch for {name!r}: "
                                  f"{src.shape} vs {p.shape}")
        p.data = src.astype(p.data.dtype).copy()
