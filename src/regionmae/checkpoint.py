"""Checkpoint format: a flat binary blob of float32 arrays + JSON manifest.

The manifest lists every parameter's name, shape, and byte offset, plus a
config hash and the SHA-256 of the blob. Loading refuses a checkpoint whose
config hash disagrees with the model configuration it is being loaded into,
and a blob whose size or SHA-256 disagrees with its manifest. A manifest
without a ``sha256`` field was written before the field existed; it still
loads, with the size check alone, so those checkpoints stay usable.
"""

from __future__ import annotations

import hashlib
import json
import math
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
    blob = b"".join(chunks)
    artifacts.write_bytes(path, blob)
    manifest = {"config_hash": config_hash, "total_bytes": offset,
                "sha256": hashlib.sha256(blob).hexdigest(),
                "dtype": "float32", "params": entries}
    if extra:
        manifest["extra"] = extra
    artifacts.write_text(manifest_path(path), json.dumps(manifest, indent=2))


def load_checkpoint(path, config_hash: str | None = None) -> tuple[dict[str, np.ndarray], dict]:
    """Read arrays and manifest; verifies the blob's size and SHA-256 (when
    the manifest has one), and the config hash when given.

    The blob is read once into one writable buffer, and every array is a
    view of it.
    """
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
    blob = np.fromfile(path, dtype=np.uint8)
    if blob.size != manifest["total_bytes"]:
        raise CheckpointError(f"checkpoint blob {path} is {blob.size} bytes, "
                              f"manifest expects {manifest['total_bytes']}")
    expected = manifest.get("sha256")  # absent before the field existed
    if expected is not None and hashlib.sha256(blob).hexdigest() != expected:
        raise CheckpointError(f"checkpoint blob {path} does not match the "
                              f"sha256 in {mpath}")
    out: dict[str, np.ndarray] = {}
    for entry in manifest["params"]:
        shape = tuple(entry["shape"])
        start = entry["offset"]
        nbytes = 4 * math.prod(shape)
        out[entry["name"]] = blob[start:start + nbytes].view(np.float32).reshape(shape)
    return out, manifest


def restore_params(params: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into existing parameter tensors, name by name,
    each once, in the parameter's dtype."""
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
        p.data = src.astype(p.data.dtype)
