"""Layered run configuration: defaults, YAML file, dotted-path overrides.

Precedence is defaults < config file < --set overrides < dedicated flags
(--seed/--out-dir). Unknown keys are rejected by name at every
layer, and each command writes the fully resolved tree next to its outputs
so a run can be reproduced from the snapshot alone.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from pathlib import Path

import yaml

from .errors import ConfigurationError

ENV_DATA_ROOT = "REGIONMAE_DATA_ROOT"

DEFAULTS: dict = {
    "run": {
        "seed": 0,
        "out_dir": "runs",
    },
    "data": {
        "root": "",  # empty -> $REGIONMAE_DATA_ROOT or "."
        "manifest": "",
        "atlas": "",
        "region_map": "",
        "template_mask": "",
        "patch_sets": "",
        "checkpoint": "",
    },
    "synth": {
        "n_subjects": 4,
        "shape": [48, 48, 48],
        "n_timepoints": 8,
        "tr_seconds": 0.8,
        "seed": 0,
        "signal_region": "frontal",
        "signal_amplitude": 0.30,
        "noise_amplitude": 0.40,
        "smooth_amplitude": 0.04,
        "temporal_amplitude": 0.02,
        "voxel_mm": 2.0,
    },
    "preprocess": {
        "fov": [96, 96, 96],
        "target_tr": 0.8,
        "mask_fraction": 0.2,
        "clip": [-5.0, 5.0],
        "dice_thresh": 0.85,
        "p99_thresh": 1.8862,
        "drop_excluded": True,
    },
    "atlas": {
        "purity_threshold": 0.70,
        "majority_threshold": 0.5,
    },
    "mask": {
        "strategy": "REGION_ANY",
        "region": "frontal",
        "ratio": 1.0,
        "temporal_mode": "TUBE",
        "seed": 0,
        "window_block": [2, 2, 2],
        "t_patches": 2,
    },
    "model": {
        "embed_dim": 32,
        "stage_depths": [2, 2],
        "heads": 4,
        "window": [4, 4, 4, 2],
        "ssm_state_dim": 8,
        "configuration": "MAMBA",
        "patch_size": [6, 6, 6],
        "t_patch": 4,
        "mlp_ratio": 1.0,
        "ssm_expand": 2,
        "scan_order": "time_major",
        "seed": 0,
    },
    "pretrain": {
        "epochs": 20,
        "batch_size": 8,
        "lr": 1e-3,
        "seed": 0,
        "weight_decay": 0.0,
        "clip_norm": 1.0,
        "split": [8.0, 1.0, 1.0],
    },
    "finetune": {
        "epochs": 20,
        "batch_size": 8,
        "lr": 5e-5,
        "seed": 0,
        "weight_decay": 0.0,
        "clip_norm": 1.0,
        "split": [8.0, 1.0, 1.0],
        "freeze_encoder": False,
        "init_from": "",
    },
    "attribution": {
        "ig_steps": 32,
        "baseline": "ZERO",
        "sg_samples": 8,
        "sg_noise_std": 0.1,
        "gauss_sigma": 1.0,
        "top_percentile": 99.0,
        "min_roi_voxels": 10,
        "only_correct": True,
    },
    "stats": {
        "input": "",
    },
}


def _merge(base: dict, incoming: dict, trail: str = "") -> None:
    for key, value in incoming.items():
        path = f"{trail}.{key}" if trail else str(key)
        if key not in base:
            raise ConfigurationError(f"unknown config key {path!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigurationError(f"config key {path!r} must be a section")
            _merge(base[key], value, path)
        else:
            base[key] = value


def parse_override(item: str) -> tuple[list[str], object]:
    if "=" not in item:
        raise ConfigurationError(f"override {item!r} is not of the form key=value")
    key, raw = item.split("=", 1)
    parts = [p for p in key.strip().split(".") if p]
    if not parts:
        raise ConfigurationError(f"override {item!r} has an empty key")
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"cannot parse value for {key!r}: {exc}") from exc
    return parts, value


def apply_override(cfg: dict, parts: list[str], value) -> None:
    node = cfg
    for i, part in enumerate(parts[:-1]):
        if part not in node or not isinstance(node[part], dict):
            raise ConfigurationError(
                f"unknown config key {'.'.join(parts[:i + 1])!r}")
        node = node[part]
    leaf = parts[-1]
    if leaf not in node:
        raise ConfigurationError(f"unknown config key {'.'.join(parts)!r}")
    if isinstance(node[leaf], dict):
        raise ConfigurationError(
            f"config key {'.'.join(parts)!r} is a section, not a value")
    node[leaf] = value


def load_config(path=None, overrides=(), seed=None, out_dir=None) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if path:
        text = Path(path).read_text()
        try:
            loaded = yaml.safe_load(text) or {}
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"cannot parse config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"config {path} must be a mapping")
        _merge(cfg, loaded)
    for item in overrides:
        parts, value = parse_override(item)
        apply_override(cfg, parts, value)
    if seed is not None:
        cfg["run"]["seed"] = int(seed)
    if out_dir is not None:
        cfg["run"]["out_dir"] = str(out_dir)
    if not cfg["data"]["root"]:
        cfg["data"]["root"] = os.environ.get(ENV_DATA_ROOT, ".")
    return cfg


def data_path(cfg: dict, key: str) -> Path | None:
    """Resolve a data-section path against the data root; None when unset."""
    raw = cfg["data"][key]
    if not raw:
        return None
    p = Path(raw)
    return p if p.is_absolute() else Path(cfg["data"]["root"]) / p


def require_data_path(cfg: dict, key: str) -> Path:
    p = data_path(cfg, key)
    if p is None:
        raise ConfigurationError(f"config field data.{key} is required "
                                 f"for this command")
    if not p.exists():
        raise ConfigurationError(f"data.{key} points at missing file {p}")
    return p


def write_snapshot(cfg: dict, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "resolved_config.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    return path


def hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_input_hashes(paths, out_dir) -> Path:
    """Manifest of sha256 digests for every input file the run consumed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digests = {}
    for p in paths:
        if p is None:
            continue
        p = Path(p)
        if p.exists() and p.is_file():
            digests[str(p)] = hash_file(p)
    path = out / "inputs.json"
    path.write_text(json.dumps(digests, indent=2, sort_keys=True))
    return path
