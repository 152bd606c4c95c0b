"""Layered run configuration: defaults, YAML file, dotted-path overrides.

Precedence is defaults < config file < --set overrides < dedicated flags
(--seed/--out-dir). Unknown keys are rejected by name at every
layer, every value is checked against the type of its default once the
layers are merged, and each command writes the fully resolved tree next to
its outputs so a run can be reproduced from the snapshot alone.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import json
import os
from pathlib import Path

import yaml

from . import artifacts, atlas, preprocess
from .attribution import AttributionConfig
from .errors import ConfigurationError
from .masking import REGION_ANY, MaskSpec
from .model import ModelConfig
from .synth import SynthConfig
from .training import RunConfig

ENV_DATA_ROOT = "REGIONMAE_DATA_ROOT"


def _fields(fn, skip=(), **extra) -> dict:
    """A config section holding the keyword defaults of ``fn``, a class or a
    function (tuples as lists), plus ``extra``, which adds CLI-only keys and
    overrides library defaults."""
    section = {}
    for name, p in inspect.signature(fn).parameters.items():
        if name not in skip and p.default is not p.empty:
            v = p.default
            section[name] = list(v) if isinstance(v, tuple) else v
    section.update(extra)
    return section


# Keys the CLI reads itself, with their defaults. Every other key of these
# sections is a keyword argument of the library call the section feeds.
CLI_ONLY: dict = {
    "preprocess": {"drop_excluded": True},
    "mask": {"t_patches": 2},
    "finetune": {"init_from": ""},
    "attribution": {"only_correct": True},
}

# Each section but run, data and stats takes its keys and defaults from the
# library signature it feeds. Where the CLI departs from the library it says
# so here: mask.strategy (no library default), mask.region (library: None)
# and pretrain.lr (library: 5e-5).
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
    "synth": _fields(SynthConfig),
    "preprocess": _fields(preprocess.preprocess_volume,
                          skip=("template_mask", "subject_id"),
                          **CLI_ONLY["preprocess"]),
    "atlas": _fields(atlas.classify_patches, skip=("grid",)),
    "mask": _fields(MaskSpec, strategy=REGION_ANY, region="frontal",
                    **CLI_ONLY["mask"]),
    "model": _fields(ModelConfig),
    "pretrain": _fields(RunConfig, skip=("phase", "mask_spec", "freeze_encoder"),
                        lr=1e-3),
    "finetune": _fields(RunConfig, skip=("phase", "mask_spec"),
                        **CLI_ONLY["finetune"]),
    "attribution": _fields(AttributionConfig, **CLI_ONLY["attribution"]),
    "stats": {
        "input": "",
    },
}

# Lists whose length may differ from the default's.
_VARIABLE_LENGTH = {"model.stage_depths"}


def _typed(key: str, value, default):
    """``value`` as the type of ``default``, or a ConfigurationError naming
    ``key``. Floats also take numeric strings: YAML 1.1 reads ``1e-3`` as a
    string. Null reads as the empty string for string keys."""
    def bad(what):
        return ConfigurationError(f"config key {key!r} must be {what}, "
                                  f"got {value!r}")

    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise bad("true or false")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not (isinstance(value, int) or (
                isinstance(value, float) and value.is_integer())):
            raise bad("an integer")
        return int(value)
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise bad("a number")
        try:
            return float(value)
        except ValueError:
            raise bad("a number") from None
    if isinstance(default, str):
        if value is None:
            return ""
        if not isinstance(value, str):
            raise bad("a string")
        return value
    fixed = key not in _VARIABLE_LENGTH
    if not isinstance(value, list) or (fixed and len(value) != len(default)):
        raise bad(f"a list of {len(default)}" if fixed else "a list")
    return [_typed(f"{key}[{i}]", v, default[0]) for i, v in enumerate(value)]


def _check_types(cfg: dict, defaults: dict = DEFAULTS, trail: str = "") -> None:
    for key, default in defaults.items():
        path = f"{trail}.{key}" if trail else key
        if isinstance(default, dict):
            _check_types(cfg[key], default, path)
        else:
            cfg[key] = _typed(path, cfg[key], default)


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
    for item in overrides:  # a.b=v merges as {a: {b: v}}
        parts, value = parse_override(item)
        for part in reversed(parts):
            value = {part: value}
        _merge(cfg, value)
    if seed is not None:
        cfg["run"]["seed"] = int(seed)
    if out_dir is not None:
        cfg["run"]["out_dir"] = str(out_dir)
    _check_types(cfg)
    if not cfg["run"]["out_dir"]:
        raise ConfigurationError("config key 'run.out_dir' must not be empty")
    if not cfg["data"]["root"]:
        cfg["data"]["root"] = os.environ.get(ENV_DATA_ROOT, ".")
    return cfg


def data_path(cfg: dict, key: str) -> Path | None:
    """Resolve a path key against the data root; None when unset. ``key`` is
    a ``data`` key, or a dotted key of another section (``stats.input``)."""
    section, _, name = key.rpartition(".")
    raw = cfg[section or "data"][name]
    if not raw:
        return None
    p = Path(raw)
    return p if p.is_absolute() else Path(cfg["data"]["root"]) / p


def require_data_path(cfg: dict, key: str) -> Path:
    dotted = key if "." in key else f"data.{key}"
    p = data_path(cfg, key)
    if p is None:
        raise ConfigurationError(f"config field {dotted} is required "
                                 f"for this command")
    if not p.is_file():  # every data key names a file, checkpoints included
        what = "directory" if p.is_dir() else "missing file"
        raise ConfigurationError(f"{dotted} points at {what} {p}")
    return p


def write_snapshot(cfg: dict, out_dir) -> Path:
    path = Path(out_dir) / "resolved_config.yaml"
    artifacts.write_text(path, yaml.safe_dump(cfg, sort_keys=True))
    return path


def hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_input_hashes(paths, out_dir) -> Path:
    """Manifest of sha256 digests for every input file the run consumed."""
    digests = {str(p): hash_file(p) for p in map(Path, filter(None, paths))
               if p.is_file()}
    path = Path(out_dir) / "inputs.json"
    artifacts.write_text(path, json.dumps(digests, indent=2, sort_keys=True))
    return path
