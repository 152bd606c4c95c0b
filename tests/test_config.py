import hashlib
import inspect
import json
import re
from dataclasses import asdict

import pytest
import yaml

from regionmae import cli
from regionmae.atlas import classify_patches
from regionmae.attribution import AttributionConfig
from regionmae.config import (
    CLI_ONLY,
    DEFAULTS,
    ENV_DATA_ROOT,
    data_path,
    hash_file,
    load_config,
    parse_override,
    require_data_path,
    write_input_hashes,
    write_snapshot,
)
from regionmae.errors import ConfigurationError
from regionmae.masking import MaskSpec
from regionmae.model import ModelConfig
from regionmae.preprocess import estimate_brain_mask, preprocess_volume
from regionmae.synth import SynthConfig, write_cohort
from regionmae.training import RunConfig


def test_defaults_load(monkeypatch):
    monkeypatch.delenv(ENV_DATA_ROOT, raising=False)
    cfg = load_config()
    assert cfg["run"]["seed"] == 0
    assert cfg["model"]["embed_dim"] == 32
    assert cfg["pretrain"]["split"] == [8.0, 1.0, 1.0]
    assert cfg["data"]["root"] == "."


def test_defaults_not_mutated():
    cfg = load_config(overrides=["run.seed=99"])
    assert cfg["run"]["seed"] == 99
    assert DEFAULTS["run"]["seed"] == 0


def test_file_merge(tmp_path):
    f = tmp_path / "cfg.yaml"
    f.write_text("pretrain:\n  epochs: 5\nmask:\n  ratio: 0.5\n")
    cfg = load_config(f)
    assert cfg["pretrain"]["epochs"] == 5
    assert cfg["mask"]["ratio"] == 0.5
    # untouched siblings keep their defaults
    assert cfg["pretrain"]["batch_size"] == 8


def test_unknown_file_key_names_path(tmp_path):
    f = tmp_path / "cfg.yaml"
    f.write_text("pretrain:\n  epocks: 5\n")
    with pytest.raises(ConfigurationError, match="pretrain.epocks"):
        load_config(f)


def test_unknown_top_level_key(tmp_path):
    f = tmp_path / "cfg.yaml"
    f.write_text("pretraining:\n  epochs: 5\n")
    with pytest.raises(ConfigurationError, match="pretraining"):
        load_config(f)


def test_malformed_yaml(tmp_path):
    f = tmp_path / "cfg.yaml"
    f.write_text("run: [unclosed\n")
    with pytest.raises(ConfigurationError):
        load_config(f)


def test_scalar_config_file_rejected(tmp_path):
    f = tmp_path / "cfg.yaml"
    f.write_text("42\n")
    with pytest.raises(ConfigurationError, match="mapping"):
        load_config(f)


@pytest.mark.parametrize("item,parts,value", [
    ("run.seed=3", ["run", "seed"], 3),
    ("pretrain.lr=0.01", ["pretrain", "lr"], 0.01),
    ("model.stage_depths=[1, 1]", ["model", "stage_depths"], [1, 1]),
    ("mask.region=temporal", ["mask", "region"], "temporal"),
    ("finetune.freeze_encoder=true", ["finetune", "freeze_encoder"], True),
])
def test_parse_override(item, parts, value):
    assert parse_override(item) == (parts, value)


def test_override_without_equals():
    with pytest.raises(ConfigurationError, match="key=value"):
        parse_override("run.seed")


def test_override_unknown_key():
    with pytest.raises(ConfigurationError, match="run.sneed"):
        load_config(overrides=["run.sneed=3"])


def test_override_section_rejected():
    with pytest.raises(ConfigurationError, match="section"):
        load_config(overrides=["run=3"])


def test_precedence_file_then_set_then_flag(tmp_path):
    f = tmp_path / "cfg.yaml"
    f.write_text("run:\n  seed: 1\n")
    cfg = load_config(f, overrides=["run.seed=2"])
    assert cfg["run"]["seed"] == 2
    cfg = load_config(f, overrides=["run.seed=2"], seed=7)
    assert cfg["run"]["seed"] == 7


def test_out_dir_flag():
    cfg = load_config(out_dir="elsewhere")
    assert cfg["run"]["out_dir"] == "elsewhere"


def test_env_data_root(monkeypatch, tmp_path):
    monkeypatch.setenv(ENV_DATA_ROOT, str(tmp_path))
    cfg = load_config()
    assert cfg["data"]["root"] == str(tmp_path)
    # an explicit root wins over the environment
    cfg = load_config(overrides=[f"data.root={tmp_path / 'other'}"])
    assert cfg["data"]["root"] == str(tmp_path / "other")


def test_data_path_resolution(tmp_path):
    cfg = load_config(overrides=[f"data.root={tmp_path}",
                                 "data.manifest=manifest.csv"])
    assert data_path(cfg, "manifest") == tmp_path / "manifest.csv"
    assert data_path(cfg, "atlas") is None
    absolute = tmp_path / "abs.csv"
    cfg = load_config(overrides=[f"data.manifest={absolute}"])
    assert data_path(cfg, "manifest") == absolute


def test_require_data_path(tmp_path):
    cfg = load_config(overrides=[f"data.root={tmp_path}"])
    with pytest.raises(ConfigurationError, match="data.manifest"):
        require_data_path(cfg, "manifest")
    cfg = load_config(overrides=[f"data.root={tmp_path}",
                                 "data.manifest=missing.csv"])
    with pytest.raises(ConfigurationError, match="missing"):
        require_data_path(cfg, "manifest")
    target = tmp_path / "manifest.csv"
    target.write_text("subject_id,path,label\n")
    cfg = load_config(overrides=[f"data.root={tmp_path}",
                                 "data.manifest=manifest.csv"])
    assert require_data_path(cfg, "manifest") == target


def test_snapshot_roundtrip(tmp_path):
    cfg = load_config(overrides=["pretrain.epochs=3"], seed=5)
    path = write_snapshot(cfg, tmp_path)
    assert path.name == "resolved_config.yaml"
    assert yaml.safe_load(path.read_text()) == cfg
    # the snapshot is a valid config file that reloads to the same tree
    for c in (load_config(), cfg):
        assert load_config(write_snapshot(c, tmp_path)) == c


def test_values_take_the_type_of_their_default(tmp_path):
    cfg = load_config(overrides=["preprocess.clip=[-3, 3]", "pretrain.lr=1",
                                 "model.heads=2.0", "mask.region=null",
                                 "synth.tr_seconds='0.5'"])
    assert cfg["preprocess"]["clip"] == [-3.0, 3.0]
    assert all(type(c) is float for c in cfg["preprocess"]["clip"])
    assert type(cfg["pretrain"]["lr"]) is float
    assert type(cfg["model"]["heads"]) is int
    assert cfg["mask"]["region"] == ""
    assert cfg["synth"]["tr_seconds"] == 0.5
    f = tmp_path / "cfg.yaml"
    f.write_text("attribution:\n  ig_steps: 2.5\n")
    with pytest.raises(ConfigurationError, match="attribution.ig_steps"):
        load_config(f)


@pytest.mark.parametrize("override,key", [
    ("model.window=[4, 4, 4]", "model.window"),
    ("model.stage_depths=[2, true]", "model.stage_depths[1]"),
    ("preprocess.fov=[96, 96, 96.5]", "preprocess.fov[2]"),
    ("pretrain.lr=fast", "pretrain.lr"),
    ("pretrain.lr=false", "pretrain.lr"),
    ("run.seed=.nan", "run.seed"),
    ("run.out_dir=", "run.out_dir"),
])
def test_bad_value_names_key(override, key):
    with pytest.raises(ConfigurationError, match=re.escape(repr(key))):
        load_config(overrides=[override])


def test_defaults_come_from_the_library():
    assert DEFAULTS["model"] == {k: list(v) if isinstance(v, tuple) else v
                                 for k, v in asdict(ModelConfig()).items()}
    assert DEFAULTS["finetune"]["lr"] == RunConfig().lr
    assert DEFAULTS["pretrain"]["lr"] == 1e-3  # the CLI's own default
    assert "freeze_encoder" not in DEFAULTS["pretrain"]

    def keyword_defaults(fn):
        return {k: list(p.default) if isinstance(p.default, tuple) else p.default
                for k, p in inspect.signature(fn).parameters.items()}

    stage = keyword_defaults(preprocess_volume)
    assert {k: v for k, v in DEFAULTS["preprocess"].items()
            if k != "drop_excluded"} == {k: stage[k] for k in (
                "fov", "target_tr", "mask_fraction", "clip", "dice_thresh",
                "p99_thresh")}
    assert stage["mask_fraction"] == \
        keyword_defaults(estimate_brain_mask)["fraction"]
    stage = keyword_defaults(classify_patches)
    assert DEFAULTS["atlas"] == {k: stage[k] for k in (
        "purity_threshold", "majority_threshold")}


# the library call each derived section feeds
LIBRARY_CALLS = {
    "synth": SynthConfig, "preprocess": preprocess_volume,
    "atlas": classify_patches, "mask": MaskSpec, "model": ModelConfig,
    "pretrain": RunConfig, "finetune": RunConfig,
    "attribution": AttributionConfig,
}


def test_every_section_key_is_a_library_keyword_or_cli_only():
    assert set(DEFAULTS) - set(LIBRARY_CALLS) == {"run", "data", "stats"}
    extra, departs = set(), set()
    for section, fn in LIBRARY_CALLS.items():
        params = inspect.signature(fn).parameters
        for key, value in DEFAULTS[section].items():
            if key not in params:
                extra.add(f"{section}.{key}")
                continue
            default = params[key].default
            if isinstance(default, tuple):
                default = list(default)
            if value != default:
                departs.add(f"{section}.{key}")
    assert extra == {"preprocess.drop_excluded", "mask.t_patches",
                     "finetune.init_from", "attribution.only_correct"}
    assert {f"{s}.{k}" for s, keys in CLI_ONLY.items() for k in keys} == extra
    assert all(DEFAULTS[s][k] == v for s, keys in CLI_ONLY.items()
               for k, v in keys.items())
    # the CLI's own defaults for library keys, as the README lists them
    assert departs == {"mask.strategy", "mask.region", "pretrain.lr"}


def test_section_values_reach_the_library_call(tmp_path, monkeypatch):
    seen = {}

    def spy(name):
        real = getattr(cli, name)

        def call(*args, **kwargs):
            seen[name] = kwargs
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, name, call)

    spy("preprocess_volume")
    spy("classify_patches")
    raw = tmp_path / "raw"
    write_cohort(SynthConfig(n_subjects=1, shape=(12, 12, 12), n_timepoints=4),
                 raw)
    common = ["--set", f"data.root={raw}", "--set", "preprocess.fov=[12, 12, 12]",
              "--set", "preprocess.clip=[-2.5, 2.5]",
              "--set", "atlas.purity_threshold=0.75"]
    assert cli.main(["--out-dir", str(tmp_path / "prep"), *common,
                     "--set", "data.manifest=manifest.csv", "preprocess"]) == 0
    assert cli.main(["--out-dir", str(tmp_path / "sets"), *common,
                     "--set", "data.atlas=atlas.nii.gz",
                     "--set", "data.region_map=region_map.csv",
                     "classify-patches"]) == 0

    kwargs = seen["preprocess_volume"]
    assert kwargs["clip"] == (-2.5, 2.5) and kwargs["fov"] == (12, 12, 12)
    assert set(kwargs) == (set(DEFAULTS["preprocess"]) - {"drop_excluded"}
                           | {"template_mask", "subject_id"})
    kwargs = seen["classify_patches"]
    assert kwargs["purity_threshold"] == 0.75
    assert set(kwargs) == set(DEFAULTS["atlas"]) | {"grid"}


def test_input_hashes(tmp_path):
    a = tmp_path / "a.bin"
    a.write_bytes(b"hello")
    path = write_input_hashes([a, None, tmp_path / "absent.bin"], tmp_path)
    digests = json.loads(path.read_text())
    assert digests == {str(a): hashlib.sha256(b"hello").hexdigest()}
    assert hash_file(a) == hashlib.sha256(b"hello").hexdigest()
