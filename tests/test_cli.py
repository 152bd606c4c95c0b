import csv
import gzip
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from regionmae import cli
from regionmae.checkpoint import save_checkpoint
from regionmae.cli import main
from regionmae.config import DEFAULTS, hash_file
from regionmae.masking import load_mask
from regionmae.model import HybridModel, ModelConfig
from regionmae.nifti import LabelVolume, Volume4D, read_header, read_nifti, write_nifti
from regionmae.preprocess import read_manifest, write_manifest
from regionmae.synth import SynthConfig, write_cohort
from regionmae.training import split_subjects

SMALL_MODEL = [
    "--set", "model.embed_dim=8",
    "--set", "model.heads=2",
    "--set", "model.stage_depths=[1, 1]",
    "--set", "model.ssm_state_dim=4",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole CLI chain once on a tiny synthetic cohort."""
    root = tmp_path_factory.mktemp("pipeline")
    synth = root / "synth"
    prep = root / "prep"
    patches = root / "patches"
    maskdir = root / "mask"
    pre = root / "pretrain"
    ft = root / "finetune"
    attr = root / "attr"

    assert main(["--out-dir", str(synth), "synth",
                 "--subjects", "14", "--shape", "24"]) == 0

    assert main(["--out-dir", str(prep),
                 "--set", f"data.manifest={synth / 'manifest.csv'}",
                 "--set", "preprocess.fov=[24, 24, 24]",
                 "preprocess"]) == 0

    assert main(["--out-dir", str(patches),
                 "--set", f"data.atlas={synth / 'atlas.nii.gz'}",
                 "--set", f"data.region_map={synth / 'region_map.csv'}",
                 "classify-patches"]) == 0

    assert main(["--out-dir", str(maskdir),
                 "--set", f"data.patch_sets={patches / 'patch_sets.json'}",
                 "build-mask"]) == 0

    assert main(["--out-dir", str(pre),
                 "--set", f"data.manifest={prep / 'manifest.csv'}",
                 "--set", f"data.patch_sets={patches / 'patch_sets.json'}",
                 "--set", "pretrain.epochs=2",
                 *SMALL_MODEL,
                 "pretrain"]) == 0

    assert main(["--out-dir", str(ft),
                 "--set", f"data.manifest={prep / 'manifest.csv'}",
                 "--set", f"finetune.init_from={pre / 'model.ckpt'}",
                 "--set", "finetune.epochs=2",
                 *SMALL_MODEL,
                 "finetune"]) == 0

    assert main(["--out-dir", str(attr),
                 "--set", f"data.manifest={prep / 'manifest.csv'}",
                 "--set", f"data.checkpoint={ft / 'model.ckpt'}",
                 "--set", f"data.atlas={synth / 'atlas.nii.gz'}",
                 "--set", f"data.region_map={synth / 'region_map.csv'}",
                 "--set", "attribution.ig_steps=2",
                 "--set", "attribution.sg_samples=1",
                 "--set", "attribution.only_correct=false",
                 *SMALL_MODEL,
                 "attribute"]) == 0

    return root


def test_synth_quickstart(tmp_path):
    out = tmp_path / "cohort"
    assert main(["--out-dir", str(out), "synth",
                 "--subjects", "4", "--shape", "48"]) == 0
    bolds = sorted(out.glob("sub-*_bold.nii.gz"))
    assert len(bolds) == 4
    for name in ("atlas.nii.gz", "brain_mask.nii.gz", "region_map.csv",
                 "manifest.csv", "resolved_config.yaml", "inputs.json"):
        assert (out / name).exists()
    # the snapshot records what the convenience flags resolved to
    snapshot = (out / "resolved_config.yaml").read_text()
    assert "n_subjects: 4" in snapshot
    records = read_manifest(out / "manifest.csv")
    assert [r.label for r in records] == [0, 1, 0, 1]


def test_global_flags_accepted_after_subcommand(tmp_path):
    out = tmp_path / "cohort"
    assert main(["synth", "--out-dir", str(out), "--subjects", "2",
                 "--set", "synth.shape=[12, 12, 12]"]) == 0
    assert len(list(out.glob("sub-*_bold.nii.gz"))) == 2


def test_unknown_set_key_exits_2(tmp_path, capsys):
    rc = main(["--out-dir", str(tmp_path), "--set", "run.sneed=3", "synth"])
    assert rc == 2
    assert "run.sneed" in capsys.readouterr().err


def test_unknown_config_file_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("pretrain:\n  epocks: 5\n")
    rc = main(["--config", str(cfg), "--out-dir", str(tmp_path / "o"), "synth"])
    assert rc == 2
    assert "pretrain.epocks" in capsys.readouterr().err


def test_missing_required_input_exits_2(tmp_path, capsys):
    rc = main(["--out-dir", str(tmp_path / "o"), "preprocess"])
    assert rc == 2
    assert "data.manifest" in capsys.readouterr().err


def test_unreadable_volume_exits_1(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    bogus = tmp_path / "nope.nii.gz"
    bogus.write_bytes(b"not a nifti")
    manifest.write_text(f"subject_id,path,label\ns0,{bogus},0\n")
    rc = main(["--out-dir", str(tmp_path / "o"),
               "--set", f"data.manifest={manifest}", "preprocess"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("text, where", [
    ("subject_id,volume\ns0,a.nii.gz\n", ":1:"),
    ("subject_id,path,label\ns0,a.nii.gz,0\ns1,b.nii.gz,yes\n", ":3:"),
    ("subject_id,path,label\ns0,a.nii.gz,2\n", ":2:"),
    ("subject_id,path,label\ns0,a.nii.gz,0\ns0,b.nii.gz,1\n", ":3:"),
], ids=["no_path_column", "label_yes", "label_2", "duplicate_subject"])
def test_malformed_manifest_exits_2_naming_file_and_line(tmp_path, capsys, text,
                                                          where):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(text)
    rc = main(["--out-dir", str(tmp_path / "o"),
               "--set", f"data.manifest={manifest}", "preprocess"])
    assert rc == 2
    assert f"{manifest}{where}" in capsys.readouterr().err


@pytest.mark.parametrize("text, where", [
    ("label,macroregion\n1,frontal\nfront,parietal\n", ":3:"),
    ("label,macroregion\n1,cortex\n", ": unknown macroregion"),
], ids=["non_numeric_label", "unknown_region"])
def test_malformed_region_map_exits_2_naming_file(tmp_path, capsys, text, where):
    atlas = tmp_path / "atlas.nii.gz"
    write_nifti(LabelVolume(labels=np.ones((12, 12, 12), dtype=np.int16),
                            affine=np.eye(4)), atlas)
    region_map = tmp_path / "region_map.csv"
    region_map.write_text(text)
    rc = main(["--out-dir", str(tmp_path / "o"),
               "--set", f"data.atlas={atlas}",
               "--set", f"data.region_map={region_map}",
               "classify-patches"])
    assert rc == 2
    assert f"{region_map}{where}" in capsys.readouterr().err


def test_invalid_synth_config_exits_2(tmp_path, capsys):
    # a 0 must reach SynthConfig, not be skipped as "flag not given"
    for flags in (["--shape", "4"], ["--shape", "0"], ["--subjects", "0"]):
        rc = main(["--out-dir", str(tmp_path), "synth", *flags])
        assert rc == 2
        assert "synth:" in capsys.readouterr().err
        assert not (tmp_path / "manifest.csv").exists()


def _leaf_keys(tree, trail=""):
    for key, value in tree.items():
        path = f"{trail}.{key}" if trail else key
        if isinstance(value, dict):
            yield from _leaf_keys(value, path)
        else:
            yield path, value


def _wrong_value(default):
    """A --set value of the wrong type for a key with this default."""
    if isinstance(default, bool):
        return "maybe"
    if isinstance(default, int):
        return "2.9"
    if isinstance(default, float):
        return "abc"
    if isinstance(default, str):
        return "7"
    return "3"  # a scalar where a list belongs


# One row per leaf key (this covers model.stage_depths=3,
# attribution.ig_steps=2.9 and finetune.freeze_encoder=maybe), then extras.
BAD_VALUES = [(key, _wrong_value(default))
              for key, default in _leaf_keys(DEFAULTS)] + [
    ("model.embed_dim", "abc"),
    ("model.window", "[4, 4, 4]"),
    ("model.patch_size", "[6, 6, x]"),
    ("pretrain.epochs", "true"),
    ("pretrain.split", "[8, 1, true]"),
]


@pytest.mark.parametrize("key,value", BAD_VALUES,
                         ids=[f"{k}={v}" for k, v in BAD_VALUES])
def test_wrong_typed_value_exits_2_naming_key(tmp_path, capsys, key, value):
    # --out-dir would win over a bad run.out_dir, so the tree sets it instead
    rc = main(["--set", f"run.out_dir={tmp_path}", "--set", f"{key}={value}",
               "stats"])
    assert rc == 2
    assert key in capsys.readouterr().err


def test_float_key_accepts_yaml_string_exponent(tmp_path):
    # YAML 1.1 reads 1e-3 (no dot) as a string; float keys still take it
    assert main(["--out-dir", str(tmp_path), "--set", "pretrain.lr=1e-3",
                 "synth", "--subjects", "1", "--shape", "12"]) == 0
    snapshot = yaml.safe_load((tmp_path / "resolved_config.yaml").read_text())
    assert snapshot["pretrain"]["lr"] == 0.001


@pytest.mark.parametrize("command,bad", [
    ("pretrain", "pretrain.epochs=0"),
    ("pretrain", "mask.ratio=1.5"),
    ("pretrain", "model.heads=3"),
    ("finetune", "finetune.split=[1, 0, 1]"),
    ("finetune", "model.configuration=TRANSFORMER"),
    ("attribute", "attribution.top_percentile=150"),
    ("attribute", "model.patch_size=[6, 0, 6]"),
])
def test_bad_value_fails_before_reading_volumes(pipeline, tmp_path, capsys,
                                               monkeypatch, command, bad):
    reads = []
    monkeypatch.setattr(cli, "read_nifti", lambda *a, **k: reads.append(a))
    synth = pipeline / "synth"
    rc = main(["--out-dir", str(tmp_path),
               "--set", f"data.manifest={pipeline / 'prep' / 'manifest.csv'}",
               "--set", f"data.patch_sets={pipeline / 'patches' / 'patch_sets.json'}",
               "--set", f"data.checkpoint={pipeline / 'finetune' / 'model.ckpt'}",
               "--set", f"data.atlas={synth / 'atlas.nii.gz'}",
               "--set", f"data.region_map={synth / 'region_map.csv'}",
               *SMALL_MODEL, "--set", bad, command])
    assert rc == 2
    assert bad.split(".")[0] + ":" in capsys.readouterr().err
    assert reads == []


def test_preprocess_outputs(pipeline):
    prep = pipeline / "prep"
    records = read_manifest(prep / "manifest.csv")
    assert len(records) == 14  # synthetic cohort passes its own QC gate
    assert all(Path(r.path).exists() for r in records)
    assert all(r.label in (0, 1) for r in records)
    qc = (prep / "qc.csv").read_text().splitlines()
    assert qc[0] == "subject_id,dice,p99,excluded,reasons"
    assert len(qc) == 15


def test_classify_outputs(pipeline):
    patches = pipeline / "patches"
    sets = json.loads((patches / "patch_sets.json").read_text())
    report = (patches / "patch_report.csv").read_text().splitlines()
    assert report[0] == "region,criterion,n_patches,n_voxels"
    assert len(report) > 1
    assert sets["grid_dims"] == [4, 4, 4]


def test_classify_patches_uses_model_patch_size(pipeline, tmp_path, capsys):
    synth = pipeline / "synth"
    atlas = ["--set", f"data.atlas={synth / 'atlas.nii.gz'}",
             "--set", f"data.region_map={synth / 'region_map.csv'}"]
    patches = tmp_path / "patches"
    assert main(["--out-dir", str(patches), *atlas,
                 "--set", "model.patch_size=[3, 3, 3]", "classify-patches"]) == 0
    sets = patches / "patch_sets.json"
    assert json.loads(sets.read_text())["grid_dims"] == [8, 8, 8]
    # pretrain takes the same size and the 8^3 x 2 mask lattice fits its tokens
    assert main(["--out-dir", str(tmp_path / "pretrain"),
                 "--set", f"data.manifest={pipeline / 'prep' / 'manifest.csv'}",
                 "--set", f"data.patch_sets={sets}", "--set", "pretrain.epochs=1",
                 *SMALL_MODEL, "--set", "model.patch_size=[3, 3, 3]",
                 "pretrain"]) == 0
    capsys.readouterr()
    for bad in ("[5, 5, 5]", "[0, 6, 6]"):
        rc = main(["--out-dir", str(tmp_path / "bad"), *atlas,
                   "--set", f"model.patch_size={bad}", "classify-patches"])
        assert rc == 2
        assert "model.patch_size" in capsys.readouterr().err


def test_preprocess_template_mask(pipeline, tmp_path, capsys):
    synth = pipeline / "synth"
    brain = synth / "brain_mask.nii.gz"
    miss = tmp_path / "miss.nii.gz"
    corner = np.zeros((24, 24, 24), dtype=np.int32)
    corner[:2, :2, :2] = 1  # outside the synthetic brain
    write_nifti(LabelVolume(labels=corner, affine=np.eye(4)), miss)
    for template, dice, reasons in ((miss, "0.000000", "DICE_FAIL"),
                                    (brain, "1.000000", "")):
        out = tmp_path / ("fail" if reasons else "pass")
        capsys.readouterr()
        assert main(["--out-dir", str(out),
                     "--set", f"data.manifest={synth / 'manifest.csv'}",
                     "--set", f"data.template_mask={template}",
                     "--set", "preprocess.fov=[24, 24, 24]",
                     "--set", "preprocess.drop_excluded=false",
                     "preprocess"]) == 0
        rows = (out / "qc.csv").read_text().splitlines()[1:]
        assert len(rows) == 14
        assert all(r.split(",")[1] == dice and r.split(",")[4] == reasons
                   for r in rows)
        n_excluded = 14 if reasons else 0
        assert f"14 subjects ({n_excluded} excluded)" in capsys.readouterr().out
        inputs = json.loads((out / "inputs.json").read_text())
        assert inputs[str(template)] == hash_file(template)


def test_preprocess_missing_template_mask_exits_2(pipeline, tmp_path, capsys):
    synth = pipeline / "synth"
    rc = main(["--out-dir", str(tmp_path / "out"),
               "--set", f"data.manifest={synth / 'manifest.csv'}",
               "--set", f"data.template_mask={tmp_path / 'no_such_mask.nii.gz'}",
               "--set", "preprocess.fov=[24, 24, 24]",
               "preprocess"])
    assert rc == 2
    assert "data.template_mask" in capsys.readouterr().err
    assert not (tmp_path / "out" / "qc.csv").exists()


def test_preprocess_template_mask_of_another_shape_fails_before_reading_volumes(
        pipeline, tmp_path, capsys, monkeypatch):
    small = tmp_path / "small.nii.gz"
    write_nifti(LabelVolume(labels=np.ones((10, 10, 10), dtype=np.int32),
                            affine=np.eye(4)), small)
    kinds = []
    real = cli.read_nifti

    def spy(path, kind):
        kinds.append(kind)
        return real(path, kind=kind)

    monkeypatch.setattr(cli, "read_nifti", spy)
    synth = pipeline / "synth"
    rc = main(["--out-dir", str(tmp_path / "out"),
               "--set", f"data.manifest={synth / 'manifest.csv'}",
               "--set", f"data.template_mask={small}",
               "--set", "preprocess.fov=[24, 24, 24]",
               "preprocess"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data.template_mask" in err and "preprocess.fov" in err
    assert kinds == ["labels"]  # the template only, no subject volume


def test_pretrain_bad_clip_norm_exits_2_before_reading_volumes(
        pipeline, tmp_path, capsys, monkeypatch):
    reads = []
    monkeypatch.setattr(cli, "read_nifti", lambda path, kind: reads.append(path))
    rc = main(["--out-dir", str(tmp_path / "out"),
               "--set", f"data.manifest={pipeline / 'prep' / 'manifest.csv'}",
               "--set", f"data.patch_sets={pipeline / 'patches' / 'patch_sets.json'}",
               "--set", "pretrain.clip_norm=-1",
               *SMALL_MODEL,
               "pretrain"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pretrain" in err and "clip_norm" in err
    assert reads == []
    assert not (tmp_path / "out" / "model.ckpt").exists()


def _reading_spy(monkeypatch):
    """Pass every ``cli.read_nifti`` call through; return the paths read."""
    reads = []
    real = cli.read_nifti

    def spy(path, kind):
        reads.append(path)
        return real(path, kind=kind)

    monkeypatch.setattr(cli, "read_nifti", spy)
    return reads


def test_finetune_unlabeled_subject_exits_2_before_reading_volumes(
        pipeline, tmp_path, capsys, monkeypatch):
    records = read_manifest(pipeline / "prep" / "manifest.csv")
    records[3].label = None
    write_manifest(records, tmp_path / "manifest.csv")
    reads = _reading_spy(monkeypatch)
    rc = main(["--out-dir", str(tmp_path / "out"),
               "--set", f"data.manifest={tmp_path / 'manifest.csv'}",
               "--set", f"finetune.init_from={pipeline / 'pretrain' / 'model.ckpt'}",
               *SMALL_MODEL, "finetune"])
    assert rc == 2
    assert "label for every subject" in capsys.readouterr().err
    assert reads == []


def test_pretrain_too_few_subjects_exits_2_before_reading_volumes(
        pipeline, tmp_path, capsys, monkeypatch):
    records = read_manifest(pipeline / "prep" / "manifest.csv")
    write_manifest(records[:9], tmp_path / "manifest.csv")
    reads = _reading_spy(monkeypatch)
    rc = main(["--out-dir", str(tmp_path / "out"),
               "--set", f"data.manifest={tmp_path / 'manifest.csv'}",
               "--set", f"data.patch_sets={pipeline / 'patches' / 'patch_sets.json'}",
               *SMALL_MODEL, "pretrain"])
    assert rc == 2
    assert "at least 10 subjects, got 9" in capsys.readouterr().err
    assert reads == []


def test_pretrain_non_cubic_patch_exits_2_before_reading_volumes(
        pipeline, tmp_path, capsys, monkeypatch):
    synth = pipeline / "synth"
    # classify-patches takes the same size
    assert main(["--out-dir", str(tmp_path / "patches"),
                 "--set", f"data.atlas={synth / 'atlas.nii.gz'}",
                 "--set", f"data.region_map={synth / 'region_map.csv'}",
                 "--set", "model.patch_size=[4, 6, 6]", "classify-patches"]) == 0
    reads = []
    monkeypatch.setattr(cli, "read_nifti", lambda path, kind: reads.append(path))
    rc = main(["--out-dir", str(tmp_path / "out"),
               "--set", f"data.manifest={pipeline / 'prep' / 'manifest.csv'}",
               "--set", f"data.patch_sets={tmp_path / 'patches' / 'patch_sets.json'}",
               *SMALL_MODEL, "--set", "model.patch_size=[4, 6, 6]", "pretrain"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "model.patch_size" in err and "cubic" in err
    assert reads == []


# case -> (model changes, the config key each command's error names)
BAD_GEOMETRY = {
    "last-subject-wrong-shape": ({}, {"pretrain": "data.patch_sets",
                                      "finetune": "model.stage_depths",  # x lattice 5
                                      "attribute": "data.atlas"}),
    "timepoints-not-divisible": ({}, dict.fromkeys(("pretrain", "finetune", "attribute"),
                                                   "model.t_patch")),
    "window-not-dividing": ({"configuration": "AM", "window": (3, 3, 3, 2)},
                            dict.fromkeys(("pretrain", "finetune", "attribute"),
                                          "model.window")),
}


@pytest.mark.parametrize("command", ["pretrain", "finetune", "attribute"])
@pytest.mark.parametrize("case", list(BAD_GEOMETRY))
def test_bad_geometry_exits_2_from_the_headers_before_any_payload_read(
        pipeline, tmp_path, capsys, monkeypatch, command, case):
    changes, keys = BAD_GEOMETRY[case]
    records = read_manifest(pipeline / "prep" / "manifest.csv")
    train, val, test = split_subjects(records, (8.0, 1.0, 1.0), seed=0)
    # the last subject the command reads (pretrain leaves the test split
    # out) has the bad volume; a bad window fails at the first
    read = {"pretrain": train + val, "finetune": train + val + test,
            "attribute": records}[command]
    named = read[0] if case == "window-not-dividing" else read[-1]
    if case != "window-not-dividing":
        x, y, z, n_t = read_header(named.path).shape
        shape = (x + 6, y, z, n_t) if case == "last-subject-wrong-shape" else (x, y, z, n_t + 2)
        assert shape[3] % 4 or shape[0] == 30
        named.path = str(tmp_path / "bad.nii.gz")
        write_nifti(Volume4D(data=np.zeros(shape, np.float32), affine=np.eye(4)), named.path)
    write_manifest(records, tmp_path / "manifest.csv")
    # a checkpoint of the model under test: its config_hash check passes
    model_cfg = ModelConfig(embed_dim=8, heads=2, stage_depths=(1, 1), ssm_state_dim=4,
                            **changes)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint({k: p.data for k, p in HybridModel(model_cfg).params.items()}, ckpt,
                    model_cfg.config_hash())
    overrides = [f"model.{k}={list(v) if isinstance(v, tuple) else v}"
                 for k, v in changes.items()]
    reads = _reading_spy(monkeypatch)
    synth = pipeline / "synth"
    rc = main(["--out-dir", str(tmp_path / "out"),
               "--set", f"data.manifest={tmp_path / 'manifest.csv'}",
               "--set", f"data.patch_sets={pipeline / 'patches' / 'patch_sets.json'}",
               "--set", f"finetune.init_from={ckpt}",
               "--set", f"data.checkpoint={ckpt}",
               "--set", f"data.atlas={synth / 'atlas.nii.gz'}",
               "--set", f"data.region_map={synth / 'region_map.csv'}",
               *SMALL_MODEL, *(a for o in overrides for a in ("--set", o)), command])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"subject {named.subject_id} ({named.path})" in err and keys[command] in err
    assert reads == []


def _unreadable_header(good: bytes, case: str) -> bytes:
    """A .nii.gz whose header ``read_header`` cannot read, from a good one."""
    header = gzip.decompress(good)[:348]
    if case == "bad-magic":
        return gzip.compress(header[:344] + b"xyz\0")
    if case == "truncated-header":
        return gzip.compress(header[:200])
    return good[:10] + b"\xff" * 64  # a gzip member header, then no deflate stream


@pytest.mark.parametrize("command", ["pretrain", "finetune", "attribute"])
@pytest.mark.parametrize("case", ["bad-magic", "truncated-header", "corrupt-gzip"])
def test_unreadable_header_exits_2_naming_the_subject_before_any_payload_read(
        pipeline, tmp_path, capsys, monkeypatch, command, case):
    records = read_manifest(pipeline / "prep" / "manifest.csv")
    train, val, test = split_subjects(records, (8.0, 1.0, 1.0), seed=0)
    named = {"pretrain": train + val, "finetune": train + val + test,
             "attribute": records}[command][-1]
    bad = tmp_path / "bad.nii.gz"
    bad.write_bytes(_unreadable_header(Path(named.path).read_bytes(), case))
    named.path = str(bad)
    write_manifest(records, tmp_path / "manifest.csv")
    reads = _reading_spy(monkeypatch)
    synth = pipeline / "synth"
    rc = main(["--out-dir", str(tmp_path / "out"),
               "--set", f"data.manifest={tmp_path / 'manifest.csv'}",
               "--set", f"data.patch_sets={pipeline / 'patches' / 'patch_sets.json'}",
               "--set", f"finetune.init_from={pipeline / 'pretrain' / 'model.ckpt'}",
               "--set", f"data.checkpoint={pipeline / 'finetune' / 'model.ckpt'}",
               "--set", f"data.atlas={synth / 'atlas.nii.gz'}",
               "--set", f"data.region_map={synth / 'region_map.csv'}",
               *SMALL_MODEL, command])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"subject {named.subject_id} ({bad})" in err and "data.manifest" in err
    assert reads == []


def test_attribute_holds_one_volume_at_a_time(pipeline, tmp_path):
    records = read_manifest(pipeline / "prep" / "manifest.csv")
    volume_bytes = read_nifti(records[0].path, kind="volume").data.nbytes
    synth = pipeline / "synth"

    def attribute(n):
        write_manifest(records[:n], tmp_path / f"manifest{n}.csv")
        assert main(["--out-dir", str(tmp_path / f"attr{n}"),
                     "--set", f"data.manifest={tmp_path / f'manifest{n}.csv'}",
                     "--set", f"data.checkpoint={pipeline / 'finetune' / 'model.ckpt'}",
                     "--set", f"data.atlas={synth / 'atlas.nii.gz'}",
                     "--set", f"data.region_map={synth / 'region_map.csv'}",
                     "--set", "attribution.ig_steps=2",
                     "--set", "attribution.sg_samples=1",
                     "--set", "attribution.only_correct=false",
                     *SMALL_MODEL, "attribute"]) == 0

    attribute(2)  # warm-up: first-call allocations stay out of the peaks
    peaks = {}
    for n in (2, 6):
        tracemalloc.start()
        try:
            attribute(n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[6] - peaks[2] < volume_bytes, (peaks, volume_bytes)


def test_preprocess_holds_one_subject_at_a_time(tmp_path):
    # raw 40^3 x 6 at TR 1.2 s: every subject is cropped and resampled
    manifest = write_cohort(SynthConfig(n_subjects=4, shape=(40, 40, 40),
                                        n_timepoints=6, tr_seconds=1.2, seed=9),
                            tmp_path / "raw")
    records = read_manifest(manifest)
    raw_bytes = read_nifti(records[0].path, kind="volume").data.nbytes

    def preprocess(n):
        write_manifest(records[:n], tmp_path / f"manifest{n}.csv")
        assert main(["--out-dir", str(tmp_path / f"prep{n}"),
                     "--set", f"data.manifest={tmp_path / f'manifest{n}.csv'}",
                     "--set", "preprocess.fov=[32, 32, 32]",
                     "preprocess"]) == 0

    preprocess(1)  # warm-up: first-call allocations stay out of the peaks
    peaks = {}
    for n in (1, 4):
        tracemalloc.start()
        try:
            preprocess(n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # against one subject alone, so a subject's arrays kept alive while the
    # next one is read count as much as arrays kept for the whole cohort
    assert peaks[4] - peaks[1] < raw_bytes, (peaks, raw_bytes)


def test_preprocess_nan_voxel_exits_2_naming_the_file(tmp_path, capsys):
    manifest = write_cohort(SynthConfig(n_subjects=3, shape=(16, 16, 16),
                                        n_timepoints=4, seed=3), tmp_path / "raw")
    bad = read_manifest(manifest)[1]
    vol = read_nifti(bad.path, kind="volume")
    vol.data[8, 8, 8, 2] = np.nan
    write_nifti(vol, bad.path)
    rc = main(["--out-dir", str(tmp_path / "prep"),
               "--set", f"data.manifest={manifest}",
               "--set", "preprocess.fov=[16, 16, 16]", "preprocess"])
    assert rc == 2
    assert f"{bad.subject_id} ({bad.path}): volume has NaN or infinite values" \
        in capsys.readouterr().err
    # the subject before it was written, then removed with the failed run
    assert not list((tmp_path / "prep").glob("*_preproc.nii.gz"))


@pytest.mark.parametrize("field", ["gauss_sigma", "sg_noise_std"])
def test_attribute_nan_exits_2_before_reading_volumes(
        pipeline, tmp_path, capsys, monkeypatch, field):
    reads = []
    monkeypatch.setattr(cli, "read_nifti", lambda path, kind: reads.append(path))
    synth = pipeline / "synth"
    rc = main(["--out-dir", str(tmp_path / "out"),
               "--set", f"data.manifest={pipeline / 'prep' / 'manifest.csv'}",
               "--set", f"data.checkpoint={pipeline / 'finetune' / 'model.ckpt'}",
               "--set", f"data.atlas={synth / 'atlas.nii.gz'}",
               "--set", f"data.region_map={synth / 'region_map.csv'}",
               "--set", f"attribution.{field}=.nan",
               *SMALL_MODEL,
               "attribute"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "attribution" in err and field in err
    assert reads == []


def _drop_grid_dims(blob):
    del blob["grid_dims"]


def _float_index(blob):
    blob["regions"]["frontal"]["any"][0] = 1.5


def _index_past_the_grid(blob):
    blob["regions"]["frontal"]["any"].append(int(np.prod(blob["grid_dims"])))


@pytest.mark.parametrize("command", ["build-mask", "pretrain"])
@pytest.mark.parametrize(
    "spoil", [None, _drop_grid_dims, _float_index, _index_past_the_grid],
    ids=["not-json", "no-grid-dims", "float-index", "index-past-grid"])
def test_malformed_patch_sets_exit_2_naming_the_file(
        pipeline, tmp_path, capsys, monkeypatch, command, spoil):
    reads = []
    real = cli.read_nifti
    monkeypatch.setattr(cli, "read_nifti",
                        lambda path, kind: reads.append(path) or real(path, kind))
    good = (pipeline / "patches" / "patch_sets.json").read_text()
    bad = tmp_path / "patch_sets.json"
    if spoil is None:
        bad.write_text(good[:-1])  # not JSON: the closing brace is cut
    else:
        blob = json.loads(good)
        spoil(blob)
        bad.write_text(json.dumps(blob))
    rc = main(["--out-dir", str(tmp_path / "out"),
               "--set", f"data.patch_sets={bad}",
               "--set", f"data.manifest={pipeline / 'prep' / 'manifest.csv'}",
               *SMALL_MODEL, command])
    assert rc == 2
    assert str(bad) in capsys.readouterr().err
    assert reads == []


def test_mask_artifact_loads(pipeline):
    tensor, spec = load_mask(pipeline / "mask" / "mask.bits")
    assert spec.strategy == "REGION_ANY"
    assert tensor.mask.shape[1] == 2  # eight timepoints / t_patch 4
    assert 0 < tensor.masked_slots < tensor.mask.size


def test_build_mask_idempotent(pipeline, tmp_path):
    again = tmp_path / "mask2"
    assert main(["--out-dir", str(again),
                 "--set",
                 f"data.patch_sets={pipeline / 'patches' / 'patch_sets.json'}",
                 "build-mask"]) == 0
    first = (pipeline / "mask" / "mask.bits").read_bytes()
    assert (again / "mask.bits").read_bytes() == first


def test_pretrain_outputs(pipeline):
    pre = pipeline / "pretrain"
    with open(pre / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["split"] for r in rows} == {"train", "val"}
    assert max(int(r["epoch"]) for r in rows) == 1
    assert (pre / "model.ckpt").exists()
    assert (pre / "model.ckpt.manifest.json").exists()
    hashes = json.loads((pre / "inputs.json").read_text())
    assert len(hashes) >= 15  # manifest + 14 volumes + patch sets


def test_finetune_outputs(pipeline):
    ft = pipeline / "finetune"
    summary = json.loads((ft / "test_metrics.json").read_text())
    assert set(summary) == {"test_acc", "test_auroc", "test_loss",
                            "best_epoch"}
    assert 0.0 <= summary["test_acc"] <= 1.0
    with open(ft / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["split"] for r in rows} == {"train", "val", "test"}


def test_attribute_outputs(pipeline):
    attr = pipeline / "attr"
    rois = (attr / "roi_table.csv").read_text().splitlines()
    assert rois[0] == "roi_label,roi_name,voxels,mean_attr,rank"
    assert len(rois) > 1
    assert "frontal" in rois[1] or "temporal" in rois[1] or \
        "parietal" in rois[1] or "occipital" in rois[1] or \
        "limbic" in rois[1] or "subcortical" in rois[1] or \
        "cerebellum" in rois[1]
    for name in ("group_map.nii.gz", "thresholded_map.nii.gz"):
        assert (attr / name).exists()


@pytest.mark.parametrize("region", ["", "null"])
def test_empty_or_null_region_means_no_region(pipeline, tmp_path, capsys,
                                              region):
    sets = pipeline / "patches" / "patch_sets.json"
    out = tmp_path / "random"
    assert main(["--out-dir", str(out), "--set", f"data.patch_sets={sets}",
                 "--set", "mask.strategy=RANDOM_TUBE", "--set", "mask.ratio=0.5",
                 "--set", f"mask.region={region}", "build-mask"]) == 0
    _, spec = load_mask(out / "mask.bits")
    assert spec.region is None
    rc = main(["--out-dir", str(tmp_path / "region"),
               "--set", f"data.patch_sets={sets}",
               "--set", f"mask.region={region}", "build-mask"])
    assert rc == 2
    assert "requires a region" in capsys.readouterr().err


def test_snapshot_reproduces_run(pipeline, tmp_path):
    # re-running build-mask from the snapshot alone gives the same artifact
    snapshot = pipeline / "mask" / "resolved_config.yaml"
    out = tmp_path / "replay"
    assert main(["--config", str(snapshot), "--out-dir", str(out),
                 "build-mask"]) == 0
    assert (out / "mask.bits").read_bytes() == \
        (pipeline / "mask" / "mask.bits").read_bytes()


def test_stats_command(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(9, 3)) + np.array([0.0, 0.3, 0.6])
    src = tmp_path / "scores.csv"
    with open(src, "w") as fh:
        fh.write("mamba,alternate,am\n")
        for row in matrix:
            fh.write(",".join(f"{v:.6f}" for v in row) + "\n")
    out = tmp_path / "stats"
    assert main(["--out-dir", str(out),
                 "--set", f"stats.input={src}", "stats"]) == 0
    lines = (out / "stats.csv").read_text().splitlines()
    assert lines[0] == "comparison,raw_p,corrected_p,tier"
    assert len(lines) == 4  # three pairwise comparisons
    fried = json.loads((out / "friedman.json").read_text())
    assert 0.0 <= fried["p_value"] <= 1.0
    assert fried["conditions"] == ["mamba", "alternate", "am"]


@pytest.mark.parametrize("text", ["a,b,c\n1,2,x\n", "a,b,c\n", "a,b,c\n\n\n",
                                  "a,b,c\n1,2\n3,4\n"],
                         ids=["non_numeric", "header_only", "blank_rows", "narrow_rows"])
def test_stats_unreadable_input_exits_2_naming_key(tmp_path, capsys, text):
    src = tmp_path / "scores.csv"
    src.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--out-dir", str(tmp_path / "o"), "--set", f"stats.input={src}",
                   "stats"])
    assert rc == 2
    assert f"stats.input {src}" in capsys.readouterr().err


def test_stats_non_numeric_cell_names_its_line(tmp_path, capsys):
    src = tmp_path / "scores.csv"
    src.write_text("a,b,c\n\n1,2,3\n4,5,x\n")
    rc = main(["--out-dir", str(tmp_path / "o"), "--set", f"stats.input={src}",
               "stats"])
    assert rc == 2
    assert f"stats.input {src}:4: could not convert string to float: 'x'" \
        in capsys.readouterr().err
    src.write_text("a,b,c\n1,2,x\n")
    assert main(["--out-dir", str(tmp_path / "o"), "--set", f"stats.input={src}",
                 "stats"]) == 2
    assert f"stats.input {src}:2: " in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_stats_non_finite_cell_exits_2_naming_its_line(tmp_path, capsys, cell):
    src = tmp_path / "scores.csv"
    src.write_text(f"a,b,c\n1,2,3\n4,{cell},6\n7,8,9\n2,1,3\n5,6,4\n")
    rc = main(["--out-dir", str(tmp_path / "o"), "--set", f"stats.input={src}",
               "stats"])
    assert rc == 2
    assert f"stats.input {src}:3: every value must be finite, got 4,{cell},6" \
        in capsys.readouterr().err
    assert not (tmp_path / "o" / "stats.csv").exists()


def _tied_table(n, k):
    """Scores on a 0.01 grid: ties within rows and among paired differences."""
    rows = [",".join(f"{0.5 + 0.03 * j + 0.02 * ((i * 7 + j * 5 + i * i * j) % 9):.2f}"
                     for j in range(k)) for i in range(n)]
    return "\n".join([",".join(f"c{j}" for j in range(k))] + rows) + "\n"


# stats.csv and friedman.json of the rank-by-hand implementation, byte for
# byte; 10 rows take the exact Wilcoxon branch, 30 the normal approximation
TIED_STATS_BYTES = {
    (10, 4): (
        b"comparison,raw_p,corrected_p,tier\r\nc0_vs_c1,0.12109375,0.7265625,n.s.\r\n"
        b"c0_vs_c2,0.015625,0.09375,n.s.\r\nc0_vs_c3,0.001953125,0.01171875,*\r\n"
        b"c1_vs_c2,0.607421875,1,n.s.\r\nc1_vs_c3,0.09765625,0.5859375,n.s.\r\n"
        b"c2_vs_c3,0.35546875,1,n.s.\r\n",
        b'{\n  "statistic": 11.571428571428571,\n  "p_value": 0.009005193114871064,\n'
        b'  "conditions": [\n    "c0",\n    "c1",\n    "c2",\n    "c3"\n  ],\n'
        b'  "n_rows": 10\n}'),
    (30, 5): (
        b"comparison,raw_p,corrected_p,tier\r\nc0_vs_c1,0.02039316956,0.2039316956,n.s.\r\n"
        b"c0_vs_c2,6.088255509e-05,0.0006088255509,*\r\n"
        b"c0_vs_c3,1.054226028e-06,1.054226028e-05,*\r\n"
        b"c0_vs_c4,5.345137621e-06,5.345137621e-05,*\r\n"
        b"c1_vs_c2,0.1851172498,1,n.s.\r\nc1_vs_c3,0.003969648396,0.03969648396,*\r\n"
        b"c1_vs_c4,1.280213705e-06,1.280213705e-05,*\r\n"
        b"c2_vs_c3,0.1487634654,1,n.s.\r\n"
        b"c2_vs_c4,1.636882302e-05,0.0001636882302,*\r\n"
        b"c3_vs_c4,0.05596815923,0.5596815923,n.s.\r\n",
        b'{\n  "statistic": 63.97250859106529,\n  "p_value": 4.2352520894317696e-13,\n'
        b'  "conditions": [\n    "c0",\n    "c1",\n    "c2",\n    "c3",\n    "c4"\n'
        b'  ],\n  "n_rows": 30\n}'),
}


@pytest.mark.parametrize("shape", list(TIED_STATS_BYTES), ids=["exact", "normal"])
def test_stats_outputs_are_pinned_on_tied_tables(tmp_path, shape):
    src = tmp_path / "scores.csv"
    src.write_text(_tied_table(*shape))
    out = tmp_path / "o"
    assert main(["--out-dir", str(out), "--set", f"stats.input={src}", "stats"]) == 0
    stats_csv, friedman_json = TIED_STATS_BYTES[shape]
    assert (out / "stats.csv").read_bytes() == stats_csv
    assert (out / "friedman.json").read_bytes() == friedman_json


def test_stats_missing_input_exits_2(tmp_path, capsys):
    rc = main(["--out-dir", str(tmp_path / "o"), "stats"])
    assert rc == 2
    assert "stats.input" in capsys.readouterr().err


def test_stats_input_missing_file_exits_2_relative_to_data_root(tmp_path, capsys):
    rc = main(["--out-dir", str(tmp_path / "o"), "--set", f"data.root={tmp_path}",
               "--set", "stats.input=nope.csv", "stats"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "stats.input" in err and str(tmp_path / "nope.csv") in err


def test_stats_input_directory_exits_2(tmp_path, capsys):
    rc = main(["--out-dir", str(tmp_path / "o"), "--set", f"stats.input={tmp_path}",
               "stats"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "stats.input" in err and f"directory {tmp_path}" in err


def test_finetune_missing_init_from_exits_2_before_reading_volumes(
        pipeline, tmp_path, capsys, monkeypatch):
    reads = []
    monkeypatch.setattr(cli, "read_nifti", lambda path, kind: reads.append(path))
    rc = main(["--out-dir", str(tmp_path / "out"),
               "--set", f"data.root={tmp_path}",
               "--set", f"data.manifest={pipeline / 'prep' / 'manifest.csv'}",
               "--set", "finetune.init_from=nope/model.ckpt",
               *SMALL_MODEL, "finetune"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "finetune.init_from" in err and str(tmp_path / "nope" / "model.ckpt") in err
    assert reads == []


@pytest.mark.parametrize("command,key,ckpt", [
    ("finetune", "finetune.init_from", "pretrain"),
    ("attribute", "data.checkpoint", "finetune"),
])
def test_checkpoint_of_another_model_fails_before_reading_volumes(
        pipeline, tmp_path, capsys, monkeypatch, command, key, ckpt):
    reads = []
    monkeypatch.setattr(cli, "read_nifti", lambda path, kind: reads.append(path))
    synth = pipeline / "synth"
    # the checkpoints were written for SMALL_MODEL; this run keeps the defaults
    rc = main(["--out-dir", str(tmp_path / "out"),
               "--set", f"data.manifest={pipeline / 'prep' / 'manifest.csv'}",
               "--set", f"{key}={pipeline / ckpt / 'model.ckpt'}",
               "--set", f"data.atlas={synth / 'atlas.nii.gz'}",
               "--set", f"data.region_map={synth / 'region_map.csv'}",
               command])
    assert rc == 1
    assert "was written for config" in capsys.readouterr().err
    assert reads == []
