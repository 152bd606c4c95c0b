import ast
import os
import re
from pathlib import Path

import numpy as np
import pytest

import regionmae
from regionmae import artifacts
from regionmae.atlas import RegionMap, classify_patches
from regionmae.attribution import RoiRow, write_roi_csv
from regionmae.checkpoint import save_checkpoint
from regionmae.config import DEFAULTS, write_input_hashes, write_snapshot
from regionmae.masking import RANDOM_TUBE, MaskSpec, build_mask, save_mask
from regionmae.nifti import LabelVolume, Volume4D, write_nifti
from regionmae.preprocess import SubjectRecord, qc_gate, write_manifest, write_qc_csv
from regionmae.stats import ComparisonRow, write_stats_csv
from regionmae.synth import SynthConfig, wedge_atlas, write_cohort
from regionmae.training import MetricsRow, write_metrics_csv

SMALL = SynthConfig(n_subjects=1, shape=(12, 12, 12), n_timepoints=4)


def _sets():
    labels, regions = wedge_atlas(SMALL)
    return classify_patches(labels, regions)


def _mask(out):
    spec = MaskSpec(strategy=RANDOM_TUBE, ratio=0.5)
    save_mask(build_mask(spec, _sets(), 2, t_patch_len=2), spec, out / "mask.bits")


def _hashes(out):
    src = out.parent / "input.bin"
    src.write_bytes(b"input")
    write_input_hashes([src], out)


def _volume(name):
    data = np.random.default_rng(0).normal(size=(4, 4, 4, 2)).astype(np.float32)
    return lambda out: write_nifti(Volume4D(data=data, affine=np.eye(4)), out / name)


# (writer called with the output directory, every file it writes there)
WRITERS = {
    "RegionMap.to_csv": (lambda out: RegionMap({1: "frontal"}).to_csv(out / "r.csv"),
                         ["r.csv"]),
    "PatchSets.save": (lambda out: _sets().save(out / "s.json"), ["s.json"]),
    "write_roi_csv": (lambda out: write_roi_csv(out / "roi.csv",
                                                [RoiRow(1, "frontal_1", 8, 0.5, 1)]),
                      ["roi.csv"]),
    "save_checkpoint": (lambda out: save_checkpoint({"w": np.ones(3)}, out / "m.ckpt", "h"),
                        ["m.ckpt", "m.ckpt.manifest.json"]),
    "write_snapshot": (lambda out: write_snapshot(DEFAULTS, out), ["resolved_config.yaml"]),
    "write_input_hashes": (_hashes, ["inputs.json"]),
    "save_mask": (_mask, ["mask.bits", "mask.bits.json"]),
    "write_manifest": (lambda out: write_manifest([SubjectRecord("s0", "s0.nii.gz", 1)],
                                                  out / "manifest.csv"),
                       ["manifest.csv"]),
    "write_qc_csv": (lambda out: write_qc_csv([qc_gate(0.9, 1.0, subject_id="s0")],
                                              out / "qc.csv"),
                     ["qc.csv"]),
    "write_stats_csv": (lambda out: write_stats_csv(
        out / "stats.csv", [ComparisonRow("a_vs_b", 0.01, 0.03, "*")]), ["stats.csv"]),
    "write_metrics_csv": (lambda out: write_metrics_csv(
        out / "metrics.csv", [MetricsRow(0, "train", 0.5)]), ["metrics.csv"]),
    "write_nifti.nii.gz": (_volume("v.nii.gz"), ["v.nii.gz"]),
    "write_nifti.nii": (_volume("v.nii"), ["v.nii"]),
    "write_nifti.labels": (lambda out: write_nifti(
        LabelVolume(labels=np.ones((4, 4, 4), dtype=np.int32), affine=np.eye(4)),
        out / "l.nii.gz"), ["l.nii.gz"]),
    # the first of its writes fails, so no later one is reached
    "write_cohort": (lambda out: write_cohort(SMALL, out),
                     ["manifest.csv", "synth_params.json"]),
}


@pytest.mark.parametrize("name", WRITERS)
def test_failed_replace_keeps_every_target(tmp_path, monkeypatch, name):
    write, targets = WRITERS[name]
    out = tmp_path / "out"
    out.mkdir()
    old = {t: f"old {t}".encode() for t in targets}
    for t, data in old.items():
        (out / t).write_bytes(data)

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        write(out)
    assert sorted(p.name for p in out.iterdir()) == sorted(targets)  # no .tmp left
    assert {t: (out / t).read_bytes() for t in targets} == old

    monkeypatch.undo()
    write(out)
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
    assert all((out / t).read_bytes() != data for t, data in old.items())


def test_write_csv_line_ends(tmp_path):
    artifacts.write_csv(tmp_path / "a.csv", ["x", "y"], [[1, "a,b"]])
    assert (tmp_path / "a.csv").read_bytes() == b'x,y\r\n1,"a,b"\r\n'
    artifacts.write_csv(tmp_path / "b.csv", ["x"], [[1]], lineterminator="\n")
    assert (tmp_path / "b.csv").read_bytes() == b"x\n1\n"


_MODE = re.compile(r"[rwxabt+]+")


def _may_write(node: ast.Call) -> bool:
    """Whether an ``open`` call may open for writing: a literal mode with w,
    a, x or +, a mode that is not a literal, or ``os.open`` (flags)."""
    func = node.func
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return True
    modes = [k.value for k in node.keywords if k.arg == "mode"]
    for arg in node.args + modes:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str) \
                and _MODE.fullmatch(arg.value) and set(arg.value) & set("wax+"):
            return True
    # open(path, mode): the builtin's second positional is its mode
    positional = node.args[1:2] if isinstance(func, ast.Name) else []
    return any(not isinstance(m, ast.Constant) for m in modes + positional)


def file_writes(source: str) -> list[str]:
    """Every call in ``source`` that writes a file other than through
    ``artifacts``: a write-mode ``open``, ``.write_text``, ``.write_bytes``
    and ``json.dump``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        owner = func.value.id if isinstance(func, ast.Attribute) and \
            isinstance(func.value, ast.Name) else None
        if (name == "open" and _may_write(node)) \
                or (name in ("write_text", "write_bytes") and owner != "artifacts"
                    and isinstance(func, ast.Attribute)) \
                or (name == "dump" and owner == "json"):
            found.append(f"{node.lineno}: {ast.unparse(node)[:60]}")
    return found


def test_file_writes_detector():
    writes = file_writes(
        'open(p, "w")\nopen(p, mode="ab")\nio.open(p, "x")\nPath(p).open("w")\n'
        'open(p, m)\nos.open(p, os.O_WRONLY)\np.write_text("x")\nPath(p).write_bytes(b)\n'
        'json.dump(obj, fh)\n')
    assert len(writes) == 9
    assert file_writes(
        'open(p)\nopen(p, "rb")\nopen(p, newline="")\nPath(p).open()\ngzip.open(p, "rb")\n'
        'artifacts.write_text(p, s)\nartifacts.write_bytes(p, b)\njson.dumps(x)\n'
        'write_text(p, s)\n') == []


def test_only_artifacts_writes_files():
    src = Path(regionmae.__file__).parent
    offenders = {p.name: w for p in sorted(src.glob("*.py")) if p.name != "artifacts.py"
                 for w in [file_writes(p.read_text())] if w}
    assert offenders == {}
    assert file_writes((src / "artifacts.py").read_text())  # the one writer
