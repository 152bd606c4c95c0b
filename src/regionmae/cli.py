"""Command-line entry point.

Each subcommand is thin plumbing over the library modules. Every run
resolves its configuration (defaults < --config file < --set overrides <
flags), executes, and leaves two provenance files beside its outputs:
``resolved_config.yaml`` (re-runnable snapshot) and ``inputs.json``
(sha256 of every input file consumed). Exit codes: 0 success, 2 bad
configuration or validation, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import artifacts
from . import stats as st
from .atlas import PatchGrid, PatchSets, RegionMap, classify_patches, \
    patch_set_report, render_report
from .attribution import AttributionConfig, aggregate_group, ig_sq, \
    threshold_and_project, write_roi_csv
from .checkpoint import load_checkpoint, restore_params, save_checkpoint
from .config import CLI_ONLY, data_path, load_config, require_data_path, \
    write_input_hashes, write_snapshot
from .errors import ConfigurationError, DegenerateDataError, FormatError, \
    GeometryError, TruncatedFileError, ValidationError
from .masking import MaskSpec, build_mask, save_mask
from .model import HybridModel, ModelConfig, lattice_plan
from .nifti import Volume4D, read_header, read_nifti, write_nifti
from .preprocess import preprocess_volume, read_manifest, write_manifest, \
    write_qc_csv
from .synth import SynthConfig, write_cohort
from .training import FINETUNE, PRETRAIN, RunConfig, finetune, pretrain, \
    split_subjects, write_metrics_csv


def _add_common(parser: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps subparser defaults from clobbering values already
    # parsed by the root parser, so the flags work in either position.
    parser.add_argument("--config", default=argparse.SUPPRESS,
                        help="YAML config file")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=argparse.SUPPRESS, metavar="KEY=VALUE",
                        help="dotted-path config override (repeatable)")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override run.seed")
    parser.add_argument("--out-dir", default=argparse.SUPPRESS,
                        help="override run.out_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regionmae",
        description="Region-aware masked pretraining pipeline")
    _add_common(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        _add_common(p)
        if name == "synth":
            p.add_argument("--subjects", type=int,
                           help="override synth.n_subjects")
            p.add_argument("--shape", type=int,
                           help="cubic side length, overrides synth.shape")
    return parser


def _kwargs(cfg: dict, section: str) -> dict:
    """A type-checked config section as library keyword arguments: without
    its CLI-only keys, lists as tuples."""
    own = CLI_ONLY.get(section, {})
    return {k: tuple(v) if isinstance(v, list) else v
            for k, v in cfg[section].items() if k not in own}


def _build(cls, cfg: dict, section: str, **extra):
    """``cls`` from a config section; ``extra`` supplies or overrides fields."""
    try:
        return cls(**{**_kwargs(cfg, section), **extra})
    except ValidationError as exc:
        raise ValidationError(f"{section}: {exc}") from exc


def _manifest(cfg: dict):
    """The manifest's records, and the input files they name."""
    manifest = require_data_path(cfg, "manifest")
    records = read_manifest(manifest)
    return records, [manifest] + [Path(r.path) for r in records]


def _check_headers(model_cfg, records, grid=None, key="", same_t=False) -> None:
    """Before any payload read, each record's header shape must span ``grid``
    (config ``key``) if given, fit the model's :func:`lattice_plan` and, with
    ``same_t``, have the first record's timepoint count. Every failure,
    an unreadable header too, names the subject and its file."""
    first = None
    for rec in records:
        try:
            shape = (*read_header(rec.path).shape, 1)[:4]
            first = first or shape
            if grid is not None and shape[:3] != tuple(grid):
                raise ValidationError(f"{key}: volume shape {shape[:3]}, grid {tuple(grid)}")
            lattice_plan(model_cfg, shape)
            if same_t and shape[3] != first[3]:
                raise ValidationError(f"data.manifest: {shape[3]} timepoints, the first "
                                      f"subject has {first[3]}")
        except (FormatError, TruncatedFileError, ValidationError) as exc:
            why = "" if isinstance(exc, ValidationError) else "data.manifest: unreadable header: "
            raise ValidationError(f"subject {rec.subject_id} ({rec.path}): {why}{exc}") from exc


def cmd_synth(cfg: dict, args, out: Path) -> list:
    s = cfg["synth"]
    if args.subjects is not None:
        s["n_subjects"] = args.subjects
    if args.shape is not None:
        s["shape"] = [args.shape] * 3
    synth_cfg = _build(SynthConfig, cfg, "synth")
    manifest = write_cohort(synth_cfg, out)
    print(f"wrote {synth_cfg.n_subjects} subjects to {out} "
          f"(manifest {manifest.name})")
    return []


def cmd_preprocess(cfg: dict, args, out: Path) -> list:
    p = cfg["preprocess"]
    records, inputs = _manifest(cfg)

    template_mask = None
    if data_path(cfg, "template_mask") is not None:
        mask_path = require_data_path(cfg, "template_mask")
        template_mask = read_nifti(mask_path, kind="labels").labels > 0
        if template_mask.shape != tuple(p["fov"]):
            raise ConfigurationError(
                f"data.template_mask has shape {template_mask.shape}, but "
                f"preprocess.fov is {tuple(p['fov'])}")
        inputs.append(mask_path)

    kwargs = _kwargs(cfg, "preprocess")
    reports, kept = [], []
    try:
        for rec in records:
            vol = read_nifti(rec.path, kind="volume")
            try:
                normalized, _, report = preprocess_volume(
                    vol, template_mask=template_mask, subject_id=rec.subject_id,
                    **kwargs)
            except (ValidationError, DegenerateDataError) as exc:
                raise type(exc)(f"{rec.subject_id} ({rec.path}): {exc}") from exc
            del vol  # the raw volume, before the output is written
            reports.append(report)
            if not (report.excluded and p["drop_excluded"]):
                out_path = out / f"{rec.subject_id}_preproc.nii.gz"
                write_nifti(normalized, out_path)
                rec.path = str(out_path)
                kept.append(rec)
            del normalized  # nothing of this subject is alive at the next read
    except BaseException:
        # a failed run leaves no volume that looks like part of a finished one
        for rec in kept:
            Path(rec.path).unlink(missing_ok=True)
        raise

    write_qc_csv(reports, out / "qc.csv")
    if not kept:
        raise DegenerateDataError("every subject was excluded by QC")
    write_manifest(kept, out / "manifest.csv")
    n_excluded = sum(r.excluded for r in reports)
    print(f"preprocessed {len(kept)} subjects ({n_excluded} excluded) -> {out}")
    return inputs


def cmd_classify(cfg: dict, args, out: Path) -> list:
    atlas_path = require_data_path(cfg, "atlas")
    map_path = require_data_path(cfg, "region_map")
    atlas = read_nifti(atlas_path, kind="labels")
    regions = RegionMap.from_csv(map_path)
    try:
        grid = PatchGrid.for_shape(atlas.labels.shape, cfg["model"]["patch_size"])
    except GeometryError as exc:
        raise ConfigurationError(f"model.patch_size: {exc}") from exc
    sets = classify_patches(atlas, regions, grid=grid, **_kwargs(cfg, "atlas"))
    sets.save(out / "patch_sets.json")
    rows = patch_set_report(sets)
    header = ["region", "criterion", "n_patches", "n_voxels"]
    artifacts.write_csv(out / "patch_report.csv", header,
                        ([r[k] for k in header] for r in rows), lineterminator="\n")
    print(render_report(rows))
    return [atlas_path, map_path]


def cmd_build_mask(cfg: dict, args, out: Path) -> list:
    spec = _build(MaskSpec, cfg, "mask")
    sets_path = require_data_path(cfg, "patch_sets")
    sets = PatchSets.load(sets_path)
    tensor = build_mask(spec, sets, cfg["mask"]["t_patches"],
                        t_patch_len=cfg["model"]["t_patch"])
    save_mask(tensor, spec, out / "mask.bits")
    print(f"mask: {tensor.masked_slots}/{tensor.mask.size} slots "
          f"({tensor.masked_voxels} voxels) -> {out / 'mask.bits'}")
    return [sets_path]


def cmd_pretrain(cfg: dict, args, out: Path) -> list:
    model_cfg = _build(ModelConfig, cfg, "model")
    if len(set(model_cfg.patch_size)) != 1:  # the masked loss expands cubic patches
        raise ConfigurationError(f"model.patch_size: pretrain needs a cubic "
                                 f"patch, got {list(model_cfg.patch_size)}")
    run = _build(RunConfig, cfg, "pretrain", phase=PRETRAIN,
                 mask_spec=_build(MaskSpec, cfg, "mask"))
    sets_path = require_data_path(cfg, "patch_sets")
    sets = PatchSets.load(sets_path)
    records, inputs = _manifest(cfg)
    inputs.append(sets_path)
    # split before any volume is read; the test split is not read at all
    train, val, _ = split_subjects(records, run.split, seed=cfg["run"]["seed"])
    _check_headers(model_cfg, train + val, sets.grid.volume_shape, "data.patch_sets", True)
    pairs = lambda recs: [(r.subject_id, read_nifti(r.path, kind="volume").data)
                          for r in recs]

    model = HybridModel(model_cfg)
    result = pretrain(model, pairs(train), pairs(val), run, sets)

    write_metrics_csv(out / "metrics.csv", result.metrics)
    save_checkpoint(result.best_state, out / "model.ckpt", model.config.config_hash(),
                    extra={"phase": "pretrain", "best_epoch": result.best_epoch,
                           "best_val_loss": result.best_val_loss})
    print(f"pretrain done: best val loss {result.best_val_loss:.6g} "
          f"at epoch {result.best_epoch}")
    return inputs


def cmd_finetune(cfg: dict, args, out: Path) -> list:
    model_cfg = _build(ModelConfig, cfg, "model")
    run = _build(RunConfig, cfg, "finetune", phase=FINETUNE)
    model = HybridModel(model_cfg)
    ckpt = data_path(cfg, "finetune.init_from")
    if ckpt is not None:
        ckpt = require_data_path(cfg, "finetune.init_from")
        arrays, _ = load_checkpoint(ckpt, model.config.config_hash())
        restore_params(model.params, arrays)
    records, inputs = _manifest(cfg)
    if any(r.label is None for r in records):
        raise ConfigurationError("finetune needs a label for every subject "
                                 "in data.manifest")
    inputs.append(ckpt)
    # split before any volume is read
    train, val, test = split_subjects(records, run.split, seed=cfg["run"]["seed"])
    _check_headers(model_cfg, train + val + test)
    triples = lambda recs: [(r.subject_id, read_nifti(r.path, kind="volume").data,
                             int(r.label)) for r in recs]
    result = finetune(model, triples(train), triples(val), triples(test), run)

    write_metrics_csv(out / "metrics.csv", result.metrics)
    save_checkpoint(result.best_state, out / "model.ckpt", model.config.config_hash(),
                    extra={"phase": "finetune", "best_epoch": result.best_epoch})
    summary = {"test_acc": result.test_acc, "test_auroc": result.test_auroc,
               "test_loss": result.test_loss, "best_epoch": result.best_epoch}
    artifacts.write_text(out / "test_metrics.json", json.dumps(summary, indent=2))
    auc = ("n/a" if result.test_auroc is None
           else f"{result.test_auroc:.3f}")
    print(f"finetune done: test acc {result.test_acc:.3f} auroc {auc}")
    return inputs


def cmd_attribute(cfg: dict, args, out: Path) -> list:
    model_cfg = _build(ModelConfig, cfg, "model")
    acfg = _build(AttributionConfig, cfg, "attribution")
    ckpt_path = require_data_path(cfg, "checkpoint")
    atlas_path = require_data_path(cfg, "atlas")
    map_path = require_data_path(cfg, "region_map")
    model = HybridModel(model_cfg)
    arrays, _ = load_checkpoint(ckpt_path, model.config.config_hash())
    restore_params(model.params, arrays)
    records, inputs = _manifest(cfg)
    inputs += [ckpt_path, atlas_path, map_path]
    _check_headers(model_cfg, records, read_header(atlas_path).shape[:3], "data.atlas")
    atlas = read_nifti(atlas_path, kind="labels")
    regions = RegionMap.from_csv(map_path)
    attributed = []

    def subject_maps():
        """Read, attribute and drop one subject at a time."""
        for rec in records:
            data = read_nifti(rec.path, kind="volume").data
            if cfg["attribution"]["only_correct"] and rec.label is not None:
                logit = float(model.forward_classify(data).data)
                if int(logit > 0) != int(rec.label):
                    continue
            attributed.append(rec.subject_id)
            yield ig_sq(model, data, acfg, subject_id=rec.subject_id,
                        seed=cfg["run"]["seed"])
        if not attributed:
            raise DegenerateDataError("no subjects left to attribute "
                                      "(all misclassified?)")

    group = aggregate_group(subject_maps())
    names = {label: f"{regions.mapping[label]}_{label}"
             for label in regions.mapping}
    rows, displayed = threshold_and_project(group.map3d, atlas, acfg, names)

    for name, map3d in (("group_map", group.map3d), ("thresholded_map", displayed)):
        write_nifti(Volume4D(data=map3d.astype(np.float32), affine=atlas.affine),
                    out / f"{name}.nii.gz")
    write_roi_csv(out / "roi_table.csv", rows)
    print(f"attributed {len(attributed)} subjects; top ROI: "
          f"{rows[0].roi_name} ({rows[0].mean_attr:.3e})")
    return inputs


def cmd_stats(cfg: dict, args, out: Path) -> list:
    input_path = require_data_path(cfg, "stats.input")
    with open(input_path) as fh:
        header = fh.readline().strip().split(",")
        # the file's own line numbers, the header being line 1
        rows = [(n, line.strip().split(",")) for n, line in enumerate(fh, start=2)
                if line.strip()]
    if not rows:
        raise ValidationError(f"stats.input {input_path} has no rows under its header")
    values = []
    for n, cells in rows:
        if len(cells) != len(header):
            raise ValidationError(f"stats.input {input_path}:{n}: {len(cells)} values "
                                  f"under a header of {len(header)}")
        try:
            values.append([float(c) for c in cells])
        except ValueError as exc:
            raise ValidationError(f"stats.input {input_path}:{n}: {exc}") from exc
        if not np.isfinite(values[-1]).all():
            raise ValidationError(f"stats.input {input_path}:{n}: every value must "
                                  f"be finite, got {','.join(cells)}")
    matrix = np.array(values)

    fr_stat, fr_p = st.friedman_test(matrix)
    raw = {}
    for i, j in itertools.combinations(range(len(header)), 2):
        _, p = st.wilcoxon_signed_rank(matrix[:, i], matrix[:, j])
        raw[f"{header[i]}_vs_{header[j]}"] = p
    rows = st.correct_and_tier(raw)
    st.write_stats_csv(out / "stats.csv", rows)
    artifacts.write_text(out / "friedman.json", json.dumps(
        {"statistic": fr_stat, "p_value": fr_p, "conditions": header,
         "n_rows": int(matrix.shape[0])}, indent=2))
    print(f"Friedman chi2 {fr_stat:.4f} (p {fr_p:.4g}); "
          f"{len(rows)} pairwise comparisons -> {out / 'stats.csv'}")
    return [input_path]


COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "classify-patches": cmd_classify,
    "build-mask": cmd_build_mask,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "attribute": cmd_attribute,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config_file = getattr(args, "config", None)
    try:
        cfg = load_config(config_file,
                          getattr(args, "overrides", None) or [],
                          seed=getattr(args, "seed", None),
                          out_dir=getattr(args, "out_dir", None))
        out = Path(cfg["run"]["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        inputs = COMMANDS[args.command](cfg, args, out)
        if config_file:
            inputs = [Path(config_file)] + list(inputs)
        write_snapshot(cfg, out)
        write_input_hashes(inputs, out)
        return 0
    except (ValidationError, ConfigurationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
