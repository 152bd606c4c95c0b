"""The three workloads, each driving one public stage entry point.

A workload builds its inputs from the workload seed (``setup``), runs one
closed-loop call per ``step``, and checks the outputs (``step`` and
``check``). ``hooks`` installs the cheap unit clock used by every run;
``trace`` installs the per-layer spans used only by traced runs.

Units: a pretrain *sample* runs from the ``build_mask`` call that draws its
mask to the end of its tape scope; an attribution *pass* is one tape scope
inside ``integrated_gradients``; an ingest *subject* runs from reading its
raw volume to writing its preprocessed one.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from regionmae import atlas, attribution, autodiff, cli, masking, model, nifti
from regionmae import optim, preprocess, synth, training
from regionmae.attribution import AttributionConfig
from regionmae.masking import REGION_ANY, TUBE, MaskSpec
from regionmae.model import ALTERNATE, MAMBA, HybridModel, ModelConfig
from regionmae.training import RunConfig

from tracing import Patcher, begin_before, clocked_tape, end_after, now

FOV = (96, 96, 96)
N_T = 8  # 96^3 x 8 with 6^3 x 4 patches is the paper's 16^3 x 2 token lattice
MB = float(1 << 20)

# ops whose forward is timed; every op's backward is timed through Tape.record
TRACED_OPS = ("add", "sub", "mul", "matmul", "reshape", "transpose", "roll",
              "take_rows", "exp", "softplus", "silu", "gelu", "softmax",
              "layernorm", "tmean", "tsum", "sum_sq", "selective_scan")


def synth_inputs(n: int, seed: int) -> tuple[list[tuple[str, np.ndarray]], object, list]:
    """``n`` preprocessed 96^3 x 8 synthetic subjects, their cohort (for its
    atlas) and their QC reports."""
    cohort = synth.synth_cohort(synth.SynthConfig(
        n_subjects=n, shape=FOV, n_timepoints=N_T, tr_seconds=0.8, seed=seed))
    vols, reports = [], []
    for rec, vol in zip(cohort.records, cohort.volumes):
        norm, _, report = preprocess.preprocess_volume(vol, subject_id=rec.subject_id)
        vols.append((rec.subject_id, norm.data))
        reports.append(report)
    return vols, cohort, reports


def trace_model(patcher, tracer, probe) -> None:
    """Spans around the autodiff core, the model's stages and the optimizer.

    ``probe`` collects the values a traced run reports besides times.
    """
    for op in TRACED_OPS:
        if op == "selective_scan":
            patcher.replace(autodiff, op, lambda fn: tracer.wrap(
                lambda u, *a, **k: f"autodiff.selective_scan.fwd.L{u.shape[0]}",
                fn, after=probe.scan_shape))
        else:
            patcher.replace(autodiff, op, lambda fn, op=op: tracer.wrap(
                f"autodiff.{op}.fwd", fn))

    def record(fn):
        def traced_record(tape, output, backward):
            # closures are named "<op>.<locals>.backward"; key them by op
            op = backward.__qualname__.split(".<locals>")[0]
            name = f"autodiff.{op}.bwd"
            if op == "selective_scan":
                name += f".L{output.shape[0]}"
            tracer.values["autodiff.tape.records"] += 1
            return fn(tape, output, tracer.wrap(name, backward))
        return traced_record

    patcher.replace(autodiff.Tape, "record", record)
    patcher.replace(autodiff.Tape, "backward",
                    lambda fn: tracer.wrap("autodiff.tape.backward", fn))
    patcher.replace(autodiff.Tensor, "accumulate_grad",
                    lambda fn: tracer.wrap("autodiff.accumulate_grad", fn))
    # a forward_pretrain call with no active tape is a validation forward
    patcher.replace(model.HybridModel, "forward_pretrain", lambda fn: tracer.wrap(
        lambda *a, **k: "model.forward_pretrain" if autodiff.active_tape() is not None
        else "training.val_forward", fn))
    for method in ("encode", "decode", "patch_embed"):
        patcher.replace(model.HybridModel, method, lambda fn, m=method: tracer.wrap(
            f"model.{m}", fn))
    patcher.replace(model.HybridModel, "forward_classify", lambda fn: tracer.wrap(
        "model.forward_classify", fn, after=probe.classify_input))
    patcher.replace(optim.AdamW, "step",
                    lambda fn: tracer.wrap("optim.adamw_step", fn))


@dataclass
class Probe:
    """Non-time values seen by the traced run."""

    lds_bytes: int = 0  # largest [L, D, S] float32 array of any scan call
    pass_input: object = None
    pass_model: object = None
    useful_grad_ratio: float = 0.0

    def scan_shape(self, out, u, delta, a, *rest, **kw) -> None:
        seq, dim = u.shape
        self.lds_bytes = max(self.lds_bytes, seq * dim * a.shape[1] * 4)

    def classify_input(self, out, net, vol, *rest, **kw) -> None:
        if isinstance(vol, autodiff.Tensor) and vol.requires_grad:
            self.pass_model, self.pass_input = net, vol

    def read_useful_grads(self, _unit) -> None:
        """Input-gradient elements over all leaf-gradient elements of a pass."""
        if self.pass_input is None or self.useful_grad_ratio:
            return
        n_in = self.pass_input.grad.size if self.pass_input.grad is not None else 0
        n_param = sum(p.grad.size for p in self.pass_model.params.values()
                      if p.grad is not None)
        if n_in + n_param:
            self.useful_grad_ratio = n_in / (n_in + n_param)


def keep_scan(seen: dict, fn):
    """Wrap ``selective_scan`` to keep the inputs and output of its first
    L=8192 call in ``seen["scan"]``."""

    def hooked(u, *rest):
        out = fn(u, *rest)
        if "scan" not in seen and u.shape[0] == 8192:
            args = [np.array(getattr(t, "data", t)) for t in (u, *rest)]
            seen["scan"] = (args, np.array(out.data))
        return out

    return hooked


def keep_recon(seen: dict, fn):
    """Wrap ``HybridModel.forward_pretrain`` to keep the first taped
    reconstruction, its target and its mask in ``seen["recon"]``."""

    def hooked(net, vol, mask, *rest, **kw):
        out = fn(net, vol, mask, *rest, **kw)
        if "recon" not in seen and autodiff.active_tape() is not None:
            seen["recon"] = (out.data, vol, mask)
        return out

    return hooked


def reference_scan(u, delta, a, b, c, d_skip) -> np.ndarray:
    """The selective scan step by step in float64, one [D, S] state at a time:
    h_t = exp(delta_t a) h_{t-1} + (exp(delta_t a) - 1) / a * b_t u_t,
    y_t = h_t . c_t + d_skip * u_t."""
    u, delta, a, b, c, d_skip = (np.asarray(x, np.float64)
                                 for x in (u, delta, a, b, c, d_skip))
    h = np.zeros(a.shape)
    y = np.empty(u.shape)
    for t in range(u.shape[0]):
        abar = np.exp(delta[t][:, None] * a)
        h = abar * h + (abar - 1.0) / a * (b[t][None, :] * u[t][:, None])
        y[t] = h @ c[t]
    return y + d_skip * u


def reference_masked_mse(recon, target, mask) -> float:
    """Mean squared error in float64 over the voxels of the masked slots.

    Slot ``p * t_patches + t`` covers spatial patch ``p`` (x fastest) during
    temporal slab ``t``; patches are cubes of ``voxels_per_patch`` voxels.
    """
    x, y, z, _ = target.shape
    side = round(mask.voxels_per_patch ** (1.0 / 3.0))
    lattice = mask.mask.reshape(z // side, y // side, x // side, -1).transpose(2, 1, 0, 3)
    vox = lattice.repeat(side, 0).repeat(side, 1).repeat(side, 2).repeat(
        mask.t_patch_len, 3)
    diff = np.asarray(recon, np.float64)[vox] - np.asarray(target, np.float64)[vox]
    return float(np.mean(diff ** 2))


# ---------------------------------------------------------------------------


class Pretrain:
    """MAMBA masked-reconstruction training at 96^3 x 8 with a val split."""

    name = "pretrain-96"
    unit, units = "sample", "samples"
    labels = ("pretrain.samples", "pretrain.sample")  # rate, item
    call_label = None
    baseline = ("MAMBA 96^3 pretrain sample", "2.0 s, one run")
    trace_baselines = (
        ("autodiff.selective_scan.fwd.L8192", "call", "0.10 s, scan alone"),
        ("autodiff.selective_scan.bwd.L8192", "call", "0.31 s, scan alone"),
        ("autodiff.take_rows.bwd", "sample", "np.add.at ~0.1 s"),
    )
    n_train, n_val = 2, 1

    def setup(self, seed: int, work: Path) -> dict:
        vols, cohort, reports = synth_inputs(self.n_train + self.n_val, seed)
        sets = atlas.classify_patches(cohort.atlas, cohort.regions)
        net = HybridModel(ModelConfig(configuration=MAMBA, seed=seed))
        # the command line's default mask
        spec = MaskSpec(strategy=REGION_ANY, region="frontal", ratio=1.0,
                        temporal_mode=TUBE, seed=seed)
        # First step: one sample at lr=0, so set-up leaves the seeded weights
        # as they are. Its first L=8192 scan call and its reconstruction are
        # kept for the reference checks in ``check``.
        seen: dict = {}
        with Patcher() as patcher:
            patcher.replace(autodiff, "selective_scan", lambda fn: keep_scan(seen, fn))
            patcher.replace(model.HybridModel, "forward_pretrain",
                            lambda fn: keep_recon(seen, fn))
            first = training.pretrain(net, vols[:1], vols[:1], RunConfig(
                epochs=1, batch_size=1, lr=0.0, mask_spec=spec, seed=seed), sets)
        run = RunConfig(epochs=1, batch_size=8, lr=1e-3, mask_spec=spec, seed=seed)
        return {"model": net, "sets": sets, "run": run, "reports": reports,
                "train": vols[:self.n_train], "val": vols[self.n_train:],
                "first_loss": first.metrics[0].loss, **seen}

    def hooks(self, patcher, clock) -> None:
        patcher.replace(training, "build_mask", lambda fn: begin_before(clock, fn))
        patcher.replace(training, "Tape", lambda cls: clocked_tape(clock, cls, begin=False))

    def trace(self, patcher, tracer, probe) -> None:
        trace_model(patcher, tracer, probe)
        patcher.replace(training, "masked_mse",
                        lambda fn: tracer.wrap("training.masked_mse", fn))
        patcher.replace(training, "build_mask",
                        lambda fn: tracer.wrap("masking.build_mask", fn))

    def step(self, state, ledger) -> None:
        result = training.pretrain(state["model"], state["train"], state["val"],
                                   state["run"], state["sets"])
        losses = [row.loss for row in result.metrics]
        ledger.check("pretrain losses finite", all(map(math.isfinite, losses)),
                     f"losses {losses}")

    def probe_alloc(self, state) -> None:
        training.pretrain(state["model"], state["train"][:1], [], state["run"],
                          state["sets"])

    def check(self, state, ledger) -> None:
        ledger.check("set-up subjects pass QC",
                     not any(r.excluded for r in state["reports"]))
        # The seeded skip term d_skip * u dwarfs the state's part h . c of
        # the output, so the state's part is also checked alone, by calling
        # the scan again on the same inputs with d_skip = 0.
        args, out = state["scan"]
        no_skip = [*args[:-1], np.zeros_like(args[-1])]
        errors = []
        for inputs, got in ((args, out), (no_skip, autodiff.selective_scan(*no_skip).data)):
            ref = reference_scan(*inputs)
            errors.append(float(np.abs(got - ref).max() / np.abs(ref).max()))
        ledger.check("L=8192 selective_scan output matches a float64 recurrence",
                     max(errors) <= 1e-4,
                     "max error {:.3g} of max |y|, {:.3g} of max |h . c|".format(*errors))
        recon, vol, mask = state["recon"]
        ref_loss = reference_masked_mse(recon, vol, mask)
        loss = state["first_loss"]
        ledger.check("first-step train loss matches a float64 masked MSE",
                     abs(loss - ref_loss) <= 1e-4 * ref_loss,
                     f"train {loss!r} vs reference {ref_loss!r}")


class Attribute:
    """ALTERNATE classifier attribution with IG-SQ at 96^3 x 8."""

    name = "attribute-96"
    unit, units = "pass", "passes"
    # The gated item is the pass: at 2 passes per call, fixed work per call
    # (smoothing, float64 copies, noise) is about a quarter of the call.
    labels = ("attribute.ig_passes", "attribute.pass")
    call_label = "attribute.subject"  # per ig_sq call, reported beside it
    baseline = ("ALTERNATE IG pass", "0.8 s, one run")
    trace_baselines = ()
    n_subjects = 2
    # 1 x 2 = 2 passes per subject instead of the default 8 x 32 = 256
    config = AttributionConfig(ig_steps=2, sg_samples=1)

    def setup(self, seed: int, work: Path) -> dict:
        vols, _, reports = synth_inputs(self.n_subjects, seed)
        net = HybridModel(ModelConfig(configuration=ALTERNATE, seed=seed))
        attribution.integrated_gradients(net, vols[0][1], steps=1)  # first pass
        return {"model": net, "vols": vols, "reports": reports, "seed": seed,
                "calls": 0}

    def hooks(self, patcher, clock) -> None:
        patcher.replace(attribution, "Tape",
                        lambda cls: clocked_tape(clock, cls, begin=True))

    def trace(self, patcher, tracer, probe) -> None:
        trace_model(patcher, tracer, probe)
        for fn_name in ("integrated_gradients", "smooth_per_timepoint", "ig_sq"):
            patcher.replace(attribution, fn_name, lambda fn, n=fn_name: tracer.wrap(
                f"attribution.{n}", fn))
        tracer.clock.on_end = probe.read_useful_grads

    def step(self, state, ledger) -> None:
        i = state["calls"]
        state["calls"] += 1
        sid, vol = state["vols"][i % len(state["vols"])]
        amap = attribution.ig_sq(state["model"], vol, self.config,
                                 subject_id=sid, seed=state["seed"] + i)
        m = amap.map3d
        ledger.check("attribution map finite, non-negative, 96^3",
                     m.shape == FOV and bool(np.isfinite(m).all()) and m.min() >= 0,
                     f"shape {m.shape}")

    def probe_alloc(self, state) -> None:
        attribution.integrated_gradients(state["model"], state["vols"][0][1], steps=1)

    def check(self, state, ledger) -> None:
        ledger.check("set-up subjects pass QC",
                     not any(r.excluded for r in state["reports"]))
        # Completeness on a short path: noise inside the brain only. With a
        # zero baseline the path crosses LayerNorm's singular point at zero
        # input, and no affordable step count integrates it at 96^3.
        net = state["model"]
        x = state["vols"][0][1].astype(np.float64)
        noise = (x != 0) * np.random.default_rng(state["seed"]).standard_normal(x.shape)
        x0 = x + 0.1 * noise
        attr = attribution.integrated_gradients(net, x, baseline=x0, steps=2)
        gap = float(net.forward_classify(x).data) - float(net.forward_classify(x0).data)
        # A random direction can give a gap near 0, so the error is compared
        # with the gap's typical size, 0.1 * |mean gradient|, not with the gap.
        inside = noise != 0
        scale = 0.1 * float(np.linalg.norm(attr[inside] / (x - x0)[inside]))
        err = abs(float(attr.sum()) - gap) / scale
        ledger.check("IG completeness: |sum(attr) - (logit(x) - logit(x0))| "
                     "<= 1e-2 of the gap's typical size", err <= 1e-2,
                     f"error {err:.3g} of {scale:.3g}, gap {gap:.3g}")


class Ingest:
    """``preprocess``, ``classify-patches`` and ``build-mask`` via ``cli.main``."""

    name = "ingest-96"
    unit, units = "subject", "subjects"
    labels = ("ingest.subjects", "ingest.subject")
    call_label = None
    baseline = None
    trace_baselines = ()
    n_subjects = 2
    # raw geometry: 108^3 x 6 at TR 1.2 s becomes 96^3 x 8 at TR 0.8 s
    raw = synth.SynthConfig(n_subjects=n_subjects, shape=(108, 108, 108),
                            n_timepoints=6, tr_seconds=1.2)

    def setup(self, seed: int, work: Path) -> dict:
        raw = work / "raw"
        shutil.rmtree(raw, ignore_errors=True)
        cfg = dataclasses.replace(self.raw, seed=seed)
        t0 = now()
        manifest = synth.write_cohort(cfg, raw)
        write_cohort_s = now() - t0
        labels, regions = synth.wedge_atlas(cfg)
        sets_json = work / "classify-patches" / "patch_sets.json"
        stages = {
            "preprocess": ["--set", f"data.manifest={manifest}"],
            "classify-patches": ["--set", f"data.atlas={raw / 'atlas.nii.gz'}",
                                 "--set", f"data.region_map={raw / 'region_map.csv'}"],
            "build-mask": ["--set", f"data.patch_sets={sets_json}"],
        }
        argv = {stage: ["--out-dir", str(work / stage), *flags, stage]
                for stage, flags in stages.items()}
        return {"work": work, "argv": argv, "write_cohort_s": write_cohort_s,
                "sets": atlas.classify_patches(labels, regions)}

    def hooks(self, patcher, clock) -> None:
        patcher.replace(cli, "read_nifti", lambda fn: begin_before(
            clock, fn, when=lambda path, kind="auto": kind == "volume"))
        patcher.replace(cli, "write_nifti", lambda fn: end_after(clock, fn))

    def trace(self, patcher, tracer, probe) -> None:
        values = tracer.values

        def read_bytes(out, path, *a, **k):
            data = out.labels if isinstance(out, nifti.LabelVolume) else out.data
            values["nifti.read_bytes"] += data.nbytes

        def written_bytes(out, vol, path, *a, **k):
            data = vol.labels if isinstance(vol, nifti.LabelVolume) else vol.data
            values["nifti.write_bytes"] += data.nbytes
            values["nifti.bytes_written"] += os.path.getsize(path)

        def qc(out, *a, **k):
            values["preprocess.qc_total"] += 1
            values["preprocess.qc_pass"] += not out[2].excluded

        wraps = [
            (cli, "read_nifti", "nifti.read_nifti", read_bytes),
            (cli, "write_nifti", "nifti.write_nifti", written_bytes),
            (cli, "preprocess_volume", "preprocess.preprocess_volume", qc),
            (preprocess, "resample_temporal", "preprocess.resample_temporal", None),
            (preprocess, "crop_fov", "preprocess.crop_fov", None),
            (preprocess, "estimate_brain_mask", "preprocess.estimate_brain_mask", None),
            (preprocess, "zscore_clip", "preprocess.zscore_clip", None),
            (cli, "load_config", "config.load_config", None),
            (cli, "write_input_hashes", "config.write_input_hashes", None),
            (cli, "classify_patches", "atlas.classify_patches", None),
        ]
        for owner, attr, span, after in wraps:
            patcher.replace(owner, attr, lambda fn, s=span, f=after: tracer.wrap(
                s, fn, after=f))
        patcher.replace(cli, "main", lambda fn: tracer.wrap(
            lambda argv: f"cli.main.{argv[-1]}", fn))

    def step(self, state, ledger) -> None:
        for stage, argv in state["argv"].items():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if not ledger.check(f"{stage} exits 0", code == 0, err.getvalue().strip()):
                return
        with open(state["work"] / "preprocess" / "qc.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            ledger.check("subject passes QC", row["excluded"] == "false",
                         f"{row['subject_id']}: {row['reasons']}")
        ledger.check("every subject reported by QC", len(rows) == self.n_subjects,
                     f"{len(rows)} rows")

    def probe_alloc(self, state) -> None:
        """No autodiff here; the allocation probe does not apply."""

    def check(self, state, ledger) -> None:
        work = state["work"]
        outputs = sorted((work / "preprocess").glob("*_preproc.nii.gz"))
        ledger.check("one output per subject", len(outputs) == self.n_subjects,
                     f"{len(outputs)} outputs")
        for path in outputs:
            vol = nifti.read_nifti(path, kind="volume")
            ok = vol.data.shape == (*FOV, N_T) and abs(vol.tr_seconds - 0.8) < 1e-6
            ledger.check("output is 96^3 x 8 at TR 0.8", ok,
                         f"{path.name}: {vol.data.shape} TR {vol.tr_seconds}")
            z = vol.data[(vol.data != 0).any(axis=3)].astype(np.float64)
            # nothing clipped means the output's in-mask values are the pre-clip ones
            ok = (z.size > 0 and np.abs(z).max() < 5.0
                  and abs(z.mean()) < 1e-4 and abs(z.std() - 1.0) < 1e-4)
            ledger.check("in-mask mean 0, std 1 before clipping", ok,
                         f"{path.name}: mean {z.mean():.3g} std {z.std():.6g} "
                         f"max |z| {np.abs(z).max():.3g}")
        saved = atlas.PatchSets.load(work / "classify-patches" / "patch_sets.json")
        expected = state["sets"]
        same = all(np.array_equal(saved.sets_for(c)[r], expected.sets_for(c)[r])
                   for c in atlas.CRITERIA for r in atlas.MACROREGIONS)
        ledger.check("patch_sets.json equals the in-memory atlas's sets", same)
        tensor, spec = masking.load_mask(work / "build-mask" / "mask.bits")
        rebuilt = masking.build_mask(spec, expected, tensor.t_patches,
                                     t_patch_len=tensor.t_patch_len)
        ledger.check("mask.bits equals the mask built from in-memory sets",
                     np.array_equal(tensor.mask, rebuilt.mask))


WORKLOADS = {w.name: w for w in (Pretrain, Attribute, Ingest)}
