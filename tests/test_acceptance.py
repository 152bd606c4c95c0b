"""Acceptance gate: one test per shipping criterion.

Each test prints a single CRITERION nn PASS/FAIL line (visible with -s or
in failure output; `pytest -v` adds its own per-test verdict). Tolerances
and runtime budgets are pinned in the asserts, not configurable.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import chi2, rankdata

import regionmae.autodiff as ad
from regionmae.atlas import (
    MACROREGIONS,
    PatchGrid,
    RegionMap,
    classify_patches,
    patch_set_report,
)
from regionmae.attribution import integrated_gradients
from regionmae.autodiff import Tape, Tensor
from regionmae.cli import main as cli_main
from regionmae.masking import (
    MaskSpec,
    MaskTensor,
    RANDOM_TUBE,
    REGION_ANY,
    TUBE,
    build_mask,
)
from regionmae.model import CONFIGURATIONS, MA, HybridModel, ModelConfig
from regionmae.nifti import LabelVolume, Volume4D
from regionmae.preprocess import (
    DICE_FAIL,
    P99_FAIL,
    preprocess_volume,
    qc_gate,
    zscore_clip,
)
from regionmae.stats import auroc, bonferroni, friedman_test, wilcoxon_signed_rank
from regionmae.synth import SynthConfig, synth_cohort
from regionmae.training import (
    FINETUNE,
    PRETRAIN,
    RunConfig,
    _voxel_mask,
    finetune,
    masked_mse,
    pretrain,
    split_subjects,
)

EYE = np.eye(4)


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {num:02d} FAIL - {title}")
        raise
    print(f"CRITERION {num:02d} PASS - {title}")


def random_atlas(rng, shape, n_labels, block=None):
    """Blocky random label field: coarse grid upsampled, then cropped."""
    if block is None:
        block = int(rng.choice([2, 3, 4, 8]))
    coarse = [-(-s // block) for s in shape]
    field = rng.integers(0, n_labels + 1, size=coarse)
    full = np.kron(field, np.ones((block,) * 3, dtype=np.int64))
    return full[: shape[0], : shape[1], : shape[2]].astype(np.int32)


def random_region_map(rng, n_labels):
    return RegionMap({lab: MACROREGIONS[int(rng.integers(0, len(MACROREGIONS)))]
                      for lab in range(1, n_labels + 1)})


# ---------------------------------------------------------------------------
# 1. patch-set inclusion lattice


def test_criterion_01_patch_set_inclusion():
    with criterion(1, "pure subset majority subset any; majority disjoint"):
        rng = np.random.default_rng(1001)
        t0 = time.monotonic()
        for _ in range(50):
            shape = tuple(int(rng.choice([12, 18, 24, 30])) for _ in range(3))
            n_labels = int(rng.integers(1, 9))
            atlas = LabelVolume(labels=random_atlas(rng, shape, n_labels),
                                affine=EYE)
            sets = classify_patches(atlas, random_region_map(rng, n_labels))
            majority_all = []
            for region in MACROREGIONS:
                any_s = set(sets.any_sets[region].tolist())
                maj_s = set(sets.majority_sets[region].tolist())
                pure_s = set(sets.pure_sets[region].tolist())
                assert pure_s <= maj_s <= any_s, region
                majority_all.append(sets.majority_sets[region])
            merged = np.concatenate(majority_all)
            assert merged.size == np.unique(merged).size, \
                "majority sets overlap across regions"
        assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. oracle equivalence against a per-voxel brute-force counter


def brute_force_sets(labels, region_of, purity=0.70, majority=0.5):
    """Independent per-patch counter; x-fastest patch indexing."""
    gx, gy, gz = (s // 6 for s in labels.shape)
    out = {r: {"any": [], "majority": [], "pure": []} for r in MACROREGIONS}
    max_label = int(labels.max())
    for z in range(gz):
        for y in range(gy):
            for x in range(gx):
                p = (z * gy + y) * gx + x
                block = labels[6 * x: 6 * x + 6, 6 * y: 6 * y + 6,
                               6 * z: 6 * z + 6]
                counts = np.bincount(block.ravel(), minlength=max_label + 1)
                nonzero = counts[1:]
                n_labeled = int(nonzero.sum())
                pure_patch = n_labeled > 0 and \
                    int(nonzero.max()) / n_labeled >= purity
                for region in MACROREGIONS:
                    members = [lab for lab in range(1, max_label + 1)
                               if region_of.get(lab) == region]
                    r_count = int(counts[members].sum()) if members else 0
                    if r_count >= 1:
                        out[region]["any"].append(p)
                    if r_count / 216.0 > majority:
                        out[region]["majority"].append(p)
                        if pure_patch:
                            out[region]["pure"].append(p)
    return out


def test_criterion_02_brute_force_equivalence():
    with criterion(2, "classify_patches matches per-voxel brute force"):
        rng = np.random.default_rng(1002)
        t0 = time.monotonic()
        for _ in range(20):
            n_labels = int(rng.integers(1, 9))
            labels = random_atlas(rng, (96, 96, 96), n_labels,
                                  block=int(rng.choice([8, 16, 32])))
            regions = random_region_map(rng, n_labels)
            sets = classify_patches(LabelVolume(labels=labels, affine=EYE),
                                    regions)
            oracle = brute_force_sets(labels, regions.mapping)
            for region in MACROREGIONS:
                for crit in ("any", "majority", "pure"):
                    got = sets.sets_for(crit)[region]
                    want = np.asarray(sorted(oracle[region][crit]), dtype=got.dtype)
                    assert np.array_equal(np.sort(got), want), (region, crit)
        assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 3. report arithmetic: voxels = patches * 216


def test_criterion_03_report_arithmetic():
    with criterion(3, "report voxel counts are patches x 216"):
        assert 524 * 216 == 113_184
        assert 12 * 216 == 2_592

        rng = np.random.default_rng(1003)
        grid = PatchGrid.for_shape((96, 96, 96))
        coords = [(x, y, z) for z in range(16) for y in range(16)
                  for x in range(16)]
        rng.shuffle(coords)
        labels = np.zeros((96, 96, 96), dtype=np.int32)
        for x, y, z in coords[:12]:  # 12 solid subcortical patches
            labels[6 * x: 6 * x + 6, 6 * y: 6 * y + 6, 6 * z: 6 * z + 6] = 2
        for x, y, z in coords[12: 12 + 524]:  # one frontal voxel each
            labels[6 * x, 6 * y, 6 * z] = 1
        sets = classify_patches(
            LabelVolume(labels=labels, affine=EYE),
            RegionMap({1: "frontal", 2: "subcortical"}), grid=grid)

        rows = {(r["region"], r["criterion"]): r for r in patch_set_report(sets)}
        assert rows[("frontal", "any")]["n_patches"] == 524
        assert rows[("frontal", "any")]["n_voxels"] == 113_184
        assert rows[("subcortical", "pure")]["n_patches"] == 12
        assert rows[("subcortical", "pure")]["n_voxels"] == 2_592
        for row in patch_set_report(sets):
            assert row["n_voxels"] == row["n_patches"] * 216

        # and on arbitrary classifications, not just the crafted one
        for _ in range(3):
            n_labels = int(rng.integers(1, 9))
            atlas = LabelVolume(labels=random_atlas(rng, (24, 30, 36), n_labels),
                                affine=EYE)
            for row in patch_set_report(
                    classify_patches(atlas, random_region_map(rng, n_labels))):
                assert row["n_voxels"] == row["n_patches"] * 216


# ---------------------------------------------------------------------------
# 4. QC gate boundary sweep


def test_criterion_04_qc_gate_sweep():
    with criterion(4, "QC gate matches closed-form predicate on 1,000 cases"):
        rng = np.random.default_rng(1004)
        cases = [(0.85, 1.0), (0.85, 1.8862), (0.9, 1.8862),
                 (0.85 + 1e-9, 1.8862), (0.85 + 1e-9, 1.8862 + 1e-9),
                 (0.85 - 1e-9, 1.0), (1.0, 1.8862 - 1e-9), (0.0, 3.0)]
        while len(cases) < 1000:
            d = float(rng.uniform(0.5, 1.0))
            p = float(rng.uniform(1.0, 2.5))
            if rng.random() < 0.25:  # concentrate on the boundaries
                d = 0.85 + float(rng.uniform(-1e-6, 1e-6))
            if rng.random() < 0.25:
                p = 1.8862 + float(rng.uniform(-1e-6, 1e-6))
            cases.append((min(max(d, 0.0), 1.0), p))

        for d, p in cases:
            rep = qc_gate(d, p)
            want_reasons = ([DICE_FAIL] if d <= 0.85 else []) + \
                ([P99_FAIL] if p > 1.8862 else [])
            assert rep.excluded == bool(want_reasons), (d, p)
            assert rep.reasons == want_reasons, (d, p)

        assert qc_gate(0.85, 1.0).excluded          # dice at threshold fails
        assert not qc_gate(0.9, 1.8862).excluded    # p99 at threshold passes


# ---------------------------------------------------------------------------
# 5. z-score normalization contract


def test_criterion_05_zscore_contract():
    with criterion(5, "z-score mean/std/clip/out-of-mask contract"):
        rng = np.random.default_rng(1005)
        for trial in range(10):
            shape = (20, 22, 18)
            mask = np.zeros(shape, dtype=bool)
            mask[3:17, 4:19, 2:15] = True
            # bounded data: no clipping can activate
            data = rng.uniform(40.0, 60.0, size=(*shape, 6))
            vol = Volume4D(data=data, affine=EYE)
            out, _ = zscore_clip(vol, mask)
            values = out.data[mask]
            assert abs(float(values.mean())) <= 1e-6
            assert abs(float(values.std()) - 1.0) <= 1e-6
            assert np.all(out.data[~mask] == 0.0)
            assert float(np.abs(out.data).max()) < 5.0

            # heavy outliers: clip engages but bounds are never exceeded
            spiked = data.copy()
            idx = tuple(rng.integers(0, s, size=40) for s in spiked.shape)
            spiked[idx] *= 50.0
            clipped, _ = zscore_clip(Volume4D(data=spiked, affine=EYE), mask)
            assert float(np.abs(clipped.data).max()) <= 5.0
            assert np.any(clipped.data == 5.0)  # clipping actually happened
            assert np.all(clipped.data[~mask] == 0.0)


# ---------------------------------------------------------------------------
# 6. gradient fidelity: per-op and end-to-end finite differences


def _numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * eps)
    return g


def _rel_err(a, b):
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _check(build, leaves, tol=1e-6):
    for leaf in leaves.values():
        leaf.grad = None
    with Tape() as tape:
        tape.backward(build())
    for name, leaf in leaves.items():
        got = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        want = _numeric_grad(lambda: float(build().data), leaf.data)
        assert _rel_err(got, want) <= tol, f"{name}: {_rel_err(got, want)}"


def test_criterion_06_gradient_fidelity():
    with criterion(6, "ops and end-to-end model match finite differences"):
        t0 = time.monotonic()
        rng = np.random.default_rng(1006)

        def leaf(*shape, lo=-1.0, hi=1.0):
            return Tensor(rng.uniform(lo, hi, size=shape),
                          requires_grad=True, dtype=np.float64)

        # fixed projection weights so repeated rebuilds are deterministic
        proj: dict[tuple, Tensor] = {}

        def dot(out):
            key = tuple(out.shape)
            if key not in proj:
                proj[key] = Tensor(rng.normal(size=key))
            return ad.tsum(ad.mul(out, proj[key]))

        a, b = leaf(3, 4), leaf(3, 4)
        m1, m2 = leaf(3, 4), leaf(4, 5)
        x54, w43, b3 = leaf(5, 4), leaf(4, 3), leaf(3)
        pos = leaf(4, 5, lo=0.5, hi=2.0)
        gamma, beta = leaf(6), leaf(6)
        xl = leaf(5, 6)
        u, delta = leaf(5, 3), leaf(5, 3, lo=0.1, hi=1.0)
        neg_a = Tensor(rng.uniform(-1.5, -0.3, size=(3, 2)),
                       requires_grad=True, dtype=np.float64)
        bs, cs = leaf(5, 2), leaf(5, 2)
        d_skip = leaf(3)
        logits = leaf(6, lo=-2.0, hi=2.0)
        targets = rng.integers(0, 2, size=6).astype(np.float64)
        idx = np.array([0, 2, 2, 4])

        ops = {
            "add": (lambda: dot(ad.add(a, b)), {"a": a, "b": b}),
            "sub": (lambda: dot(ad.sub(a, b)), {"a": a, "b": b}),
            "mul": (lambda: dot(ad.mul(a, b)), {"a": a, "b": b}),
            "matmul": (lambda: dot(ad.matmul(m1, m2)), {"a": m1, "b": m2}),
            "linear": (lambda: dot(ad.linear(x54, w43, b3)),
                       {"x": x54, "w": w43, "b": b3}),
            "reshape": (lambda: dot(ad.reshape(a, (12,))), {"a": a}),
            "transpose": (lambda: dot(ad.transpose(a, (1, 0))), {"a": a}),
            "roll": (lambda: dot(ad.roll(a, (1, -2), (0, 1))), {"a": a}),
            "take_rows": (lambda: dot(ad.take_rows(x54, idx)), {"x": x54}),
            "exp": (lambda: dot(ad.exp(a)), {"a": a}),
            "log": (lambda: dot(ad.log(pos)), {"x": pos}),
            "reciprocal": (lambda: dot(ad.reciprocal(pos)), {"x": pos}),
            "sqrt": (lambda: dot(ad.sqrt(pos)), {"x": pos}),
            "sigmoid": (lambda: dot(ad.sigmoid(a)), {"a": a}),
            "softplus": (lambda: dot(ad.softplus(a)), {"a": a}),
            "silu": (lambda: dot(ad.silu(a)), {"a": a}),
            "gelu": (lambda: dot(ad.gelu(a)), {"a": a}),
            "softmax": (lambda: dot(ad.softmax(xl, axis=-1)), {"x": xl}),
            "layernorm": (lambda: dot(ad.layernorm(xl, gamma, beta)),
                          {"x": xl, "gamma": gamma, "beta": beta}),
            "tsum": (lambda: dot(ad.tsum(a, axis=1)), {"a": a}),
            "tmean": (lambda: dot(ad.tmean(a, axis=0)), {"a": a}),
            "sum_sq": (lambda: ad.sum_sq(a), {"a": a}),
            "selective_scan": (
                lambda: dot(ad.selective_scan(u, delta, neg_a, bs, cs, d_skip)),
                {"u": u, "delta": delta, "a": neg_a, "b": bs, "c": cs,
                 "d": d_skip}),
            "bce_with_logits": (
                lambda: ad.bce_with_logits(logits, targets), {"z": logits}),
        }
        for name, (build, leaves) in ops.items():
            _check(build, leaves, tol=1e-6)

        # end-to-end: tiny model, every configuration, sampled coordinates
        for conf in CONFIGURATIONS:
            model = HybridModel(ModelConfig(
                embed_dim=8, stage_depths=(1, 1), heads=2, window=(4, 4, 4, 2),
                ssm_state_dim=4, t_patch=4, configuration=conf))
            model.to_dtype(np.float64)
            vol = rng.uniform(-1, 1, size=(12, 12, 12, 4))
            mask = np.zeros((8, 1), dtype=bool)
            mask[[1, 4, 6], 0] = True
            mt = MaskTensor(mask=mask, voxels_per_patch=216, t_patch_len=4)
            target = rng.uniform(-1, 1, size=vol.shape)

            def loss_fn():
                recon = model.forward_pretrain(vol, mt)
                return masked_mse(recon, target, mt)

            for p in model.params.values():
                p.grad = None
            with Tape() as tape:
                tape.backward(loss_fn())
            sampled = ["embed.w", "mask_token", "head.w"]
            sampled += [name for name in model.params
                        if name.endswith((".a_log", ".q.w"))][:2]
            h = 1e-5
            for name in sampled:
                p = model.params[name]
                assert p.grad is not None, name
                flat, gflat = p.data.reshape(-1), p.grad.reshape(-1)
                for c in rng.choice(flat.size, size=min(3, flat.size),
                                    replace=False):
                    old = flat[c]
                    flat[c] = old + h
                    up = float(loss_fn().data)
                    flat[c] = old - h
                    dn = float(loss_fn().data)
                    flat[c] = old
                    num = (up - dn) / (2 * h)
                    denom = max(1.0, abs(num), abs(gflat[c]))
                    assert abs(num - gflat[c]) / denom <= 1e-4, (conf, name)
        assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 7. selective scan against the naive recurrence


def naive_scan(u, delta, a, b, c, d_skip):
    seq, dim = u.shape
    state = a.shape[1]
    h = np.zeros((dim, state))
    y = np.zeros_like(u)
    for t in range(seq):
        abar = np.exp(delta[t][:, None] * a)
        bbar = (abar - 1.0) / a * b[t][None, :]
        h = abar * h + bbar * u[t][:, None]
        y[t] = h @ c[t] + d_skip * u[t]
    return y


def test_criterion_07_scan_correctness():
    with criterion(7, "selective scan equals naive recurrence and cumsum"):
        rng = np.random.default_rng(1007)
        for _ in range(100):
            seq = int(rng.integers(2, 11))
            dim = int(rng.integers(1, 5))
            state = int(rng.integers(1, 5))
            u = rng.normal(size=(seq, dim))
            delta = rng.uniform(0.05, 1.0, size=(seq, dim))
            a = -np.exp(rng.uniform(-1.0, 1.0, size=(dim, state)))
            b = rng.normal(size=(seq, state))
            c = rng.normal(size=(seq, state))
            d_skip = rng.normal(size=dim)
            got = ad.selective_scan(u, delta, a, b, c, d_skip).data
            want = naive_scan(u, delta, a, b, c, d_skip)
            assert np.max(np.abs(got - want)) <= 1e-6

        # a -> 0 degenerates the recurrence to a running sum
        seq, dim = 16, 3
        u = rng.normal(size=(seq, dim))
        ones = np.ones((seq, dim))
        a = np.full((dim, 1), -1e-9)
        b = np.ones((seq, 1))
        c = np.ones((seq, 1))
        got = ad.selective_scan(u, ones, a, b, c, np.zeros(dim)).data
        assert np.max(np.abs(got - np.cumsum(u, axis=0))) <= 1e-6


# ---------------------------------------------------------------------------
# 8. shape symmetry and parameter parity


def test_criterion_08_shape_symmetry():
    with criterion(8, "reconstruction shape matches input; params within 10%"):
        rng = np.random.default_rng(1008)
        for side in (48, 96):
            n_p = (side // 6) ** 3
            vol = rng.normal(size=(side, side, side, 8)).astype(np.float32)
            mask = rng.random((n_p, 2)) < 0.1
            mask[0, 0] = True
            mt = MaskTensor(mask=mask, voxels_per_patch=216, t_patch_len=4)
            for conf in CONFIGURATIONS:
                for depths in ((1, 1), (2, 2)):
                    model = HybridModel(ModelConfig(configuration=conf,
                                                    stage_depths=depths))
                    recon = model.forward_pretrain(vol, mt)
                    assert tuple(recon.shape) == vol.shape, (conf, depths, side)

        counts = {}
        for conf in CONFIGURATIONS:
            model = HybridModel(ModelConfig(configuration=conf))
            counts[conf] = sum(int(p.data.size) for p in model.params.values())
        assert max(counts.values()) <= 1.10 * min(counts.values()), counts


# ---------------------------------------------------------------------------
# 9. masked-loss locality


def test_criterion_09_masked_loss_locality():
    with criterion(9, "out-of-mask perturbations leave masked_mse unchanged"):
        rng = np.random.default_rng(1009)
        for _ in range(100):
            gx, gy, gz = (int(rng.integers(1, 4)) for _ in range(3))
            t_slots = int(rng.integers(1, 3))
            t_len = int(rng.integers(1, 3))
            n_p = gx * gy * gz
            mask = rng.random((n_p, t_slots)) < 0.4
            if not mask.any():
                mask[0, 0] = True
            if mask.all():
                mask[-1, -1] = False
            mt = MaskTensor(mask=mask, voxels_per_patch=216, t_patch_len=t_len)
            shape = (6 * gx, 6 * gy, 6 * gz, t_slots * t_len)
            recon = rng.normal(size=shape)
            target = rng.normal(size=shape)
            base = masked_mse(recon, target, mt)

            vox = _voxel_mask(mt, shape)
            if not (~vox).any():
                continue
            perturbed = recon.copy()
            perturbed[~vox] += rng.normal(scale=100.0, size=int((~vox).sum()))
            assert masked_mse(perturbed, target, mt) == base


# ---------------------------------------------------------------------------
# 10. overfit smoke test


def test_criterion_10_overfit_smoke():
    with criterion(10, "single-subject loss falls below 10% in 200 steps"):
        t0 = time.monotonic()
        cohort = synth_cohort(SynthConfig(
            n_subjects=1, shape=(24, 24, 24), seed=7, noise_amplitude=0.0,
            smooth_amplitude=0.3, temporal_amplitude=0.1, signal_amplitude=0.0))
        sets = classify_patches(cohort.atlas, cohort.regions)
        sid, raw, _ = cohort.labeled_triples()[0]
        vol = Volume4D(data=raw, affine=cohort.atlas.affine, tr_seconds=0.8)
        norm, _, _ = preprocess_volume(vol, fov=(24, 24, 24), subject_id=sid)

        spec = MaskSpec(strategy=REGION_ANY, region="frontal", ratio=1.0,
                        temporal_mode=TUBE, seed=0)
        fixed = build_mask(spec, sets, t_patches=2, t_patch_len=4)
        assert 0 < fixed.masked_slots < fixed.mask.size

        for conf in CONFIGURATIONS:
            model = HybridModel(ModelConfig(configuration=conf, seed=0))
            initial = masked_mse(model.forward_pretrain(norm.data, fixed).data,
                                 norm.data, fixed)
            run = RunConfig(phase=PRETRAIN, epochs=200, batch_size=1, lr=1e-2,
                            seed=0, mask_spec=spec)
            result = pretrain(model, [(sid, norm.data)], [(sid, norm.data)],
                              run, sets)
            assert result.best_val_loss < 0.10 * initial, \
                (conf, initial, result.best_val_loss)
        assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# 11. integrated-gradients completeness and linear exactness


class _Linear:
    def __init__(self, w):
        self.w = Tensor(w)

    def forward_classify(self, x):
        flat = x if isinstance(x, Tensor) else Tensor(np.asarray(x, float))
        return ad.tsum(ad.mul(ad.reshape(flat, self.w.shape), self.w))


class _TwoLayer:
    def __init__(self, rng, n_in, n_hidden):
        self.w1 = Tensor(rng.normal(scale=0.5, size=(n_in, n_hidden)))
        self.b1 = Tensor(rng.normal(scale=0.1, size=n_hidden))
        self.w2 = Tensor(rng.normal(scale=0.5, size=(n_hidden, 1)))

    def forward_classify(self, x):
        flat = x if isinstance(x, Tensor) else Tensor(np.asarray(x, float))
        h = ad.gelu(ad.linear(ad.reshape(flat, (1, self.w1.shape[0])),
                              self.w1, self.b1))
        return ad.reshape(ad.matmul(h, self.w2), ())


def test_criterion_11_ig_completeness():
    with criterion(11, "IG completeness at 256 steps; linear exactness"):
        rng = np.random.default_rng(1011)
        shape = (6, 6, 6, 2)

        w = rng.normal(size=shape)
        x = rng.normal(size=shape)
        attr = integrated_gradients(_Linear(w), x, baseline="ZERO", steps=32)
        assert np.array_equal(attr, w * x)

        model = _TwoLayer(rng, int(np.prod(shape)), 16)
        x = rng.normal(size=shape)
        attr = integrated_gradients(model, x, baseline="ZERO", steps=256)
        f_x = float(model.forward_classify(x).data)
        f_0 = float(model.forward_classify(np.zeros(shape)).data)
        assert abs(f_x - f_0) > 1e-3  # oracle must not be degenerate
        rel = abs(attr.sum() - (f_x - f_0)) / abs(f_x - f_0)
        assert rel <= 1e-2


# ---------------------------------------------------------------------------
# 12. metric oracles


def auroc_enum(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def wilcoxon_enum(a, b):
    d = np.asarray(a, float) - np.asarray(b, float)
    d = d[d != 0.0]
    ranks = rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    lo, hi = min(w_plus, w_minus), max(w_plus, w_minus)
    count = 0
    for signs in itertools.product((0.0, 1.0), repeat=d.size):
        w = float(np.dot(signs, ranks))
        if w <= lo + 1e-12 or w >= hi - 1e-12:
            count += 1
    return lo, count / 2.0 ** d.size


def test_criterion_12_metric_oracles():
    with criterion(12, "AUROC/Wilcoxon/Friedman/Bonferroni oracles"):
        rng = np.random.default_rng(1012)

        assert auroc([0.1, 0.4, 0.35, 0.8], np.array([0, 0, 1, 1])) == 0.75
        for _ in range(25):
            n = int(rng.integers(2, 201))
            if rng.random() < 0.5:  # heavy ties
                scores = rng.integers(0, 5, size=n).astype(float)
            else:
                scores = rng.normal(size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            assert auroc(scores, labels) == auroc_enum(scores, labels), n

        for _ in range(20):
            n = int(rng.integers(5, 13))
            a = np.round(rng.normal(size=n), 1)
            b = np.round(rng.normal(size=n), 1)
            if np.all(a == b):
                a[0] += 0.5
            stat, p = wilcoxon_signed_rank(a, b)
            o_stat, o_p = wilcoxon_enum(a, b)
            assert stat == o_stat and p == o_p, (a, b)

        ordered = np.tile([1.0, 2.0, 3.0], (10, 1)) + \
            rng.normal(scale=0.01, size=(10, 1))
        stat, p = friedman_test(ordered)
        assert stat == pytest.approx(20.0, rel=1e-12)  # 12n/(k(k+1)) * 2
        assert p == pytest.approx(float(chi2.sf(20.0, 2)), rel=1e-12)

        # hand-ranked 4x3 fixture: rank sums (7, 9, 8), tie row included
        fixture = np.array([[1.0, 2.0, 3.0],
                            [3.0, 2.0, 1.0],
                            [2.0, 2.0, 2.0],
                            [1.0, 3.0, 2.0]])
        stat, _ = friedman_test(fixture)
        assert stat == pytest.approx(2.0 / 3.0, rel=1e-12)

        assert bonferroni([0.01], m=3) == [pytest.approx(0.03)]
        assert bonferroni([0.5], m=3) == [1.0]
        ps = rng.uniform(0, 1, size=6)
        corrected = bonferroni(list(ps), m=10)
        assert corrected == [min(1.0, p * 10) for p in ps]


# ---------------------------------------------------------------------------
# 13. pipeline determinism


SMALL_MODEL = [
    "--set", "model.embed_dim=8",
    "--set", "model.heads=2",
    "--set", "model.stage_depths=[1, 1]",
    "--set", "model.ssm_state_dim=4",
]


def _run_pipeline(root):
    synth, prep = root / "synth", root / "prep"
    patches, maskdir = root / "patches", root / "mask"
    pre, ft = root / "pretrain", root / "finetune"
    assert cli_main(["--out-dir", str(synth), "synth",
                     "--subjects", "14", "--shape", "24"]) == 0
    assert cli_main(["--out-dir", str(prep),
                     "--set", f"data.manifest={synth / 'manifest.csv'}",
                     "--set", "preprocess.fov=[24, 24, 24]",
                     "preprocess"]) == 0
    assert cli_main(["--out-dir", str(patches),
                     "--set", f"data.atlas={synth / 'atlas.nii.gz'}",
                     "--set", f"data.region_map={synth / 'region_map.csv'}",
                     "classify-patches"]) == 0
    assert cli_main(["--out-dir", str(maskdir),
                     "--set", f"data.patch_sets={patches / 'patch_sets.json'}",
                     "build-mask"]) == 0
    assert cli_main(["--out-dir", str(pre),
                     "--set", f"data.manifest={prep / 'manifest.csv'}",
                     "--set", f"data.patch_sets={patches / 'patch_sets.json'}",
                     "--set", "pretrain.epochs=2", *SMALL_MODEL,
                     "pretrain"]) == 0
    assert cli_main(["--out-dir", str(ft),
                     "--set", f"data.manifest={prep / 'manifest.csv'}",
                     "--set", f"finetune.init_from={pre / 'model.ckpt'}",
                     "--set", "finetune.epochs=2", *SMALL_MODEL,
                     "finetune"]) == 0
    # inputs.json and resolved_config.yaml hold the run's own directory
    compared = [maskdir / "mask.bits", maskdir / "mask.bits.json",
                patches / "patch_sets.json", prep / "qc.csv",
                *sorted(prep.glob("*_preproc.nii.gz")),
                ft / "test_metrics.json"]
    for stage in (pre, ft):
        compared += [stage / "metrics.csv", stage / "model.ckpt",
                     stage / "model.ckpt.manifest.json"]
    assert len(compared) == 14 + 11
    return {str(p.relative_to(root)): p.read_bytes() for p in compared}


def test_criterion_13_pipeline_determinism(tmp_path):
    with criterion(13, "same-seed pipeline reruns are byte-identical"):
        first = _run_pipeline(tmp_path / "run1")
        second = _run_pipeline(tmp_path / "run2")
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"


# ---------------------------------------------------------------------------
# 14. end-to-end learnability on the planted-signal cohort


@pytest.mark.slow  # about four fifths of the suite's wall time
def test_criterion_14_end_to_end_learnability():
    with criterion(14, "MA pretrain+finetune reaches AUROC >= 0.8 in 4/5 seeds"):
        t0 = time.monotonic()
        cohort = synth_cohort(SynthConfig(n_subjects=60, shape=(48, 48, 48),
                                          seed=0))
        sets = classify_patches(cohort.atlas, cohort.regions)
        normalized = []
        for sid, raw, label in cohort.labeled_triples():
            vol = Volume4D(data=raw, affine=cohort.atlas.affine, tr_seconds=0.8)
            out, _, report = preprocess_volume(vol, fov=(48, 48, 48),
                                               subject_id=sid)
            assert not report.excluded, (sid, report.reasons)
            normalized.append((sid, out.data, label))
        by_id = {sid: (sid, arr, label) for sid, arr, label in normalized}

        class Rec:
            def __init__(self, sid, label):
                self.subject_id, self.label = sid, label

        records = [Rec(sid, label) for sid, _, label in normalized]
        aurocs = []
        for seed in range(5):
            train, val, test = split_subjects(records, (8, 1, 1), seed=seed)
            model = HybridModel(ModelConfig(configuration=MA, seed=seed))
            mask_spec = MaskSpec(strategy=RANDOM_TUBE, ratio=0.5,
                                 temporal_mode=TUBE, seed=seed)
            pre_run = RunConfig(phase=PRETRAIN, epochs=2, batch_size=8,
                                lr=1e-3, seed=seed, mask_spec=mask_spec)
            pairs = lambda recs: [(r.subject_id, by_id[r.subject_id][1])
                                  for r in recs]
            pretrain(model, pairs(train), pairs(val), pre_run, sets)

            ft_run = RunConfig(phase=FINETUNE, epochs=6, batch_size=8,
                               lr=2e-3, seed=seed)
            triples = lambda recs: [by_id[r.subject_id] for r in recs]
            result = finetune(model, triples(train), triples(val),
                              triples(test), ft_run)
            aurocs.append(result.test_auroc)

        successes = sum(1 for a in aurocs if a is not None and a >= 0.8)
        elapsed = time.monotonic() - t0
        print(f"test AUROCs per seed: {aurocs} ({elapsed:.0f}s)")
        assert successes >= 4, aurocs
        assert elapsed < 900.0
