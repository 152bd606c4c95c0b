import itertools

import numpy as np
import pytest
from scipy.special import erf

from regionmae import autodiff as ad
from regionmae.atlas import PatchGrid
from regionmae.autodiff import Tape, Tensor
from regionmae.checkpoint import load_checkpoint, save_checkpoint
from regionmae.errors import ValidationError
from regionmae.masking import MaskTensor
from regionmae.model import (
    ALTERNATE,
    AM,
    ATT,
    MA,
    MAMBA,
    SSM,
    HybridModel,
    ModelConfig,
    _effective_window,
    _from_windows,
    _to_windows,
    assign_operators,
)


def tiny_config(**kw):
    base = dict(embed_dim=8, stage_depths=(1, 1), heads=2, window=(4, 4, 4, 2),
                ssm_state_dim=4, t_patch=4, configuration=MAMBA)
    base.update(kw)
    return ModelConfig(**base)


# test-side re-derivations -----------------------------------------------------

def np_layernorm(x, gamma, beta, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def np_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def np_softplus(x):
    return np.logaddexp(0.0, x)


def np_silu(x):
    return x / (1.0 + np.exp(-x))


# config ----------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValidationError):
        ModelConfig(configuration="TRANSFORMER")
    with pytest.raises(ValidationError):
        ModelConfig(embed_dim=30, heads=4)
    with pytest.raises(ValidationError):
        ModelConfig(embed_dim=9, heads=3)  # odd: merging cannot halve it
    with pytest.raises(ValidationError):
        ModelConfig(stage_depths=())
    for bad in ({"heads": 0}, {"embed_dim": -4, "heads": 2},
                {"patch_size": (6, 6)}, {"patch_size": (6, 0, 6)},
                {"window": (4, 4, 4)}, {"window": (4, 4, 4, 0)}):
        with pytest.raises(ValidationError):
            ModelConfig(**bad)


@pytest.mark.parametrize("ratio", [-2.0, 0.0, float("nan")])
def test_mlp_ratio_must_be_positive(ratio):
    # a ratio <= 0 used to build a 1-unit MLP silently
    with pytest.raises(ValidationError, match="mlp_ratio"):
        ModelConfig(mlp_ratio=ratio)


def test_config_hash_distinguishes_configs(tmp_path):
    a = ModelConfig()
    b = ModelConfig(configuration=AM)
    assert a.config_hash() == ModelConfig().config_hash()
    assert a.config_hash() != b.config_hash()
    # literal hashes of saved checkpoints: they must not change
    assert a.config_hash() == "42e5977e657305e1"
    assert ModelConfig(configuration=MA, stage_depths=(1, 1), patch_size=(4, 4, 4),
                       seed=3).config_hash() == "61d0913dbe22447f"
    path = tmp_path / "model.ckpt"
    save_checkpoint({"w": np.ones(3)}, path, "42e5977e657305e1")
    arrays, _ = load_checkpoint(path, a.config_hash())
    np.testing.assert_array_equal(arrays["w"], np.ones(3))


def test_assign_operators_tables():
    cfg = tiny_config(stage_depths=(2, 2))
    assert assign_operators(cfg) == [SSM] * 8
    assert assign_operators(tiny_config(stage_depths=(2, 2), configuration=AM)) \
        == [ATT] * 4 + [SSM] * 4
    assert assign_operators(tiny_config(stage_depths=(2, 2), configuration=MA)) \
        == [SSM] * 4 + [ATT] * 4
    assert assign_operators(tiny_config(stage_depths=(2, 2), configuration=ALTERNATE)) \
        == [ATT, SSM, ATT, SSM, ATT, SSM, ATT, SSM]


def test_alternate_pattern_continues_into_decoder():
    # odd number of encoder blocks: the decoder's first block keeps alternating
    # rather than restarting
    cfg = tiny_config(stage_depths=(1, 2), configuration=ALTERNATE)
    ops = assign_operators(cfg)
    assert ops == [ATT, SSM, ATT, SSM, ATT, SSM]
    n_enc = sum(cfg.stage_depths)
    assert ops[n_enc] != ops[n_enc - 1]


# window attention --------------------------------------------------------------

def test_single_token_window_is_value_projection():
    cfg = tiny_config(stage_depths=(1,), configuration=AM)
    m = HybridModel(cfg)
    m.to_dtype(np.float64)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 8))

    out = m._window_attention(Tensor(x), (1, 1, 1, 1), "enc0.blk0", shift=False)

    p = {k: v.data for k, v in m.params.items()}
    h = np_layernorm(x, p["enc0.blk0.ln1.gamma"], p["enc0.blk0.ln1.beta"])
    v = h @ p["enc0.blk0.v.w"] + p["enc0.blk0.v.b"]
    y1 = x + v @ p["enc0.blk0.proj.w"] + p["enc0.blk0.proj.b"]
    h2 = np_layernorm(y1, p["enc0.blk0.ln2.gamma"], p["enc0.blk0.ln2.beta"])
    y2 = y1 + np_gelu(h2 @ p["enc0.blk0.mlp1.w"] + p["enc0.blk0.mlp1.b"]) \
        @ p["enc0.blk0.mlp2.w"] + p["enc0.blk0.mlp2.b"]
    np.testing.assert_allclose(out.data, y2, rtol=1e-12, atol=1e-12)


def test_two_token_attention_matches_hand_softmax():
    cfg = ModelConfig(embed_dim=4, stage_depths=(1,), heads=1, window=(4, 4, 4, 2),
                      ssm_state_dim=4, configuration=AM)
    m = HybridModel(cfg)
    m.to_dtype(np.float64)
    rng = np.random.default_rng(7)
    for name in ("q", "k", "v", "proj"):
        m.params[f"enc0.blk0.{name}.w"].data = rng.normal(size=(4, 4))
        m.params[f"enc0.blk0.{name}.b"].data = rng.normal(size=4)
    x = rng.normal(size=(2, 4))

    out = m._window_attention(Tensor(x), (1, 1, 2, 1), "enc0.blk0", shift=False)

    p = {k: v.data for k, v in m.params.items()}
    h = np_layernorm(x, p["enc0.blk0.ln1.gamma"], p["enc0.blk0.ln1.beta"])
    q = h @ p["enc0.blk0.q.w"] + p["enc0.blk0.q.b"]
    k = h @ p["enc0.blk0.k.w"] + p["enc0.blk0.k.b"]
    v = h @ p["enc0.blk0.v.w"] + p["enc0.blk0.v.b"]
    logits = q @ k.T / np.sqrt(4.0)
    w = np.exp(logits - logits.max(-1, keepdims=True))
    w /= w.sum(-1, keepdims=True)
    att = w @ v
    y1 = x + att @ p["enc0.blk0.proj.w"] + p["enc0.blk0.proj.b"]
    h2 = np_layernorm(y1, p["enc0.blk0.ln2.gamma"], p["enc0.blk0.ln2.beta"])
    y2 = y1 + np_gelu(h2 @ p["enc0.blk0.mlp1.w"] + p["enc0.blk0.mlp1.b"]) \
        @ p["enc0.blk0.mlp2.w"] + p["enc0.blk0.mlp2.b"]
    np.testing.assert_allclose(out.data, y2, rtol=1e-10, atol=1e-12)


def _region_ids_oracle(dims, eff, shifts):
    """Independent per-site region ids for the shifted-window mask."""
    grids = []
    for d, w, s in zip(dims, eff, shifts):
        axis = np.zeros(d, dtype=int)
        if s:
            axis[d - w:] = 1
            axis[d - s:] = 2
        grids.append(axis)
    out = np.zeros(dims, dtype=int)
    for i0 in range(dims[0]):
        for i1 in range(dims[1]):
            for i2 in range(dims[2]):
                for i3 in range(dims[3]):
                    out[i0, i1, i2, i3] = (
                        grids[0][i0] * 1000 + grids[1][i1] * 100
                        + grids[2][i2] * 10 + grids[3][i3])
    return out


def _record_attention(monkeypatch) -> list[np.ndarray]:
    """Collect every attention weight tensor the model computes."""
    seen = []
    softmax = ad.softmax

    def recording(x, axis=-1):
        out = softmax(x, axis=axis)
        seen.append(out.data.copy())
        return out

    monkeypatch.setattr(ad, "softmax", recording)
    return seen


def test_shifted_window_attention_isolates_regions(monkeypatch):
    cfg = ModelConfig(embed_dim=8, stage_depths=(2,), heads=2, configuration=AM,
                      window=(4, 4, 4, 2), ssm_state_dim=4)
    m = HybridModel(cfg)
    seen = _record_attention(monkeypatch)
    rng = np.random.default_rng(11)
    vol = rng.uniform(-1, 1, size=(48, 48, 48, 8)).astype(np.float32)
    m.forward_classify(vol)

    assert len(seen) == 2  # the second block of the stage is the shifted one
    dims, eff, shifts = (8, 8, 8, 2), (4, 4, 4, 2), (2, 2, 2, 0)
    rid = _region_ids_oracle(dims, eff, shifts)
    rid = np.roll(rid, tuple(-s for s in shifts), axis=(0, 1, 2, 3))
    d0, d1, d2, d3 = dims
    w0, w1, w2, w3 = eff
    rid = rid.reshape(d0 // w0, w0, d1 // w1, w1, d2 // w2, w2, d3 // w3, w3)
    rid = rid.transpose(0, 2, 4, 6, 1, 3, 5, 7).reshape(-1, w0 * w1 * w2 * w3)

    weights = seen[1]  # [nW, heads, wsz, wsz]
    assert weights.shape == (8, 2, 128, 128)
    cross = rid[:, None, :, None] != rid[:, None, None, :]
    cross = np.broadcast_to(cross, weights.shape)
    assert np.count_nonzero(cross) > 0
    assert np.all(weights[cross] == 0.0)          # exactly zero across regions
    assert np.all(weights[~cross] > 0.0)
    np.testing.assert_allclose(weights.sum(-1), 1.0, atol=1e-6)


def test_unshifted_window_has_positive_weights_everywhere(monkeypatch):
    cfg = ModelConfig(embed_dim=8, stage_depths=(1,), heads=2, configuration=AM,
                      window=(4, 4, 4, 2), ssm_state_dim=4)
    m = HybridModel(cfg)
    seen = _record_attention(monkeypatch)
    vol = np.random.default_rng(0).uniform(-1, 1, size=(24, 24, 24, 8)).astype(np.float32)
    m.forward_classify(vol)
    assert len(seen) == 1
    assert np.all(seen[0] > 0)


def test_window_not_dividing_lattice_raises():
    cfg = ModelConfig(embed_dim=8, stage_depths=(1,), heads=2, configuration=AM,
                      window=(4, 4, 4, 2), ssm_state_dim=4)
    m = HybridModel(cfg)
    vol = np.zeros((36, 36, 36, 4), dtype=np.float32)  # lattice 6, window 4
    with pytest.raises(ValidationError):
        m.forward_classify(vol)


# mamba blocks ------------------------------------------------------------------

def test_mamba_block_is_identity_when_out_projection_zero():
    cfg = tiny_config(stage_depths=(1,))
    m = HybridModel(cfg)
    m.params["enc0.blk0.out.w"].data[:] = 0.0
    m.params["enc0.blk0.out.b"].data[:] = 0.0
    x = np.random.default_rng(0).normal(size=(16, 8)).astype(np.float32)
    out = m._mamba(Tensor(x), "enc0.blk0")
    np.testing.assert_array_equal(out.data, x)


def _rig_constant_branch(m, prefix, u0, z0):
    """Make the block's scan input constant per row regardless of x."""
    inner = u0.size
    m.params[f"{prefix}.ln.gamma"].data[:] = 0.0       # ln output == beta
    m.params[f"{prefix}.ln.beta"].data[:] = 0.0
    m.params[f"{prefix}.in.w"].data[:] = 0.0
    m.params[f"{prefix}.in.b"].data[:inner] = u0
    m.params[f"{prefix}.in.b"].data[inner:] = z0
    m.params[f"{prefix}.xproj.w"].data[:] = 0.0
    m.params[f"{prefix}.dt.w"].data[:] = 0.0
    m.params[f"{prefix}.out.b"].data[:] = 0.0


def test_mamba_block_skip_only_path():
    # B == C == 0 leaves only the direct skip: y = d_skip * u, gated, projected
    cfg = tiny_config(stage_depths=(1,))
    m = HybridModel(cfg)
    m.to_dtype(np.float64)
    inner = 16
    rng = np.random.default_rng(5)
    u0 = rng.normal(size=inner)
    z0 = rng.normal(size=inner)
    _rig_constant_branch(m, "enc0.blk0", u0, z0)

    x = rng.normal(size=(6, 8))
    out = m._mamba(Tensor(x), "enc0.blk0")

    d_skip = m.params["enc0.blk0.d_skip"].data
    w_out = m.params["enc0.blk0.out.w"].data
    expected = x + (d_skip * u0 * np_silu(z0)) @ w_out
    np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)


def test_mamba_block_state_passthrough_and_cumsum():
    # dial the discretization so the recurrence becomes y_t = u_t (state decays
    # instantly) and then y_t = sum_{s<=t} u_s (state never decays)
    cfg = tiny_config(stage_depths=(1,))
    seq, inner = 5, 16
    u0 = np.zeros(inner)
    u0[0] = 1.0
    for a_log0, dt_b, expect in (
        (0.0, 40.0, np.ones(seq)),                        # abar ~ 0, zoh -> 1
        (np.log(1e-9), np.log(np.e - 1.0), np.arange(1, seq + 1)),  # abar ~ 1
    ):
        m = HybridModel(cfg)
        m.to_dtype(np.float64)
        _rig_constant_branch(m, "enc0.blk0", u0, np.full(inner, 1.0))
        m.params["enc0.blk0.dt.b"].data[:] = dt_b
        m.params["enc0.blk0.a_log"].data[:] = a_log0
        m.params["enc0.blk0.d_skip"].data[:] = 0.0
        # scan feeds state 0 with b=1, reads it back with c=1, channel 0 only
        m.params["enc0.blk0.xproj.w"].data[0, 1] = 1.0   # column rank..rank+S-1: b
        m.params["enc0.blk0.xproj.w"].data[0, 1 + 4] = 1.0  # c (dt_rank=1, S=4)
        m.params["enc0.blk0.out.w"].data[:] = 0.0
        m.params["enc0.blk0.out.w"].data[0, 0] = 1.0

        x = np.zeros((seq, 8))
        out = m._mamba(Tensor(x), "enc0.blk0")
        got = out.data[:, 0] / np_silu(1.0)  # undo the constant gate
        np.testing.assert_allclose(got, expect, rtol=1e-7)


def test_mamba_block_matches_numpy_oracle():
    cfg = tiny_config(stage_depths=(1,))
    m = HybridModel(cfg)
    m.to_dtype(np.float64)
    rng = np.random.default_rng(13)
    x = rng.normal(size=(12, 8))
    out = m._mamba(Tensor(x), "enc0.blk0")

    p = {k: v.data for k, v in m.params.items()}
    pre = "enc0.blk0"
    h = np_layernorm(x, p[f"{pre}.ln.gamma"], p[f"{pre}.ln.beta"])
    hw = h @ p[f"{pre}.in.w"] + p[f"{pre}.in.b"]
    inner = hw.shape[1] // 2
    u, z = hw[:, :inner], hw[:, inner:]
    proj = u @ p[f"{pre}.xproj.w"]
    state = cfg.ssm_state_dim
    rank = proj.shape[1] - 2 * state
    delta = np_softplus(proj[:, :rank] @ p[f"{pre}.dt.w"] + p[f"{pre}.dt.b"])
    b, c = proj[:, rank:rank + state], proj[:, rank + state:]
    a = -np.exp(p[f"{pre}.a_log"])
    abar = np.exp(delta[:, :, None] * a[None])
    bbar_u = (abar - 1.0) / a[None] * b[:, None, :] * u[:, :, None]
    hstate = np.zeros((inner, state))
    y = np.zeros_like(u)
    for t in range(x.shape[0]):
        hstate = abar[t] * hstate + bbar_u[t]
        y[t] = (hstate * c[t][None, :]).sum(-1)
    y += p[f"{pre}.d_skip"] * u
    y = (y * np_silu(z)) @ p[f"{pre}.out.w"] + p[f"{pre}.out.b"]
    np.testing.assert_allclose(out.data, x + y, rtol=1e-10, atol=1e-12)


def test_merge_concatenates_children_in_fixed_order():
    cfg = tiny_config(stage_depths=(2, 2))
    m = HybridModel(cfg)
    m.to_dtype(np.float64)
    d = 8
    dims = (2, 2, 2, 1)
    x = np.arange(8 * d, dtype=np.float64).reshape(8, d)
    m.params["merge0.b"].data[:] = 0.0
    for child in range(8):
        for ch in (0, 3, 7):
            m.params["merge0.w"].data[:] = 0.0
            m.params["merge0.w"].data[child * d + ch, 0] = 1.0
            out, dims2 = m._merge(Tensor(x), dims, 0)
            assert dims2 == (1, 1, 1, 1)
            dz, dy, dx = child // 4, (child // 2) % 2, child % 2
            row = (dz * 2 + dy) * 2 + dx  # lattice (z, y, x, t) C-order
            assert out.data[0, 0] == x[row, ch]


def test_expand_then_merge_roundtrips_with_pseudoinverse():
    cfg = tiny_config(stage_depths=(2, 2))
    m = HybridModel(cfg)
    m.to_dtype(np.float64)
    we = m.params["expand0.w"].data  # [2d, 8d]
    m.params["expand0.b"].data[:] = 0.0
    m.params["merge0.b"].data[:] = 0.0
    m.params["merge0.w"].data = np.linalg.pinv(we)

    rng = np.random.default_rng(4)
    x = rng.normal(size=(2 * 2 * 2 * 2, 16))  # stage-1 tokens, dims (2,2,2,2)
    up, dims_up = m._expand(Tensor(x), (2, 2, 2, 2), 0)
    assert dims_up == (4, 4, 4, 2)
    assert up.shape == (128, 8)
    back, dims_back = m._merge(up, dims_up, 0)
    assert dims_back == (2, 2, 2, 2)
    np.testing.assert_allclose(back.data, x, rtol=1e-9, atol=1e-10)


def _windows_oracle(rows, dims, eff, shifts):
    """Roll the lattice back by the shifts, then cut out one window at a time."""
    lattice = np.roll(rows.reshape(*dims, -1), [-s for s in shifts],
                      axis=(0, 1, 2, 3))
    starts = itertools.product(*(range(0, d, w) for d, w in zip(dims, eff)))
    return np.stack([lattice[tuple(slice(a, a + w) for a, w in zip(at, eff))]
                     .reshape(-1, rows.shape[-1]) for at in starts])


@pytest.mark.parametrize("dims, window, shift", [
    ((4, 3, 6, 2), (2, 4, 3, 1), True),    # axis 1 clamped to 3, time window 1
    ((4, 3, 6, 2), (2, 4, 3, 1), False),
    ((2, 4, 2, 4), (2, 2, 1, 2), True),    # shifts on axes 1 and 3 only
    ((4, 4, 2, 1), (2, 2, 2, 1), False),   # the merge window
])
def test_window_permutation_matches_a_per_window_loop(dims, window, shift):
    eff, shifts = _effective_window(window, dims)
    shifts = shifts if shift else (0, 0, 0, 0)
    assert any(shifts) == shift
    n, wsz = int(np.prod(dims)), int(np.prod(eff))
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(n, 3))  # odd width
    probe = rng.normal(size=(n // wsz, wsz, 3))
    x = Tensor(rows, requires_grad=True)
    with Tape() as tape:
        windows = _to_windows(x, dims, eff, shifts)
        tape.backward(ad.tsum(ad.mul(windows, Tensor(probe))))
    assert windows.data.tobytes() == _windows_oracle(rows, dims, eff, shifts).tobytes()
    # _from_windows inverts it, and so does its backward
    back = _from_windows(windows, dims, eff, shifts).data
    assert back.tobytes() == rows.tobytes()
    unprobed = _from_windows(Tensor(probe), dims, eff, shifts).data
    assert x.grad.tobytes() == unprobed.tobytes()


@pytest.mark.parametrize("conf", [MAMBA, ALTERNATE, AM, MA])
def test_three_stage_walk_merges_and_expands_every_stage(conf):
    cfg = tiny_config(stage_depths=(1, 2, 1), configuration=conf)
    m = HybridModel(cfg)
    assert [b[0] for b in m.enc_blocks] == ["enc0.blk0", "enc1.blk0", "enc1.blk1",
                                             "enc2.blk0"]
    assert [b[0] for b in m.dec_blocks] == ["dec2.blk0", "dec1.blk0", "dec1.blk1",
                                             "dec0.blk0"]
    assert [b[1] for b in m.enc_blocks + m.dec_blocks] == assign_operators(cfg)
    rng = np.random.default_rng(31)
    vol = rng.uniform(-1, 1, size=(48, 48, 48, 8)).astype(np.float32)
    mt = MaskTensor(mask=rng.random((512, 2)) < 0.5, voxels_per_patch=216,
                    t_patch_len=4)
    with Tape() as tape:
        recon = m.forward_pretrain(vol, mt)
        tape.backward(ad.sum_sq(recon))
    assert recon.shape == vol.shape
    for name in ("merge0", "merge1", "expand1", "expand0"):
        grad = m.params[f"{name}.w"].grad
        assert grad is not None and np.any(grad != 0), name


# embedding and masking conventions ----------------------------------------------

def test_patch_embed_rows_follow_patch_grid_order():
    cfg = tiny_config(stage_depths=(1, 1))
    m = HybridModel(cfg)
    grid = PatchGrid.for_shape((24, 24, 24), cfg.patch_size)
    pidx = grid.patch_index_volume()
    vol = np.repeat(pidx[..., None], 8, axis=3).astype(np.float32)

    m.params["embed.w"].data[:] = 0.0
    m.params["embed.w"].data[:, 0] = 1.0
    m.params["embed.b"].data[:] = 0.0
    tokens, dims = m.patch_embed(vol)
    assert dims == (4, 4, 4, 2)
    n_t = dims[3]
    k = 216 * cfg.t_patch
    for p in (0, 1, 5, 17, 63):
        for t in range(n_t):
            assert tokens.data[p * n_t + t, 0] == k * p

    # a non-cubic volume, every token entry against a flat voxel-index table
    vol = np.arange(4 * 6 * 10 * 4, dtype=np.float32).reshape(4, 6, 10, 4)
    m = _identity_embedding()
    tokens, dims = m.patch_embed(vol)
    assert dims == (5, 3, 2, 2)
    np.testing.assert_array_equal(
        tokens.data, vol.reshape(-1)[_patch_index_oracle(vol.shape, (2, 2, 2), 2)])


def _identity_embedding() -> HybridModel:
    """2x2x2x2 patches whose embedding passes the voxel block through."""
    m = HybridModel(tiny_config(embed_dim=16, patch_size=(2, 2, 2), t_patch=2))
    m.params["embed.w"].data[:] = np.eye(16, dtype=np.float32)
    m.params["embed.b"].data[:] = 0.0
    return m


def _patch_index_oracle(shape, patch_size, t_patch) -> np.ndarray:
    """[N, k] flat voxel index of every token entry, as an explicit table."""
    x, y, z, n_t = shape
    px, py, pz = patch_size
    nx, ny, nz, nt = x // px, y // py, z // pz, n_t // t_patch
    idx = np.arange(x * y * z * n_t).reshape(nx, px, ny, py, nz, pz, nt, t_patch)
    # token axes (z, y, x, t), then within-patch voxel axes (x, y, z, t)
    idx = idx.transpose(4, 2, 0, 6, 1, 3, 5, 7)
    return idx.reshape(nx * ny * nz * nt, px * py * pz * t_patch)


def test_unpatchify_inverts_patch_embed():
    m = _identity_embedding()
    vol = np.random.default_rng(4).normal(size=(4, 6, 10, 4)).astype(np.float32)
    tokens, dims = m.patch_embed(vol)
    back = m._unpatchify(tokens, dims)
    assert back.shape == vol.shape
    np.testing.assert_array_equal(back.data, vol)


def test_token_views_roundtrip_in_the_taped_order():
    m = _identity_embedding()
    vol = np.arange(4 * 6 * 10 * 4, dtype=np.float64).reshape(4, 6, 10, 4)
    view, dims = m.token_view(vol)
    assert dims == (5, 3, 2, 2)
    assert np.shares_memory(view, vol) and view.dtype == vol.dtype
    assert m.rows_shape(dims) == (60, 16)
    rows = view.reshape(m.rows_shape(dims))  # a copy: the view is strided
    np.testing.assert_array_equal(
        rows, vol.reshape(-1)[_patch_index_oracle(vol.shape, (2, 2, 2), 2)])
    seen = m.voxel_view(rows, dims)
    assert np.shares_memory(seen, rows)
    np.testing.assert_array_equal(seen.reshape(vol.shape), vol)


def test_classify_tokens_is_forward_classify_on_rows():
    # Classifying token rows: embed the token_view rows by hand, then
    # classify_embedded, byte for byte what forward_classify gives.
    m = HybridModel(tiny_config(stage_depths=(1, 1), configuration=ALTERNATE))
    vol = np.random.default_rng(6).normal(size=(24, 24, 24, 8)).astype(np.float32)
    view, dims = m.token_view(vol)
    rows = view.reshape(m.rows_shape(dims))
    np.testing.assert_array_equal(
        rows, vol.reshape(-1)[_patch_index_oracle(vol.shape, (6, 6, 6), 4)])
    tokens = rows @ m.params["embed.w"].data + m.params["embed.b"].data
    got = m.classify_embedded(tokens, dims).data
    assert got.tobytes() == m.forward_classify(vol).data.tobytes()
    with pytest.raises(ValidationError):
        m.classify_embedded(tokens[:-1], dims)


def test_classify_embedded_is_classify_tokens_after_embed():
    m = HybridModel(tiny_config(stage_depths=(1, 1), configuration=ALTERNATE))
    vol = np.random.default_rng(7).normal(size=(24, 24, 24, 8)).astype(np.float32)
    view, dims = m.token_view(vol)
    rows = view.reshape(m.rows_shape(dims))
    tokens = rows @ m.params["embed.w"].data + m.params["embed.b"].data
    embedded, embed_dims = m.patch_embed(vol)
    assert embed_dims == dims
    assert embedded.data.tobytes() == tokens.tobytes()
    got = m.classify_embedded(tokens, dims).data
    assert got.tobytes() == m.classify_embedded(embedded, dims).data.tobytes()
    for bad in (tokens[:-1], tokens[:, :-1]):
        with pytest.raises(ValidationError, match="embedded tokens"):
            m.classify_embedded(bad, dims)


def test_masked_tokens_ignore_their_input_voxels():
    cfg = tiny_config(stage_depths=(1, 1), configuration=ALTERNATE)
    m = HybridModel(cfg)
    rng = np.random.default_rng(9)
    vol = rng.uniform(-1, 1, size=(24, 24, 24, 8)).astype(np.float32)

    grid = PatchGrid.for_shape((24, 24, 24), cfg.patch_size)
    mask = np.zeros((grid.n_patches, 2), dtype=bool)
    p0, t0 = 21, 1
    mask[p0, t0] = True
    mt = MaskTensor(mask=mask, voxels_per_patch=216, t_patch_len=4)

    base = m.forward_pretrain(vol, mt).data.copy()
    vol2 = vol.copy()
    inside = grid.patch_index_volume() == p0
    vol2[inside, t0 * 4:(t0 + 1) * 4] += 10.0
    again = m.forward_pretrain(vol2, mt).data
    np.testing.assert_array_equal(base, again)

    # sanity: the same perturbation on an unmasked slot does change the output
    vol3 = vol.copy()
    vol3[inside, 0:4] += 10.0
    assert not np.array_equal(base, m.forward_pretrain(vol3, mt).data)


def test_mask_lattice_mismatch_raises():
    cfg = tiny_config(stage_depths=(1, 1))
    m = HybridModel(cfg)
    vol = np.zeros((24, 24, 24, 8), dtype=np.float32)
    bad = MaskTensor(mask=np.zeros((64, 1), dtype=bool), voxels_per_patch=216,
                     t_patch_len=4)
    with pytest.raises(ValidationError):
        m.forward_pretrain(vol, bad)


def test_input_shape_validation():
    m = HybridModel(tiny_config())
    with pytest.raises(ValidationError):
        m.forward_classify(np.zeros((10, 12, 12, 4), dtype=np.float32))
    with pytest.raises(ValidationError):
        m.forward_classify(np.zeros((12, 12, 12), dtype=np.float32))
    with pytest.raises(ValidationError):
        m.forward_classify(np.zeros((12, 12, 12, 6), dtype=np.float32))


def test_forward_classify_releases_memory_once_after_its_pass(rng, monkeypatch):
    m = HybridModel(tiny_config())
    vol = rng.normal(size=(12, 12, 12, 4)).astype(np.float32)
    want = m.forward_classify(vol).data
    calls = []
    monkeypatch.setattr(ad, "_malloc_trim", lambda pad: calls.append(pad))
    assert m.forward_classify(vol).data.tobytes() == want.tobytes()
    assert calls == [0]


# whole-model invariants ----------------------------------------------------------

@pytest.mark.parametrize("conf", [MAMBA, ALTERNATE, AM, MA])
def test_pretrain_output_shape_matches_input(conf):
    cfg = tiny_config(stage_depths=(1, 1), configuration=conf)
    m = HybridModel(cfg)
    vol = np.random.default_rng(1).uniform(-1, 1, (24, 24, 24, 8)).astype(np.float32)
    mask = MaskTensor(mask=np.ones((64, 2), dtype=bool), voxels_per_patch=216,
                      t_patch_len=4)
    out = m.forward_pretrain(vol, mask)
    assert out.shape == vol.shape


def test_parameter_parity_across_configurations():
    for depths in ((1, 1), (2, 2)):
        counts = [sum(p.size for p in HybridModel(ModelConfig(
                      stage_depths=depths, configuration=c)).params.values())
                  for c in (MAMBA, ALTERNATE, AM, MA)]
        assert max(counts) <= 1.10 * min(counts)


def test_classify_head_reads_pooled_features():
    cfg = tiny_config(stage_depths=(1, 1))
    m = HybridModel(cfg)
    m.params["cls.w"].data[:] = 0.0
    m.params["cls.b"].data[:] = 1.5
    vol = np.random.default_rng(0).uniform(-1, 1, (12, 12, 12, 4)).astype(np.float32)
    logit = m.forward_classify(vol)
    assert logit.shape == ()
    assert logit.data == pytest.approx(1.5)


def test_classify_is_deterministic():
    cfg = tiny_config(stage_depths=(1, 1), configuration=ALTERNATE)
    vol = np.random.default_rng(5).uniform(-1, 1, (12, 12, 12, 4)).astype(np.float32)
    a = HybridModel(cfg).forward_classify(vol).data
    b = HybridModel(cfg).forward_classify(vol).data
    np.testing.assert_array_equal(a, b)


# end-to-end gradient checks -------------------------------------------------------

def _param_grad_check(m, build_loss, names, rng, n_coords=3, h=1e-5, tol=1e-4):
    with Tape() as tape:
        loss = build_loss()
        tape.backward(loss)
    for name in names:
        p = m.params[name]
        assert p.grad is not None, name
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        coords = rng.choice(flat.size, size=min(n_coords, flat.size), replace=False)
        for c in coords:
            old = flat[c]
            flat[c] = old + h
            up = build_loss().data
            flat[c] = old - h
            dn = build_loss().data
            flat[c] = old
            num = (up - dn) / (2 * h)
            denom = max(1.0, abs(num), abs(gflat[c]))
            assert abs(num - gflat[c]) / denom < tol, \
                f"{name}[{c}]: numeric {num} vs autograd {gflat[c]}"


@pytest.mark.parametrize("conf", [MAMBA, ALTERNATE, AM, MA])
def test_end_to_end_gradients_tiny_model(conf):
    cfg = tiny_config(stage_depths=(1, 1), configuration=conf)
    m = HybridModel(cfg)
    m.to_dtype(np.float64)
    rng = np.random.default_rng(17)
    vol = rng.uniform(-1, 1, size=(12, 12, 12, 4))
    mask = np.zeros((8, 1), dtype=bool)
    mask[[1, 4, 6], 0] = True
    mt = MaskTensor(mask=mask, voxels_per_patch=216, t_patch_len=4)
    target = rng.uniform(-1, 1, size=vol.shape)

    def pretrain_loss():
        recon = m.forward_pretrain(vol, mt)
        return ad.mul(ad.sum_sq(ad.sub(recon, Tensor(target))), 1.0 / target.size)

    names = ["embed.w", "mask_token", "head.w", "merge0.w", "expand0.w"]
    blocks = {k for _, k, _, _ in m.enc_blocks + m.dec_blocks}
    if ATT in blocks:
        att_prefix = next(p for p, k, _, _ in m.enc_blocks + m.dec_blocks if k == ATT)
        names += [f"{att_prefix}.q.w", f"{att_prefix}.v.w", f"{att_prefix}.mlp1.w",
                  f"{att_prefix}.ln1.gamma"]
    if SSM in blocks:
        ssm_prefix = next(p for p, k, _, _ in m.enc_blocks + m.dec_blocks if k == SSM)
        names += [f"{ssm_prefix}.in.w", f"{ssm_prefix}.xproj.w", f"{ssm_prefix}.dt.b",
                  f"{ssm_prefix}.a_log", f"{ssm_prefix}.d_skip"]
    for p in m.params.values():
        p.grad = None
    _param_grad_check(m, pretrain_loss, names, rng)


def test_classify_gradients_tiny_model():
    cfg = tiny_config(stage_depths=(1, 1), configuration=ALTERNATE)
    m = HybridModel(cfg)
    m.to_dtype(np.float64)
    rng = np.random.default_rng(23)
    vol = rng.uniform(-1, 1, size=(12, 12, 12, 4))

    def cls_loss():
        logit = m.forward_classify(vol)
        return ad.bce_with_logits(ad.reshape(logit, (1,)), np.array([1.0]))

    _param_grad_check(m, cls_loss, ["cls.w", "embed.w", "enc1.blk0.in.w"], rng)


def test_input_gradients_flow_to_volume():
    cfg = tiny_config(stage_depths=(1, 1), configuration=MA)
    m = HybridModel(cfg)
    m.to_dtype(np.float64)
    rng = np.random.default_rng(29)
    vol = Tensor(rng.uniform(-1, 1, size=(12, 12, 12, 4)), requires_grad=True)

    with Tape() as tape:
        logit = m.forward_classify(vol)
        tape.backward(logit)
    assert vol.grad is not None and vol.grad.shape == vol.shape

    h = 1e-5
    for flat_idx in rng.choice(vol.size, size=4, replace=False):
        c = np.unravel_index(flat_idx, vol.shape)
        old = vol.data[c]
        vol.data[c] = old + h
        up = m.forward_classify(vol).data
        vol.data[c] = old - h
        dn = m.forward_classify(vol).data
        vol.data[c] = old
        num = (up - dn) / (2 * h)
        denom = max(1.0, abs(num), abs(vol.grad[c]))
        assert abs(num - vol.grad[c]) / denom < 1e-4
