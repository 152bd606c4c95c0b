"""Hierarchical encoder-decoder over a 4D token lattice.

Every block is pre-norm residual and uses one of two core operators:

* windowed multi-head self-attention over non-overlapping 4D windows, with
  the usual cyclic half-window shift on alternating layers (cross-boundary
  attention suppressed by additive -inf masks), or
* a gated selective state-space scan over a fixed 1D ordering of the token
  lattice.

Four configurations assign operators to blocks: MAMBA (all scan), ALTERNATE
(attention first, then strictly alternating through encoder and decoder),
AM (attention encoder / scan decoder), and MA (the reverse).

The encoder halves the spatial lattice and doubles feature width between
stages (patch merging); the decoder mirrors it with patch expansion.

Token ordering: token ``p * nt + t`` covers spatial patch ``p`` (the same
x-fastest linear index used by the patch grid and region masks) during
temporal slab ``t``.  A patch-major boolean mask therefore lines up with the
token matrix row for row.  Internally the token axis factorizes C-order as
a ``(z, y, x, t)`` lattice; the window tuple in the config stays (x, y, z, t)
and is reordered at the boundary.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ValidationError
from .masking import MaskTensor, apply_mask
from .nifti import Volume4D

MAMBA = "MAMBA"
ALTERNATE = "ALTERNATE"
AM = "AM"
MA = "MA"
CONFIGURATIONS = (MAMBA, ALTERNATE, AM, MA)

ATT = "ATT"
SSM = "SSM"

# The [X, Y, Z, T] volume split as (nx, px, ny, py, nz, pz, nt, pt), permuted
# by TOKEN_ORDER, is the token lattice (nz, ny, nx, nt) by the within-patch
# axes (px, py, pz, pt); VOXEL_ORDER permutes back.
TOKEN_ORDER = (4, 2, 0, 6, 1, 3, 5, 7)
VOXEL_ORDER = tuple(TOKEN_ORDER.index(i) for i in range(8))


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 32
    stage_depths: tuple[int, ...] = (2, 2)
    window: tuple[int, int, int, int] = (4, 4, 4, 2)
    heads: int = 4
    ssm_state_dim: int = 8
    configuration: str = MAMBA
    patch_size: tuple[int, int, int] = (6, 6, 6)
    t_patch: int = 4
    mlp_ratio: float = 1.0
    ssm_expand: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.configuration not in CONFIGURATIONS:
            raise ValidationError(f"unknown configuration {self.configuration!r}")
        if self.embed_dim < 1 or self.heads < 1:
            raise ValidationError("embed_dim and heads must be >= 1")
        if self.embed_dim % self.heads:
            raise ValidationError("embed_dim must be divisible by heads")
        if self.embed_dim % 2:
            raise ValidationError("embed_dim must be even (merging doubles it)")
        if not self.stage_depths or any(d < 1 for d in self.stage_depths):
            raise ValidationError("stage_depths must be non-empty positive ints")
        if self.t_patch < 1:
            raise ValidationError("t_patch must be >= 1")
        if len(self.patch_size) != 3 or any(p < 1 for p in self.patch_size):
            raise ValidationError("patch_size must be 3 ints >= 1")
        if len(self.window) != 4 or any(w < 1 for w in self.window):
            raise ValidationError("window must be 4 ints >= 1")
        if self.ssm_expand < 1 or self.ssm_state_dim < 1:
            raise ValidationError("ssm_expand and ssm_state_dim must be >= 1")
        if not self.mlp_ratio > 0:  # NaN fails too
            raise ValidationError(f"mlp_ratio must be > 0, got {self.mlp_ratio}")

    @property
    def n_stages(self) -> int:
        return len(self.stage_depths)

    def stage_dim(self, stage: int) -> int:
        return self.embed_dim * (2 ** stage)

    def config_hash(self) -> str:
        # the retired scan_order stays in the blob so saved checkpoints keep their hash
        blob = json.dumps({**asdict(self), "scan_order": "time_major"},
                          sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def assign_operators(config: ModelConfig) -> list[str]:
    """Operator per block, encoder blocks first then decoder blocks."""
    n_enc = sum(config.stage_depths)
    n_dec = n_enc  # the decoder mirrors the encoder depth-for-depth
    kind = config.configuration
    if kind == MAMBA:
        return [SSM] * (n_enc + n_dec)
    if kind == ALTERNATE:
        return [ATT if i % 2 == 0 else SSM for i in range(n_enc + n_dec)]
    if kind == AM:
        return [ATT] * n_enc + [SSM] * n_dec
    return [SSM] * n_enc + [ATT] * n_dec  # MA


def _effective_window(window, dims) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Clamp the window to the lattice; shift only along axes with >1 window."""
    eff = tuple(min(w, d) for w, d in zip(window, dims))
    for w, d in zip(eff, dims):
        if d % w:
            raise ValidationError(f"window {eff} does not divide lattice {dims}")
    shifts = tuple(w // 2 if d > w else 0 for w, d in zip(eff, dims))
    return eff, shifts


def _window_partition_np(arr: np.ndarray, dims, eff) -> np.ndarray:
    d0, d1, d2, d3 = dims
    w0, w1, w2, w3 = eff
    trailing = arr.shape[4:]
    a = arr.reshape(d0 // w0, w0, d1 // w1, w1, d2 // w2, w2, d3 // w3, w3,
                    *trailing)
    a = a.transpose(0, 2, 4, 6, 1, 3, 5, 7, *range(8, a.ndim))
    return a.reshape(-1, w0 * w1 * w2 * w3, *trailing)


def _region_ids(dims, eff, shifts) -> np.ndarray:
    """Pre-shift window-region id per lattice site (Swin-style shift mask)."""
    ids = []
    for d, w, s in zip(dims, eff, shifts):
        axis = np.zeros(d, dtype=np.int64)
        if s > 0:
            axis[d - w:] = 1
            axis[d - s:] = 2
        ids.append(axis)
    rid = ids[0][:, None, None, None] * 27 + ids[1][None, :, None, None] * 9 \
        + ids[2][None, None, :, None] * 3 + ids[3][None, None, None, :]
    return rid


class HybridModel:
    """Parameter container plus forward passes for all four configurations."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self._rng = np.random.default_rng(config.seed)
        self._cache: dict = {}

        ops = assign_operators(config)
        depths = config.stage_depths
        self.enc_blocks: list[tuple[str, str, int, int]] = []  # (prefix, kind, stage, local)
        self.dec_blocks: list[tuple[str, str, int, int]] = []
        i = 0
        for stage, depth in enumerate(depths):
            for local in range(depth):
                prefix = f"enc{stage}.blk{local}"
                self._build_block(prefix, ops[i], config.stage_dim(stage))
                self.enc_blocks.append((prefix, ops[i], stage, local))
                i += 1
        for rev, depth in enumerate(reversed(depths)):
            stage = config.n_stages - 1 - rev
            for local in range(depth):
                prefix = f"dec{stage}.blk{local}"
                self._build_block(prefix, ops[i], config.stage_dim(stage))
                self.dec_blocks.append((prefix, ops[i], stage, local))
                i += 1

        d0 = config.embed_dim
        k = int(np.prod(config.patch_size)) * config.t_patch
        self._add_linear("embed", k, d0)
        self.params["mask_token"] = Tensor(
            self._rng.normal(0.0, 0.02, size=(d0,)).astype(np.float32),
            requires_grad=True, name="mask_token")
        for stage in range(config.n_stages - 1):
            d = config.stage_dim(stage)
            self._add_linear(f"merge{stage}", 8 * d, 2 * d)
            self._add_linear(f"expand{stage}", 2 * d, 8 * d)
        self._add_norm("head.norm", d0)
        self._add_linear("head", d0, k)
        d_top = config.stage_dim(config.n_stages - 1)
        self._add_norm("cls.norm", d_top)
        self._add_linear("cls", d_top, 1)

    # -- parameter construction ----------------------------------------------

    def _tensor(self, name: str, arr: np.ndarray) -> None:
        self.params[name] = Tensor(arr.astype(np.float32), requires_grad=True,
                                   name=name)

    def _add_linear(self, name: str, fan_in: int, fan_out: int) -> None:
        self._tensor(f"{name}.w", self._rng.normal(0.0, 0.02, size=(fan_in, fan_out)))
        self._tensor(f"{name}.b", np.zeros(fan_out))

    def _add_norm(self, name: str, dim: int) -> None:
        self._tensor(f"{name}.gamma", np.ones(dim))
        self._tensor(f"{name}.beta", np.zeros(dim))

    def _build_block(self, prefix: str, kind: str, dim: int) -> None:
        if kind == ATT:
            self._add_norm(f"{prefix}.ln1", dim)
            for proj in ("q", "k", "v", "proj"):
                self._add_linear(f"{prefix}.{proj}", dim, dim)
            self._add_norm(f"{prefix}.ln2", dim)
            hidden = max(1, int(round(self.config.mlp_ratio * dim)))
            self._add_linear(f"{prefix}.mlp1", dim, hidden)
            self._add_linear(f"{prefix}.mlp2", hidden, dim)
        elif kind == SSM:
            inner = self.config.ssm_expand * dim
            state = self.config.ssm_state_dim
            dt_rank = max(1, math.ceil(dim / 16))
            self._add_norm(f"{prefix}.ln", dim)
            self._add_linear(f"{prefix}.in", dim, 2 * inner)
            self._tensor(f"{prefix}.xproj.w",
                         self._rng.normal(0.0, 0.02, size=(inner, dt_rank + 2 * state)))
            self._tensor(f"{prefix}.dt.w",
                         self._rng.normal(0.0, 0.02, size=(dt_rank, inner)))
            dt = np.exp(self._rng.uniform(np.log(1e-3), np.log(1e-1), size=inner))
            self._tensor(f"{prefix}.dt.b", np.log(np.expm1(dt)))
            a_log = np.log(np.arange(1, state + 1, dtype=np.float64))
            self._tensor(f"{prefix}.a_log", np.tile(a_log, (inner, 1)))
            self._tensor(f"{prefix}.d_skip", np.ones(inner))
            self._add_linear(f"{prefix}.out", inner, dim)
        else:
            raise ValidationError(f"unknown block kind {kind!r}")

    def to_dtype(self, dtype) -> None:
        """Switch every parameter in place (float64 for gradient checks)."""
        for p in self.params.values():
            p.data = p.data.astype(dtype)
            p.grad = None

    # -- small helpers --------------------------------------------------------

    def _lin(self, name: str, x: Tensor) -> Tensor:
        return ad.linear(x, self.params[f"{name}.w"], self.params[f"{name}.b"])

    def _norm(self, name: str, x: Tensor) -> Tensor:
        return ad.layernorm(x, self.params[f"{name}.gamma"], self.params[f"{name}.beta"])

    def lattice_dims(self, shape, n_t: int) -> tuple[int, int, int, int]:
        """Token lattice (z, y, x, t); C-order flattening gives row p*nt + t."""
        px, py, pz = self.config.patch_size
        x, y, z = shape
        if x % px or y % py or z % pz:
            raise ValidationError(f"volume shape {tuple(shape)} not divisible by "
                                  f"patches {self.config.patch_size}")
        if n_t % self.config.t_patch:
            raise ValidationError(f"{n_t} timepoints not divisible by t_patch="
                                  f"{self.config.t_patch}")
        return (z // pz, y // py, x // px, n_t // self.config.t_patch)

    def _lattice_window(self) -> tuple[int, int, int, int]:
        wx, wy, wz, wt = self.config.window
        return (wz, wy, wx, wt)

    # -- core blocks -----------------------------------------------------------

    def _attention_mask(self, dims, eff, shifts) -> np.ndarray | None:
        if not any(shifts):
            return None
        key = ("amask", dims, eff, shifts)
        if key not in self._cache:
            rid = _region_ids(dims, eff, shifts)
            rid = np.roll(rid, tuple(-s for s in shifts), axis=(0, 1, 2, 3))
            rid = _window_partition_np(rid[..., None], dims, eff)[..., 0]
            neq = rid[:, :, None] != rid[:, None, :]
            bias = np.where(neq, -np.inf, 0.0).astype(np.float32)
            self._cache[key] = bias[:, None, :, :]  # head axis
        return self._cache[key]

    def _window_attention(self, x: Tensor, dims, prefix: str, shift: bool) -> Tensor:
        cfg = self.config
        d = x.shape[-1]
        heads = cfg.heads
        dh = d // heads
        eff, shifts = _effective_window(self._lattice_window(), dims)
        if not shift:
            shifts = (0, 0, 0, 0)
        d0, d1, d2, d3 = dims
        w0, w1, w2, w3 = eff
        wsz = w0 * w1 * w2 * w3
        n_windows = (d0 // w0) * (d1 // w1) * (d2 // w2) * (d3 // w3)

        h = self._norm(f"{prefix}.ln1", x)
        q = self._lin(f"{prefix}.q", h)
        k = self._lin(f"{prefix}.k", h)
        v = self._lin(f"{prefix}.v", h)

        def to_windows(t: Tensor) -> Tensor:
            t = ad.reshape(t, (*dims, d))
            if any(shifts):
                t = ad.roll(t, tuple(-s for s in shifts), (0, 1, 2, 3))
            t = ad.reshape(t, (d0 // w0, w0, d1 // w1, w1, d2 // w2, w2,
                               d3 // w3, w3, d))
            t = ad.transpose(t, (0, 2, 4, 6, 1, 3, 5, 7, 8))
            t = ad.reshape(t, (n_windows, wsz, heads, dh))
            return ad.transpose(t, (0, 2, 1, 3))  # [nW, heads, wsz, dh]

        qw, kw, vw = to_windows(q), to_windows(k), to_windows(v)
        attn = ad.mul(ad.matmul(qw, ad.transpose(kw, (0, 1, 3, 2))),
                      1.0 / math.sqrt(dh))
        bias = self._attention_mask(dims, eff, shifts)
        if bias is not None:
            attn = ad.add(attn, Tensor(bias.astype(x.dtype)))
        weights = ad.softmax(attn, axis=-1)
        out = ad.matmul(weights, vw)  # [nW, heads, wsz, dh]
        out = ad.transpose(out, (0, 2, 1, 3))
        out = ad.reshape(out, (d0 // w0, d1 // w1, d2 // w2, d3 // w3,
                               w0, w1, w2, w3, d))
        out = ad.transpose(out, (0, 4, 1, 5, 2, 6, 3, 7, 8))
        out = ad.reshape(out, (*dims, d))
        if any(shifts):
            out = ad.roll(out, shifts, (0, 1, 2, 3))
        out = ad.reshape(out, (d0 * d1 * d2 * d3, d))
        x = ad.add(x, self._lin(f"{prefix}.proj", out))

        h2 = self._norm(f"{prefix}.ln2", x)
        h2 = ad.gelu(self._lin(f"{prefix}.mlp1", h2))
        return ad.add(x, self._lin(f"{prefix}.mlp2", h2))

    def _mamba(self, x: Tensor, prefix: str) -> Tensor:
        state = self.config.ssm_state_dim
        h = self._norm(f"{prefix}.ln", x)
        xu_z = self._lin(f"{prefix}.in", h)  # [L, 2*inner]
        inner = xu_z.shape[-1] // 2
        u = ad.take_cols(xu_z, 0, inner)
        z = ad.take_cols(xu_z, inner, 2 * inner)

        proj = ad.matmul(u, self.params[f"{prefix}.xproj.w"])  # [L, rank + 2S]
        dt_rank = proj.shape[-1] - 2 * state
        dt_in = ad.take_cols(proj, 0, dt_rank)
        b_in = ad.take_cols(proj, dt_rank, dt_rank + state)
        c_in = ad.take_cols(proj, dt_rank + state, dt_rank + 2 * state)
        delta = ad.softplus(ad.add(ad.matmul(dt_in, self.params[f"{prefix}.dt.w"]),
                                   self.params[f"{prefix}.dt.b"]))
        a = ad.mul(ad.exp(self.params[f"{prefix}.a_log"]), -1.0)
        y = ad.selective_scan(u, delta, a, b_in, c_in, self.params[f"{prefix}.d_skip"])
        y = ad.mul(y, ad.silu(z))
        return ad.add(x, self._lin(f"{prefix}.out", y))

    def _run_block(self, x: Tensor, dims, prefix: str, kind: str, local: int) -> Tensor:
        if kind == ATT:
            return self._window_attention(x, dims, prefix, shift=bool(local % 2))
        return self._mamba(x, prefix)

    def _merge(self, x: Tensor, dims, stage: int) -> tuple[Tensor, tuple]:
        nz, ny, nx, nt = dims
        if nx % 2 or ny % 2 or nz % 2:
            raise ValidationError(f"cannot merge odd lattice {dims}")
        d = x.shape[-1]
        t = ad.reshape(x, (nz // 2, 2, ny // 2, 2, nx // 2, 2, nt, d))
        t = ad.transpose(t, (0, 2, 4, 6, 1, 3, 5, 7))
        t = ad.reshape(t, ((nz // 2) * (ny // 2) * (nx // 2) * nt, 8 * d))
        return self._lin(f"merge{stage}", t), (nz // 2, ny // 2, nx // 2, nt)

    def _expand(self, x: Tensor, dims, stage: int) -> tuple[Tensor, tuple]:
        nz, ny, nx, nt = dims
        d2 = x.shape[-1]
        d = d2 // 2
        t = self._lin(f"expand{stage}", x)  # [N, 8*d]
        t = ad.reshape(t, (nz, ny, nx, nt, 2, 2, 2, d))
        t = ad.transpose(t, (0, 4, 1, 5, 2, 6, 3, 7))
        t = ad.reshape(t, (nz * 2 * ny * 2 * nx * 2 * nt, d))
        return t, (2 * nz, 2 * ny, 2 * nx, nt)

    # -- embedding and heads ---------------------------------------------------

    def _as_input(self, vol) -> Tensor:
        """The [X, Y, Z, T] input as a tensor; a Tensor input keeps its graph."""
        if not isinstance(vol, Tensor):
            vol = Tensor(vol.data if isinstance(vol, Volume4D) else np.asarray(vol))
        if vol.ndim != 4:
            raise ValidationError("model input must be a 4D volume")
        return vol

    def _patch_axes(self, dims) -> tuple[int, ...]:
        """Token lattice axes (z, y, x, t), then within-patch axes (x, y, z, t)."""
        return (*dims, *self.config.patch_size, self.config.t_patch)

    def _voxel_axes(self, dims) -> tuple[int, ...]:
        """The [X, Y, Z, T] axes split as (nx, px, ny, py, nz, pz, nt, pt)."""
        axes = self._patch_axes(dims)
        return tuple(axes[i] for i in VOXEL_ORDER)

    def rows_shape(self, dims) -> tuple[int, int]:
        """[N, k] token rows: one per token, one column per voxel of its block."""
        axes = self._patch_axes(dims)
        return math.prod(axes[:4]), math.prod(axes[4:])

    def _volume_shape(self, dims) -> tuple[int, int, int, int]:
        nx, px, ny, py, nz, pz, nt, pt = self._voxel_axes(dims)
        return nx * px, ny * py, nz * pz, nt * pt

    def token_view(self, vol) -> tuple[np.ndarray, tuple]:
        """A [X, Y, Z, T] array seen in token order without a copy, and its
        lattice dims. The view has the ``_patch_axes`` shape, and its C-order
        elements are the [N, k] token rows (:meth:`rows_shape`); row
        p*nt + t covers patch p, slab t."""
        x = np.asarray(vol.data if isinstance(vol, (Volume4D, Tensor)) else vol)
        if x.ndim != 4:
            raise ValidationError("model input must be a 4D volume")
        dims = self.lattice_dims(x.shape[:3], x.shape[3])
        return x.reshape(self._voxel_axes(dims)).transpose(TOKEN_ORDER), dims

    def voxel_view(self, rows: np.ndarray, dims) -> np.ndarray:
        """C-contiguous token rows (any shape of N*k elements) seen in voxel
        order without a copy: the (nx, px, ny, py, nz, pz, nt, pt) split of
        the [X, Y, Z, T] volume."""
        return rows.reshape(self._patch_axes(dims)).transpose(VOXEL_ORDER)

    def _token_rows(self, vol) -> tuple[Tensor, tuple]:
        """:meth:`token_view` on the tape, as [N, k] rows; a Tensor input
        keeps its graph."""
        x = self._as_input(vol)
        dims = self.lattice_dims(x.shape[:3], x.shape[3])
        blocks = ad.transpose(ad.reshape(x, self._voxel_axes(dims)), TOKEN_ORDER)
        return ad.reshape(blocks, self.rows_shape(dims)), dims

    def patch_embed(self, vol) -> tuple[Tensor, tuple]:
        """Voxel blocks -> D-dim tokens; row p*nt + t covers patch p, slab t."""
        rows, dims = self._token_rows(vol)
        return self._lin("embed", rows), dims

    def _unpatchify(self, recon: Tensor, dims) -> Tensor:
        """:meth:`voxel_view` on the tape, as a [X, Y, Z, T] volume (inverse
        of patch_embed)."""
        vox = ad.transpose(ad.reshape(recon, self._patch_axes(dims)), VOXEL_ORDER)
        return ad.reshape(vox, self._volume_shape(dims))

    def _mask_flat(self, mask: MaskTensor, dims) -> np.ndarray:
        nz, ny, nx, nt = dims
        if mask.n_patches != nx * ny * nz or mask.t_patches != nt:
            raise ValidationError(
                f"mask lattice {mask.mask.shape} does not match token lattice {dims}")
        return mask.flat()  # patch-major == token order

    def encode(self, tokens: Tensor, dims) -> tuple[Tensor, tuple]:
        i = 0
        for stage, depth in enumerate(self.config.stage_depths):
            for _ in range(depth):
                prefix, kind, _, local = self.enc_blocks[i]
                tokens = self._run_block(tokens, dims, prefix, kind, local)
                i += 1
            if stage < self.config.n_stages - 1:
                tokens, dims = self._merge(tokens, dims, stage)
        return tokens, dims

    def decode(self, tokens: Tensor, dims) -> tuple[Tensor, tuple]:
        i = 0
        for rev, depth in enumerate(reversed(self.config.stage_depths)):
            stage = self.config.n_stages - 1 - rev
            for _ in range(depth):
                prefix, kind, _, local = self.dec_blocks[i]
                tokens = self._run_block(tokens, dims, prefix, kind, local)
                i += 1
            if stage > 0:
                tokens, dims = self._expand(tokens, dims, stage - 1)
        return tokens, dims

    def forward_pretrain(self, vol, mask: MaskTensor) -> Tensor:
        """Masked volume in, reconstructed volume (same shape) out."""
        tokens, dims = self.patch_embed(vol)
        tokens = apply_mask(tokens, self._mask_flat(mask, dims),
                            self.params["mask_token"])

        tokens, dims2 = self.encode(tokens, dims)
        tokens, dims3 = self.decode(tokens, dims2)
        if dims3 != dims:
            raise ValidationError(f"decoder returned lattice {dims3}, expected {dims}")

        tokens = self._norm("head.norm", tokens)
        return self._unpatchify(self._lin("head", tokens), dims)

    def classify_tokens(self, rows, dims) -> Tensor:
        """[N, k] token rows -> embed, then :meth:`classify_embedded`. A
        Tensor input keeps its graph."""
        rows = ad.as_tensor(rows)
        if rows.shape != self.rows_shape(dims):
            raise ValidationError(f"token rows {rows.shape} do not fit lattice {dims}: "
                                  f"expected {self.rows_shape(dims)}")
        return self.classify_embedded(self._lin("embed", rows), dims)

    def classify_embedded(self, tokens, dims) -> Tensor:
        """[N, D0] embedded tokens -> encoder, mean pool, linear head ->
        scalar logit. A Tensor input keeps its graph."""
        tokens = ad.as_tensor(tokens)
        n_rows = self.rows_shape(dims)[0]
        if tokens.shape != (n_rows, self.config.embed_dim):
            raise ValidationError(
                f"embedded tokens {tokens.shape} do not fit lattice {dims}: "
                f"expected {(n_rows, self.config.embed_dim)}")
        tokens, _ = self.encode(tokens, dims)
        pooled = ad.tmean(self._norm("cls.norm", tokens), axis=0)  # [D_top]
        logit = ad.add(ad.matmul(ad.reshape(pooled, (1, pooled.shape[0])),
                                 self.params["cls.w"]),
                       self.params["cls.b"])
        return ad.reshape(logit, ())

    def forward_classify(self, vol) -> Tensor:
        """:meth:`classify_tokens` of the volume's token rows."""
        return self.classify_tokens(*self._token_rows(vol))
