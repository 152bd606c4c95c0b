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

The encoder halves the spatial lattice and doubles feature width as it
enters each stage after the first (patch merging); the decoder walks the
same stages back down with patch expansion. Both walks are one list of
(prefix, kind, stage, local) blocks. Attention windows, their shift mask,
merging and expansion share one lattice <-> window permutation,
:func:`_to_windows` and its inverse; a merge window is (2, 2, 2, 1).

Token ordering: token ``p * nt + t`` covers spatial patch ``p`` (the same
x-fastest linear index used by the patch grid and region masks) during
temporal slab ``t``.  A patch-major boolean mask therefore lines up with the
token matrix row for row.  Internally the token axis factorizes C-order as
a ``(z, y, x, t)`` lattice; the window tuple in the config stays (x, y, z, t)
and is reordered at the boundary.

The two voxel <-> token boundaries, the patch embedding and the
reconstruction head, are fused taped ops that work one lattice z-slab of
token rows at a time (:meth:`HybridModel._embed`, :meth:`HybridModel._head`):
no [N, k] patchified copy of a volume, head output or transposed gradient
is ever whole.
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

MAMBA = "MAMBA"
ALTERNATE = "ALTERNATE"
AM = "AM"
MA = "MA"
CONFIGURATIONS = (MAMBA, ALTERNATE, AM, MA)

ATT = "ATT"
SSM = "SSM"
# patch merging pools each 2x2x2 block of spatial sites in one time slab
MERGE_WINDOW = (2, 2, 2, 1)

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


def _to_windows(t: Tensor, dims, eff, shifts=(0, 0, 0, 0)) -> Tensor:
    """[prod(dims), C] lattice rows -> [n_windows, prod(eff), C]: roll the
    lattice back by ``shifts``, then cut it into ``eff`` blocks; windows and
    the sites in each come in C order."""
    c = t.shape[-1]
    t = ad.reshape(t, (*dims, c))
    if any(shifts):
        t = ad.roll(t, tuple(-s for s in shifts), (0, 1, 2, 3))
    t = ad.reshape(t, (*(n for d, w in zip(dims, eff) for n in (d // w, w)), c))
    t = ad.transpose(t, (0, 2, 4, 6, 1, 3, 5, 7, 8))
    return ad.reshape(t, (math.prod(t.shape[:4]), math.prod(eff), c))


def _from_windows(t: Tensor, dims, eff, shifts=(0, 0, 0, 0)) -> Tensor:
    """The inverse of :func:`_to_windows`: [n_windows, prod(eff), C] ->
    [prod(dims), C]."""
    c = t.shape[-1]
    t = ad.reshape(t, (*(d // w for d, w in zip(dims, eff)), *eff, c))
    t = ad.transpose(t, (0, 4, 1, 5, 2, 6, 3, 7, 8))
    t = ad.reshape(t, (*dims, c))
    if any(shifts):
        t = ad.roll(t, shifts, (0, 1, 2, 3))
    return ad.reshape(t, (math.prod(dims), c))


def _region_ids(dims, eff, shifts) -> np.ndarray:
    """Pre-shift window-region id per lattice site (Swin-style shift mask)."""
    ids = []
    for d, w, s in zip(dims, eff, shifts):
        axis = np.zeros(d, dtype=np.int64)
        if s > 0:
            axis[d - w:] = 1
            axis[d - s:] = 2
        ids.append(axis)
    return ids[0][:, None, None, None] * 27 + ids[1][None, :, None, None] * 9 \
        + ids[2][None, None, :, None] * 3 + ids[3][None, None, None, :]


class HybridModel:
    """Parameter container plus forward passes for all four configurations."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self._rng = np.random.default_rng(config.seed)
        self._cache: dict = {}

        # (prefix, kind, stage, local): the encoder walks the stages up, the
        # decoder back down, and the operators are dealt out in that order
        ops = iter(assign_operators(config))
        stages = {"enc": range(config.n_stages), "dec": range(config.n_stages)[::-1]}
        self.enc_blocks, self.dec_blocks = (
            [(f"{side}{stage}.blk{local}", next(ops), stage, local)
             for stage in stages[side] for local in range(config.stage_depths[stage])]
            for side in ("enc", "dec"))
        for prefix, kind, stage, _ in self.enc_blocks + self.dec_blocks:
            self._build_block(prefix, kind, config.stage_dim(stage))

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

    def lattice_dims(self, shape) -> tuple[int, int, int, int]:
        """Token lattice (z, y, x, t) of a [X, Y, Z, T] volume shape; C-order
        flattening gives row p*nt + t."""
        if len(shape) != 4:
            raise ValidationError("model input must be a 4D volume")
        px, py, pz = self.config.patch_size
        x, y, z, n_t = shape
        if x % px or y % py or z % pz:
            raise ValidationError(f"volume shape {tuple(shape[:3])} not divisible by "
                                  f"patches {self.config.patch_size}")
        if n_t % self.config.t_patch:
            raise ValidationError(f"{n_t} timepoints not divisible by t_patch="
                                  f"{self.config.t_patch}")
        return (z // pz, y // py, x // px, n_t // self.config.t_patch)

    # -- core blocks -----------------------------------------------------------

    def _attention_mask(self, dims, eff, shifts) -> np.ndarray | None:
        if not any(shifts):
            return None
        key = ("amask", dims, eff, shifts)
        if key not in self._cache:
            # the ids (< 81) are exact in the tensor's float32
            rid = Tensor(_region_ids(dims, eff, shifts).reshape(-1, 1))
            rid = _to_windows(rid, dims, eff, shifts).data[..., 0]
            neq = rid[:, :, None] != rid[:, None, :]
            bias = np.where(neq, -np.inf, 0.0).astype(np.float32)
            self._cache[key] = bias[:, None, :, :]  # head axis
        return self._cache[key]

    def _window_attention(self, x: Tensor, dims, prefix: str, shift: bool) -> Tensor:
        heads = self.config.heads
        dh = x.shape[-1] // heads
        wx, wy, wz, wt = self.config.window
        eff, shifts = _effective_window((wz, wy, wx, wt), dims)
        shifts = shifts if shift else (0, 0, 0, 0)

        h = self._norm(f"{prefix}.ln1", x)

        def head_windows(name: str) -> Tensor:  # [nW, heads, wsz, dh]
            t = _to_windows(self._lin(f"{prefix}.{name}", h), dims, eff, shifts)
            return ad.transpose(ad.reshape(t, (*t.shape[:2], heads, dh)), (0, 2, 1, 3))

        qw, kw, vw = head_windows("q"), head_windows("k"), head_windows("v")
        attn = ad.mul(ad.matmul(qw, ad.transpose(kw, (0, 1, 3, 2))),
                      1.0 / math.sqrt(dh))
        bias = self._attention_mask(dims, eff, shifts)
        if bias is not None:
            attn = ad.add(attn, Tensor(bias.astype(x.dtype)))
        weights = ad.softmax(attn, axis=-1)
        out = ad.transpose(ad.matmul(weights, vw), (0, 2, 1, 3))  # [nW, wsz, heads, dh]
        out = ad.reshape(out, (*out.shape[:2], heads * dh))
        out = _from_windows(out, dims, eff, shifts)
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
        if any(n % 2 for n in dims[:3]):
            raise ValidationError(f"cannot merge odd lattice {dims}")
        t = ad.reshape(_to_windows(x, dims, MERGE_WINDOW), (-1, 8 * x.shape[-1]))
        merged = tuple(n // w for n, w in zip(dims, MERGE_WINDOW))
        return self._lin(f"merge{stage}", t), merged

    def _expand(self, x: Tensor, dims, stage: int) -> tuple[Tensor, tuple]:
        t = self._lin(f"expand{stage}", x)  # [N, 8*d]
        t = ad.reshape(t, (x.shape[0], 8, x.shape[-1] // 2))
        up = tuple(n * w for n, w in zip(dims, MERGE_WINDOW))
        return _from_windows(t, up, MERGE_WINDOW), up

    # -- embedding and heads ---------------------------------------------------

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

    def token_view(self, vol) -> tuple[np.ndarray, tuple]:
        """A [X, Y, Z, T] array seen in token order without a copy, and its
        lattice dims. The view has the ``_patch_axes`` shape, and its C-order
        elements are the [N, k] token rows (:meth:`rows_shape`); row
        p*nt + t covers patch p, slab t. Index i of its first axis is
        lattice z-slab i: token rows i*ny*nx*nt up to the next slab."""
        x = np.asarray(vol)
        dims = self.lattice_dims(x.shape)
        return x.reshape(self._voxel_axes(dims)).transpose(TOKEN_ORDER), dims

    def _runs(self, arr: np.ndarray, shape) -> np.ndarray:
        """A C-contiguous array seen as ``shape`` of ``np.void`` items, each
        one contiguous run of t_patch numbers, without a copy. A copy
        between two such views moves one item per run, not one number per
        voxel."""
        assert arr.flags.c_contiguous, "a run view needs a C-contiguous array"
        run = np.dtype((np.void, self.config.t_patch * arr.itemsize))
        return arr.reshape(-1).view(run).reshape(shape)

    def _volume_runs(self, vol: np.ndarray, dims) -> np.ndarray:
        """:meth:`token_view` of a C-contiguous volume as runs (its pt axis
        folded into the items); index i is z-slab i. The void view is taken
        before the permutation, which numpy 1.24 allows."""
        return self._runs(vol, self._voxel_axes(dims)[:-1]).transpose(TOKEN_ORDER[:-1])

    def _gather(self, vol: np.ndarray, dims):
        """Each z-slab of a C-contiguous volume's token rows in turn,
        copied into one reused [ny*nx*nt, k] buffer."""
        rows = np.empty((math.prod(dims[1:]), self.rows_shape(dims)[1]), vol.dtype)
        runs = self._runs(rows, self._patch_axes(dims)[1:-1])
        for slab in self._volume_runs(vol, dims):
            np.copyto(runs, slab)
            yield rows

    def _scatter(self, vol: np.ndarray, dims, slabs) -> None:
        """Write each C-contiguous [ny*nx*nt, k] array of ``slabs`` into
        that z-slab of a C-contiguous volume's token rows."""
        for dst, rows in zip(self._volume_runs(vol, dims), slabs):
            np.copyto(dst, self._runs(np.asarray(rows, vol.dtype), dst.shape))

    def _embed(self, x: Tensor, dims) -> Tensor:
        """``token_view(x)`` rows @ embed.w + embed.b on the tape, gathered
        one z-slab at a time, so no [N, k] copy of ``x`` is made. The
        backward keeps a reference to ``x``'s array, not a copy, and gathers
        each slab again for the weight gradient; an ``x`` that requires a
        gradient gets ``g @ W^T`` written into its gradient slab by slab."""
        w, b = self.params["embed.w"], self.params["embed.b"]
        dtype = np.result_type(x.dtype, w.dtype, b.dtype)
        w_data = w.data.astype(dtype, copy=False)
        out = np.empty((self.rows_shape(dims)[0], w.shape[1]), dtype)
        for slab, rows in zip(out.reshape(dims[0], -1, w.shape[1]), self._gather(x.data, dims)):
            np.matmul(rows, w_data, out=slab)
        out += b.data
        sx, sw, sb = x.slot, w.slot, b.slot
        # the backward reads x only for the weight gradient, W only for x's
        x_data = x.data if sw.requires_grad else None
        w_data = w_data if sx.requires_grad else None

        def backward(g):
            g_slabs = g.reshape(dims[0], -1, g.shape[-1])
            if x_data is not None:
                sw.accumulate_grad(sum(rows.T @ g_slab for rows, g_slab
                                       in zip(self._gather(x_data, dims), g_slabs)))
            if sb.requires_grad:
                sb.accumulate_grad(g.sum(axis=0))
            if w_data is not None:
                gx = np.empty(sx.shape, g.dtype)
                self._scatter(gx, dims, (g_slab @ w_data.T for g_slab in g_slabs))
                sx.accumulate_grad(gx)

        return ad.record_op(Tensor(out), (x, w, b), backward)

    def _head(self, tokens: Tensor, dims) -> Tensor:
        """tokens @ head.w + head.b on the tape, written one z-slab at a
        time straight into the [X, Y, Z, T] volume, so no [N, k] array is
        made: the inverse layout of :meth:`_embed`. The backward gathers the
        volume gradient slab by slab for the weight, bias and token
        gradients."""
        w, b = self.params["head.w"], self.params["head.b"]
        dtype = np.result_type(tokens.dtype, w.dtype, b.dtype)
        w_data = w.data.astype(dtype, copy=False)
        split = self._voxel_axes(dims)  # (nx, px, ny, py, nz, pz, nt, pt)
        out = np.empty(tuple(n * p for n, p in zip(split[::2], split[1::2])), dtype)
        t_slabs = tokens.data.reshape(dims[0], -1, tokens.shape[-1])
        self._scatter(out, dims, (t_slab @ w_data + b.data for t_slab in t_slabs))
        st, sw, sb = tokens.slot, w.slot, b.slot
        # the backward reads the tokens only for the weight gradient, W only
        # for the tokens'
        t_slabs = t_slabs if sw.requires_grad else None
        w_data = w_data if st.requires_grad else None

        def backward(g):
            gw = None if t_slabs is None else np.zeros(sw.shape, g.dtype)
            gb = np.zeros(sb.shape, g.dtype) if sb.requires_grad else None
            gt = None if w_data is None else np.empty(st.shape, g.dtype)
            for i, rows in enumerate(self._gather(np.ascontiguousarray(g), dims)):
                if gw is not None:
                    gw += t_slabs[i].T @ rows
                if gb is not None:
                    gb += rows.sum(axis=0)
                if gt is not None:
                    np.matmul(rows, w_data.T, out=gt.reshape(dims[0], -1, gt.shape[-1])[i])
            for slot, grad in ((sw, gw), (sb, gb), (st, gt)):
                if grad is not None:
                    slot.accumulate_grad(grad)

        return ad.record_op(Tensor(out), (tokens, w, b), backward)

    def patch_embed(self, vol) -> tuple[Tensor, tuple]:
        """Voxel blocks -> D-dim tokens, row p*nt + t covering patch p, slab
        t (:meth:`token_view`), embedded one z-slab at a time
        (:meth:`_embed`). A Tensor input keeps its graph."""
        x = ad.as_tensor(vol)
        dims = self.lattice_dims(x.shape)
        return self._embed(x, dims), dims

    def encode(self, tokens: Tensor, dims) -> tuple[Tensor, tuple]:
        for prefix, kind, stage, local in self.enc_blocks:
            if stage and not local:  # entering a stage: merge the one below
                tokens, dims = self._merge(tokens, dims, stage - 1)
            tokens = self._run_block(tokens, dims, prefix, kind, local)
        return tokens, dims

    def decode(self, tokens: Tensor, dims) -> tuple[Tensor, tuple]:
        for prefix, kind, stage, local in self.dec_blocks:
            if stage < self.config.n_stages - 1 and not local:  # expand into it
                tokens, dims = self._expand(tokens, dims, stage)
            tokens = self._run_block(tokens, dims, prefix, kind, local)
        return tokens, dims

    def forward_pretrain(self, vol, mask: MaskTensor) -> Tensor:
        """Masked volume in, reconstructed volume (same shape) out; the head
        writes the reconstruction in voxel order one z-slab at a time."""
        tokens, dims = self.patch_embed(vol)
        if mask.mask.shape != (math.prod(dims[:3]), dims[3]):
            raise ValidationError(
                f"mask lattice {mask.mask.shape} does not match token lattice {dims}")
        # patch-major mask rows are token rows
        tokens = apply_mask(tokens, mask.flat(), self.params["mask_token"])
        tokens, dims = self.decode(*self.encode(tokens, dims))
        return self._head(self._norm("head.norm", tokens), dims)

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
        logit = self._lin("cls", ad.reshape(pooled, (1, pooled.shape[0])))
        return ad.reshape(logit, ())

    @ad.releases_freed_memory
    def forward_classify(self, vol) -> Tensor:
        """:meth:`patch_embed`, then :meth:`classify_embedded`."""
        return self.classify_embedded(*self.patch_embed(vol))
