"""Dense tensor algebra with reverse-mode differentiation.

Define-by-run: while a :class:`Tape` is active, every operation whose inputs
require gradients appends a backward closure to the tape; ``Tape.backward``
replays the closures in reverse execution order, which is a valid reverse
topological order by construction.

A tape runs its backward once and frees memory as it goes: each record is
dropped once its closure has run, which releases the activations the
closure captured, and each op output's gradient is released once it has
been handed to that closure. Leaf gradients (parameters, an input being
attributed) are kept. Each closure gets the only reference to its output's
gradient, so whatever it hands a parent (a gradient it has just computed,
or the one it got, reshaped or passed through) becomes that parent's first
``.grad`` without a copy. Only ``add`` hands one ``g`` to two parents, and
gives one of them a copy; a transposed view, or a gradient of another
dtype, is copied into C order and the tensor's dtype.

Data is float32 by default; build leaves with ``dtype=np.float64`` for
gradient checking. Broadcasting follows numpy; backward sums gradients back
down to each parent's shape.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from .errors import ValidationError

_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of (output, backward-closure) pairs.

    Single-use: ``backward`` empties the tape as it runs, and a second call
    raises :class:`ValidationError`.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, object]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._records)

    def record(self, output: "Tensor", backward) -> None:
        self._records.append((output, backward))

    def backward(self, loss: "Tensor") -> None:
        """Accumulate gradients of ``loss`` into every requires_grad leaf.

        Each record is popped before its closure runs and each op output's
        ``.grad`` is set to ``None`` as it is handed over, so the memory
        they hold is released as the pass goes; the tape is empty after it.
        A ``loss.grad`` set beforehand seeds the pass as a copy.
        """
        if self._spent:
            raise ValidationError("a tape runs its backward once")
        if loss.shape != ():
            raise ValidationError(f"loss must be scalar, got shape {loss.shape}")
        self._spent = True
        seed = np.ones(()) if loss.grad is None else loss.grad
        loss.grad = np.array(seed, dtype=loss.dtype)
        records = self._records
        while records:
            output, fn = records.pop()
            g, output.grad = output.grad, None
            if g is not None:
                fn(g)


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


@contextmanager
def frozen(tensors):
    """Treat ``tensors`` as constants inside the block.

    Their ``requires_grad`` is off, so no op records a backward branch for
    them and no gradient lands in their ``.grad``; the flag of each tensor
    that had it is restored on exit, also when the block raises.
    """
    held = [t for t in tensors if t.requires_grad]
    for t in held:
        t.requires_grad = False
    try:
        yield
    finally:
        for t in held:
            t.requires_grad = True


class Tensor:
    """A contiguous real array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, dtype=None, name: str = ""):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            # non-float inputs (ints, bools, lists) default to 32-bit
            arr = arr.astype(np.float32)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name

    # -- introspection ------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.shape}, dtype={self.dtype.name}, grad={self.requires_grad})"

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` to ``.grad``.

        Callers hand over a gradient nothing else holds (see the module
        docstring), so a first ``g`` that is a writeable C-contiguous array
        of this tensor's dtype becomes ``.grad`` as it is. Any other ``g``
        (another dtype, a transposed view, a read-only numpy scalar) is
        stored as a C-contiguous copy in this tensor's dtype.
        """
        if g.shape != self.shape:
            raise ValidationError(f"gradient of shape {g.shape} for a tensor of shape {self.shape}")
        if self.grad is not None:
            self.grad += g
        elif g.dtype == self.dtype and g.flags.c_contiguous and g.flags.writeable:
            self.grad = g
        else:
            self.grad = np.array(g, dtype=self.dtype, order="C")

    # -- operators ----------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


def as_tensor(value, like: Tensor | None = None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(value, dtype=dtype))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the parent's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, s in enumerate(shape):
        if s == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _record(out: Tensor, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Mark ``out`` differentiable and push the closure if a tape is active."""
    tape = active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# Elementwise and structural ops


def add(a, b) -> Tensor:
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out = Tensor(a.data + b.data)

    def backward(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        if ga is g and gb is g:
            ga = g.copy()  # g would reach both parents; each owns its .grad
        if ga is not None:
            a.accumulate_grad(ga)
        if gb is not None:
            b.accumulate_grad(gb)

    return _record(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out = Tensor(a.data - b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.shape))

    return _record(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out = Tensor(a.data * b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 1 or b.ndim < 2:
        raise ValidationError(f"matmul needs matrices, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValidationError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        if a.requires_grad:
            ga = g @ b.data.swapaxes(-1, -2)
            a.accumulate_grad(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = a.data.swapaxes(-1, -2) @ g
            b.accumulate_grad(_unbroadcast(gb, b.shape))

    return _record(out, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b)."""
    y = matmul(x, w)
    return add(y, b) if b is not None else y


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape) if not isinstance(shape, int) else (shape,)
    out = Tensor(x.data.reshape(shape))
    old = x.shape

    def backward(g):
        x.accumulate_grad(g.reshape(old))

    return _record(out, (x,), backward)


def transpose(x: Tensor, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    out = Tensor(x.data.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def backward(g):
        x.accumulate_grad(g.transpose(inverse))

    return _record(out, (x,), backward)


def roll(x: Tensor, shifts, axes) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.roll(x.data, shifts, axis=axes))
    neg = tuple(-s for s in np.atleast_1d(shifts))

    def backward(g):
        x.accumulate_grad(np.roll(g, neg, axis=axes))

    return _record(out, (x,), backward)


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows along axis 0; backward scatters with duplicate accumulation."""
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    out = Tensor(x.data[idx])

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        x.accumulate_grad(gx)

    return _record(out, (x,), backward)


def take_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Slice ``[start, stop)`` of the last axis; backward adds into that slice
    of ``x.grad``, which is zeros on the first write."""
    x = as_tensor(x)
    out = Tensor(x.data[..., start:stop])

    def backward(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[..., start:stop] += g

    return _record(out, (x,), backward)


def exp(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.exp(x.data))

    def backward(g):
        x.accumulate_grad(g * out.data)

    return _record(out, (x,), backward)


def log(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.log(x.data))

    def backward(g):
        x.accumulate_grad(g / x.data)

    return _record(out, (x,), backward)


def reciprocal(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = Tensor(1.0 / x.data)

    def backward(g):
        x.accumulate_grad(-g * out.data * out.data)

    return _record(out, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.sqrt(x.data))

    def backward(g):
        x.accumulate_grad(g * 0.5 / out.data)

    return _record(out, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    with np.errstate(over="ignore"):
        out = Tensor(1.0 / (1.0 + np.exp(-x.data)))

    def backward(g):
        x.accumulate_grad(g * out.data * (1.0 - out.data))

    return _record(out, (x,), backward)


def softplus(x: Tensor) -> Tensor:
    x = as_tensor(x)
    xd = x.data
    out = Tensor(np.maximum(xd, 0) + np.log1p(np.exp(-np.abs(xd))))

    def backward(g):
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-x.data))
        x.accumulate_grad(g * sig)

    return _record(out, (x,), backward)


def silu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(x.data * sig)

    def backward(g):
        x.accumulate_grad(g * sig * (1.0 + x.data * (1.0 - sig)))

    return _record(out, (x,), backward)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    x = as_tensor(x)
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = Tensor(x.data * cdf.astype(x.dtype))

    def backward(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
        x.accumulate_grad(g * (cdf + x.data * pdf).astype(x.dtype))

    return _record(out, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; -inf entries get exactly zero weight."""
    x = as_tensor(x)
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = Tensor(e / e.sum(axis=axis, keepdims=True))

    def backward(g):
        y = out.data
        gx = y * (g - (g * y).sum(axis=axis, keepdims=True))
        x.accumulate_grad(gx)

    return _record(out, (x,), backward)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if gamma.shape != x.shape[-1:] or beta.shape != x.shape[-1:]:
        raise ValidationError("layernorm gamma/beta must match the last axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(gamma.data * xhat + beta.data)

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        if beta.requires_grad:
            beta.accumulate_grad(g.sum(axis=lead))
        if gamma.requires_grad:
            gamma.accumulate_grad((g * xhat).sum(axis=lead))
        if x.requires_grad:
            gh = g * gamma.data
            m1 = gh.mean(axis=-1, keepdims=True)
            m2 = (gh * xhat).mean(axis=-1, keepdims=True)
            x.accumulate_grad(inv * (gh - m1 - xhat * m2))

    return _record(out, (x, gamma, beta), backward)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def backward(g):
        if axis is None:
            gx = np.broadcast_to(g, x.shape)
        else:
            gk = g if keepdims else np.expand_dims(g, axis)
            gx = np.broadcast_to(gk, x.shape)
        x.accumulate_grad(gx.astype(x.dtype, copy=True))

    return _record(out, (x,), backward)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.mean(axis=axis, keepdims=keepdims))
    denom = x.size if axis is None else np.prod([x.shape[a] for a in np.atleast_1d(axis)])

    def backward(g):
        if axis is None:
            gx = np.broadcast_to(g, x.shape)
        else:
            gk = g if keepdims else np.expand_dims(g, axis)
            gx = np.broadcast_to(gk, x.shape)
        x.accumulate_grad((gx / denom).astype(x.dtype, copy=True))

    return _record(out, (x,), backward)


def sum_sq(x: Tensor) -> Tensor:
    """Scalar sum of squares."""
    x = as_tensor(x)
    out = Tensor(np.asarray((x.data.astype(np.float64) ** 2).sum(), dtype=x.dtype))

    def backward(g):
        x.accumulate_grad(g * 2.0 * x.data)

    return _record(out, (x,), backward)


# ---------------------------------------------------------------------------
# Fused ops


def selective_scan(u: Tensor, delta: Tensor, a: Tensor, b: Tensor, c: Tensor,
                   d_skip: Tensor) -> Tensor:
    """Input-dependent SSM scan with zero-order-hold discretization.

    Shapes: u, delta [L, D]; a [D, S] (negative continuous-time diagonal);
    b, c [L, S]; d_skip [D]. Per step t and channel d:

        abar = exp(delta a), bbar = (abar - 1) / a * b_t
        h_t  = abar * h_{t-1} + bbar * u_t
        y_t  = h_t . c_t + d_skip * u_t

    Forward keeps two [L, D, S] arrays for the backward: ``abar`` and the
    state history ``h_t``, built in place from ``zoh * b_t * u_t`` with
    ``zoh = (abar - 1) / a``. Backward writes the adjoint dL/dh_t in place
    over its direct path g_t c_t, recomputes ``zoh`` and forms two shared
    terms: ``G = dL/dh * zoh`` gives the u and b gradients, and
    ``E = abar (a dL/dh h_{t-1} + dL/dh u_t b_t)`` gives the delta gradient
    (E summed over S) and the a gradient
    ((sum_t delta_t E_t - sum_t G_t u_t b_t) / a). Requires a < 0
    everywhere (guaranteed when a = -exp(..)).
    """
    u, delta, a, b, c, d_skip = map(as_tensor, (u, delta, a, b, c, d_skip))
    seq_len, dim = u.shape
    state = a.shape[1]
    if delta.shape != (seq_len, dim) or b.shape != (seq_len, state) \
            or c.shape != (seq_len, state) or a.shape != (dim, state) \
            or d_skip.shape != (dim,):
        raise ValidationError(
            f"selective_scan shape mismatch: u{u.shape} delta{delta.shape} "
            f"a{a.shape} b{b.shape} c{c.shape} d{d_skip.shape}"
        )
    if not (a.data < 0).all():
        raise ValidationError(
            "selective_scan needs a < 0 everywhere; a has zero, positive or NaN entries")

    ud, dd, ad, bd, cd = u.data, delta.data, a.data, b.data, c.data
    dtype = np.result_type(ud, dd, ad, bd, cd)
    abar = np.einsum("ld,ds->lds", dd, ad).astype(dtype, copy=False)
    np.exp(abar, out=abar)
    hist = abar - 1.0
    hist /= ad
    hist *= np.einsum("ld,ls->lds", ud, bd)
    for at, hp, ht in zip(abar[1:], hist[:-1], hist[1:]):
        ht += at * hp
    y = np.matmul(hist, cd[:, :, None])[..., 0] + d_skip.data * ud
    out = Tensor(y)

    def backward(g):
        # dL/dh_t is the direct path through y_t plus the recurrence path
        # from t+1, accumulated backwards in place
        dh = np.einsum("ld,ls->lds", g, cd).astype(dtype, copy=False)
        for an, dn, dc in zip(abar[:0:-1], dh[:0:-1], dh[-2::-1]):
            dc += an * dn
        if c.requires_grad:
            c.accumulate_grad(np.matmul(g[:, None, :], hist)[:, 0, :])
        if d_skip.requires_grad:
            d_skip.accumulate_grad((g * ud).sum(axis=0))
        work = None  # a free [L, D, S] buffer once G has been used
        if u.requires_grad or b.requires_grad or a.requires_grad:
            work = abar - 1.0
            work /= ad
            work *= dh  # G
            if u.requires_grad:
                u.accumulate_grad(d_skip.data * g + np.matmul(work, bd[:, :, None])[..., 0])
            if b.requires_grad:
                b.accumulate_grad(np.matmul(ud[:, None, :], work)[:, 0, :])
        if delta.requires_grad or a.requires_grad:
            e = np.einsum("ld,ls->lds", ud, bd).astype(dtype, copy=False)
            if a.requires_grad:
                ga = -np.einsum("lds,lds->ds", work, e)
            e *= dh
            if work is None:
                work = np.empty_like(dh)
            a_dh_hp = np.multiply(dh[1:], hist[:-1], out=work[1:])
            a_dh_hp *= ad
            e[1:] += a_dh_hp
            e *= abar  # E
            if delta.requires_grad:
                delta.accumulate_grad(e @ np.ones(state, dtype=dtype))
            if a.requires_grad:
                ga += np.einsum("lds,ld->ds", e, dd)
                ga /= ad
                a.accumulate_grad(ga)

    return _record(out, (u, delta, a, b, c, d_skip), backward)


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy on raw logits: mean(softplus(z) - z*y)."""
    logits = as_tensor(logits)
    y = np.asarray(targets, dtype=logits.dtype)
    if y.shape != logits.shape:
        raise ValidationError(f"targets {y.shape} != logits {logits.shape}")
    z = logits.data
    loss = np.logaddexp(np.zeros((), dtype=z.dtype), z) - z * y
    out = Tensor(np.asarray(loss.mean(), dtype=z.dtype))
    n = max(z.size, 1)

    def backward(g):
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-z))
        logits.accumulate_grad(g * (sig - y) / n)

    return _record(out, (logits,), backward)
