"""Dense tensor algebra with reverse-mode differentiation.

Define-by-run: while a :class:`Tape` is active, every operation whose inputs
require gradients appends a backward closure to the tape; ``Tape.backward``
replays the closures in reverse execution order, which is a valid reverse
topological order by construction.

A tensor keeps its gradient bookkeeping in a small :class:`GradSlot`
(``requires_grad``, ``grad``, shape and dtype), apart from its data. The
tape holds each op output's slot, and each closure holds its parents'
slots plus only the arrays its backward reads: ``add``, ``sub``,
``reshape``, ``transpose``, ``roll``, ``take_*``, ``tsum`` and ``tmean``
hold none, and ``mul``/``matmul`` hold one side's data only when the
other side requires a gradient. So an op output that no backward reads
(a linear's matmul before its bias, a reshaped copy) is freed during the
forward, as soon as the caller drops it.

A tape runs its backward once and frees memory as it goes: each record is
dropped once its closure has run, which releases the arrays the closure
captured, and each op output's gradient is released once it has been
handed to that closure. Leaf gradients (parameters, an input being
attributed) are kept. Each closure gets the only reference to its output's
gradient, so whatever it hands a parent (a gradient it has just computed,
or the one it got, reshaped or passed through) becomes that parent's first
``.grad`` without a copy. Only ``add`` hands one ``g`` to two parents, and
gives one of them a copy; a transposed view, or a gradient of another
dtype, is copied into C order and the tensor's dtype.

``selective_scan`` is the one op that trades recomputation for memory. It
runs over blocks of ``SCAN_BLOCK_ROWS`` rows in reused buffers and keeps
only the state at each block boundary, not its [L, S, D] state history;
its backward rebuilds each block's history from the boundary state before
it, with the same ops, so the result is the same as keeping it.

Data is float32 by default; build leaves with ``dtype=np.float64`` for
gradient checking. Broadcasting follows numpy; backward sums gradients back
down to each parent's shape.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from .errors import ValidationError

_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of (output slot, backward-closure) pairs.

    Single-use: ``backward`` empties the tape as it runs, and a second call
    raises :class:`ValidationError`.
    """

    def __init__(self):
        self._records: list[tuple[GradSlot, object]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._records)

    def record(self, output: "GradSlot", backward) -> None:
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


def _heap_trimmer():
    """glibc's ``malloc_trim(pad)``, or a no-op where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return lambda pad: 0
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_malloc_trim = _heap_trimmer()


def releases_freed_memory(fn):
    """Decorate ``fn`` to hand back to the OS, when it returns, the pages of
    freed arrays that glibc's heap keeps resident.

    How many pages the heap keeps depends on where earlier allocations
    landed, not on ``fn``. After a model pass that frees its activations,
    the volume-sized arrays allocated next would otherwise peak at a
    resident size that moves by tens of MB from one run to the next.
    """
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        _malloc_trim(0)
        return result
    return wrapped


class GradSlot:
    """A tensor's gradient bookkeeping without its data: what the tape and
    the backward closures hold to route gradients."""

    __slots__ = ("requires_grad", "grad", "shape", "dtype")

    def __init__(self, shape, dtype, requires_grad: bool = False):
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.shape = shape
        self.dtype = dtype

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` to ``.grad``.

        Callers hand over a gradient nothing else holds (see the module
        docstring), so a first ``g`` that is a writeable C-contiguous array
        of this slot's dtype becomes ``.grad`` as it is. Any other ``g``
        (another dtype, a transposed view, a read-only numpy scalar) is
        stored as a C-contiguous copy in this slot's dtype.
        """
        if g.shape != self.shape:
            raise ValidationError(f"gradient of shape {g.shape} for a tensor of shape {self.shape}")
        if self.grad is not None:
            self.grad += g
        elif g.dtype == self.dtype and g.flags.c_contiguous and g.flags.writeable:
            self.grad = g
        else:
            self.grad = np.array(g, dtype=self.dtype, order="C")


class Tensor:
    """A contiguous real array plus its :class:`GradSlot`.

    ``requires_grad``, ``grad`` and ``accumulate_grad`` go through the slot;
    assigning ``data`` keeps the slot's shape and dtype in step.
    """

    __slots__ = ("_data", "slot", "name")

    def __init__(self, data, requires_grad: bool = False, dtype=None, name: str = ""):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            # non-float inputs (ints, bools, lists) default to 32-bit
            arr = arr.astype(np.float32)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self._data = arr
        self.slot = GradSlot(arr.shape, arr.dtype, bool(requires_grad))
        self.name = name

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, arr: np.ndarray) -> None:
        self._data = arr
        self.slot.shape, self.slot.dtype = arr.shape, arr.dtype

    @property
    def requires_grad(self) -> bool:
        return self.slot.requires_grad

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        self.slot.requires_grad = bool(flag)

    @property
    def grad(self) -> np.ndarray | None:
        return self.slot.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self.slot.grad = g

    # -- introspection ------------------------------------------------------
    @property
    def shape(self):
        return self._data.shape

    @property
    def ndim(self):
        return self._data.ndim

    @property
    def size(self):
        return self._data.size

    @property
    def dtype(self):
        return self._data.dtype

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.shape}, dtype={self.dtype.name}, grad={self.requires_grad})"

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` to ``.grad``; see :meth:`GradSlot.accumulate_grad`."""
        self.slot.accumulate_grad(g)

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


def record_op(out: Tensor, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Mark ``out`` differentiable and push its slot and the closure if a
    tape is active. Ops written elsewhere (the model's voxel boundaries)
    record through it too."""
    tape = active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape.record(out.slot, backward)
    return out


# ---------------------------------------------------------------------------
# Elementwise and structural ops


def add(a, b) -> Tensor:
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out = Tensor(a.data + b.data)
    sa, sb = a.slot, b.slot

    def backward(g):
        ga = _unbroadcast(g, sa.shape) if sa.requires_grad else None
        gb = _unbroadcast(g, sb.shape) if sb.requires_grad else None
        if ga is g and gb is g:
            ga = g.copy()  # g would reach both parents; each owns its .grad
        if ga is not None:
            sa.accumulate_grad(ga)
        if gb is not None:
            sb.accumulate_grad(gb)

    return record_op(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out = Tensor(a.data - b.data)
    sa, sb = a.slot, b.slot

    def backward(g):
        if sa.requires_grad:
            sa.accumulate_grad(_unbroadcast(g, sa.shape))
        if sb.requires_grad:
            sb.accumulate_grad(_unbroadcast(-g, sb.shape))

    return record_op(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out = Tensor(a.data * b.data)
    sa, sb = a.slot, b.slot
    # each side's gradient reads the other side's data
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(g):
        if b_data is not None:
            sa.accumulate_grad(_unbroadcast(g * b_data, sa.shape))
        if a_data is not None:
            sb.accumulate_grad(_unbroadcast(g * a_data, sb.shape))

    return record_op(out, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 1 or b.ndim < 2:
        raise ValidationError(f"matmul needs matrices, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValidationError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    sa, sb = a.slot, b.slot
    # each side's gradient reads the other side's data
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(g):
        if b_data is not None:
            sa.accumulate_grad(_unbroadcast(g @ b_data.swapaxes(-1, -2), sa.shape))
        if a_data is not None:
            sb.accumulate_grad(_unbroadcast(a_data.swapaxes(-1, -2) @ g, sb.shape))

    return record_op(out, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b)."""
    y = matmul(x, w)
    return add(y, b) if b is not None else y


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape) if not isinstance(shape, int) else (shape,)
    out = Tensor(x.data.reshape(shape))
    sx, old = x.slot, x.shape

    def backward(g):
        sx.accumulate_grad(g.reshape(old))

    return record_op(out, (x,), backward)


def transpose(x: Tensor, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    out = Tensor(x.data.transpose(axes))
    sx, inverse = x.slot, tuple(np.argsort(axes))

    def backward(g):
        sx.accumulate_grad(g.transpose(inverse))

    return record_op(out, (x,), backward)


def roll(x: Tensor, shifts, axes) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.roll(x.data, shifts, axis=axes))
    sx, neg = x.slot, tuple(-s for s in np.atleast_1d(shifts))

    def backward(g):
        sx.accumulate_grad(np.roll(g, neg, axis=axes))

    return record_op(out, (x,), backward)


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows along axis 0; backward scatters with duplicate accumulation."""
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    out = Tensor(x.data[idx])
    sx = x.slot

    def backward(g):
        gx = np.zeros(sx.shape, dtype=sx.dtype)
        np.add.at(gx, idx, g)
        sx.accumulate_grad(gx)

    return record_op(out, (x,), backward)


def take_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Slice ``[start, stop)`` of the last axis; backward adds into that slice
    of ``x.grad``, which is zeros on the first write."""
    x = as_tensor(x)
    out = Tensor(x.data[..., start:stop])
    sx = x.slot

    def backward(g):
        if sx.grad is None:
            sx.grad = np.zeros(sx.shape, dtype=sx.dtype)
        sx.grad[..., start:stop] += g

    return record_op(out, (x,), backward)


def exp(x: Tensor) -> Tensor:
    x = as_tensor(x)
    y = np.exp(x.data)
    sx = x.slot

    def backward(g):
        sx.accumulate_grad(g * y)

    return record_op(Tensor(y), (x,), backward)


def log(x: Tensor) -> Tensor:
    x = as_tensor(x)
    xd, sx = x.data, x.slot

    def backward(g):
        sx.accumulate_grad(g / xd)

    return record_op(Tensor(np.log(xd)), (x,), backward)


def reciprocal(x: Tensor) -> Tensor:
    x = as_tensor(x)
    y = 1.0 / x.data
    sx = x.slot

    def backward(g):
        sx.accumulate_grad(-g * y * y)

    return record_op(Tensor(y), (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    x = as_tensor(x)
    y = np.sqrt(x.data)
    sx = x.slot

    def backward(g):
        sx.accumulate_grad(g * 0.5 / y)

    return record_op(Tensor(y), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-x.data))
    sx = x.slot

    def backward(g):
        sx.accumulate_grad(g * y * (1.0 - y))

    return record_op(Tensor(y), (x,), backward)


def softplus(x: Tensor) -> Tensor:
    x = as_tensor(x)
    xd, sx = x.data, x.slot
    out = Tensor(np.maximum(xd, 0) + np.log1p(np.exp(-np.abs(xd))))

    def backward(g):
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-xd))
        sx.accumulate_grad(g * sig)

    return record_op(out, (x,), backward)


def silu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    xd, sx = x.data, x.slot
    with np.errstate(over="ignore"):
        out = Tensor(xd * (1.0 / (1.0 + np.exp(-xd))))

    def backward(g):
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-xd))
        sx.accumulate_grad(g * sig * (1.0 + xd * (1.0 - sig)))

    return record_op(out, (x,), backward)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    x = as_tensor(x)
    xd, sx = x.data, x.slot
    cdf = 0.5 * (1.0 + erf(xd * _INV_SQRT2))
    out = Tensor(xd * cdf.astype(xd.dtype))

    def backward(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * xd * xd)
        sx.accumulate_grad(g * (cdf + xd * pdf).astype(xd.dtype))

    return record_op(out, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; -inf entries get exactly zero weight."""
    x = as_tensor(x)
    y = x.data - np.max(x.data, axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    sx = x.slot

    def backward(g):
        # g is this closure's own (see the module docstring), so it is
        # overwritten in place
        g -= (g * y).sum(axis=axis, keepdims=True)
        g *= y
        sx.accumulate_grad(g)

    return record_op(Tensor(y), (x,), backward)


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
    gd = gamma.data
    out = Tensor(gd * xhat + beta.data)
    sx, sg, sb = x.slot, gamma.slot, beta.slot

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        if sb.requires_grad:
            sb.accumulate_grad(g.sum(axis=lead))
        if sg.requires_grad:
            sg.accumulate_grad((g * xhat).sum(axis=lead))
        if sx.requires_grad:
            gh = g * gd
            m1 = gh.mean(axis=-1, keepdims=True)
            m2 = (gh * xhat).mean(axis=-1, keepdims=True)
            sx.accumulate_grad(inv * (gh - m1 - xhat * m2))

    return record_op(out, (x, gamma, beta), backward)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))
    sx = x.slot

    def backward(g):
        gk = g if axis is None or keepdims else np.expand_dims(g, axis)
        sx.accumulate_grad(np.broadcast_to(gk, sx.shape).astype(sx.dtype, copy=True))

    return record_op(out, (x,), backward)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.mean(axis=axis, keepdims=keepdims))
    denom = x.size if axis is None else np.prod([x.shape[a] for a in np.atleast_1d(axis)])
    sx = x.slot

    def backward(g):
        gk = g if axis is None or keepdims else np.expand_dims(g, axis)
        sx.accumulate_grad((np.broadcast_to(gk, sx.shape) / denom).astype(sx.dtype, copy=True))

    return record_op(out, (x,), backward)


def sum_sq(x: Tensor) -> Tensor:
    """Scalar sum of squares."""
    x = as_tensor(x)
    xd, sx = x.data, x.slot
    out = Tensor(np.asarray((xd.astype(np.float64) ** 2).sum(), dtype=xd.dtype))

    def backward(g):
        sx.accumulate_grad(g * 2.0 * xd)

    return record_op(out, (x,), backward)


# ---------------------------------------------------------------------------
# Fused ops


# Rows per block of ``selective_scan``. A block's three [Q, S, D] work
# buffers stay in L2 (768 KiB at S=8, D=64 and 1.5 MiB at D=128, in
# float32); CHANGES.md has the sweep that chose it.
SCAN_BLOCK_ROWS = 128


def selective_scan(u: Tensor, delta: Tensor, a: Tensor, b: Tensor, c: Tensor,
                   d_skip: Tensor) -> Tensor:
    """Input-dependent SSM scan with zero-order-hold discretization.

    Shapes: u, delta [L, D]; a [D, S] (negative continuous-time diagonal);
    b, c [L, S]; d_skip [D]. Per step t and channel d:

        abar = exp(delta a), bbar = (abar - 1) / a * b_t
        h_t  = abar * h_{t-1} + bbar * u_t
        y_t  = h_t . c_t + d_skip * u_t

    The state works in an [S, D] layout per row, so every per-row and
    per-state factor broadcasts over the contiguous D axis. The rows run in
    blocks of ``SCAN_BLOCK_ROWS``, and each block's ``abar`` and state
    history live in reused [Q, S, D] buffers that fit in L2. The forward
    writes the block's rows of ``y`` and keeps only the block's last state,
    so between forward and backward a call holds [L/Q, S, D] boundary states
    instead of the [L, S, D] history.

    The backward walks the blocks in reverse. For each block it recomputes
    ``abar`` and rebuilds the history from the previous block's boundary
    state with the forward's ops, so the history is byte-identical. It
    writes the adjoint dL/dh_t into a third buffer, in place over its
    direct path c_t g_t, and adds ``abar dL/dh`` of the next block's first
    row to the block's last row. The ``abar`` buffer then becomes
    ``G = zoh dL/dh`` with ``zoh = (abar - 1) / a``, which gives the u and
    b gradients, and the history's buffer becomes ``dL/dh h``. It needs no
    h_{t-1}, because

        abar_t (a h_{t-1} + b_t u_t) = a h_t + b_t u_t,

    so ``E = dL/dh (a h_t + b_t u_t)`` gives the delta gradient (E summed
    over S) and the a gradient ((sum_t delta_t E_t - sum_t G_t b_t u_t) / a),
    which is summed block by block. The per-row gradients come out as if
    the scan ran unblocked; only the a gradient's summation order depends
    on Q. Requires a < 0 everywhere (guaranteed when a = -exp(..)).
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

    dtype = np.result_type(u.data, delta.data, a.data, b.data, c.data)
    ud, dd, bd, cd = (t.data.astype(dtype, copy=False) for t in (u, delta, b, c))
    skip = d_skip.data
    at = np.ascontiguousarray(a.data.T, dtype=dtype)  # [S, D]
    q = max(1, min(SCAN_BLOCK_ROWS, seq_len))
    blocks = [slice(s0, min(s0 + q, seq_len)) for s0 in range(0, seq_len, q)]

    def history(rows, abar, hist, h0):
        """Fill the [n, S, D] views ``abar`` = exp(delta a) and ``hist``, the
        state history, for ``rows``, starting from the state ``h0`` before
        the first row (None: zero)."""
        np.multiply(dd[rows, None, :], at, out=abar)
        np.exp(abar, out=abar)
        np.subtract(abar, 1.0, out=hist)
        hist /= at
        hist *= bd[rows, :, None]
        hist *= ud[rows, None, :]
        if h0 is not None:
            hist[0] += abar[0] * h0
        for ar, hp, ht in zip(abar[1:], hist[:-1], hist[1:]):
            ht += ar * hp

    abar, hist = np.empty((2, q, state, dim), dtype)
    ends = np.empty((max(len(blocks) - 1, 0), state, dim), dtype)
    y = np.empty((seq_len, dim), np.result_type(dtype, skip))
    for k, rows in enumerate(blocks):
        n = rows.stop - rows.start
        history(rows, abar[:n], hist[:n], ends[k - 1] if k else None)
        np.add(np.matmul(cd[rows, None, :], hist[:n])[:, 0, :], skip * ud[rows],
               out=y[rows])
        if k < len(ends):
            ends[k] = hist[n - 1]
    del abar, hist
    su, sdelta, sa, sb, sc, sskip = (t.slot for t in (u, delta, a, b, c, d_skip))

    def backward(g):
        need_g = su.requires_grad or sb.requires_grad or sa.requires_grad
        need_e = sdelta.requires_grad or sa.requires_grad
        gskip = (g * ud).sum(axis=0) if sskip.requires_grad else None
        gc = np.empty((seq_len, state), np.result_type(dtype, g)) if sc.requires_grad else None
        gu = np.empty((seq_len, dim), np.result_type(skip, g, dtype)) \
            if su.requires_grad else None
        gb = np.empty((seq_len, state), dtype) if sb.requires_grad else None
        gdelta = np.empty((seq_len, dim), dtype) if sdelta.requires_grad else None
        ga = np.zeros((state, dim), dtype) if sa.requires_grad else None
        work, hist, dh = np.empty((3, q, state, dim), dtype)
        ones = np.ones((1, state), dtype)
        carry = None  # abar dL/dh at the first row of the block after this one
        for k in reversed(range(len(blocks))):
            rows = blocks[k]
            n = rows.stop - rows.start
            wk, hk, dk = work[:n], hist[:n], dh[:n]
            history(rows, wk, hk, ends[k - 1] if k else None)
            if sc.requires_grad:
                gc[rows] = np.matmul(hk, g[rows, :, None])[..., 0]
            if not (need_g or need_e):
                continue
            # dL/dh_t is the direct path through y_t plus the recurrence path
            # from t+1, accumulated backwards in place
            np.multiply(cd[rows, :, None], g[rows, None, :], out=dk)
            if carry is not None:
                dk[-1] += carry
            for an, dn, dc in zip(wk[:0:-1], dk[:0:-1], dk[-2::-1]):
                dc += an * dn
            carry = wk[0] * dk[0]
            if need_g:
                wk -= 1.0
                wk /= at
                wk *= dk  # G
                if su.requires_grad:
                    gu[rows] = skip * g[rows] + np.matmul(bd[rows, None, :], wk)[:, 0, :]
                if sb.requires_grad:
                    gb[rows] = np.matmul(wk, ud[rows, :, None])[..., 0]
            if need_e:
                e = hk
                e *= dk
                e *= at
                dk *= bd[rows, :, None]
                dk *= ud[rows, None, :]
                e += dk  # E
                if sdelta.requires_grad:
                    gdelta[rows] = np.matmul(ones, e)[:, 0, :]
                if sa.requires_grad:
                    wk *= bd[rows, :, None]
                    wk *= ud[rows, None, :]
                    ga += np.einsum("lsd,ld->sd", e, dd[rows])
                    ga -= wk.sum(axis=0)
        if gc is not None:
            sc.accumulate_grad(gc)
        if gskip is not None:
            sskip.accumulate_grad(gskip)
        if gu is not None:
            su.accumulate_grad(gu)
        if gb is not None:
            sb.accumulate_grad(gb)
        if gdelta is not None:
            sdelta.accumulate_grad(gdelta)
        if ga is not None:
            ga /= at
            sa.accumulate_grad(ga.T)

    return record_op(Tensor(y), (u, delta, a, b, c, d_skip), backward)


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
    sz = logits.slot

    def backward(g):
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-z))
        sz.accumulate_grad(g * (sig - y) / n)

    return record_op(out, (logits,), backward)
