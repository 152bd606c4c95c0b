"""AdamW with decoupled weight decay, plus global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import TrainingError, ValidationError


class AdamW:
    """AdamW over a named parameter dict; it owns the moment buffers ``m``
    and ``v`` and the step count ``steps``.

    Weight decay is decoupled: params shrink by (1 - lr*wd) independently of
    the adaptive step. A parameter with no gradient is stepped as if its
    gradient were zero.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 5e-5,
                 betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0, clip_norm: float = 1.0):
        if lr < 0:
            raise ValidationError("lr must be non-negative")
        self.params = params
        self.lr = lr
        self.betas = tuple(betas)
        self.eps = eps
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self.steps = 0
        # first and second moment per parameter name, made at its first step
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self) -> float:
        """Scale the gradients so their joint L2 norm is at most
        ``clip_norm``, then update every parameter. Returns the pre-clip
        norm."""
        grads = [p.grad for p in self.params.values() if p.grad is not None]
        norm = float(np.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                                 for g in grads)))
        if norm > self.clip_norm and norm > 0:
            scale = self.clip_norm / norm
            for g in grads:
                g *= scale

        self.steps += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1 ** self.steps
        bc2 = 1.0 - b2 ** self.steps
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient for parameter {name!r}")
            g = g.astype(p.data.dtype, copy=False)
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            if self.weight_decay:
                p.data *= (1.0 - self.lr * self.weight_decay)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return norm

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
