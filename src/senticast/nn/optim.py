"""Adam with bias correction over a flat parameter arena.

One step is a handful of whole-vector ops: the per-parameter update's
expressions in the same order, elementwise, so the same bits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import TrainingError
from .autograd import Parameter


class ParamArena:
    """Parameters packed, in the order given, into one value vector and one gradient vector.

    Each `Parameter.data` and `Parameter.grad` is rebound to a reshaped view
    into them; Adam's moments `m` and `v` are two more vectors of that layout.
    """

    def __init__(self, params: Sequence[Parameter]):
        self.params = list(params)
        if len({id(p) for p in self.params}) < len(self.params):
            raise TrainingError("a parameter is listed twice; it cannot be packed twice")
        offsets = np.cumsum([0] + [p.data.size for p in self.params])
        self.values, self.grads, self.m, self.v = (np.zeros(offsets[-1]) for _ in range(4))
        self.step = 0
        for p, start, stop in zip(self.params, offsets, offsets[1:]):
            data = self.values[start:stop].reshape(p.data.shape)
            data[...] = p.data
            p.data, p.grad = data, self.grads[start:stop].reshape(data.shape)
        self._views = [(p.data, p.grad) for p in self.params]


def adam_step(
    arena: ParamArena,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One in-place update of every packed parameter from its accumulated gradient."""
    for p, (data, grad) in zip(arena.params, arena._views):
        if p.data is not data or p.grad is not grad:
            raise TrainingError(f"parameter {p.name!r} was rebound away from its arena view")
    grad = arena.grads
    if not np.isfinite(grad).all():
        bad = next(p for p in arena.params if not np.isfinite(p.grad).all())
        raise TrainingError(f"non-finite gradient in parameter {bad.name!r}")
    arena.step += 1
    m, v = arena.m, arena.v
    scratch = (1.0 - beta1) * grad
    m *= beta1
    m += scratch  # m = beta1 * m + (1 - beta1) * grad
    np.multiply(grad, 1.0 - beta2, out=scratch)
    scratch *= grad
    v *= beta2
    v += scratch  # v = beta2 * v + (1 - beta2) * grad * grad
    m_hat = np.divide(m, 1.0 - beta1 ** arena.step, out=scratch)
    m_hat *= lr
    denom = v / (1.0 - beta2 ** arena.step)
    np.sqrt(denom, out=denom)
    denom += eps
    m_hat /= denom
    arena.values -= m_hat  # values -= lr * m_hat / (sqrt(v_hat) + eps)
