"""Adam with bias correction."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import TrainingError
from .autograd import Parameter


def adam_step(
    params: Iterable[Parameter],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One in-place update per parameter from its accumulated gradient."""
    for p in params:
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(grad).all():
            raise TrainingError(f"non-finite gradient in parameter {p.name!r}")
        p.adam_step += 1
        p.adam_m = beta1 * p.adam_m + (1.0 - beta1) * grad
        p.adam_v = beta2 * p.adam_v + (1.0 - beta2) * grad * grad
        m_hat = p.adam_m / (1.0 - beta1 ** p.adam_step)
        v_hat = p.adam_v / (1.0 - beta2 ** p.adam_step)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)
