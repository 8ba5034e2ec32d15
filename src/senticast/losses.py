"""Directional MSE and plain MSE over batches of horizon vectors.

The directional weight punishes steps where the predicted and true price
movements disagree in sign; the step before the first horizon point is
anchored at the last observed close, shared by truth and prediction.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .nn.autograd import Tensor

DEFAULT_ALPHA = 1e3


def directional_weights(
    truth: np.ndarray, pred: np.ndarray, anchor: np.ndarray, alpha: float
) -> np.ndarray:
    """Per-step weights: 1 where movements agree (product >= 0), alpha elsewhere."""
    truth_prev = np.concatenate([anchor[..., None], truth[..., :-1]], axis=-1)
    pred_prev = np.concatenate([anchor[..., None], pred[..., :-1]], axis=-1)
    agree = (truth - truth_prev) * (pred - pred_prev) >= 0.0
    return np.where(agree, 1.0, alpha)


def dmse_loss_batch(pred: Tensor, truth: np.ndarray, anchor: np.ndarray, alpha: float = DEFAULT_ALPHA) -> Tensor:
    """Mean directional MSE over a batch of horizon vectors.

    The directional weights are treated as constants of the current
    prediction, so gradients flow through the squared error only.
    """
    truth = np.asarray(truth, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    weights = directional_weights(truth, pred.data, anchor, alpha)
    diff = Tensor(truth) - pred
    return (Tensor(weights) * diff * diff).mean()


def mse_loss_batch(pred: Tensor, truth: np.ndarray) -> Tensor:
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    diff = Tensor(truth) - pred
    return (diff * diff).mean()
