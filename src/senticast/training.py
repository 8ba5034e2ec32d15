"""Seeded training loop with multi-series batching, plus grid search."""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, SenticastError, TrainingError, ValidationError
from .losses import dmse_loss_batch, mse_loss_batch
from .models import NLinear, TftLite, TrainConfig
from .nn.autograd import no_grad
from .nn.optim import ParamArena, adam_step
from .text import AlignedPanel
from .windows import CLOSE_COLUMN, FeatureSetSpec, Windows, build_windows

log = logging.getLogger(__name__)

MODEL_KINDS = ("nlinear", "tft_lite")
LOSSES = ("dmse", "mse")


def stack_windows(windows: Windows) -> Windows:
    """The set as one batch whose arrays are gathered when read; rejects an empty set."""
    if not len(windows):
        raise ValidationError("no windows to stack")
    return windows


def build_model(kind: str, config: TrainConfig, n_features: int, n_companies: int, rng: np.random.Generator):
    if kind == "nlinear":
        return NLinear(config.lookback, config.horizon, CLOSE_COLUMN, rng, const_init=config.nlinear_const_init)
    if kind == "tft_lite":
        return TftLite(config, n_features, n_companies, rng)
    raise ConfigError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


def train_model(
    model_kind: str,
    windows: Windows,
    config: TrainConfig,
    loss: str = "dmse",
    n_companies: int | None = None,
):
    """Train a fresh model of the given kind; returns (model, per-epoch mean loss).

    All randomness (init, shuffling, dropout) derives from config.seed.  The
    model's parameters are packed into one `ParamArena` for the fit and stay
    views into its value and gradient vectors afterwards.
    """
    config.validate()
    if loss not in LOSSES:
        raise ConfigError(f"loss must be one of {LOSSES}, got {loss!r}")
    windows = stack_windows(windows)
    if n_companies is None:
        n_companies = int(windows.company.max()) + 1
    init_rng, shuffle_rng, dropout_rng = [
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(3)
    ]
    model = build_model(model_kind, config, windows.rows.shape[1], n_companies, init_rng)
    arena = ParamArena(model.parameters())

    total = len(windows)
    curve: list[float] = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(total)
        epoch_loss = 0.0
        for start in range(0, total, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            batch = windows[batch_idx]
            pred = model.forward_batch(
                batch.past, batch.known, batch.company, training=True, rng=dropout_rng
            )
            if loss == "dmse":
                loss_t = dmse_loss_batch(pred, batch.target, batch.anchor, config.dmse_alpha)
            else:
                loss_t = mse_loss_batch(pred, batch.target)
            value = loss_t.item()
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite training loss at epoch {epoch}, batch {start // config.batch_size}"
                )
            arena.grads.fill(0.0)
            loss_t.backward()
            adam_step(arena, config.learning_rate, config.beta1, config.beta2, config.adam_eps)
            del pred, loss_t  # the next step's graph is built with none of this one alive
            epoch_loss += value * len(batch_idx)
        curve.append(epoch_loss / total)
    return model, curve


def predict_windows(model, windows: Windows, chunk: int = 512) -> np.ndarray:
    """Eval-mode predictions, (n_windows, horizon), in normalized units."""
    windows = stack_windows(windows)
    outputs = []
    with no_grad():
        for start in range(0, len(windows), chunk):
            batch = windows[start : start + chunk]
            outputs.append(
                model.forward_batch(batch.past, batch.known, batch.company, training=False).data
            )
    return np.concatenate(outputs, axis=0)


def _mape_rmse(truth: np.ndarray, pred: np.ndarray) -> tuple[float, float]:
    if np.any(truth == 0):
        raise ValidationError("validation truth contains zeros; MAPE undefined")
    mape = 100.0 * float(np.mean(np.abs((truth - pred) / truth)))
    rmse = float(np.sqrt(np.mean((truth - pred) ** 2)))
    return mape, rmse


@dataclass
class GridPoint:
    index: int
    model_kind: str
    overrides: dict
    config: TrainConfig
    status: str = "ok"
    val_mape: float = float("nan")
    val_rmse: float = float("nan")


@dataclass
class GridSearchResult:
    best: GridPoint
    leaderboard: list[GridPoint] = field(default_factory=list)


def _validation_split(windows: Windows, fraction: float) -> tuple[Windows, Windows]:
    """Chronological tail of each company's windows becomes validation."""
    if not len(windows):
        raise ValidationError("no training windows to split for validation")
    order = np.argsort(windows.company, kind="stable")
    companies, first, counts = np.unique(windows.company[order], return_index=True, return_counts=True)
    n_val = np.maximum(1, np.round(fraction * counts).astype(np.int64))
    if np.any(n_val >= counts):
        company = companies[np.argmax(n_val >= counts)]
        raise ValidationError(f"company {company}: validation fraction leaves no fit windows")
    group = np.repeat(np.arange(len(companies)), counts)
    in_val = np.arange(len(order)) - first[group] >= (counts - n_val)[group]
    return windows[order[~in_val]], windows[order[in_val]]


def grid_search(
    space: dict[str, list],
    panels: list[AlignedPanel],
    spec: FeatureSetSpec,
    validation_fraction: float,
    base_config: TrainConfig | None = None,
    model_kind: str = "tft_lite",
    split: float = 0.8,
    loss: str = "dmse",
) -> GridSearchResult:
    """Train one model per grid point; rank by validation MAPE, then RMSE, then order.

    A failed training run marks its point instead of aborting the search.
    The key "model" may appear in the space to vary the model kind.  Points
    run one after the other, in grid order.
    """
    if not space or any(len(v) == 0 for v in space.values()):
        raise ValidationError("grid space must be a nonempty Cartesian product")
    if not 0.0 < validation_fraction < 1.0:
        raise ValidationError(f"validation fraction must be in (0, 1), got {validation_fraction}")
    base = base_config if base_config is not None else TrainConfig()

    keys = list(space)
    points: list[GridPoint] = []
    for index, values in enumerate(itertools.product(*(space[k] for k in keys))):
        overrides = dict(zip(keys, values))
        kind = overrides.pop("model", model_kind)
        try:
            config = replace(base, **overrides)
            config.validate()
        except (TypeError, ConfigError) as exc:
            points.append(
                GridPoint(index, kind, dict(zip(keys, values)), base, status=f"failed: {exc}")
            )
            continue
        points.append(GridPoint(index, kind, dict(zip(keys, values)), config))

    for point in points:
        if point.status != "ok":
            continue
        try:
            train, _, normalizer = build_windows(
                panels, spec, point.config.lookback, point.config.horizon, split
            )
            fit, val = _validation_split(train, validation_fraction)
            model, _ = train_model(
                point.model_kind, fit, point.config, loss=loss, n_companies=len(panels)
            )
            pred_n = predict_windows(model, val)
            point.val_mape, point.val_rmse = _mape_rmse(
                normalizer.denormalize_close(val.company, val.target).ravel(),
                normalizer.denormalize_close(val.company, pred_n).ravel(),
            )
        except (SenticastError, FloatingPointError, np.linalg.LinAlgError) as exc:
            point.status = f"failed: {exc}"
            log.warning("grid point %d failed: %s", point.index, exc)

    ranked = sorted(
        (p for p in points if p.status == "ok"),
        key=lambda p: (p.val_mape, p.val_rmse, p.index),
    )
    if not ranked:
        raise TrainingError("every grid point failed")
    leaderboard = ranked + [p for p in points if p.status != "ok"]
    return GridSearchResult(best=ranked[0], leaderboard=leaderboard)
