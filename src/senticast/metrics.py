"""The six evaluation metrics and the composite ranking."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .analysis import average_ranks
from .errors import DomainError, ValidationError

METRIC_NAMES = ("mape", "mae", "r2", "rmse", "mse", "smape")
HIGHER_IS_BETTER = {"r2"}


@dataclass
class MetricsRecord:
    ticker: str
    model: str
    feature_set: str
    mape: float
    mae: float
    mse: float
    rmse: float
    r2: float
    smape: float

    def to_dict(self) -> dict:
        return asdict(self)


def compute_metrics(
    truth: Sequence[float],
    pred: Sequence[float],
    ticker: str = "",
    model: str = "",
    feature_set: str = "",
) -> MetricsRecord:
    """MAPE/MAE/MSE/RMSE/R2/SMAPE over pooled horizon steps, in price units.

    SMAPE uses the half-sum denominator, scaled to percent (0..200 range).
    R2 is the coefficient of determination around the truth mean, so poor
    forecasts can go negative.
    """
    t = np.asarray(truth, dtype=np.float64)
    p = np.asarray(pred, dtype=np.float64)
    if t.shape != p.shape or t.ndim != 1:
        raise ValidationError(f"truth and pred must be equal-length vectors, got {t.shape} and {p.shape}")
    if t.size < 2:
        raise ValidationError("need at least two points for metrics")
    if not (np.isfinite(t).all() and np.isfinite(p).all()):
        raise ValidationError("non-finite values in metric inputs")
    if np.any(t == 0.0):
        raise DomainError("truth contains zeros; MAPE undefined")
    denom = (np.abs(t) + np.abs(p)) / 2.0
    if np.any(denom == 0.0):
        raise DomainError("SMAPE undefined where |truth| + |pred| = 0")
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        raise DomainError("truth is constant; R-squared undefined")

    err = t - p
    mse = float(np.mean(err**2))
    return MetricsRecord(
        ticker=ticker,
        model=model,
        feature_set=feature_set,
        mape=100.0 * float(np.mean(np.abs(err / t))),
        mae=float(np.mean(np.abs(err))),
        mse=mse,
        rmse=math.sqrt(mse),
        r2=1.0 - float(np.sum(err**2)) / ss_tot,
        smape=100.0 * float(np.mean(np.abs(err) / denom)),
    )


@dataclass
class RankedRecord:
    record: MetricsRecord
    metric_ranks: dict = field(default_factory=dict)
    composite: float = 0.0
    position: int = 0


def composite_rank(records: Sequence[MetricsRecord]) -> dict[str, list[RankedRecord]]:
    """Per-ticker ranking by the mean of six per-metric ranks.

    Error metrics rank ascending, R2 descending; ties within a metric share
    the average rank.  Final order is by composite, then MAPE rank, then
    input order.
    """
    groups: dict[str, list[MetricsRecord]] = {}
    for record in records:
        for name in METRIC_NAMES:
            value = getattr(record, name)
            if value is None or not math.isfinite(value):
                raise ValidationError(
                    f"{record.ticker}/{record.model}: metric {name} missing or non-finite"
                )
        groups.setdefault(record.ticker, []).append(record)

    out: dict[str, list[RankedRecord]] = {}
    for ticker, group in groups.items():
        if len(group) < 2:
            raise ValidationError(f"{ticker}: composite ranking needs >= 2 records")
        per_metric = {}
        for name in METRIC_NAMES:
            values = [getattr(r, name) for r in group]
            if name in HIGHER_IS_BETTER:
                values = [-v for v in values]
            per_metric[name] = average_ranks(values).tolist()
        ranked = []
        for idx, record in enumerate(group):
            metric_ranks = {name: per_metric[name][idx] for name in METRIC_NAMES}
            composite = sum(metric_ranks.values()) / len(METRIC_NAMES)
            ranked.append(RankedRecord(record=record, metric_ranks=metric_ranks, composite=composite))
        order = sorted(
            range(len(ranked)),
            key=lambda i: (ranked[i].composite, ranked[i].metric_ranks["mape"], i),
        )
        final = [ranked[i] for i in order]
        for position, entry in enumerate(final, start=1):
            entry.position = position
        out[ticker] = final
    return out
