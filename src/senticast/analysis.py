"""Rank correlations and the embeddings-to-sentiment regression probe."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ValidationError

log = logging.getLogger(__name__)


@dataclass
class CorrelationTable:
    names: list[str]
    matrix: list[list[float]]

    def validate(self) -> None:
        n = len(self.names)
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValidationError("correlation matrix shape does not match variable names")
        for i in range(n):
            if self.matrix[i][i] != 1.0:
                raise ValidationError(f"diagonal entry for {self.names[i]} is not 1")
            for j in range(i):
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise ValidationError("correlation matrix is not symmetric")


@dataclass
class ProbeResult:
    ticker: str
    r2_embeddings: float
    r2_random: float
    n_samples: int
    dim: int

    @property
    def well_posed(self) -> bool:
        return self.n_samples > self.dim


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank span, and each NaN ranks alone."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    # Runs of equal values in sorted order; NaN != NaN, so every NaN starts a run.
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))[: len(v)]
    lengths = np.diff(np.append(starts, len(v)))
    ends = starts + lengths - 1
    ranks = np.empty(len(v), dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, lengths)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of average-ranked values."""
    if len(x) != len(y):
        raise ValidationError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValidationError("need at least two observations")
    rx = average_ranks(x)
    ry = average_ranks(y)
    return _pearson(rx - rx.mean(), ry - ry.mean())


def _pearson(dx: np.ndarray, dy: np.ndarray) -> float:
    denom = np.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        raise DomainError("correlation undefined for constant input")
    return float(dx @ dy) / denom


def ols_r2_probe(X: np.ndarray, y: np.ndarray) -> float:
    """In-sample R-squared of a ridge-stabilized least-squares fit.

    Solves (X'X + lambda I) w = X'y on the intercept-augmented design with
    lambda = 1e-8, small enough to be invisible at data scale while keeping
    rank-deficient probes solvable.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValidationError(f"incompatible probe shapes {X.shape} and {y.shape}")
    if X.shape[0] < 2 or X.shape[1] < 1:
        raise ValidationError("probe needs n >= 2 samples and d >= 1 features")
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise ValidationError("non-finite entries in probe inputs")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise DomainError("target is constant; R-squared undefined")

    design = np.hstack([X, np.ones((X.shape[0], 1))])
    gram = design.T @ design + 1e-8 * np.eye(design.shape[1])
    weights = np.linalg.solve(gram, design.T @ y)
    residual = y - design @ weights
    return 1.0 - float(residual @ residual) / ss_tot


def random_vector_baseline(n: int, d: int, seed: int) -> np.ndarray:
    """Seed-deterministic standard-normal matrix matching an embedding block."""
    if n < 1 or d < 1:
        raise ValidationError(f"need n, d >= 1, got {n}, {d}")
    return np.random.default_rng(seed).standard_normal((n, d))


def correlation_table(columns: dict[str, Sequence[float]]) -> CorrelationTable:
    """Pairwise Spearman matrix over named, equal-length series."""
    names = list(columns)
    if len(names) < 2:
        raise ValidationError("need at least two variables")
    lengths = {len(columns[name]) for name in names}
    if len(lengths) != 1:
        raise ValidationError(f"columns have unequal lengths: {sorted(lengths)}")
    if min(lengths) < 2:
        raise ValidationError("need at least two observations")
    n = len(names)
    centered = [r - r.mean() for r in map(average_ranks, columns.values())]
    matrix = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rho = _pearson(centered[i], centered[j])
            matrix[i][j] = rho
            matrix[j][i] = rho
    table = CorrelationTable(names=names, matrix=matrix)
    table.validate()
    return table


def probe_ticker(
    ticker: str, embeddings: np.ndarray, scores: Sequence[float], seed: int
) -> ProbeResult:
    """Fit scores from embeddings and from a same-shape random baseline."""
    X = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(scores, dtype=np.float64)
    n, d = X.shape
    result = ProbeResult(
        ticker=ticker,
        r2_embeddings=ols_r2_probe(X, y),
        r2_random=ols_r2_probe(random_vector_baseline(n, d, seed), y),
        n_samples=n,
        dim=d,
    )
    if not result.well_posed:
        log.warning("probe for %s has n=%d <= d=%d; fit is underdetermined", ticker, n, d)
    return result
