"""Sliding-window construction over aligned panels with leak-free scaling.

Windows from every company are pooled into one multi-series training set;
normalization statistics are fitted on each company's training rows only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ValidationError
from .text import PANEL_VALUES, AlignedPanel

FEATURE_SET_KINDS = ("HLOV", "HLOVS", "HLOVE")
BASE_COLUMNS = ("high", "low", "open", "volume", "close")
KNOWN_DIM = 6  # holiday flag + day-of-week one-hot
CLOSE_COLUMN = BASE_COLUMNS.index("close")


@dataclass(frozen=True)
class FeatureSetSpec:
    kind: str
    embedding_dim: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FEATURE_SET_KINDS:
            raise ConfigError(f"unknown feature set {self.kind!r}; expected one of {FEATURE_SET_KINDS}")
        if self.kind == "HLOVE" and self.embedding_dim < 1:
            raise ConfigError("HLOVE needs a positive embedding dimension")

    @property
    def columns(self) -> list[str]:
        cols = list(BASE_COLUMNS)
        if self.kind == "HLOVS":
            cols.append("score")
        elif self.kind == "HLOVE":
            cols += [f"e{i}" for i in range(self.embedding_dim)]
        return cols


@dataclass(frozen=True, eq=False)
class Windows:
    """Stride-1 windows as index vectors over rows stacked once.

    `rows` holds every company's normalized panel rows end to end,
    `known_rows` their calendar covariates and `days` their dates.  Window k
    ends (its last observed row) at `ends[k]` and belongs to `company[k]`.
    Indexing by int, slice or index array gives a Windows that shares the
    rows; the per-window fields are gathered only when read.
    """

    rows: np.ndarray  # (total rows, features), normalized
    known_rows: np.ndarray  # (total rows, KNOWN_DIM)
    days: np.ndarray  # (total rows,) dates
    ends: np.ndarray  # (n,) int64
    company: np.ndarray  # (n,) int64
    lookback: int
    horizon: int

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, key) -> "Windows":
        return replace(self, ends=self.ends[key], company=self.company[key])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def company_index(self) -> np.ndarray:
        return self.company

    @property
    def ahead(self) -> np.ndarray:
        """(n, horizon) row indices of the forecast steps."""
        return self.ends[..., None] + np.arange(1, self.horizon + 1)

    @property
    def past_rows(self) -> np.ndarray:
        """(n, lookback) row indices of the observed steps."""
        return self.ends[..., None] + np.arange(1 - self.lookback, 1)

    @property
    def past(self) -> np.ndarray:
        """(n, lookback, features) normalized inputs."""
        return self.rows[self.past_rows]

    @property
    def known(self) -> np.ndarray:
        """(n, horizon, KNOWN_DIM) known-future covariates."""
        return self.known_rows[self.ahead]

    @property
    def target(self) -> np.ndarray:
        """(n, horizon) normalized closes to forecast."""
        return self.rows[self.ahead, CLOSE_COLUMN]

    @property
    def anchor(self) -> np.ndarray:
        """(n,) last observed normalized close."""
        return self.rows[self.ends, CLOSE_COLUMN]

    @property
    def target_days(self) -> np.ndarray:
        return self.days[self.ahead]

    @property
    def anchor_day(self) -> np.ndarray:
        return self.days[self.ends]


@dataclass
class Normalizer:
    """Per-company statistics of the feature set's columns, fitted on training rows."""

    tickers: list[str]
    means: np.ndarray  # (companies, features)
    stds: np.ndarray  # (companies, features)
    train_rows: list[int]
    close_index = CLOSE_COLUMN

    def normalize(self, company: int, matrix: np.ndarray) -> np.ndarray:
        return (matrix - self.means[company]) / self.stds[company]

    def denormalize_close(self, company, values: np.ndarray) -> np.ndarray:
        """`company` is one index, or an index vector with one entry per row of `values`."""
        idx = self.close_index
        return np.asarray(values) * self.stds[company, idx, None] + self.means[company, idx, None]

    def to_dict(self) -> dict:
        return {
            "tickers": list(self.tickers),
            "means": [[float(v) for v in row] for row in self.means],
            "stds": [[float(v) for v in row] for row in self.stds],
            "train_rows": [int(v) for v in self.train_rows],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Normalizer":
        return cls(
            tickers=list(data["tickers"]),
            means=np.asarray(data["means"], dtype=np.float64),
            stds=np.asarray(data["stds"], dtype=np.float64),
            train_rows=[int(v) for v in data["train_rows"]],
        )


def panel_matrix(panel: AlignedPanel, spec: FeatureSetSpec) -> np.ndarray:
    """The spec's columns of the panel, (T, features): a view for HLOV and HLOVS, a copy for HLOVE."""
    if spec.kind != "HLOVE":
        return panel.values[:, : len(spec.columns)]  # high..close, then score for HLOVS
    if panel.embedding_dim == 0:
        raise ConfigError(f"{panel.ticker}: HLOVE requested but panel has no embeddings")
    if panel.embedding_dim != spec.embedding_dim:
        raise ConfigError(f"{panel.ticker}: embedding dim {panel.embedding_dim} != spec {spec.embedding_dim}")
    return np.concatenate([panel.values[:, : len(BASE_COLUMNS)], panel.values[:, len(PANEL_VALUES) :]], axis=1)


def known_future_matrix(panel: AlignedPanel) -> np.ndarray:
    """(T, KNOWN_DIM): the holiday flag, then the day of the week one-hot."""
    out = np.zeros((len(panel), KNOWN_DIM))
    out[:, 0] = panel.calendar[:, 0]
    out[np.arange(len(panel)), 1 + panel.calendar[:, 1]] = 1.0
    return out


def fit_normalizer(
    panels: list[AlignedPanel], spec: FeatureSetSpec, lookback: int, horizon: int, split: float
) -> Normalizer:
    """Per-company column mean/std over the training rows only."""
    if lookback < 1 or horizon < 1:
        raise ValidationError(f"lookback and horizon must be >= 1, got {lookback}, {horizon}")
    if not 0.0 < split <= 1.0:
        raise ValidationError(f"split must be in (0, 1], got {split}")
    if not panels:
        raise ValidationError("no panels supplied")
    tickers = [panel.ticker for panel in panels]
    if len(set(tickers)) != len(tickers):
        raise ValidationError(f"duplicate tickers in panels: {tickers}")

    means, stds, train_rows = [], [], []
    for panel in panels:
        T = len(panel)
        if T < lookback + horizon:
            raise ValidationError(
                f"{panel.ticker}: panel of {T} rows is too short for lookback {lookback} + horizon {horizon}"
            )
        matrix = panel_matrix(panel, spec)
        split_at = T if split == 1.0 else int(split * T)
        if split_at < 2:
            raise ValidationError(f"{panel.ticker}: split leaves {split_at} training rows")
        head = matrix[:split_at]
        mean = head.mean(axis=0)
        std = head.std(axis=0)
        std[std < 1e-12] = 1.0
        means.append(mean)
        stds.append(std)
        train_rows.append(split_at)

    return Normalizer(
        tickers=tickers,
        means=np.asarray(means),
        stds=np.asarray(stds),
        train_rows=train_rows,
    )


def windows_from_normalizer(
    panels: list[AlignedPanel],
    spec: FeatureSetSpec,
    normalizer: Normalizer,
    lookback: int,
    horizon: int,
) -> tuple[Windows, Windows]:
    """Slide stride-1 windows using previously fitted statistics."""
    if [p.ticker for p in panels] != normalizer.tickers:
        raise ValidationError(
            f"panels {[p.ticker for p in panels]} do not match normalizer tickers {normalizer.tickers}"
        )
    rows, known, days, ends, companies, split_rows = [], [], [], [], [], []
    offset = 0
    for company, panel in enumerate(panels):
        rows.append(normalizer.normalize(company, panel_matrix(panel, spec)))
        known.append(known_future_matrix(panel))
        days += panel.days
        last = np.arange(offset + lookback - 1, offset + len(panel) - horizon)
        ends.append(last)
        companies.append(np.full(len(last), company, dtype=np.int64))
        split_rows.append(np.full(len(last), offset + normalizer.train_rows[company]))
        offset += len(panel)
    ends, split_at = np.concatenate(ends), np.concatenate(split_rows)
    windows = Windows(
        np.concatenate(rows), np.concatenate(known), np.asarray(days, dtype=object),
        ends, np.concatenate(companies), lookback, horizon,
    )
    return windows[ends + horizon < split_at], windows[ends + 1 >= split_at]


def build_windows(
    panels: list[AlignedPanel],
    spec: FeatureSetSpec,
    lookback: int,
    horizon: int,
    split: float = 0.8,
) -> tuple[Windows, Windows, Normalizer]:
    """Stride-1 windows per company, pooled, with a chronological train/test split.

    Train windows have every target row before the split point; test windows
    have every target row at or after it (their lookback may reach into
    history).  split=1.0 puts everything in train.
    """
    normalizer = fit_normalizer(panels, spec, lookback, horizon, split)
    train, test = windows_from_normalizer(panels, spec, normalizer, lookback, horizon)
    return train, test, normalizer
