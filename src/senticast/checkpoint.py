"""Versioned, human-readable model checkpoints with exact float round-trips.

The on-disk format is compact JSON.  Floats are written as Python's
shortest round-trip repr, which reads back to the same double; files
written with 17 significant digits load to the same doubles too.  Writes
go through a temp file and rename, so a failed save never leaves a partial
checkpoint behind.  The feature set is the one column list: the
normalizer's statistics must have one column per feature-set column, and
the model is rebuilt with that many inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ValidationError
from .fileio import write_atomic
from .models import TrainConfig
from .training import build_model
from .windows import FeatureSetSpec, Normalizer

CHECKPOINT_VERSION = 2


@dataclass
class ModelCheckpoint:
    model_type: str
    config: TrainConfig
    feature_spec: FeatureSetSpec
    normalizer: Normalizer
    n_companies: int
    tensors: dict[str, np.ndarray]


def save_checkpoint(
    path: Path | str,
    model,
    config: TrainConfig,
    feature_spec: FeatureSetSpec,
    normalizer: Normalizer,
    n_companies: int,
) -> None:
    tensors = []
    for param in model.parameters():
        if not np.isfinite(param.data).all():
            raise ValidationError(f"refusing to save non-finite tensor {param.name!r}")
        tensors.append(
            {
                "name": param.name,
                "shape": list(param.data.shape),
                "values": param.data.reshape(-1).tolist(),
            }
        )
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "model_type": model.kind,
        "train_config": config.to_dict(),
        "feature_set": {"kind": feature_spec.kind, "embedding_dim": feature_spec.embedding_dim},
        "n_companies": n_companies,
        "normalizer": normalizer.to_dict(),
        "tensors": tensors,
    }
    try:
        text = json.dumps(doc, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"cannot serialize checkpoint: {exc}") from exc
    write_atomic(path, text + "\n")


def load_checkpoint(path: Path | str) -> ModelCheckpoint:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable or truncated checkpoint: {exc}") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version = doc["format_version"]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint format version {version}")
    try:
        config = TrainConfig.from_dict(doc["train_config"])
        spec = FeatureSetSpec(doc["feature_set"]["kind"], doc["feature_set"]["embedding_dim"])
        for name in ("means", "stds"):
            for i, row in enumerate(doc["normalizer"][name]):
                if len(row) != len(spec.columns):
                    raise CheckpointError(
                        f"normalizer {name} row {i} has {len(row)} values, expected {len(spec.columns)}"
                    )
        normalizer = Normalizer.from_dict(doc["normalizer"])
        n_companies = int(doc["n_companies"])
        model_type = doc["model_type"]
        tensors = {}
        for entry in doc["tensors"]:
            name = entry["name"]
            if name in tensors:
                raise CheckpointError(f"tensor {name!r} appears twice")
            data = np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
            if not np.isfinite(data).all():  # json reads NaN and Infinity
                raise CheckpointError(f"tensor {name!r} holds a non-finite value")
            tensors[name] = data
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint: {exc}") from exc
    _check_normalizer(path, normalizer, len(spec.columns))
    return ModelCheckpoint(
        model_type=model_type,
        config=config,
        feature_spec=spec,
        normalizer=normalizer,
        n_companies=n_companies,
        tensors=tensors,
    )


def _check_normalizer(path: Path, normalizer: Normalizer, n_columns: int) -> None:
    """Statistics that de-normalize every forecast: one finite row per ticker, positive stds."""
    shape = (len(normalizer.tickers), n_columns)
    for name in ("means", "stds"):
        values = getattr(normalizer, name)
        if values.shape != shape:
            raise CheckpointError(
                f"{path}: normalizer {name} is shaped {values.shape}; tickers and feature set imply {shape}"
            )
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: normalizer {name} holds a non-finite value")
    if not (normalizer.stds > 0).all():
        raise CheckpointError(f"{path}: normalizer stds holds a value <= 0")
    rows = normalizer.train_rows
    if len(rows) != shape[0] or any(r < 1 for r in rows):
        raise CheckpointError(f"{path}: normalizer train_rows {rows} is not one positive count per ticker")


def restore_model(checkpoint: ModelCheckpoint):
    """Rebuild the model skeleton from config and load its tensors exactly."""
    rng = np.random.default_rng(0)  # shapes only; values are overwritten
    model = build_model(
        checkpoint.model_type, checkpoint.config, len(checkpoint.feature_spec.columns), checkpoint.n_companies, rng
    )
    params = {p.name: p for p in model.parameters()}
    if set(params) != set(checkpoint.tensors):
        missing = sorted(set(params) ^ set(checkpoint.tensors))
        raise CheckpointError(f"checkpoint tensors do not match model structure: {missing}")
    for name, param in params.items():
        data = checkpoint.tensors[name]
        if data.shape != param.data.shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {data.shape}, config implies {param.data.shape}"
            )
        param.data = data.copy()
    return model
