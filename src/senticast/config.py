"""Run configuration: flat key-value files with dotted sections, plus overrides.

`SETTINGS` is the one table of settings.  It is derived from the fields of
`RunConfig` and `TrainConfig` and their type hints; each entry gives the
config-file key, the name shared by the CLI flag and `--set` (if the setting
has one), and the type.  A value from any of the three sources goes through
the same parse, so a malformed value raises `ConfigError` naming its key.
"""

from __future__ import annotations

import re
import types
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

from .errors import ConfigError, ParseError
from .models import TrainConfig
from .training import LOSSES, MODEL_KINDS
from .windows import FEATURE_SET_KINDS


@dataclass
class RunConfig:
    ohlcv_dir: Path
    tweets_file: Path
    output_dir: Path
    tickers: list[str]
    embeddings_file: Path | None = None
    holidays_file: Path | None = None
    feature_set: str = "HLOVS"
    smoothing_span: int = 15
    atr_period: int = 14
    split: float = 0.8
    model: str = "tft_lite"
    loss: str = "dmse"
    seed: int = 0
    validation_fraction: float = 0.2
    train: TrainConfig = field(default_factory=TrainConfig)
    grid: dict[str, list] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.feature_set = self.feature_set.upper()

    def validate(self) -> None:
        if not self.tickers:
            raise ConfigError("tickers must be nonempty")
        if len(set(self.tickers)) < len(self.tickers):
            raise ConfigError(f"tickers must be distinct, got {','.join(self.tickers)}")
        if self.feature_set not in FEATURE_SET_KINDS:
            raise ConfigError(f"unknown feature set {self.feature_set!r}")
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if not 0.0 < self.split < 1.0:
            raise ConfigError(f"split must be in (0, 1), got {self.split}")
        if self.smoothing_span < 1 or self.atr_period < 1:
            raise ConfigError("smoothing_span and atr_period must be >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must be in (0, 1)")
        self.train.validate()


@dataclass(frozen=True)
class Setting:
    field: str  # attribute of RunConfig, or of RunConfig.train when `train` is set
    train: bool
    file_key: str
    override: str | None  # flag and --set name; None when only the file sets it
    kind: type  # int, float, bool, str, Path or list[str]

    def parse(self, raw: str, key: str):
        """`raw` converted to this setting's type; `key` names it in the error."""
        if self.kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
        elif self.kind == list[str]:
            return [part.strip().upper() for part in raw.split(",") if part.strip()]
        else:
            try:
                return self.kind(raw)
            except ValueError:
                pass
        raise ConfigError(f"{key}: expected {self.kind.__name__}, got {raw!r}")


# Each RunConfig field's config-file key and its flag/--set name.  Every
# TrainConfig field is read from "train.<name>" and overridden by "<name>",
# except the training seed: it has no override of its own, because the
# run-level "seed" sets it too (see _train_config).
_RUN_KEYS = {
    "ohlcv_dir": ("paths.ohlcv_dir", None),
    "tweets_file": ("paths.tweets", None),
    "output_dir": ("paths.output", "output"),
    "tickers": ("tickers", None),
    "embeddings_file": ("paths.embeddings", None),
    "holidays_file": ("paths.holidays", None),
    "feature_set": ("feature_set", "feature_set"),
    "smoothing_span": ("smoothing_span", "smoothing_span"),
    "atr_period": ("analysis.atr_period", "atr_period"),
    "split": ("split", "split"),
    "model": ("train.model", "model"),
    "loss": ("train.loss", "loss"),
    "seed": ("seed", "seed"),
    "validation_fraction": ("gridsearch.validation_fraction", "validation_fraction"),
}


def _settings() -> tuple[Setting, ...]:
    out = []
    run_hints = get_type_hints(RunConfig)
    for f in fields(RunConfig):
        if f.name in ("train", "grid"):
            continue
        kind = run_hints[f.name]
        if isinstance(kind, types.UnionType):  # Path | None
            kind = next(arg for arg in get_args(kind) if arg is not type(None))
        out.append(Setting(f.name, False, *_RUN_KEYS[f.name], kind))
    train_hints = get_type_hints(TrainConfig)
    for f in fields(TrainConfig):
        override = None if f.name == "seed" else f.name
        out.append(Setting(f.name, True, f"train.{f.name}", override, train_hints[f.name]))
    return tuple(out)


SETTINGS = _settings()
FILE_KEYS = {s.file_key: s for s in SETTINGS}
OVERRIDES = {s.override: s for s in SETTINGS if s.override is not None}


def _train_config(base: TrainConfig, run: dict, train: dict) -> TrainConfig:
    """`base` updated by `train`; a run-level seed also seeds training unless train.seed is set."""
    if "seed" in run:
        train = {"seed": run["seed"], **train}
    return replace(base, **train)


def _grid_values(path: Path, key: str, raw: str) -> list:
    name = key[len("grid.") :]
    setting = FILE_KEYS.get(f"train.{name}")
    if setting is None or not (setting.train or name == "model"):
        raise ConfigError(f"{path}: unknown grid key {name!r}")
    return [setting.parse(part.strip(), f"{path}: {key}") for part in raw.split(",") if part.strip()]


_COMMENT = re.compile(r"(^|\s)#.*")


def read_key_values(path: Path | str) -> dict[str, str]:
    """`key = value` lines and blank lines; a UTF-8 byte-order mark is allowed.

    A `#` at the start of a line or after whitespace starts a comment that
    runs to the end of the line; any other `#` (as in `out#1`) is text.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ParseError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_run_config(path: Path | str) -> RunConfig:
    """Parse a config file; relative paths resolve against its directory."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    run: dict = {}
    train: dict = {}
    grid: dict[str, list] = {}
    for key, raw in read_key_values(path).items():
        if key.startswith("grid."):
            grid[key[len("grid.") :]] = _grid_values(path, key, raw)
            continue
        setting = FILE_KEYS.get(key)
        if setting is None:
            raise ConfigError(f"{path}: unknown key {key!r}")
        value = setting.parse(raw, f"{path}: {key}")
        if setting.kind is Path and not value.is_absolute():
            value = (path.parent / value).resolve()
        (train if setting.train else run)[setting.field] = value

    for f in fields(RunConfig):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in run:
            raise ConfigError(f"{path}: missing required key {_RUN_KEYS[f.name][0]!r}")
    config = RunConfig(**run, train=_train_config(TrainConfig(), run, train), grid=grid)
    config.validate()
    return config


def apply_overrides(config: RunConfig, overrides: dict[str, str | None]) -> RunConfig:
    """Flag and --set overrides keyed by their `OVERRIDES` name; None values are skipped."""
    run: dict = {}
    train: dict = {}
    for key, raw in overrides.items():
        if raw is None:
            continue
        setting = OVERRIDES.get(key)
        if setting is None:
            raise ConfigError(f"unknown override key {key!r}")
        (train if setting.train else run)[setting.field] = setting.parse(str(raw), key)
    config = replace(config, **run, train=_train_config(config.train, run, train))
    config.validate()
    return config
