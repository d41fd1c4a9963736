"""Pipeline configuration: JSON file, dotted-flag overrides, validation.

A config file is a JSON object with ``paths``, ``dataset``, ``logit``,
and ``mlp`` sections plus the top-level ``target_mode`` and ``tickers``;
any field can be overridden on the command line with its dotted name,
e.g. ``--mlp.epochs 250``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError

ENV_CONFIG_VAR = "PRICEDIR_CONFIG"

TARGET_DIRECTION = "direction"
TARGET_MEMBERSHIP = "membership"


@dataclass
class PathsConfig:
    membership_dir: str = "data/membership"
    panels_dir: str = "data/panels"
    output_dir: str = "out"


@dataclass
class DatasetConfig:
    price_column: str = "price"
    lag_features: list[str] = field(default_factory=lambda: ["total_return"])
    max_missing_fraction: float = 0.5
    train_fraction: float = 0.8


@dataclass
class LogitConfig:
    alpha: float = 0.05
    tol: float = 1e-8
    max_iter: int = 100

    def validate(self) -> "LogitConfig":
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("logit.alpha must be in (0, 1]")
        if not 0.0 < self.tol < math.inf:
            raise ConfigError("logit.tol must be finite and > 0")
        if self.max_iter < 1:
            raise ConfigError("logit.max_iter must be >= 1")
        return self


@dataclass
class MlpConfig:
    hidden_sizes: list[int] = field(default_factory=lambda: [8])
    epochs: int = 500
    learning_rate: float = 0.1
    batch_size: int = 32
    seed: int = 8451
    threshold: float = 0.5


@dataclass
class PipelineConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    logit: LogitConfig = field(default_factory=LogitConfig)
    mlp: MlpConfig = field(default_factory=MlpConfig)
    target_mode: str = TARGET_DIRECTION
    tickers: Optional[list[str]] = None

    def validate(self) -> "PipelineConfig":
        ds = self.dataset
        if not 0.0 < ds.train_fraction < 1.0:
            raise ConfigError("dataset.train_fraction must be in (0, 1)")
        if not 0.0 <= ds.max_missing_fraction <= 1.0:
            raise ConfigError("dataset.max_missing_fraction must be in [0, 1]")
        self.logit.validate()
        mlp = self.mlp
        if not 0.0 < mlp.threshold < 1.0:
            raise ConfigError("mlp.threshold must be in (0, 1)")
        if mlp.epochs < 1 or mlp.batch_size < 1 or not 0.0 <= mlp.learning_rate < math.inf:
            raise ConfigError(
                "mlp.epochs/batch_size must be >= 1, learning_rate finite and >= 0"
            )
        if any(h < 1 for h in mlp.hidden_sizes):
            raise ConfigError("mlp.hidden_sizes must all be >= 1")
        if self.target_mode not in (TARGET_DIRECTION, TARGET_MEMBERSHIP):
            raise ConfigError(
                f"target_mode must be '{TARGET_DIRECTION}' or '{TARGET_MEMBERSHIP}'"
            )
        paths = [self.paths.membership_dir, self.paths.panels_dir, self.paths.output_dir]
        if len({str(Path(p)) for p in paths}) != len(paths):
            raise ConfigError("membership_dir, panels_dir, output_dir must be distinct")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_SECTIONS = {
    "paths": PathsConfig,
    "dataset": DatasetConfig,
    "logit": LogitConfig,
    "mlp": MlpConfig,
}
# Fields of PipelineConfig itself rather than of a section.
TOP_LEVEL_FIELDS = ("target_mode", "tickers")


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a field annotation; an int fits a float field."""
    if dataclasses.is_dataclass(hint):
        return isinstance(value, dict)
    if typing.get_origin(hint) is typing.Union:
        return any(_has_type(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _check_fields(cls, values: dict, prefix: str = "") -> None:
    """Reject keys that are not fields of ``cls`` and values of the wrong type."""
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(values) - set(hints))
    if unknown:
        raise ConfigError(f"unknown config keys {[prefix + k for k in unknown]}")
    for name, value in values.items():
        if not _has_type(value, hints[name]):
            declared = cls.__annotations__[name]
            raise ConfigError(
                f"config field {prefix + name!r} must be {declared}, got {value!r}"
            )


def config_from_dict(data: dict) -> PipelineConfig:
    """Build a config from a JSON-style dict, rejecting unknown keys and wrong types."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _check_fields(PipelineConfig, data)
    kwargs = dict(data)
    for key, cls in _SECTIONS.items():
        if key in kwargs:
            _check_fields(cls, kwargs[key], f"{key}.")
            kwargs[key] = cls(**kwargs[key])
    return PipelineConfig(**kwargs)


def load_config(path: str | Path) -> PipelineConfig:
    """Load and validate a JSON config file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data).validate()


def parse_flag_value(cls, name: str, text: str):
    """Parse flag text for field ``name`` of config class ``cls``.

    A list is a JSON array or comma-separated items.  The value then gets
    the annotation check that config files get; ValueError if it fails.
    """
    hint = typing.get_type_hints(cls)[name]
    if typing.get_origin(hint) is list:
        if text.startswith("["):
            value = json.loads(text)
        else:
            (item,) = typing.get_args(hint)
            value = [item(v.strip()) for v in text.split(",")]
    elif hint in (int, float):
        value = hint(text)
    else:
        value = text
    if not _has_type(value, hint):
        raise ValueError(f"must be {cls.__annotations__[name]}")
    return value


def apply_overrides(config: PipelineConfig, overrides: dict[str, str]) -> PipelineConfig:
    """Apply ``{"mlp.epochs": "250", ...}`` style dotted overrides in place."""
    for dotted, text in overrides.items():
        section, _, name = dotted.partition(".")
        try:
            if section in _SECTIONS and name in typing.get_type_hints(_SECTIONS[section]):
                value = parse_flag_value(_SECTIONS[section], name, text)
                setattr(getattr(config, section), name, value)
            elif dotted == "tickers":
                config.tickers = [t.strip() for t in text.split(",")]
            elif dotted == "target_mode":
                config.target_mode = text
            else:
                raise ConfigError(f"unknown config field {dotted!r}")
        except ValueError as exc:
            raise ConfigError(f"bad value for {dotted!r}: {text!r} ({exc})") from exc
    return config
