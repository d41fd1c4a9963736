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
import reprlib
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError, DataError
from .ingest import read_json

ENV_CONFIG_VAR = "PRICEDIR_CONFIG"

TARGET_DIRECTION = "direction"
TARGET_MEMBERSHIP = "membership"

# An error message quotes a refused value by ``_ECHO.repr``: a long string
# or list keeps its two ends and deep nesting is cut, so the line stays short.
_ECHO = reprlib.Repr()
_ECHO.maxstring = _ECHO.maxother = 60


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
        ds, logit, mlp = self.dataset, self.logit, self.mlp
        for dotted, in_range, rule in (
            ("dataset.train_fraction", 0.0 < ds.train_fraction < 1.0, "be in (0, 1)"),
            ("dataset.max_missing_fraction", 0.0 <= ds.max_missing_fraction <= 1.0,
             "be in [0, 1]"),
            ("logit.alpha", 0.0 < logit.alpha <= 1.0, "be in (0, 1]"),
            ("logit.tol", 0.0 < logit.tol < math.inf, "be finite and > 0"),
            ("logit.max_iter", logit.max_iter >= 1, "be >= 1"),
            ("mlp.threshold", 0.0 < mlp.threshold < 1.0, "be in (0, 1)"),
            ("mlp.epochs", mlp.epochs >= 1, "be >= 1"),
            ("mlp.batch_size", mlp.batch_size >= 1, "be >= 1"),
            ("mlp.learning_rate", 0.0 <= mlp.learning_rate < math.inf, "be finite and >= 0"),
            ("mlp.hidden_sizes", all(h >= 1 for h in mlp.hidden_sizes), "all be >= 1"),
        ):
            if not in_range:
                raise ConfigError(f"{dotted} must {rule}")
        if self.target_mode not in (TARGET_DIRECTION, TARGET_MEMBERSHIP):
            raise ConfigError(
                f"target_mode must be '{TARGET_DIRECTION}' or '{TARGET_MEMBERSHIP}'"
            )
        if self.tickers == []:
            raise ConfigError("tickers must name at least one company (null for all)")
        for dotted, names in (
            ("tickers", self.tickers or []),
            ("dataset.lag_features", ds.lag_features),
            ("dataset.price_column", [ds.price_column]),
        ):
            if "" in names or len(set(names)) != len(names):
                raise ConfigError(
                    f"{dotted} must hold distinct non-empty names, got {_ECHO.repr(names)}"
                )
        paths = [self.paths.membership_dir, self.paths.panels_dir, self.paths.output_dir]
        if len({str(Path(p)) for p in paths}) != len(paths):
            raise ConfigError("membership_dir, panels_dir, output_dir must be distinct")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_SECTIONS = {
    name: hint for name, hint in typing.get_type_hints(PipelineConfig).items()
    if dataclasses.is_dataclass(hint)
}
# Every settable field by its dotted name (a flag's and an error's name for
# it), mapped to the dataclass that declares it.
FIELDS = {
    **{f"{key}.{f.name}": cls
       for key, cls in _SECTIONS.items() for f in dataclasses.fields(cls)},
    **{f.name: PipelineConfig
       for f in dataclasses.fields(PipelineConfig) if f.name not in _SECTIONS},
}


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
                f"config field {prefix + name!r} must be {declared}, got {_ECHO.repr(value)}"
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
    try:
        data = read_json(path, "config")
    except DataError as exc:  # a config's faults are the caller's: exit 1, not 2
        raise ConfigError(str(exc)) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path}: root must be a JSON object")
    try:
        return config_from_dict(data).validate()
    except ConfigError as exc:  # an unknown key, a wrong type or a range: name the file
        raise ConfigError(f"config {path}: {exc}") from exc


def parse_flag_value(cls, name: str, text: str):
    """Parse flag text for field ``name`` of config class ``cls``.

    A list is a JSON array or comma-separated items.  The value then gets
    the annotation check that config files get; ValueError if it fails.
    """
    hint = typing.get_type_hints(cls)[name]
    if typing.get_origin(hint) is typing.Union:  # Optional[X]: a flag always gives an X
        (hint,) = [h for h in typing.get_args(hint) if h is not type(None)]
    if typing.get_origin(hint) is list:
        if text.startswith("["):
            value = json.loads(text)
        else:
            (item,) = typing.get_args(hint)
            value = [item(v.strip()) for v in text.split(",")]
    elif hint in (int, float):
        try:
            value = hint(text)
        except ValueError:  # float's own message repeats the whole text
            value = None
    else:
        value = text
    if not _has_type(value, hint):
        raise ValueError(f"must be {cls.__annotations__[name]}")
    return value


def apply_overrides(config: PipelineConfig, overrides: dict[str, str]) -> PipelineConfig:
    """Apply ``{"mlp.epochs": "250", ...}`` style dotted overrides in place."""
    for dotted, text in overrides.items():
        if dotted not in FIELDS:
            raise ConfigError(f"unknown config field {dotted!r}")
        section, _, name = dotted.rpartition(".")
        try:
            value = parse_flag_value(FIELDS[dotted], name, text)
        except (ValueError, RecursionError) as exc:  # a JSON list may nest too deep to parse
            raise ConfigError(f"bad value for {dotted!r}: {_ECHO.repr(text)} ({exc})") from exc
        setattr(getattr(config, section) if section else config, name, value)
    return config
