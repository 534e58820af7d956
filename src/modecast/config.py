"""Experiment configuration: nested dataclasses, YAML loading, dotted overrides.

A single structured file drives every command.  Command-line overrides use
dotted paths (``vmd.alpha=500``) and must reference keys that already exist;
values are coerced to the type of the default they replace.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import yaml

from .forecaster import ForecasterConfig
from .vmd import VmdConfig

__all__ = [
    "DataConfig",
    "AswlConfig",
    "SplitConfig",
    "TrainingConfig",
    "BaselineConfig",
    "BacktestConfig",
    "ExperimentConfig",
    "load_config",
    "apply_overrides",
]


class ConfigError(ValueError):
    """Bad configuration file or override."""


# annotations whose keys take exactly these types; every module that defines
# a section postpones annotations, so a field's type is its annotation string
_INTEGER = ((int,), "an integer")
_BOOLEAN = ((bool,), "true or false")
_NUMBER = ((int, float), "a number")
_EXACT_KINDS = {"int": _INTEGER, "bool": _BOOLEAN, "float": _NUMBER}


@dataclass(frozen=True)
class DataConfig:
    path: str | None = None
    column: str = "close"
    date_column: str = "date"
    generator: dict | None = None   # e.g. {"name": "trend_two_tone", "n": 3000, "seed": 7}

    def __post_init__(self) -> None:
        if (self.path is None) == (self.generator is None):
            raise ConfigError("data: set exactly one of 'path' or 'generator'")


@dataclass(frozen=True)
class AswlConfig:
    enabled: bool = True
    train_theta: bool = True
    init: str = "ranges"   # ranges | uniform

    def __post_init__(self) -> None:
        if self.init not in ("ranges", "uniform"):
            raise ConfigError(f"aswl.init must be 'ranges' or 'uniform', got {self.init!r}")


@dataclass(frozen=True)
class SplitConfig:
    n_periods: int = 5
    train_fraction: float = 0.8

    def __post_init__(self) -> None:
        if self.n_periods < 1:
            raise ConfigError("split.n_periods must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("split.train_fraction must lie strictly between 0 and 1")


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.001
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("training.epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("training.batch_size must be >= 1")
        if not self.learning_rate >= 0.0:   # also rejects NaN
            raise ConfigError("training.learning_rate must be >= 0")
        if not self.seeds or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in self.seeds
        ):
            raise ConfigError("training.seeds must be a nonempty list of integers")


@dataclass(frozen=True)
class BaselineConfig:
    names: tuple[str, ...] = ("naive", "linear_ar")
    ar_order: int = 8

    def __post_init__(self) -> None:
        for name in self.names:
            if name not in ("naive", "linear_ar"):
                raise ConfigError(f"unknown baseline {name!r}")
        if self.ar_order < 1:
            raise ConfigError("baselines.ar_order must be >= 1")


@dataclass(frozen=True)
class BacktestConfig:
    strict_causal: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("backtest.workers must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig
    vmd: VmdConfig = field(default_factory=lambda: VmdConfig(n_modes=10))
    model: ForecasterConfig = field(default_factory=ForecasterConfig)
    aswl: AswlConfig = field(default_factory=AswlConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    baselines: BaselineConfig = field(default_factory=BaselineConfig)
    backtest: BacktestConfig = field(default_factory=BacktestConfig)

    def to_dict(self) -> dict:
        """Plain nested dict; tuples become lists, so it round-trips through
        YAML and JSON."""
        return {
            f.name: {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in asdict(getattr(self, f.name)).items()
            }
            for f in fields(self)
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build from a nested dict.  Missing sections and keys take the
        section dataclasses' defaults; lists become tuples."""
        sections = {f.name: f for f in fields(cls)}
        unknown = set(raw) - set(sections)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        if "data" not in raw:
            raise ConfigError("config must have a 'data' section")
        types = get_type_hints(cls)
        built = {}
        for name, f in sections.items():
            given = raw.get(name) or {}
            if not isinstance(given, dict):
                raise ConfigError(f"section '{name}' must be a mapping")
            # each field's annotation string, such as "int"
            annotations = {g.name: g.type for g in fields(types[name])}
            extra = set(given) - set(annotations)
            if extra:
                raise ConfigError(f"unknown keys in '{name}': {sorted(extra)}")
            given = {k: tuple(v) if isinstance(v, list) else v for k, v in given.items()}
            # an int key takes an int (not a bool), a bool key a bool, and a
            # float key an int or a float: a float such as 3.0 would load,
            # then fail every cell at run time, a quoted "false" would load
            # as a true string, and YAML reads 1e-3 (no dot) as a string.  A
            # float key keeps its value as a float, so 2000 and 2000.0 save
            # (and hash) alike
            for key, value in given.items():
                kind = _EXACT_KINDS.get(annotations[key])
                if kind is not None and type(value) not in kind[0]:
                    raise ConfigError(f"{name}.{key} must be {kind[1]}, got {value!r}")
                if kind is _NUMBER:
                    try:
                        given[key] = float(value)
                    except OverflowError:
                        raise ConfigError(f"{name}.{key} is too large for a float") from None
            try:
                if f.default_factory is MISSING:
                    built[name] = types[name](**given)
                else:
                    built[name] = replace(f.default_factory(), **given)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad '{name}' section: {exc}") from exc
        return cls(**built)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    raw = yaml.safe_load(path.read_text())
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return ExperimentConfig.from_dict(raw)


def _coerce(text: str, like) -> object:
    if isinstance(like, bool):
        lowered = text.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean from {text!r}")
    if isinstance(like, int) and not isinstance(like, bool):
        return int(text)
    if isinstance(like, float):
        return float(text)
    if isinstance(like, dict):
        value = yaml.safe_load(text)
        if not isinstance(value, dict):
            raise ConfigError(f"expected a mapping such as '{{name: x}}', got {text!r}")
        return value
    if isinstance(like, (list, tuple)) or like is None:
        return yaml.safe_load(text)
    return text


def apply_overrides(config: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply ``section.key=value`` overrides on top of a parsed config."""
    tree = config.to_dict()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        dotted, text = item.split("=", 1)
        keys = dotted.strip().split(".")
        node = tree
        for key in keys[:-1]:
            if not isinstance(node, dict) or key not in node:
                raise ConfigError(f"override {dotted!r}: no such config key")
            node = node[key]
        leaf = keys[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigError(f"override {dotted!r}: no such config key")
        try:
            node[leaf] = _coerce(text, node[leaf])
        except ValueError as exc:   # e.g. int("abc")
            raise ConfigError(f"override {dotted!r}: {exc}") from exc
    return ExperimentConfig.from_dict(tree)
