"""Pipeline configuration types and their JSON mapping for the CLI."""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .data_model import _is_int
from .errors import ConfigError
from .features import DEFAULT_AR_ORDER
from .preprocess import PreprocessConfig

METHODS = ("csp", "ar", "lrp", "combined")


@dataclass(frozen=True)
class EnsembleConfig:
    rounds: int = 50
    subset_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError("ensemble rounds must be >= 1")
        if not 0 < self.subset_fraction <= 1:
            raise ConfigError("subset_fraction must be in (0, 1]")


@dataclass(frozen=True)
class SearchSpace:
    """Candidate grid for transductive parameter selection."""

    bands_hz: tuple[tuple[float, float], ...]
    windows_s: tuple[tuple[float, float], ...]
    channel_sets: tuple[tuple[int, ...] | None, ...] = (None,)
    m_values: tuple[int, ...] = (1,)

    def __post_init__(self):
        if not (self.bands_hz and self.windows_s and self.channel_sets and self.m_values):
            raise ConfigError("search space axes must be nonempty")
        for lo, hi in self.bands_hz:
            if not 0 < lo < hi:
                raise ConfigError(f"invalid band candidate ({lo}, {hi})")
        for a, b in self.windows_s:
            if not 0 <= a < b:
                raise ConfigError(f"invalid window candidate ({a}, {b})")
        for m in self.m_values:
            if m < 1:
                raise ConfigError("m candidates must be >= 1")


def default_search_space(trial_duration_s: float) -> SearchSpace:
    """Sliding 2 Hz bands over 8-30 Hz plus the broad 8-35 Hz band, and
    2-4 s windows sliding in 0.5 s steps."""
    bands = [(float(lo), float(lo + 2)) for lo in range(8, 29)]
    bands.append((8.0, 35.0))
    windows = []
    for length in (2.0, 3.0, 4.0):
        start = 0.5
        while start + length <= trial_duration_s + 1e-9:
            windows.append((start, start + length))
            start += 0.5
    if not windows:
        windows = [(0.0, trial_duration_s)]
    return SearchSpace(bands_hz=tuple(bands), windows_s=tuple(windows))


@dataclass(frozen=True)
class PipelineConfig:
    """Every free parameter of the classification pipeline."""

    method: str = "csp"
    preprocess: PreprocessConfig = field(
        default_factory=lambda: PreprocessConfig(
            band_hz=(12.0, 14.0), window_s=(0.5, 4.5)
        )
    )
    m: int = 1
    ar_order: int = DEFAULT_AR_ORDER
    ar_band_hz: tuple[float, float] = (8.0, 35.0)
    lrp_lowpass_hz: float = 1.5
    lrp_baseline_window_s: tuple[float, float] = (0.0, 0.5)
    lrp_feature_window_s: tuple[float, float] = (0.5, 1.5)
    n_select: int = 2
    channels: tuple[int, ...] | None = None
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    search: SearchSpace | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if self.ar_order < 1:
            raise ConfigError("ar_order must be >= 1")
        if self.n_select < 1:
            raise ConfigError("n_select must be >= 1")

    def replace(self, **kwargs) -> "PipelineConfig":
        from dataclasses import replace
        return replace(self, **kwargs)


def json_int(value, name: str) -> int:
    """`value` if it is a JSON integer (a bool is not), else a ConfigError
    naming the field."""
    if not _is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def json_number(value, name: str):
    """`value` if it is a finite JSON number (not a bool), else a ConfigError."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an integer past float range
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return value


def json_pair(value, name: str) -> tuple[float, float]:
    """`value`, a list of two JSON numbers, as floats; else a ConfigError."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{name} must be a pair of numbers, got {value!r}")
    return (float(json_number(value[0], name)), float(json_number(value[1], name)))


def _json_value(value, hint, name: str):
    """`value` read as a field annotated `hint`, else a ConfigError naming
    the field `name`. An annotation with no JSON reading is a TypeError."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType) and len(args) == 2 and args[1] is type(None):
        return None if value is None else _json_value(value, args[0], name)
    if hint is int:
        return json_int(value, name)
    if hint is float:
        return float(json_number(value, name))
    if hint is str:  # only `method`, which PipelineConfig checks
        return value
    if is_dataclass(hint):
        return config_from_dict(hint, value, name, name + ".")
    if origin is tuple and args == (float, float):
        return json_pair(value, name)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        if not isinstance(value, list):
            kind = "list of integers" if args[0] is int else "list"
            raise ConfigError(f"{name} must be a {kind}, got {value!r}")
        return tuple(_json_value(item, args[0], name) for item in value)
    raise TypeError(f"{name}: no JSON reading for a field annotated {hint}")


def config_from_dict(cls, doc, where: str, prefix: str = ""):
    """A `cls` config from the JSON object `doc`, each key read by its
    field's annotation and named `prefix + key` in errors. An absent key,
    or a null variable-length list, takes the field's default."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        hint = hints[f.name]
        if f.name not in doc or (doc[f.name] is None and get_args(hint)[-1:] == (Ellipsis,)):
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{prefix}{f.name} is missing")
        else:
            kwargs[f.name] = _json_value(doc[f.name], hint, prefix + f.name)
    return cls(**kwargs)


def pipeline_config_from_dict(doc: dict) -> PipelineConfig:
    return config_from_dict(PipelineConfig, doc, "config")


def pipeline_config_to_dict(config: PipelineConfig) -> dict:
    return asdict(config)
