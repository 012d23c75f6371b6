"""Pipeline configuration types and their JSON mapping for the CLI."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

from .data_model import _is_int
from .errors import ConfigError
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
    ar_order: int = 7
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


def _object(doc, where: str, cls) -> dict:
    """`doc`, checked to be a JSON object whose keys are fields of `cls`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")
    return doc


def preprocess_from_dict(doc: dict) -> PreprocessConfig:
    doc = _object(doc, "preprocess", PreprocessConfig)
    band, window = doc.get("band_hz"), doc.get("window_s")  # may be null: unset
    try:
        return PreprocessConfig(
            band_hz=None if band is None else json_pair(band, "band_hz"),
            window_s=None if window is None else json_pair(window, "window_s"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _search_list(doc: dict, name: str, default=None) -> list:
    """The JSON list `doc[name]`, or `default` if it is absent or null."""
    value = default if doc.get(name) is None else doc[name]
    if not isinstance(value, list):
        raise ConfigError(f"search.{name} is missing" if value is None
                          else f"search.{name} must be a list, got {value!r}")
    return value


def search_from_dict(doc: dict) -> SearchSpace:
    doc = _object(doc, "search", SearchSpace)
    return SearchSpace(
        bands_hz=tuple(json_pair(b, "band candidate") for b in _search_list(doc, "bands_hz")),
        windows_s=tuple(json_pair(w, "window candidate") for w in _search_list(doc, "windows_s")),
        channel_sets=tuple(
            None if cs is None else tuple(json_int(c, "search.channel_sets") for c in cs)
            for cs in _search_list(doc, "channel_sets", [None])
        ),
        m_values=tuple(json_int(m, "search.m_values")
                       for m in _search_list(doc, "m_values", [1])),
    )


def pipeline_config_from_dict(doc: dict) -> PipelineConfig:
    """Build a PipelineConfig from parsed JSON, naming the offending field."""
    doc = _object(doc, "config", PipelineConfig)
    try:
        ens = _object(doc.get("ensemble", {}), "ensemble", EnsembleConfig)
        return PipelineConfig(
            method=doc.get("method", "csp"),
            preprocess=preprocess_from_dict(doc.get("preprocess", {
                "band_hz": [12.0, 14.0], "window_s": [0.5, 4.5],
            })),
            m=json_int(doc.get("m", 1), "m"),
            ar_order=json_int(doc.get("ar_order", 7), "ar_order"),
            ar_band_hz=json_pair(doc.get("ar_band_hz", (8.0, 35.0)), "ar_band_hz"),
            lrp_lowpass_hz=float(json_number(doc.get("lrp_lowpass_hz", 1.5), "lrp_lowpass_hz")),
            lrp_baseline_window_s=json_pair(
                doc.get("lrp_baseline_window_s", (0.0, 0.5)), "lrp_baseline_window_s"),
            lrp_feature_window_s=json_pair(
                doc.get("lrp_feature_window_s", (0.5, 1.5)), "lrp_feature_window_s"),
            n_select=json_int(doc.get("n_select", 2), "n_select"),
            channels=None if doc.get("channels") is None
            else tuple(json_int(c, "channels") for c in doc["channels"]),
            ensemble=EnsembleConfig(
                rounds=json_int(ens.get("rounds", 50), "ensemble.rounds"),
                subset_fraction=float(json_number(ens.get("subset_fraction", 0.5),
                                                  "ensemble.subset_fraction")),
                seed=json_int(ens.get("seed", 0), "ensemble.seed"),
            ),
            search=None if doc.get("search") is None else search_from_dict(doc["search"]),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid pipeline config: {exc}") from exc


def pipeline_config_to_dict(config: PipelineConfig) -> dict:
    return asdict(config)
