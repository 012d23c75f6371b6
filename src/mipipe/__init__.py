"""Small-training-set motor imagery EEG classification pipeline."""

__version__ = "0.1.0"

from .config import (
    EnsembleConfig,
    PipelineConfig,
    SearchSpace,
    default_search_space,
)
from .data_model import (
    SplitSpec,
    Trial,
    TrialSet,
    load_archive,
    save_archive,
)
from .preprocess import PreprocessConfig
from .synthgen import SynthConfig, generate

__all__ = [
    "EnsembleConfig",
    "PipelineConfig",
    "PreprocessConfig",
    "SearchSpace",
    "SplitSpec",
    "SynthConfig",
    "Trial",
    "TrialSet",
    "default_search_space",
    "generate",
    "load_archive",
    "save_archive",
]
