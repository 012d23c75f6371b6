"""End-to-end orchestration: cross-validation, static train/test evaluation,
and session-by-session semi-supervised adaptive classification."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .classify import BaggingEnsemble, bagging_predict, fit_bagging
from .config import PipelineConfig
from .data_model import SplitSpec, Trial, TrialSet, split
from .errors import ConfigError
from .features import (
    FeatureVector,
    ar_feature,
    csp_feature,
    fisher_scores,
    fit_csp,
    lrp_feature,
    select_channels,
)
from .param_select import grid_search
from .preprocess import (
    bandpass_zero_phase,
    baseline_correct,
    common_average_reference,
    crop,
    lowpass_zero_phase,
)


def combine_features(parts: Sequence[FeatureVector]) -> FeatureVector:
    """Concatenate per-method feature vectors into one combined vector."""
    if not parts:
        raise ValueError("no feature vectors to combine")
    if len(parts) == 1:
        return parts[0]
    return FeatureVector(np.concatenate([p.values for p in parts]), "combined")


def evaluate(predicted: Sequence[int], true: Sequence[int]):
    """Accuracy (percent) and 2x2 confusion counts (rows true -1/+1)."""
    predicted = np.asarray(predicted)
    true = np.asarray(true)
    if predicted.shape != true.shape:
        raise ValueError("predicted and true label lengths differ")
    for arr, name in ((predicted, "predicted"), (true, "true")):
        if not np.all(np.isin(arr, (-1, 1))):
            raise ValueError(f"{name} labels must all be -1 or +1")
    accuracy = 100.0 * float(np.mean(predicted == true))
    confusion = np.zeros((2, 2), dtype=int)
    for t_lab, p_lab in zip(true, predicted):
        confusion[(t_lab + 1) // 2, (p_lab + 1) // 2] += 1
    return accuracy, confusion


class CspExtractor:
    """Band-pass + crop, then log variance-share of fitted spatial filters."""

    def __init__(self, config: PipelineConfig, fs_hz: float):
        missing = [name for name in ("band_hz", "window_s")
                   if getattr(config.preprocess, name) is None]
        if missing:
            raise ConfigError(
                f"method {config.method!r} needs preprocess."
                + " and preprocess.".join(missing)
            )
        self.config = config
        self.fs_hz = fs_hz
        self.model = None

    def _prep(self, trial: Trial) -> Trial:
        cfg = self.config
        if cfg.channels is not None:
            trial = trial.with_data(trial.data[list(cfg.channels)])
        trial = bandpass_zero_phase(trial, self.fs_hz, *cfg.preprocess.band_hz)
        return crop(trial, self.fs_hz, *cfg.preprocess.window_s)

    def fit(self, trials: Sequence[Trial], labels: Sequence[int]):
        prepped = [self._prep(t) for t in trials]
        neg = [t for t, y in zip(prepped, labels) if y == -1]
        pos = [t for t, y in zip(prepped, labels) if y == 1]
        self.model = fit_csp(neg, pos, self.config.m)
        return self

    def transform(self, trial: Trial) -> FeatureVector:
        return csp_feature(self.model, self._prep(trial))


class ArExtractor:
    """CAR + broad band-pass + crop, Fisher channel pick on log band power,
    then concatenated per-channel AR parameters."""

    def __init__(self, config: PipelineConfig, fs_hz: float):
        self.config = config
        self.fs_hz = fs_hz
        self.selected = None

    def _prep(self, trial: Trial) -> Trial:
        cfg = self.config
        trial = common_average_reference(trial)
        trial = bandpass_zero_phase(trial, self.fs_hz, *cfg.ar_band_hz)
        window = cfg.preprocess.window_s
        if window is not None:
            trial = crop(trial, self.fs_hz, *window)
        return trial

    def fit(self, trials: Sequence[Trial], labels: Sequence[int]):
        if self.config.channels is not None:
            self.selected = list(self.config.channels)
            return self
        prepped = [self._prep(t) for t in trials]
        log_power = np.array([np.log(t.data.var(axis=1)) for t in prepped])
        scores = fisher_scores(log_power, labels)
        self.selected = select_channels(scores, min(self.config.n_select, len(scores)))
        return self

    def transform(self, trial: Trial) -> FeatureVector:
        return ar_feature(self._prep(trial), self.selected, self.config.ar_order)


class LrpExtractor:
    """Low-pass + baseline correction, Fisher channel pick on windowed means,
    then the per-channel mean over the feature window."""

    def __init__(self, config: PipelineConfig, fs_hz: float):
        self.config = config
        self.fs_hz = fs_hz
        self.selected = None

    def _prep(self, trial: Trial) -> Trial:
        cfg = self.config
        trial = lowpass_zero_phase(trial, self.fs_hz, cfg.lrp_lowpass_hz)
        return baseline_correct(trial, self.fs_hz, cfg.lrp_baseline_window_s)

    def _all_channel_means(self, trial: Trial) -> np.ndarray:
        prepped = self._prep(trial)
        return lrp_feature(
            prepped, range(prepped.n_channels), self.fs_hz,
            self.config.lrp_feature_window_s,
        ).values

    def fit(self, trials: Sequence[Trial], labels: Sequence[int]):
        if self.config.channels is not None:
            self.selected = list(self.config.channels)
            return self
        means = np.array([self._all_channel_means(t) for t in trials])
        scores = fisher_scores(means, labels)
        self.selected = select_channels(scores, min(self.config.n_select, len(scores)))
        return self

    def transform(self, trial: Trial) -> FeatureVector:
        return lrp_feature(
            self._prep(trial), self.selected, self.fs_hz,
            self.config.lrp_feature_window_s,
        )


class CombinedExtractor:
    """Each method with its own preprocessing chain; features concatenated."""

    def __init__(self, config: PipelineConfig, fs_hz: float):
        self.parts = [
            CspExtractor(config, fs_hz),
            ArExtractor(config, fs_hz),
            LrpExtractor(config, fs_hz),
        ]

    def fit(self, trials, labels):
        for part in self.parts:
            part.fit(trials, labels)
        return self

    def transform(self, trial: Trial) -> FeatureVector:
        return combine_features([p.transform(trial) for p in self.parts])


_EXTRACTORS = {
    "csp": CspExtractor,
    "ar": ArExtractor,
    "lrp": LrpExtractor,
    "combined": CombinedExtractor,
}


def make_extractor(config: PipelineConfig, fs_hz: float):
    return _EXTRACTORS[config.method](config, fs_hz)


def fit_pipeline(train: TrialSet, config: PipelineConfig):
    """Fit feature extractor and bagged classifier on a labeled TrialSet."""
    labels = [t.label for t in train.trials]
    if any(y is None for y in labels):
        raise ValueError("training set contains unlabeled trials")
    extractor = make_extractor(config, train.sampling_rate_hz).fit(train.trials, labels)
    features = [extractor.transform(t) for t in train.trials]
    ensemble = fit_bagging(
        features, labels,
        rounds=config.ensemble.rounds,
        subset_fraction=config.ensemble.subset_fraction,
        seed=config.ensemble.seed,
    )
    return extractor, ensemble


def predict_set(extractor, ensemble: BaggingEnsemble, trial_set: TrialSet) -> np.ndarray:
    return np.array([
        bagging_predict(ensemble, extractor.transform(t)) for t in trial_set
    ])


def _stratified_folds(labels: np.ndarray, folds: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    neg = np.flatnonzero(labels == -1)
    pos = np.flatnonzero(labels == 1)
    if len(neg) < 2 or len(pos) < 2:
        raise ValueError("too few trials per class for cross-validation")
    if folds < 2 or folds > len(labels):
        raise ValueError(f"cannot build {folds} folds from {len(labels)} trials")
    out = [[] for _ in range(folds)]
    for block in (neg, pos):
        for i, idx in enumerate(rng.permutation(block)):
            out[i % folds].append(idx)
    return [np.array(sorted(f)) for f in out if f]


def cross_validate(
    train: TrialSet, config: PipelineConfig, folds: int = 10, seed: int = 0
) -> tuple[float, float]:
    """Stratified k-fold with the full pipeline refit inside every fold."""
    labels = np.array([t.label for t in train.trials])
    if any(y is None for y in train.labels):
        raise ValueError("cross-validation needs a fully labeled set")
    accuracies = []
    for fold in _stratified_folds(labels, folds, seed):
        mask = np.ones(len(train), dtype=bool)
        mask[fold] = False
        fit_set = train.replace_trials([train.trials[i] for i in np.flatnonzero(mask)])
        held = train.replace_trials([train.trials[i] for i in fold])
        extractor, ensemble = fit_pipeline(fit_set, config)
        predicted = predict_set(extractor, ensemble, held)
        accuracy, _ = evaluate(predicted, labels[fold])
        accuracies.append(accuracy)
    return float(np.mean(accuracies)), float(np.std(accuracies))


@dataclass
class EvalReport:
    method: str
    train_accuracy_mean: float | None = None
    train_accuracy_std: float | None = None
    test_accuracy: float | None = None
    per_session: dict[int, float | None] = field(default_factory=dict)
    confusion: list[list[int]] = field(default_factory=lambda: [[0, 0], [0, 0]])
    predicted_labels: list[int] = field(default_factory=list)
    chosen: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "train_accuracy_mean": self.train_accuracy_mean,
            "train_accuracy_std": self.train_accuracy_std,
            "test_accuracy": self.test_accuracy,
            "per_session": {str(k): v for k, v in self.per_session.items()},
            "confusion": self.confusion,
            "predicted_labels": self.predicted_labels,
            "chosen": self.chosen,
        }


def _chosen_entry(phase: str, result) -> dict:
    return {
        "phase": phase,
        "band_hz": list(result.config.preprocess.band_hz),
        "window_s": list(result.config.preprocess.window_s),
        "m": result.config.m,
        "channels": None if result.config.channels is None
        else list(result.config.channels),
        "rho": result.rho,
        "penalty": result.balance_penalty,
    }


def _score_predictions(report: EvalReport, predicted, trials):
    """Fill accuracy fields from whatever true labels are available."""
    report.predicted_labels = [int(p) for p in predicted]
    true = np.array([t.label if t.label is not None else 0 for t in trials])
    labeled = true != 0
    if labeled.any():
        acc, confusion = evaluate(predicted[labeled], true[labeled])
        report.test_accuracy = acc
        report.confusion = confusion.tolist()
    for sid in sorted({t.session_id for t in trials}):
        in_session = np.array([t.session_id == sid for t in trials])
        usable = in_session & labeled
        if usable.any():
            acc, _ = evaluate(predicted[usable], true[usable])
            report.per_session[sid] = acc
        else:
            report.per_session[sid] = None


def _train_cv(report: EvalReport, train: TrialSet, config, folds, seed):
    labels = np.array([t.label for t in train.trials])
    usable_folds = min(folds, int((labels == -1).sum()), int((labels == 1).sum()))
    if usable_folds >= 2:
        mean, std = cross_validate(train, config, usable_folds, seed)
        report.train_accuracy_mean = mean
        report.train_accuracy_std = std


def run_static(
    train: TrialSet,
    test: TrialSet,
    config: PipelineConfig,
    folds: int = 10,
    cv_seed: int = 0,
) -> EvalReport:
    """Optional transductive search, then fit on train and predict test."""
    report = EvalReport(method=config.method)
    if config.search is not None:
        result = grid_search(train, test.without_labels(), config.search, base=config)
        config = result.config
        report.chosen.append(_chosen_entry("static", result))
    _train_cv(report, train, config, folds, cv_seed)
    extractor, ensemble = fit_pipeline(train, config)
    predicted = predict_set(extractor, ensemble, test)
    _score_predictions(report, predicted, test.trials)
    return report


def run_adaptive(
    data: TrialSet,
    initial_train: SplitSpec,
    config: PipelineConfig,
    folds: int = 10,
    cv_seed: int = 0,
) -> EvalReport:
    """Session-by-session semi-supervised classification.

    The initial labeled set (within session 1) classifies the rest of session
    1; each later session is classified after extending the training set with
    all previously predicted trials under their frozen pseudo-labels.
    """
    sessions = data.session_ids
    if len(sessions) < 2:
        raise ValueError("adaptive classification needs >= 2 sessions")
    train0, rest = split(data, initial_train)
    if any(t.session_id != sessions[0] for t in train0.trials):
        raise ValueError("initial training set must lie within the first session")

    report = EvalReport(method=config.method)
    _train_cv(report, train0, config, folds, cv_seed)

    pseudo: list[Trial] = []
    predicted_all: list[int] = []
    target_trials: list[Trial] = []

    def classify_block(train_trials, block: TrialSet, phase: str):
        train_ts = data.replace_trials(train_trials)
        cfg = config
        if config.search is not None:
            result = grid_search(train_ts, block.without_labels(), config.search,
                                 base=config)
            cfg = result.config
            report.chosen.append(_chosen_entry(phase, result))
        extractor, ensemble = fit_pipeline(train_ts, cfg)
        return predict_set(extractor, ensemble, block)

    session1_rest = [t for t in rest.trials if t.session_id == sessions[0]]
    if session1_rest:
        block = data.replace_trials(session1_rest)
        predicted = classify_block(list(train0.trials), block, "session1")
        pseudo.extend(t.with_label(int(p)) for t, p in zip(session1_rest, predicted))
        predicted_all.extend(int(p) for p in predicted)
        target_trials.extend(session1_rest)

    for sid in sessions[1:]:
        block = data.session(sid)
        predicted = classify_block(list(train0.trials) + pseudo, block, f"session{sid}")
        pseudo.extend(t.with_label(int(p)) for t, p in zip(block.trials, predicted))
        predicted_all.extend(int(p) for p in predicted)
        target_trials.extend(block.trials)

    _score_predictions(report, np.array(predicted_all), target_trials)
    return report
