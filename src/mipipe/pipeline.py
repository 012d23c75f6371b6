"""End-to-end orchestration: cross-validation, static train/test evaluation,
and session-by-session semi-supervised adaptive classification."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .classify import BaggingEnsemble, bagging_predict, fit_bagging
from .config import PipelineConfig
from .data_model import SplitSpec, Trial, TrialSet, split, stratified_folds
from .errors import ConfigError
from .features import (
    FeatureVector,
    check_csp_shares,
    csp_from_trial_covariances,
    csp_log_shares,
    fisher_scores,
    fit_ar,
    select_channels,
)
from .param_select import grid_search
from .preprocess import Chain, preprocess_trials
# not used here: perfbench/selftest.py checks that the tracer rebinds this
# name in pipeline, so it stays importable until that test picks another
from .preprocess import bandpass_zero_phase  # noqa: F401


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


class _Extractor:
    """A feature extractor in two steps. `prepare` runs the method's chains
    over a trial set once and keeps per trial what any fit needs, reading no
    label. `fit_rows(prepared, rows, labels)`, with one label per prepared
    trial, and `transform_rows(prepared, rows)` then work on row indices of
    what `prepare` returned, so every cross-validation fold shares one
    preparation. `fit` and `transform` prepare and use whole trials."""

    method = ""

    def fit(self, trials: Sequence[Trial], labels: Sequence[int]):
        prepared = self.prepare([t.data for t in trials])
        return self.fit_rows(prepared, np.arange(len(trials)), np.asarray(labels))

    def transform(self, trial: Trial) -> FeatureVector:
        values = self.transform_rows(self.prepare([trial.data]), [0])[0]
        return FeatureVector(values, self.method)


class CspExtractor(_Extractor):
    """Band-pass + crop, then log variance-share of fitted spatial filters."""

    method = "csp"

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
        self.chain = Chain(channels=config.channels, band_hz=config.preprocess.band_hz,
                           window_s=config.preprocess.window_s)
        self.model = None

    def prepare(self, trials: Sequence[np.ndarray]):
        """The band-passed, cropped (n_trials, n_channels, n_samples) batch
        and each trial's X X^T."""
        x = preprocess_trials(trials, self.fs_hz, self.chain)
        return x, x @ x.transpose(0, 2, 1)

    def fit_rows(self, prepared, rows, labels):
        _, covs = prepared
        self.model = csp_from_trial_covariances(covs[rows], labels[rows], self.config.m)
        return self

    def transform_rows(self, prepared, rows) -> np.ndarray:
        x, _ = prepared
        # trial by trial, so the projections' temporaries stay one trial big
        shares, totals = np.array([csp_log_shares(self.model, x[i]) for i in rows]).T
        check_csp_shares(shares, totals)
        return shares[:, None]


class ArExtractor(_Extractor):
    """CAR + broad band-pass + crop, Fisher channel pick on log band power,
    then concatenated per-channel AR parameters."""

    method = "ar"

    def __init__(self, config: PipelineConfig, fs_hz: float):
        self.config = config
        self.fs_hz = fs_hz
        self.chain = Chain(car=True, band_hz=config.ar_band_hz,
                           window_s=config.preprocess.window_s)
        self.selected = None

    def prepare(self, trials: Sequence[np.ndarray]):
        """Per trial and channel, the log band power followed by
        [a_1..a_p, sigma^2]: (n_trials, n_channels, p + 2). Where a channel's
        AR fit fails its parameters are NaN, and the error is kept, one dict
        per trial, to be raised only if that channel is selected."""
        order = self.config.ar_order
        errors = []

        def summarise(x):
            row = np.full((len(x), order + 2), np.nan)
            row[:, 0] = np.log(x.var(axis=1))
            failed = {}
            for c, series in enumerate(x):
                try:
                    model = fit_ar(series, order)
                except ValueError as exc:
                    failed[c] = exc
                else:
                    row[c, 1:] = np.r_[model.a, model.noise_variance]
            errors.append(failed)
            return row

        return preprocess_trials(trials, self.fs_hz, self.chain, summarise), errors

    def fit_rows(self, prepared, rows, labels):
        if self.config.channels is not None:
            self.selected = list(self.config.channels)
            return self
        table, _ = prepared
        scores = fisher_scores(table[rows, :, 0], labels[rows])
        self.selected = select_channels(scores, min(self.config.n_select, len(scores)))
        return self

    def transform_rows(self, prepared, rows) -> np.ndarray:
        if not len(self.selected):
            raise ValueError("no channels selected")
        table, errors = prepared
        values = table[rows][:, self.selected, 1:].reshape(len(rows), -1)
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if len(bad):
            failed = errors[rows[bad[0]]]
            for c in self.selected:
                if c in failed:
                    raise ValueError(f"channel {c}: {failed[c]}") from failed[c]
            raise ValueError("feature vector contains non-finite values")
        return values


class LrpExtractor(_Extractor):
    """Low-pass + baseline correction, Fisher channel pick on windowed means,
    then the per-channel mean over the feature window."""

    method = "lrp"

    def __init__(self, config: PipelineConfig, fs_hz: float):
        self.config = config
        self.fs_hz = fs_hz
        self.chain = Chain(lowpass_hz=config.lrp_lowpass_hz,
                           baseline_s=config.lrp_baseline_window_s,
                           window_s=config.lrp_feature_window_s)
        self.selected = None

    def prepare(self, trials: Sequence[np.ndarray]) -> np.ndarray:
        """Each channel's mean over the feature window: (n_trials, n_channels)."""
        return preprocess_trials(trials, self.fs_hz, self.chain,
                                 lambda x: x.mean(axis=1))

    def fit_rows(self, prepared, rows, labels):
        if self.config.channels is not None:
            self.selected = list(self.config.channels)
            return self
        scores = fisher_scores(prepared[rows], labels[rows])
        self.selected = select_channels(scores, min(self.config.n_select, len(scores)))
        return self

    def transform_rows(self, prepared, rows) -> np.ndarray:
        if not len(self.selected):
            raise ValueError("no channels selected")
        return prepared[np.ix_(rows, self.selected)]


class CombinedExtractor(_Extractor):
    """Each method with its own preprocessing chain; features concatenated."""

    method = "combined"

    def __init__(self, config: PipelineConfig, fs_hz: float):
        self.parts = [
            CspExtractor(config, fs_hz),
            ArExtractor(config, fs_hz),
            LrpExtractor(config, fs_hz),
        ]

    def prepare(self, trials: Sequence[np.ndarray]) -> list:
        return [part.prepare(trials) for part in self.parts]

    def fit_rows(self, prepared, rows, labels):
        for part, part_prepared in zip(self.parts, prepared):
            part.fit_rows(part_prepared, rows, labels)
        return self

    def transform_rows(self, prepared, rows) -> np.ndarray:
        return np.hstack([part.transform_rows(part_prepared, rows)
                          for part, part_prepared in zip(self.parts, prepared)])

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


def _labels(trial_set: TrialSet, message: str) -> np.ndarray:
    labels = trial_set.labels
    if any(y is None for y in labels):
        raise ValueError(message)
    return np.array(labels)


def _prepare(extractor, trial_set: TrialSet):
    return extractor.prepare([t.data for t in trial_set.trials])


def _fit_rows(extractor, prepared, rows, labels, config: PipelineConfig) -> BaggingEnsemble:
    """Fit `extractor`, then the bagged classifier, on the prepared `rows`."""
    extractor.fit_rows(prepared, rows, labels)
    return fit_bagging(
        extractor.transform_rows(prepared, rows), labels[rows],
        rounds=config.ensemble.rounds,
        subset_fraction=config.ensemble.subset_fraction,
        seed=config.ensemble.seed,
    )


def fit_pipeline(train: TrialSet, config: PipelineConfig):
    """Fit feature extractor and bagged classifier on a labeled TrialSet."""
    labels = _labels(train, "training set contains unlabeled trials")
    extractor = make_extractor(config, train.sampling_rate_hz)
    prepared = _prepare(extractor, train)
    return extractor, _fit_rows(extractor, prepared, np.arange(len(train)), labels, config)


def predict_set(extractor, ensemble: BaggingEnsemble, trial_set: TrialSet) -> np.ndarray:
    """Predictions for each trial, each prepared on its own as it comes."""
    return np.array([
        bagging_predict(ensemble, extractor.transform(t)) for t in trial_set
    ])


def _cv_folds(labels: np.ndarray, folds: int, seed: int) -> list[np.ndarray]:
    if (labels == -1).sum() < 2 or (labels == 1).sum() < 2:
        raise ValueError("too few trials per class for cross-validation")
    if folds < 2 or folds > len(labels):
        raise ValueError(f"cannot build {folds} folds from {len(labels)} trials")
    return stratified_folds(labels, folds, seed)


def _cross_validate(extractor, prepared, labels, fold_list, config) -> tuple[float, float]:
    accuracies = []
    for fold in fold_list:
        mask = np.ones(len(labels), dtype=bool)
        mask[fold] = False
        ensemble = _fit_rows(extractor, prepared, np.flatnonzero(mask), labels, config)
        features = extractor.transform_rows(prepared, fold)
        predicted = np.array([bagging_predict(ensemble, f) for f in features])
        accuracy, _ = evaluate(predicted, labels[fold])
        accuracies.append(accuracy)
    return float(np.mean(accuracies)), float(np.std(accuracies))


def cross_validate(
    train: TrialSet, config: PipelineConfig, folds: int = 10, seed: int = 0
) -> tuple[float, float]:
    """Stratified k-fold with the full pipeline refit inside every fold. The
    set is prepared once, and each fold fits and predicts on its rows."""
    labels = _labels(train, "cross-validation needs a fully labeled set")
    fold_list = _cv_folds(labels, folds, seed)
    extractor = make_extractor(config, train.sampling_rate_hz)
    return _cross_validate(extractor, _prepare(extractor, train), labels, fold_list, config)


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


def _usable_folds(train: TrialSet, folds: int) -> int:
    labels = np.array(train.labels)
    return min(folds, int((labels == -1).sum()), int((labels == 1).sum()))


def _train_cv(report: EvalReport, train: TrialSet, config, folds, seed):
    usable_folds = _usable_folds(train, folds)
    if usable_folds >= 2:
        mean, std = cross_validate(train, config, usable_folds, seed)
        report.train_accuracy_mean = mean
        report.train_accuracy_std = std


def _fit_with_cv(report: EvalReport, train: TrialSet, config, folds, seed):
    """Prepare the train set once; cross-validate on it when each class has
    two trials or more, as `_train_cv` does, then fit on all of it."""
    usable_folds = _usable_folds(train, folds)
    fold_list = []
    if usable_folds >= 2:
        labels = _labels(train, "cross-validation needs a fully labeled set")
        fold_list = _cv_folds(labels, usable_folds, seed)
    else:
        labels = _labels(train, "training set contains unlabeled trials")
    extractor = make_extractor(config, train.sampling_rate_hz)
    prepared = _prepare(extractor, train)
    if fold_list:
        report.train_accuracy_mean, report.train_accuracy_std = _cross_validate(
            extractor, prepared, labels, fold_list, config
        )
    return extractor, _fit_rows(extractor, prepared, np.arange(len(train)), labels, config)


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
    extractor, ensemble = _fit_with_cv(report, train, config, folds, cv_seed)
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
