"""End-to-end orchestration: cross-validation, static train/test evaluation,
and session-by-session semi-supervised adaptive classification."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .classify import BaggingEnsemble, bagging_predict_rows, fit_bagging
from .config import PipelineConfig
from .data_model import SplitSpec, TrialSet, join, split_count, stratified_folds, usable_folds
from .errors import ConfigError
from .features import (
    CspModel,
    check_csp_shares,
    csp_fits,
    fisher_scores,
    fit_ar,
    projection_log_shares,
    select_channels,
    trace_normalized,
)
from .param_select import grid_search
from .preprocess import Chain, preprocess_trials
# not used here: perfbench/selftest.py checks that the tracer rebinds this
# name in pipeline, so it stays importable until that test picks another
from .preprocess import bandpass_zero_phase  # noqa: F401


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
    once over a (n_trials, n_channels, n_samples) array, or over its `rows`
    when given, and keeps per trial what any fit needs, reading no label.
    `fit_rows(prepared, rows, labels)`, with `labels` indexed by row, and
    `transform_rows(prepared, rows)` then work on row indices of what
    `prepare` returned, so every cross-validation fold, fit and prediction
    shares one preparation."""

    method = ""

    def part_key(self):
        """What `prepare` reads besides the trials and their sampling rate."""
        return type(self), self.chain

    def prepare_shared(self, trials: np.ndarray, cache: dict):
        """`prepare(trials)`, made once per distinct part: `cache` holds the
        preparations of this one array of trials by `part_key`."""
        key = self.part_key()
        if key not in cache:
            cache[key] = self.prepare(trials)
        return cache[key]

    def _pick_channels(self, values: np.ndarray, labels: np.ndarray):
        """Select the configured channels, else the n_select channels of
        `values` (trials x channels) with the best Fisher scores."""
        if self.config.channels is not None:
            self.selected = list(self.config.channels)
        else:
            scores = fisher_scores(values, labels)
            self.selected = select_channels(scores, self.config.n_select)
        if not self.selected:
            raise ValueError("no channels selected")
        return self


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

    def prepare(self, trials: np.ndarray, rows=None):
        """The band-passed, cropped (n_trials, n_channels, n_samples) batch,
        and each trial's X X^T divided by its trace, with the traces."""
        x = preprocess_trials(trials, self.fs_hz, self.chain, rows=rows)
        return x, trace_normalized(x @ x.transpose(0, 2, 1))

    def fit_rows(self, prepared, rows, labels):
        fit = labels[rows]
        filters, eigenvalues = csp_fits(*prepared[1], [rows[fit == -1]], [rows[fit == 1]],
                                        self.config.m)
        self.model = CspModel(filters=filters[0], eigenvalues=eigenvalues[0], m=self.config.m)
        return self

    def transform_rows(self, prepared, rows) -> np.ndarray:
        x, _ = prepared
        # trial by trial, so the projections' temporaries stay one trial big
        filters, m = self.model.filters, self.model.m
        shares, totals = np.array([projection_log_shares(filters @ x[i], m) for i in rows]).T
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

    def part_key(self):
        return type(self), self.chain, self.config.ar_order

    def prepare(self, trials: np.ndarray, rows=None):
        """Per trial and channel, the log band power followed by
        [a_1..a_p, sigma^2]: (n_trials, n_channels, p + 2). Where a channel's
        AR fit fails its parameters are NaN, and the error is kept, one dict
        per trial, to be raised only if that channel is selected."""
        order = self.config.ar_order
        errors = []

        def summarise(x):
            if x.shape[1] <= 10 * order:  # fit_ar's bound, before the table is made
                raise ConfigError(f"ar_order {order} needs more than {10 * order} samples "
                                  f"per window, got {x.shape[1]}")
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

        return preprocess_trials(trials, self.fs_hz, self.chain, summarise, rows), errors

    def fit_rows(self, prepared, rows, labels):
        return self._pick_channels(prepared[0][rows, :, 0], labels[rows])

    def transform_rows(self, prepared, rows) -> np.ndarray:
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

    def prepare(self, trials: np.ndarray, rows=None) -> np.ndarray:
        """Each channel's mean over the feature window: (n_trials, n_channels)."""
        return preprocess_trials(trials, self.fs_hz, self.chain,
                                 lambda x: x.mean(axis=1), rows)

    def fit_rows(self, prepared, rows, labels):
        return self._pick_channels(prepared[rows], labels[rows])

    def transform_rows(self, prepared, rows) -> np.ndarray:
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

    def prepare(self, trials: np.ndarray, rows=None) -> list:
        return [part.prepare(trials, rows) for part in self.parts]

    def prepare_shared(self, trials: np.ndarray, cache: dict) -> list:
        return [part.prepare_shared(trials, cache) for part in self.parts]

    def fit_rows(self, prepared, rows, labels):
        for part, part_prepared in zip(self.parts, prepared):
            part.fit_rows(part_prepared, rows, labels)
        return self

    def transform_rows(self, prepared, rows) -> np.ndarray:
        return np.hstack([part.transform_rows(part_prepared, rows)
                          for part, part_prepared in zip(self.parts, prepared)])


_EXTRACTORS = {
    "csp": CspExtractor,
    "ar": ArExtractor,
    "lrp": LrpExtractor,
    "combined": CombinedExtractor,
}


def make_extractor(config: PipelineConfig, fs_hz: float):
    return _EXTRACTORS[config.method](config, fs_hz)


def _fit_rows(extractor, prepared, rows, labels, config: PipelineConfig) -> BaggingEnsemble:
    """Fit `extractor`, then the bagged classifier, on the prepared `rows`."""
    extractor.fit_rows(prepared, rows, labels)
    return fit_bagging(
        extractor.transform_rows(prepared, rows), labels[rows],
        rounds=config.ensemble.rounds,
        subset_fraction=config.ensemble.subset_fraction,
        seed=config.ensemble.seed,
    )


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
        predicted = bagging_predict_rows(ensemble, extractor.transform_rows(prepared, fold))
        accuracy, _ = evaluate(predicted, labels[fold])
        accuracies.append(accuracy)
    return float(np.mean(accuracies)), float(np.std(accuracies))


def cross_validate(
    train: TrialSet, config: PipelineConfig, folds: int = 10, seed: int = 0, rows=None
) -> tuple[float, float]:
    """Stratified k-fold over `rows` of `train` (all of them by default),
    which must be labelled, with the full pipeline refit inside every fold.
    Those rows are prepared once, and each fold fits and predicts on its
    rows."""
    labels = train.labels if rows is None else train.labels[rows]
    if not labels.all():
        raise ValueError("cross-validation needs a fully labeled set")
    fold_list = _cv_folds(labels, folds, seed)
    extractor = make_extractor(config, train.sampling_rate_hz)
    prepared = extractor.prepare(train.data, rows)
    return _cross_validate(extractor, prepared, labels, fold_list, config)


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
        return asdict(self) | {"per_session": {str(k): v for k, v in self.per_session.items()}}


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


def _score_predictions(report: EvalReport, predicted, true, sessions):
    """Fill accuracy fields from whatever true labels are available: `true`
    holds 0 for a trial with none, `sessions` each trial's session id."""
    report.predicted_labels = [int(p) for p in predicted]
    labeled = true != 0
    if labeled.any():
        acc, confusion = evaluate(predicted[labeled], true[labeled])
        report.test_accuracy = acc
        report.confusion = confusion.tolist()
    for sid in sorted(set(sessions.tolist())):
        usable = (sessions == sid) & labeled
        if usable.any():
            acc, _ = evaluate(predicted[usable], true[usable])
            report.per_session[sid] = acc
        else:
            report.per_session[sid] = None


def _fit_predict(data: TrialSet, labels: np.ndarray, test_rows: np.ndarray,
                 config: PipelineConfig, cache: dict, folds: int = 0, cv_seed: int = 0):
    """Fit on rows [0, len(labels)) of `data` under `labels`, then predict
    `test_rows`. `cache` holds the preparations of `data`'s trials by
    `part_key`, so each part is prepared once however many fits share it.
    When each class has two trials or more, and `folds` is 2 or more, the fit
    rows are cross-validated first. Returns the predictions and the
    cross-validated (mean, std), or None."""
    fold_list = usable_folds(labels, folds, cv_seed)
    extractor = make_extractor(config, data.sampling_rate_hz)
    prepared = extractor.prepare_shared(data.data, cache)
    cv = None
    if fold_list:
        cv = _cross_validate(extractor, prepared, labels, fold_list, config)
    ensemble = _fit_rows(extractor, prepared, np.arange(len(labels)), labels, config)
    if not len(test_rows):  # an extractor transforms one row or more
        return np.array([], dtype=int), cv
    return bagging_predict_rows(ensemble, extractor.transform_rows(prepared, test_rows)), cv


def run_static(
    train: TrialSet,
    test: TrialSet,
    config: PipelineConfig,
    folds: int = 10,
    cv_seed: int = 0,
) -> EvalReport:
    """Optional transductive search, then fit on train and predict test.
    Train and test trials are joined (see `join`: the halves of a `split`
    are not copied) and prepared together, once per chain."""
    return _run_static(join(train, test), len(train), config, {}, folds, cv_seed)


def _run_static(data, n_train, config, cache, folds=10, cv_seed=0) -> EvalReport:
    """`run_static` with rows [0, n_train) of `data` for train and the rest
    for test, preparing through `cache` (see `_fit_predict`)."""
    report = EvalReport(method=config.method)
    labels = data.labels[:n_train]
    if config.search is not None:
        result = grid_search(data[:n_train], data[n_train:].without_labels(), config.search,
                             base=config)
        config = result.config
        report.chosen.append(_chosen_entry("static", result))
    if not labels.all():
        raise ValueError("training set contains unlabeled trials")
    predicted, cv = _fit_predict(data, labels, np.arange(n_train, len(data)),
                                 config, cache, folds, cv_seed)
    if cv is not None:
        report.train_accuracy_mean, report.train_accuracy_std = cv
    _score_predictions(report, predicted, data.labels[n_train:], data.sessions[n_train:])
    return report


def sweep_fractions(
    data: TrialSet,
    config: PipelineConfig,
    methods: Sequence[str],
    fractions: Sequence[float],
) -> list[dict]:
    """The fig1 table: `run_static` on the prefix split at each training
    fraction, for each method, one row per pair. Every split is rows of the
    one recording, so each distinct part (`part_key`) is prepared once over
    it and shared by all methods and fractions; a searched chain is prepared
    when a split first chooses it."""
    cache: dict = {}
    rows = []
    for method in methods:
        method_config = config.replace(method=method)
        for fraction in fractions:
            n_train = split_count(data, SplitSpec(fraction, "prefix"))
            report = _run_static(data, n_train, method_config, cache)
            rows.append({
                "method": method,
                "train_fraction": fraction,
                "n_train": n_train,
                "n_test": len(data) - n_train,
                "test_accuracy": report.test_accuracy,
                "train_accuracy_mean": report.train_accuracy_mean,
            })
    return rows


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
    all previously predicted trials under their frozen pseudo-labels. The
    training set and every block are a prefix of the recording in order, so
    without a search every block fits and predicts rows of one preparation of
    the recording; with one, each block's chosen chain is prepared over the
    rows up to the block's end.
    """
    sessions = data.session_ids
    if len(sessions) < 2:
        raise ValueError("adaptive classification needs >= 2 sessions")
    k = split_count(data, initial_train)
    if (data.sessions[:k] != sessions[0]).any():
        raise ValueError("initial training set must lie within the first session")

    report = EvalReport(method=config.method)
    labels = data.labels[:k]
    n_folds = len(usable_folds(labels, folds))
    if n_folds >= 2:
        report.train_accuracy_mean, report.train_accuracy_std = cross_validate(
            data[:k], config, n_folds, cv_seed)
    if not labels.all():
        raise ValueError("training set contains unlabeled trials")
    cache: dict = {}
    for sid in sessions:
        # each block runs to the end of its session; the first is the rest
        # of the first session, skipped when the initial set covers all of it
        end = int(np.searchsorted(data.sessions, sid, side="right"))
        if end == len(labels):
            continue
        rows = np.arange(len(labels), end)
        cfg, fit_data, fit_cache = config, data, cache
        if config.search is not None:
            # the rows so far under their labels and pseudo-labels, then the block
            train = replace(data[:len(labels)], labels=labels)
            result = grid_search(train, data[len(labels):end].without_labels(),
                                 config.search, base=config)
            cfg = result.config
            report.chosen.append(_chosen_entry(f"session{sid}", result))
            fit_data, fit_cache = data[:end], {}
        predicted, _ = _fit_predict(fit_data, labels, rows, cfg, fit_cache)
        labels = np.concatenate([labels, predicted])

    _score_predictions(report, labels[k:], data.labels[k:], data.sessions[k:])
    return report
