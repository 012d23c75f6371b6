"""End-to-end orchestration: cross-validation, static train/test evaluation,
and session-by-session semi-supervised adaptive classification."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .classify import BaggingEnsemble, bagging_predict_rows, fit_bagging
from .config import PipelineConfig
from .data_model import SplitSpec, TrialSet, split_count, stratified_folds, usable_folds
from .errors import ConfigError, failure, raise_first
from .features import (
    CspModel,
    ar_fits,
    csp_fits,
    fisher_scores,
    moment_log_shares,
    select_channels,
    share_codes,
    trace_normalized,
    trial_moments,
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


class _Part:
    """One feature chain, in two steps. `prepare` runs the chain once over a
    (n_trials, n_channels, n_samples) array and keeps per trial what any fit
    needs, reading no label.
    `fit_rows(prepared, rows, labels)`, with `labels` indexed by row, and
    `transform_rows(prepared, rows)` then work on row indices of what
    `prepare` returned, so every cross-validation fold, fit and prediction
    shares one preparation."""

    def part_key(self):
        """What `prepare` reads besides the trials and their sampling rate."""
        return type(self), self.chain

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


class CspExtractor(_Part):
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
        self.chain = Chain(channels=config.channels, band_hz=config.preprocess.band_hz,
                           window_s=config.preprocess.window_s)

    def prepare(self, trials: np.ndarray):
        """Each band-passed, cropped trial's `trial_moments`, and its X X^T
        divided by its trace, with the traces."""
        moments = preprocess_trials(trials, self.fs_hz, self.chain, trial_moments)
        c = moments.shape[-1] - 1
        return moments, trace_normalized(moments[:, :c, :c])

    def fit_rows(self, prepared, rows, labels):
        fit = labels[rows]
        m = self.config.m
        (filters,), (eigenvalues,), codes, (ratio,) = csp_fits(
            *prepared[1], [rows[fit == -1]], [rows[fit == 1]], m)
        raise_first(codes, ratio=ratio, filters=2 * m, channels=filters.shape[1])
        self.model = CspModel(filters=filters, eigenvalues=eigenvalues, m=m)
        return self

    def transform_rows(self, prepared, rows) -> np.ndarray:
        (shares,), (totals,) = moment_log_shares(self.model.filters[None], prepared[0][rows],
                                                 self.model.m)
        raise_first(share_codes(shares, totals))
        return shares[:, None]


class ArExtractor(_Part):
    """CAR + broad band-pass + crop, Fisher channel pick on log band power,
    then concatenated per-channel AR parameters."""

    def __init__(self, config: PipelineConfig, fs_hz: float):
        self.config = config
        self.fs_hz = fs_hz
        self.chain = Chain(car=True, band_hz=config.ar_band_hz,
                           window_s=config.preprocess.window_s)

    def part_key(self):
        return type(self), self.chain, self.config.ar_order

    def prepare(self, trials: np.ndarray):
        """Per trial and channel, the log band power followed by
        [a_1..a_p, sigma^2]: (n_trials, n_channels, p + 2), and each AR fit's
        failure code (n_trials, n_channels). Where a fit fails its parameters
        are NaN, and its failure is raised only if that channel is selected."""
        order = self.config.ar_order
        codes = []

        def fit_block(block):
            n_trials, n_channels, n = block.shape
            if n <= 10 * order:
                raise ConfigError(f"ar_order {order} needs more than {10 * order} samples "
                                  f"per window, got {n}")
            params, failed = ar_fits(block.reshape(-1, n), order)
            codes.append(failed.reshape(n_trials, n_channels))
            with np.errstate(divide="ignore"):  # a dead channel's log power is -inf
                power = np.log(block.var(axis=2))
            return np.concatenate([power[..., None],
                                   params.reshape(n_trials, n_channels, -1)], axis=2)

        table = preprocess_trials(trials, self.fs_hz, self.chain, fit_block)
        return table, np.concatenate(codes)

    def fit_rows(self, prepared, rows, labels):
        return self._pick_channels(prepared[0][rows, :, 0], labels[rows])

    def transform_rows(self, prepared, rows) -> np.ndarray:
        table, codes = prepared
        values = table[rows][:, self.selected, 1:].reshape(len(rows), -1)
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if len(bad):
            for c, code in zip(self.selected, codes[rows[bad[0]], self.selected]):
                if code:
                    raise failure(code, channel=c)
            raise failure(6)  # feature vector contains non-finite values
        return values


class LrpExtractor(_Part):
    """Low-pass + baseline correction, Fisher channel pick on windowed means,
    then the per-channel mean over the feature window."""

    def __init__(self, config: PipelineConfig, fs_hz: float):
        self.config = config
        self.fs_hz = fs_hz
        self.chain = Chain(lowpass_hz=config.lrp_lowpass_hz,
                           baseline_s=config.lrp_baseline_window_s,
                           window_s=config.lrp_feature_window_s)

    def prepare(self, trials: np.ndarray) -> np.ndarray:
        """Each channel's mean over the feature window: (n_trials, n_channels)."""
        return preprocess_trials(trials, self.fs_hz, self.chain, lambda x: x.mean(axis=2))

    def fit_rows(self, prepared, rows, labels):
        return self._pick_channels(prepared[rows], labels[rows])

    def transform_rows(self, prepared, rows) -> np.ndarray:
        values = prepared[np.ix_(rows, self.selected)]
        if not np.isfinite(values).all():
            raise failure(6)  # feature vector contains non-finite values
        return values


# each method's parts, in the order of its feature columns
_PARTS = {
    "csp": (CspExtractor,),
    "ar": (ArExtractor,),
    "lrp": (LrpExtractor,),
    "combined": (CspExtractor, ArExtractor, LrpExtractor),
}


class Extractor:
    """The configured method's features: its parts' columns side by side."""

    def __init__(self, config: PipelineConfig, fs_hz: float):
        self.parts = [part(config, fs_hz) for part in _PARTS[config.method]]

    def prepare(self, trials: np.ndarray, cache: dict | None = None) -> list:
        """Each part's `prepare(trials)`, made once per distinct part:
        `cache`, when given, holds preparations of these same trials by
        `part_key`."""
        cache = {} if cache is None else cache
        for part in self.parts:
            if part.part_key() not in cache:
                cache[part.part_key()] = part.prepare(trials)
        return [cache[part.part_key()] for part in self.parts]

    def fit_rows(self, prepared, rows, labels):
        for part, part_prepared in zip(self.parts, prepared):
            part.fit_rows(part_prepared, rows, labels)
        return self

    def transform_rows(self, prepared, rows) -> np.ndarray:
        return np.hstack([part.transform_rows(part_prepared, rows)
                          for part, part_prepared in zip(self.parts, prepared)])


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
    counts = [int((labels == label).sum()) for label in (-1, 1)]
    if min(counts) < 2:
        raise ValueError("too few trials per class for cross-validation")
    # dealt round-robin, each class fills at most as many folds as it has trials
    most = max(counts)
    if not 2 <= folds <= most:
        raise ValueError(f"folds must be in [2, {most}] (the larger class has {most} "
                         f"labelled trials), got {folds}")
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
    train: TrialSet, config: PipelineConfig, folds: int = 10, seed: int = 0
) -> tuple[float, float]:
    """Stratified k-fold over `train`, which must be fully labelled, with
    the full pipeline refit inside every fold. The trials are prepared once,
    and each fold fits and predicts on its rows."""
    if not train.labels.all():
        raise ValueError("cross-validation needs a fully labeled set")
    fold_list = _cv_folds(train.labels, folds, seed)
    extractor = Extractor(config, train.sampling_rate_hz)
    prepared = extractor.prepare(train.data)
    return _cross_validate(extractor, prepared, train.labels, fold_list, config)


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
                 config: PipelineConfig, cache: dict, folds: int = 0):
    """Fit on rows [0, len(labels)) of `data` under `labels`, then predict
    `test_rows`. `cache` holds the preparations of `data`'s trials by
    `part_key`, so each part is prepared once however many fits share it.
    When each class has two trials or more, and `folds` is 2 or more, the fit
    rows are cross-validated first, in `usable_folds(labels, folds, 0)`.
    Returns the predictions and the cross-validated (mean, std), or None."""
    fold_list = usable_folds(labels, folds, 0)
    extractor = Extractor(config, data.sampling_rate_hz)
    prepared = extractor.prepare(data.data, cache=cache)
    cv = None
    if fold_list:
        cv = _cross_validate(extractor, prepared, labels, fold_list, config)
    ensemble = _fit_rows(extractor, prepared, np.arange(len(labels)), labels, config)
    return bagging_predict_rows(ensemble, extractor.transform_rows(prepared, test_rows)), cv


def _run_blocks(data: TrialSet, k: int, ends: Sequence[int], phases: Sequence[str],
                config: PipelineConfig, cache: dict, folds: int = 10) -> EvalReport:
    """Cross-validate and fit rows [0, k) of `data` under their labels, and
    predict up to `ends[0]`; then fit each later block on every row before
    it, under the labels and the earlier blocks' frozen predictions. With a
    `search`, each block first searches its fit rows against its own rows.
    Every block prepares all of `data` through `cache`, so each chain is
    prepared once per recording however many blocks choose it."""
    report = EvalReport(method=config.method)
    labels = data.labels[:k]
    if not labels.all():
        raise ValueError("training set contains unlabeled trials")
    for end, phase in zip(ends, phases):
        block_config = config
        if config.search is not None:
            result = grid_search(data[:end], labels, config.search, base=config)
            block_config = result.config
            report.chosen.append(_chosen_entry(phase, result))
        predicted, cv = _fit_predict(data, labels, np.arange(len(labels), end),
                                     block_config, cache, folds)
        if cv is not None:
            report.train_accuracy_mean, report.train_accuracy_std = cv
        labels = np.concatenate([labels, predicted])
        folds = 0  # only the first block is cross-validated
    _score_predictions(report, labels[k:], data.labels[k:], data.sessions[k:])
    return report


def run_static(data: TrialSet, split: SplitSpec, config: PipelineConfig,
               folds: int = 10) -> EvalReport:
    """Optional transductive search, then fit on the train trials `split`
    takes off the front of `data` and predict the rest: one `_run_blocks`
    block, so the recording is prepared once per chain."""
    return _run_blocks(data, split_count(data, split), [len(data)], ["static"], config, {},
                       folds)


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
    configs = [replace(config, method=method) for method in methods]  # each checked first
    for method, method_config in zip(methods, configs):
        for fraction in fractions:
            n_train = split_count(data, SplitSpec(fraction, "prefix"))
            report = _run_blocks(data, n_train, [len(data)], ["static"], method_config, cache)
            rows.append({
                "method": method,
                "train_fraction": fraction,
                "n_train": n_train,
                "n_test": len(data) - n_train,
                "test_accuracy": report.test_accuracy,
                "train_accuracy_mean": report.train_accuracy_mean,
            })
    return rows


def run_adaptive(data: TrialSet, initial_train: SplitSpec, config: PipelineConfig,
                 folds: int = 10) -> EvalReport:
    """Session-by-session semi-supervised classification.

    The initial labeled set (within session 1) classifies the rest of session
    1; each later session is classified after extending the training set with
    all previously predicted trials under their frozen pseudo-labels: one
    `_run_blocks` block per session, so with a search the initial set is
    cross-validated under the first block's choice. Without one every block
    fits and predicts rows of one preparation of the recording.
    """
    sessions = data.session_ids
    if len(sessions) < 2:
        raise ValueError("adaptive classification needs >= 2 sessions")
    k = split_count(data, initial_train)
    if (data.sessions[:k] != sessions[0]).any():
        raise ValueError("initial training set must lie within the first session")
    ends = [int(np.searchsorted(data.sessions, sid, side="right")) for sid in sessions]
    phases = [f"session{sid}" for sid in sessions]
    if ends[0] == k:  # the initial set covers all of session 1
        ends, phases = ends[1:], phases[1:]
    return _run_blocks(data, k, ends, phases, config, {}, folds)
