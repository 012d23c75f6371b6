"""Transductive parameter selection.

Candidates are ranked without test labels: a class-balance gate on the signs
of the test scores, then maximization of the correlation between 40-bin
histograms of train and test classifier outputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .classify import check_hyperplanes, fit_ldas
from .config import PipelineConfig, SearchSpace
from .data_model import TrialSet, usable_folds
from .errors import CriterionUndefinedError
from .features import (
    check_csp_shares,
    csp_fits,
    moment_log_shares,
    trace_normalized,
    trial_moments,
)
from .preprocess import Chain, PreprocessConfig, _window_indices, preprocess_trials

N_BINS = 40
FEASIBILITY_THRESHOLD = 0.15


@dataclass(frozen=True)
class PdfEstimate:
    bin_edges: np.ndarray  # 41 equally spaced edges
    mass: np.ndarray  # 40 nonnegative masses summing to 1

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        mass = np.asarray(self.mass, dtype=float)
        if edges.shape != (N_BINS + 1,) or mass.shape != (N_BINS,):
            raise ValueError("expected 41 edges and 40 masses")
        widths = np.diff(edges)
        if np.any(widths <= 0) or np.ptp(widths) > 1e-9 * widths[0]:
            raise ValueError("bin edges must be strictly increasing, equal width")
        if np.any(mass < 0) or abs(mass.sum() - 1.0) > 1e-12:
            raise ValueError("mass must be nonnegative and sum to 1")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "mass", mass)


def estimate_pdf(scores: Sequence[float], score_range: tuple[float, float]) -> PdfEstimate:
    """40-bin normalized histogram; out-of-range scores clip to the end bins."""
    scores = np.asarray(scores, dtype=float)
    lo, hi = score_range
    if len(scores) == 0:
        raise ValueError("empty scores")
    if not hi > lo:
        raise ValueError(f"degenerate range ({lo}, {hi})")
    edges = np.linspace(lo, hi, N_BINS + 1)
    counts, _ = np.histogram(np.clip(scores, lo, hi), bins=edges)
    return PdfEstimate(bin_edges=edges, mass=counts / counts.sum())


def class_balance_penalty(test_scores: Sequence[float]) -> float:
    """|P(+1) - 0.5| where score 0 counts as +1, as a round votes in
    `bagging_predict_rows`."""
    scores = np.asarray(test_scores, dtype=float)
    if len(scores) == 0:
        raise ValueError("empty scores")
    return abs(float(np.mean(scores >= 0)) - 0.5)


def pdf_correlation(train: PdfEstimate, test: PdfEstimate) -> float:
    """Pearson correlation between the two histograms' bin masses."""
    if not np.allclose(train.bin_edges, test.bin_edges, rtol=0, atol=0):
        raise ValueError("histograms have different bin edges")
    for pdf, name in ((train, "train"), (test, "test")):
        if np.ptp(pdf.mass) == 0:
            raise CriterionUndefinedError(
                f"criterion undefined: {name} histogram is flat"
            )
    return float(np.corrcoef(train.mass, test.mass)[0, 1])


@dataclass(frozen=True)
class SearchResult:
    config: PipelineConfig
    rho: float
    balance_penalty: float
    table: tuple[dict, ...]
    winner_index: int


def _fold_fits(labels: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Each search fold's fit, then the full fit, which holds out no row and
    is scored on the test set, as (rows, class -1 rows, class +1 rows,
    held-out rows); one list serves every candidate of a search."""
    folds = usable_folds(labels, 10)
    if not folds:
        raise ValueError("too few labeled trials per class for cross-validation")
    fits = []
    for fold in folds + [np.array([], dtype=np.intp)]:
        rows = np.setdiff1d(np.arange(len(labels)), fold)
        fits.append((rows, rows[labels[rows] == -1], rows[labels[rows] == 1], fold))
    return fits


def _unit_hyperplanes(w: np.ndarray, b: np.ndarray):
    """One-feature LDAs w (fits, 1), b (fits,) scaled to unit norm, so each
    fit scores signed distances; the first that `check_hyperplanes` refuses
    raises."""
    with np.errstate(all="ignore"):  # a failed scaling raises below
        norm = np.sqrt(w[:, 0] * w[:, 0])
        w, b = w[:, 0] / norm, b / norm
    check_hyperplanes(w[:, None], b)
    return w, b


def _check_shares(shares: np.ndarray, totals: np.ndarray, rows) -> None:
    """`check_csp_shares` of each fit f's rows rows[f], in fit order."""
    if not np.all((totals > 0) & np.isfinite(shares)):
        for share, total, r in zip(shares, totals, rows):
            check_csp_shares(share[r], total[r])


def _fit_stack(moments, n_train, fits, m):
    """Every fit of `fits` on every window's `moments` (windows, rows, c + 1,
    c + 1), the train rows first, as one stack: each row's shares and their
    totals (windows, fits, rows), and the unit-norm LDAs w and b (windows,
    fits). Each fit is checked in a lone fit's order; the error may be any
    fit's."""
    n_win, n_fit, c = len(moments), len(fits), moments.shape[-1] - 1
    # fit f of window k is entry k * n_fit + f of the stack
    rows, neg, pos, held_out = (part * n_win for part in zip(*fits))
    unit, traces = trace_normalized(moments[:, :n_train, :c, :c].reshape(-1, c, c))
    at = np.repeat(n_train * np.arange(n_win), n_fit)
    filters, _ = csp_fits(unit, traces, [k + r for k, r in zip(at, neg)],
                          [k + r for k, r in zip(at, pos)], m)
    shares, totals = (a.reshape(n_win * n_fit, -1) for a in moment_log_shares(
        filters.reshape(n_win, n_fit, 2 * m, c), moments, m))
    _check_shares(shares, totals, rows)
    w, b = _unit_hyperplanes(*fit_ldas(shares[:, :n_train, None], neg, pos))
    _check_shares(shares, totals, held_out)
    return (shares.reshape(n_win, n_fit, -1), totals.reshape(n_win, n_fit, -1),
            w.reshape(n_win, n_fit), b.reshape(n_win, n_fit))


def _stack_scores(moments, n_train, fits, m) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-fold train scores (windows, n_train) and full-fit test scores
    (windows, n_test) of every window of `moments`, from one `_fit_stack`.
    The error raised may be any fit's or window's."""
    shares, totals, w, b = _fit_stack(moments, n_train, fits, m)
    held_out = [fit[3] for fit in fits]
    at = np.concatenate(held_out)
    fit = np.repeat(np.arange(len(fits)), [len(r) for r in held_out])
    train = np.empty((len(moments), n_train))
    train[:, at] = shares[:, fit, at] * w[:, fit] + 0.0 + b[:, fit]
    # the full fit, last, is scored on the test rows
    test, test_totals = shares[:, -1, n_train:], totals[:, -1, n_train:]
    _check_shares(test, test_totals, [slice(None)] * len(moments))
    return train, test * w[:, -1, None] + 0.0 + b[:, -1, None]


def candidate_scores(moments, n_train, fits, m) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-fold train scores and full-fit test scores for one candidate.

    moments is `trial_moments` (rows, c + 1, c + 1) of the candidate's
    band-passed window of each train row, then each test row; fits is
    `_fold_fits` of the train labels. The fits are scored as one stack. If
    it fails, they are refitted alone in fold order, so the error raised is
    the first that fitting the folds one by one meets.
    """
    try:
        train, test = _stack_scores(moments[None], n_train, fits, m)
    except ValueError:
        for fit in fits:
            _fit_stack(moments[None], n_train, [fit], m)
        raise
    return train[0], test[0]


def _window_moments(trials, fs_hz, chain, spans):
    """`trial_moments` (windows, rows, c + 1, c + 1) of each window [i0, i1)
    in `spans` of every row of `trials` through `chain`: each row's moments
    of the segments between the windows' edges, summed. The rows are
    filtered in `preprocess_trials`' blocks, so no more than a block of
    filtered trials is alive at once."""
    edges = sorted({i for span in spans for i in span})
    segments = list(zip(edges, edges[1:]))

    def segment_moments(x):
        out = np.empty((len(x), len(segments), x.shape[1] + 1, x.shape[1] + 1))
        for j, (i0, i1) in enumerate(segments):
            out[:, j] = trial_moments(x[..., i0:i1])
        return out

    moments = preprocess_trials(trials, fs_hz, chain, segment_moments)
    return np.array([moments[:, edges.index(i0):edges.index(i1)].sum(axis=1)
                     for i0, i1 in spans])


def _candidate_rho(train_scores, test_scores) -> dict:
    """One candidate's table entries from its scores."""
    pooled = np.r_[train_scores, test_scores]
    lo, hi = float(pooled.min()), float(pooled.max())
    if not hi > lo:
        raise CriterionUndefinedError("criterion undefined: all scores identical")
    rho = pdf_correlation(
        estimate_pdf(train_scores, (lo, hi)), estimate_pdf(test_scores, (lo, hi))
    )
    penalty = class_balance_penalty(test_scores)
    return {"rho": rho, "penalty": penalty, "feasible": penalty <= FEASIBILITY_THRESHOLD}


def _failure(exc: ValueError) -> dict:
    """A failed candidate's table entries, `failed` marking an error other
    than an undefined criterion. Only the message is kept: a stored
    exception would keep its frames, and a band's moments, alive."""
    return {"error": str(exc), "failed": not isinstance(exc, CriterionUndefinedError)}


def _window_spans(windows_s, n_samples: int, fs_hz: float) -> dict:
    """Each window's sample span (i0, i1), or the `_failure` of a window
    outside the trial, by window."""
    spans = {}
    for window in windows_s:
        try:
            spans[window] = _window_indices(n_samples, fs_hz, *window)
        except ValueError as exc:
            spans[window] = _failure(exc)
    return spans


def _score_band(trials, n_train, fs_hz, fits, band, channels, windows, m_values) -> dict:
    """The table entries of each (window, m) candidate of one band and
    channel subset, by (window, m). `windows` maps each window to its
    sample span, or to the `_failure` of a window outside the trial. The
    first error is the one a per-trial pipeline meets: band, then window.
    Each m scores every window as one stack; if that fails, each window is
    scored alone."""
    valid = [w for w, span in windows.items() if isinstance(span, tuple)]
    try:
        moments = _window_moments(trials, fs_hz, Chain(channels=channels, band_hz=band),
                                  [windows[w] for w in valid])
    except ValueError as exc:
        return dict.fromkeys(itertools.product(windows, m_values), _failure(exc))
    out = {(w, m): windows[w] for w in windows if w not in valid for m in m_values}
    for m in m_values if valid else ():
        try:
            scores = list(zip(*_stack_scores(moments, n_train, fits, m)))
        except ValueError:
            scores = [None] * len(valid)
        for w, window_moments, outcome in zip(valid, moments, scores):
            try:
                out[w, m] = _candidate_rho(
                    *(outcome or candidate_scores(window_moments, n_train, fits, m)))
            except ValueError as exc:
                out[w, m] = _failure(exc)
    return out


def grid_search(
    data: TrialSet,
    labels: np.ndarray,
    space: SearchSpace,
    base: PipelineConfig | None = None,
) -> SearchResult:
    """Evaluate every candidate and pick the winner.

    The first len(`labels`) trials of `data` are the train set, under
    `labels`; the trials after them are the test set. Feasible candidates
    (balance penalty <= FEASIBILITY_THRESHOLD) compete on rho; if none is feasible the
    fallback objective is rho - penalty. `data.labels` is never read. Ties
    break by enumeration order. The recording is band-passed one band at a
    time and reduced to each window's moments (`_window_moments`); each row
    is filtered alone whatever block it shares, so the rows are bitwise what
    filtering the train and test sets apart gives.
    """
    if base is None:
        base = PipelineConfig()
    labels = np.asarray(labels)
    n_train = len(labels)
    if len(data) <= n_train:
        raise ValueError("test set is empty")
    if not labels.all():
        raise ValueError("training set contains unlabeled trials")
    if -1 not in labels or 1 not in labels:
        raise ValueError("training set must contain both classes")

    # a None channel set means the base config's channels
    channel_sets = [base.channels if cs is None else cs for cs in space.channel_sets]
    trials, fs_hz = data.data, data.sampling_rate_hz
    windows = _window_spans(space.windows_s, trials.shape[-1], fs_hz)
    fits = _fold_fits(labels)
    table = []
    failures = []
    for band in space.bands_hz:
        # this band's moments only: the last band's are freed before filtering
        outcomes = {channels: _score_band(trials, n_train, fs_hz, fits, band, channels,
                                          windows, space.m_values)
                    for channels in dict.fromkeys(channel_sets)}
        for window, channels, m in itertools.product(
                space.windows_s, channel_sets, space.m_values):
            row = {
                "band_hz": band, "window_s": window,
                "channels": channels, "m": m,
                "rho": None, "penalty": None, "feasible": False, "error": None,
            }
            row.update(outcomes[channels][window, m])
            if row.pop("failed", False):
                failures.append(f"band={band} window={window} channels={channels} "
                                f"m={m}: {row['error']}")
            table.append(row)

    scored = [(i, r) for i, r in enumerate(table) if r["rho"] is not None]
    if not scored:
        raise ValueError(
            f"all candidates failed: {len(failures)} of {len(table)} raised an error; "
            f"first: {failures[0]}" if failures else
            "all candidates failed: flat histograms"
        )
    feasible = [(i, r) for i, r in scored if r["feasible"]]
    if feasible:
        winner_index, winner = max(feasible, key=lambda ir: ir[1]["rho"])
    else:
        winner_index, winner = max(
            scored, key=lambda ir: ir[1]["rho"] - ir[1]["penalty"]
        )

    config = replace(
        base,
        preprocess=PreprocessConfig(band_hz=winner["band_hz"], window_s=winner["window_s"]),
        m=winner["m"],
        channels=winner["channels"],
    )
    return SearchResult(
        config=config,
        rho=winner["rho"],
        balance_penalty=winner["penalty"],
        table=tuple(table),
        winner_index=winner_index,
    )
