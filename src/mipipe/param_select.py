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
from numpy.linalg import LinAlgError

from .classify import fit_ldas, hyperplane_codes
from .config import PipelineConfig, SearchSpace
from .data_model import TrialSet, usable_folds
from .errors import CriterionUndefinedError, failure, raise_first
from .features import (
    csp_fits,
    moment_log_shares,
    share_codes,
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
        if _uneven(edges):
            raise failure(13)  # bin edges must be strictly increasing, equal width
        if np.any(mass < 0) or abs(mass.sum() - 1.0) > 1e-12:
            raise ValueError("mass must be nonnegative and sum to 1")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "mass", mass)


def _uneven(edges: np.ndarray) -> np.ndarray:
    """Whether each row of edges (..., 41) fails to rise strictly in equal widths."""
    widths = np.diff(edges)
    return np.any(widths <= 0, axis=-1) | (np.ptp(widths, axis=-1) > 1e-9 * widths[..., 0])


def _histograms(scores: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Bin edges (rows, 41) and 40-bin histograms (rows, 40) of each row of
    scores (rows, n) over its [lo, hi], counted as np.histogram counts: scores
    clip to the end bins, and only the last bin holds its right edge."""
    edges = np.array([np.linspace(a, b, N_BINS + 1) for a, b in zip(lo, hi)])
    x = np.clip(scores, lo[:, None], hi[:, None])[..., None]
    # the scores below each edge, then those at or below the last
    counts = np.diff(np.c_[(x < edges[:, None, :-1]).sum(axis=1),
                           (x <= edges[:, None, -1:]).sum(axis=1)])
    return edges, counts / counts.sum(axis=1, keepdims=True)


def _correlations(train: np.ndarray, test: np.ndarray):
    """The Pearson correlation of each row pair of histograms (rows, 40), as
    np.corrcoef computes it, and each row's failure code: 14 a flat train
    histogram, 15 a flat test one, else 0."""
    x = np.stack([train, test], axis=1)
    x = x - x.mean(axis=-1, keepdims=True)
    cov = x @ x.swapaxes(-1, -2) * np.true_divide(1, N_BINS - 1)
    std = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    with np.errstate(divide="ignore", invalid="ignore"):  # a flat histogram's rho is NaN
        rho = np.clip(cov[:, 0, 1] / std[:, 0] / std[:, 1], -1, 1)
    return rho, np.where(np.ptp(train, axis=1) == 0, 14,
                         np.where(np.ptp(test, axis=1) == 0, 15, 0))


def estimate_pdf(scores: Sequence[float], score_range: tuple[float, float]) -> PdfEstimate:
    """40-bin normalized histogram; out-of-range scores clip to the end bins."""
    scores = np.asarray(scores, dtype=float)
    lo, hi = score_range
    if len(scores) == 0:
        raise ValueError("empty scores")
    if not hi > lo:
        raise ValueError(f"degenerate range ({lo}, {hi})")
    (edges,), (mass,) = _histograms(scores[None], np.array([lo]), np.array([hi]))
    return PdfEstimate(bin_edges=edges, mass=mass)


def class_balance_penalty(test_scores) -> float:
    """|P(+1) - 0.5| of scores (..., n) where score 0 counts as +1, as a round
    votes in `bagging_predict_rows`."""
    scores = np.asarray(test_scores, dtype=float)
    if scores.shape[-1] == 0:
        raise ValueError("empty scores")
    return np.abs(np.mean(scores >= 0, axis=-1) - 0.5)


def pdf_correlation(train: PdfEstimate, test: PdfEstimate) -> float:
    """Pearson correlation between the two histograms' bin masses."""
    if not np.allclose(train.bin_edges, test.bin_edges, rtol=0, atol=0):
        raise ValueError("histograms have different bin edges")
    (rho,), codes = _correlations(train.mass[None], test.mass[None])
    raise_first(codes)
    return float(rho)


@dataclass(frozen=True)
class SearchResult:
    config: PipelineConfig
    rho: float
    balance_penalty: float
    table: tuple[dict, ...]
    winner_index: int


def _fold_fits(labels: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Each search fold's fit, then the full fit, which holds out no row and
    is scored on the test set, as (class -1 rows, class +1 rows, held-out
    rows); one list serves every candidate of a search."""
    folds = usable_folds(labels, 10)
    if not folds:
        raise ValueError("too few labeled trials per class for cross-validation")
    fits = []
    for fold in folds + [np.array([], dtype=np.intp)]:
        rows = np.setdiff1d(np.arange(len(labels)), fold)
        fits.append((rows[labels[rows] == -1], rows[labels[rows] == 1], fold))
    return fits


def _unit_hyperplanes(w: np.ndarray, b: np.ndarray, codes: np.ndarray):
    """One-feature LDAs w (fits, 1), b (fits,) scaled to unit norm, so each
    fit scores signed distances, with their failure `codes`; a fit whose
    scaling fails gets its `hyperplane_codes`."""
    with np.errstate(all="ignore"):  # a failed scaling gets its code
        norm = np.sqrt(w[:, 0] * w[:, 0])
        w, b = w[:, 0] / norm, b / norm
    return w, b, np.where(codes != 0, codes, hyperplane_codes(w[:, None], b))


def _first(codes: np.ndarray) -> np.ndarray:
    """The first nonzero failure code along the last axis, else 0."""
    return np.take_along_axis(codes, (codes != 0).argmax(axis=-1)[..., None], axis=-1)[..., 0]


def _stack_scores(moments, n_train, fits, m):
    """Out-of-fold train scores (windows, n_train), full-fit test scores
    (windows, n_test), failure code and first failed fit's eigenvalue ratio
    of every window of `moments` (windows, rows, c + 1, c + 1), train rows
    first, from one stack of every fit of `fits` on every window. A window
    fails as its first failed fit, and a fit at its first failed step in a
    lone fit's order: CSP, its train rows' shares, LDA, its held-out rows'
    shares; the full fit's test rows' shares come last."""
    n_win, n_fit, c = len(moments), len(fits), moments.shape[-1] - 1
    neg, pos, held_out = zip(*fits)
    neg, pos = neg * n_win, pos * n_win
    unit, traces = trace_normalized(moments[:, :n_train, :c, :c].reshape(-1, c, c))
    # fit f of window k is entry k * n_fit + f of the stack
    at = np.repeat(n_train * np.arange(n_win), n_fit)
    filters, _, csp, ratio = csp_fits(unit, traces, [k + r for k, r in zip(at, neg)],
                                      [k + r for k, r in zip(at, pos)], m)
    shares, totals = moment_log_shares(filters.reshape(n_win, n_fit, 2 * m, c), moments, m)
    w, b, lda = (a.reshape(n_win, n_fit) for a in _unit_hyperplanes(*fit_ldas(
        shares.reshape(n_win * n_fit, -1)[:, :n_train, None], neg, pos)))
    # each train row is held out by one fold: fit[i] holds out row at[i]
    at = np.concatenate(held_out)
    fit = np.repeat(np.arange(n_fit), [len(r) for r in held_out])
    held = np.zeros((n_fit, n_train), dtype=bool)
    held[fit, at] = True
    rows = share_codes(shares, totals)
    failed = _first(np.stack([csp.reshape(n_win, n_fit),
                              _first(np.where(held, 0, rows[..., :n_train])), lda,
                              _first(np.where(held, rows[..., :n_train], 0))], axis=-1))
    train = np.empty((n_win, n_train))
    train[:, at] = shares[:, fit, at] * w[:, fit] + 0.0 + b[:, fit]
    # the full fit, last, is scored on the test rows
    test = shares[:, -1, n_train:] * w[:, -1, None] + 0.0 + b[:, -1, None]
    return (train, test, _first(np.c_[failed, _first(rows[:, -1, n_train:])]),
            ratio.reshape(n_win, n_fit)[np.arange(n_win), (failed != 0).argmax(axis=1)])


def _criterion(train: np.ndarray, test: np.ndarray):
    """rho, balance penalty and failure code of the train (windows, n_train)
    and test (windows, n_test) scores of each window."""
    pooled = np.c_[train, test]
    lo, hi = pooled.min(axis=1), pooled.max(axis=1)
    (edges, train_pdf), (_, test_pdf) = (_histograms(s, lo, hi) for s in (train, test))
    rho, flat = _correlations(train_pdf, test_pdf)
    return (rho, class_balance_penalty(test),
            np.where(hi > lo, np.where(_uneven(edges), 13, flat), 12))


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
    first error is the one a per-trial pipeline meets: band, then window,
    then the window's failure code. Each m scores every window as one stack."""
    valid = [w for w, span in windows.items() if isinstance(span, tuple)]
    try:
        moments = _window_moments(trials, fs_hz, Chain(channels=channels, band_hz=band),
                                  [windows[w] for w in valid])
    except ValueError as exc:
        return dict.fromkeys(itertools.product(windows, m_values), _failure(exc))
    out = {(w, m): windows[w] for w in windows if w not in valid for m in m_values}
    for m in m_values if valid else ():
        try:
            with np.errstate(all="ignore"):  # a failed fit's filler is never read
                train, test, codes, ratio = _stack_scores(moments, n_train, fits, m)
                rho, penalty, criterion = _criterion(train, test)
        except LinAlgError as exc:  # a stacked eigh that does not converge
            out.update(((w, m), _failure(exc)) for w in valid)
            continue
        for k, (w, code) in enumerate(zip(valid, np.where(codes, codes, criterion))):
            out[w, m] = _failure(failure(code, ratio=ratio[k], filters=2 * m,
                                         channels=moments.shape[-1] - 1)) if code else {
                "rho": float(rho[k]), "penalty": float(penalty[k]),
                "feasible": bool(penalty[k] <= FEASIBILITY_THRESHOLD)}
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
