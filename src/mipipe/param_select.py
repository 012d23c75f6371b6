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
    projection_log_shares,
    trace_normalized,
)
from .preprocess import (
    BLOCK_VALUES,
    Chain,
    PreprocessConfig,
    _window_indices,
    preprocess_trials,
)

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


def _fit_group(fits, train_x, normalized, m):
    """The stacked CSP filters, train shares and unit-norm LDAs of `fits`. Each
    fit is checked in a lone fit's order; the error may be any fit's."""
    rows, neg, pos, held_out = zip(*fits)
    filters, _ = csp_fits(*normalized, neg, pos, m)
    shares, totals = projection_log_shares(filters[:, None] @ train_x, m)
    _check_shares(shares, totals, rows)
    w, b = _unit_hyperplanes(*fit_ldas(shares[..., None], neg, pos))
    _check_shares(shares, totals, held_out)
    return filters, shares, w, b


def candidate_scores(train_x, test_x, normalized, fits, m) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-fold train scores and full-fit test scores for one candidate.

    train_x and test_x are band-passed, cropped (n_trials, n_channels,
    n_samples) batches; normalized is `trace_normalized` of the train
    trials' X X^T; fits is `_fold_fits` of their labels. Fits are scored on
    stacks, in groups whose train projections fit in BLOCK_VALUES values.
    If a group fails, its fits are refitted alone in fold order, so the
    error raised is the first that fitting the folds one by one meets.
    """
    n = len(train_x)
    group = max(1, BLOCK_VALUES // (n * 2 * m * train_x.shape[-1]))
    train_scores = np.empty(n)
    for g0 in range(0, len(fits), group):
        part = fits[g0:g0 + group]
        try:
            filters, shares, w, b = _fit_group(part, train_x, normalized, m)
        except ValueError:
            for fit in part:
                _fit_group([fit], train_x, normalized, m)
            raise
        held_out = [fit[3] for fit in part]
        at = np.concatenate(held_out)
        fit = np.repeat(np.arange(len(part)), [len(r) for r in held_out])
        train_scores[at] = shares[fit, at] * w[fit] + 0.0 + b[fit]

    # the last group ends with the full fit
    shares, totals = projection_log_shares(filters[-1] @ test_x, m)
    check_csp_shares(shares, totals)
    return train_scores, shares * w[-1] + 0.0 + b[-1]


def _candidate_rho(filtered, data, n_train, fs_hz, fits, band, window, channels, m):
    """One candidate's table entries. `filtered` holds the band's batches of
    `data` (train then test rows) by channel subset; a subset is band-passed when
    first used, since filtering a subset is not bitwise the same as
    subsetting the filtered channels. The first error is the one a per-trial
    pipeline meets: band, then window. The views of the batch end with this
    call, so dropping `filtered` frees the band."""
    if channels not in filtered:
        filtered[channels] = preprocess_trials(data, fs_hz, Chain(channels=channels, band_hz=band))
    x = filtered[channels]
    i0, i1 = _window_indices(x.shape[-1], fs_hz, *window)
    train_x, test_x = x[:n_train, ..., i0:i1], x[n_train:, ..., i0:i1]
    contiguous = np.ascontiguousarray(train_x)
    normalized = trace_normalized(contiguous @ contiguous.transpose(0, 2, 1))
    tr_scores, te_scores = candidate_scores(train_x, test_x, normalized, fits, m)
    pooled = np.r_[tr_scores, te_scores]
    lo, hi = float(pooled.min()), float(pooled.max())
    if not hi > lo:
        raise CriterionUndefinedError("criterion undefined: all scores identical")
    rho = pdf_correlation(
        estimate_pdf(tr_scores, (lo, hi)), estimate_pdf(te_scores, (lo, hi))
    )
    penalty = class_balance_penalty(te_scores)
    return {"rho": rho, "penalty": penalty, "feasible": penalty <= FEASIBILITY_THRESHOLD}


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
    time; each trial is filtered alone whatever block it shares, so the rows
    are bitwise what filtering the train and test sets apart gives.
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
    fits = _fold_fits(labels)
    table = []
    failures = []
    for band in space.bands_hz:
        filtered = {}  # this band's batches only: the last band's are freed before filtering
        for window, channels, m in itertools.product(
                space.windows_s, channel_sets, space.m_values):
            row = {
                "band_hz": band, "window_s": window,
                "channels": channels, "m": m,
                "rho": None, "penalty": None, "feasible": False, "error": None,
            }
            try:
                row.update(_candidate_rho(filtered, trials, n_train, fs_hz, fits, band,
                                          window, channels, m))
            except CriterionUndefinedError as exc:
                row["error"] = str(exc)
            except ValueError as exc:
                row["error"] = str(exc)
                failures.append(f"band={band} window={window} channels={channels} m={m}: {exc}")
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
