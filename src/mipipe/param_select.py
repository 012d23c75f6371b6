"""Transductive parameter selection.

Candidates are ranked without test labels: a class-balance gate on the signs
of the test scores, then maximization of the correlation between 40-bin
histograms of train and test classifier outputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classify import SHRINKAGE, LdaModel
from .config import PipelineConfig, SearchSpace
from .data_model import TrialSet, stratified_folds
from .errors import CriterionUndefinedError
from .features import (
    check_csp_shares,
    csp_from_normalized,
    csp_log_shares,
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
    """|P(+1) - 0.5| where score 0 counts as +1, matching lda_predict."""
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


def _search_folds(labels: np.ndarray, max_folds: int = 10) -> list[np.ndarray]:
    """Deterministic round-robin folds, as many as the smaller class allows."""
    n_folds = min(max_folds, int((labels == -1).sum()), int((labels == 1).sum()))
    if n_folds < 2:
        raise ValueError("too few labeled trials per class for cross-validation")
    return stratified_folds(labels, n_folds)


def _fold_fits(labels: np.ndarray) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Each search fold's fit rows and held-out rows, then the full fit's
    rows with None; one list serves every candidate of a search."""
    n = len(labels)
    fits = []
    for fold in _search_folds(labels):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        fits.append((np.flatnonzero(mask), fold))
    fits.append((np.arange(n), None))  # the full fit, scored on the test set
    return fits


class _BandBatches:
    """Band-passed train and test batches of the current band only.

    Train and test are band-passed as one batch, once per band and channel
    subset (filtering a subset is not bitwise the same as subsetting the
    filtered channels), and the previous band's batch is dropped before the
    next band is filtered. Each trial is filtered alone whatever block it
    shares, so the rows are bitwise what filtering each set apart gives.
    Per window, the train trials' X X^T divided by their traces are kept for
    every fold and `m` of the window.
    """

    def __init__(self, train: TrialSet, test: TrialSet):
        shapes = [(ts.n_channels, ts.n_samples, ts.sampling_rate_hz) for ts in (train, test)]
        if shapes[0] != shapes[1]:
            raise ValueError("train and test sets differ: " + ", ".join(
                f"{name} has {c} channels x {n} samples at {fs} Hz"
                for name, (c, n, fs) in zip(("train", "test"), shapes)))
        self.rows = [t.data for t in train.trials + test.trials]
        self.n_train = len(train)
        self.fs_hz = train.sampling_rate_hz
        self.band = None
        self.filtered: dict = {}
        self.normalized: dict = {}

    def crop(self, band, window, channels):
        """Views of the train and test rows cropped to `window`, and
        `trace_normalized` of the train rows' X X^T. The first error is the
        one a per-trial pipeline meets: band, then window."""
        if band != self.band:
            self.filtered.clear()
            self.normalized.clear()
            self.band = band
        if channels not in self.filtered:
            self.filtered[channels] = preprocess_trials(
                self.rows, self.fs_hz, Chain(channels=channels, band_hz=band)
            )
        x = self.filtered[channels]
        i0, i1 = _window_indices(x.shape[-1], self.fs_hz, *window)
        train_x, test_x = x[:self.n_train, ..., i0:i1], x[self.n_train:, ..., i0:i1]
        key = (window, channels)
        if key not in self.normalized:
            contiguous = np.ascontiguousarray(train_x)
            self.normalized[key] = trace_normalized(contiguous @ contiguous.transpose(0, 2, 1))
        return train_x, test_x, self.normalized[key]


def _unit_lda(features: np.ndarray, labels: np.ndarray) -> LdaModel:
    """`fit_lda` of one feature, scaled to a unit-norm hyperplane, so scores
    become signed distances and fold models and the full-fit model land on
    one comparable scale. With one feature the ridge-regularised solve is a
    division; the means and the scatter are `fit_lda`'s numpy calls, and its
    checks raise the same errors in the same order."""
    x = features[:, None]
    neg, pos = x[labels == -1], x[labels == 1]
    if len(neg) == 0 or len(pos) == 0:
        raise ValueError("both classes must be present")
    mu_neg, mu_pos = neg.mean(axis=0), pos.mean(axis=0)
    scatter = np.zeros((1, 1))
    for block, mu in ((neg, mu_neg), (pos, mu_pos)):
        centered = block - mu
        scatter += centered.T @ centered
    tr = scatter[0, 0]
    w = (mu_pos - mu_neg) / (scatter[0] + SHRINKAGE * (tr if tr > 0 else 1.0))
    if not np.any(w):
        raise ValueError("classes have identical means: no discriminant direction")
    b = -float(w @ (mu_pos + mu_neg) / 2.0)
    norm = float(np.sqrt(w @ w))
    return LdaModel(w=w / norm, b=b / norm)


def candidate_scores(train_x, test_x, normalized, labels, fits, m) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-fold train scores and full-fit test scores for one candidate.

    train_x and test_x are band-passed, cropped (n_trials, n_channels,
    n_samples) batches; normalized is `trace_normalized` of the train
    trials' X X^T; fits is `_fold_fits` of the labels. Each fold, then the
    full fit, gets its CSP, its checks and its LDA in that order, as if
    fitted alone; only the projection of the train trials is shared, by as
    many fits at once as keep it within BLOCK_VALUES values. So the first
    error raised is a lone fit's.
    """
    n = len(train_x)
    group = max(1, BLOCK_VALUES // (n * 2 * m * train_x.shape[-1]))
    train_scores = np.empty(n)
    for g0 in range(0, len(fits), group):
        csps, error = [], None
        for fit, _ in fits[g0:g0 + group]:
            try:
                csps.append(csp_from_normalized(
                    normalized[0][fit], normalized[1][fit], labels[fit], m))
            except ValueError as exc:  # raised once the fits before it are checked
                error = exc
                break
        if csps:
            filters = np.stack([csp.filters for csp in csps])[:, None]
            shares, totals = projection_log_shares(filters @ train_x, m)
            for (fit, fold), share, total in zip(fits[g0:], shares, totals):
                check_csp_shares(share[fit], total[fit])
                lda = _unit_lda(share[fit], labels[fit])
                if fold is not None:
                    check_csp_shares(share[fold], total[fold])
                    train_scores[fold] = share[fold, None] @ lda.w + lda.b
        if error is not None:
            raise error

    # the last fit checked, with `lda`, is the full fit
    shares, totals = csp_log_shares(csps[-1], test_x)
    check_csp_shares(shares, totals)
    return train_scores, shares[:, None] @ lda.w + lda.b


def _candidate_rho(batches, labels, fits, band, window, channels, m, feasibility_threshold):
    """One candidate's table entries; its views of the band's batches end
    with this call, so dropping a band frees its memory."""
    train_x, test_x, normalized = batches.crop(band, window, channels)
    tr_scores, te_scores = candidate_scores(
        train_x, test_x, normalized, labels, fits, m
    )
    pooled = np.r_[tr_scores, te_scores]
    lo, hi = float(pooled.min()), float(pooled.max())
    if not hi > lo:
        raise CriterionUndefinedError("criterion undefined: all scores identical")
    rho = pdf_correlation(
        estimate_pdf(tr_scores, (lo, hi)), estimate_pdf(te_scores, (lo, hi))
    )
    penalty = class_balance_penalty(te_scores)
    return {"rho": rho, "penalty": penalty, "feasible": penalty <= feasibility_threshold}


def grid_search(
    train: TrialSet,
    test_unlabeled: TrialSet,
    space: SearchSpace,
    base: PipelineConfig | None = None,
    feasibility_threshold: float = FEASIBILITY_THRESHOLD,
) -> SearchResult:
    """Evaluate every candidate and pick the winner.

    Feasible candidates (balance penalty <= threshold) compete on rho; if none
    is feasible the fallback objective is rho - penalty. Test labels are never
    read. Ties break by enumeration order.
    """
    if base is None:
        base = PipelineConfig()
    if len(test_unlabeled) == 0:
        raise ValueError("test set is empty")
    labels = train.labels
    if None in labels:
        raise ValueError("training set contains unlabeled trials")
    if -1 not in labels or 1 not in labels:
        raise ValueError("training set must contain both classes")

    # a None channel set means the base config's channels
    channel_sets = [base.channels if cs is None else cs for cs in space.channel_sets]
    candidates = itertools.product(
        space.bands_hz, space.windows_s, channel_sets, space.m_values
    )
    batches = _BandBatches(train, test_unlabeled)
    labels = np.array(labels)
    fits = _fold_fits(labels)
    table = []
    failures = []
    for band, window, channels, m in candidates:
        row = {
            "band_hz": band, "window_s": window,
            "channels": channels, "m": m,
            "rho": None, "penalty": None, "feasible": False, "error": None,
        }
        try:
            row.update(_candidate_rho(
                batches, labels, fits, band, window, channels, m, feasibility_threshold
            ))
        except CriterionUndefinedError as exc:
            row["error"] = str(exc)
        except ValueError as exc:
            row["error"] = str(exc)
            failures.append(f"band={band} window={window} m={m}: {exc}")
        table.append(row)

    scored = [(i, r) for i, r in enumerate(table) if r["rho"] is not None]
    if not scored:
        raise ValueError(
            "all candidates failed:\n" + "\n".join(failures or ["(flat histograms)"])
        )
    feasible = [(i, r) for i, r in scored if r["feasible"]]
    if feasible:
        winner_index, winner = max(feasible, key=lambda ir: ir[1]["rho"])
    else:
        winner_index, winner = max(
            scored, key=lambda ir: ir[1]["rho"] - ir[1]["penalty"]
        )

    config = base.replace(
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
