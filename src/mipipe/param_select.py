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

from .classify import LdaModel, fit_lda
from .config import PipelineConfig, SearchSpace
from .data_model import TrialSet, stratified_folds
from .errors import CriterionUndefinedError
from .features import (
    check_csp_shares,
    csp_from_trial_covariances,
    csp_log_shares,
)
from .preprocess import Chain, _window_indices, preprocess_trials

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


class _BandBatches:
    """Band-passed train and test batches of the current band only.

    Each set is band-passed once per band and channel subset (filtering a
    subset is not bitwise the same as subsetting the filtered channels), and
    the previous band's batches are dropped before the next band is filtered.
    Train covariances are kept per window, for every `m` of the window.
    """

    def __init__(self, train: TrialSet, test: TrialSet):
        self.sets = (train, test)
        self.band = None
        self.filtered: dict = {}
        self.covariances: dict = {}

    def crop(self, band, window, channels):
        """Views of the train and test batches cropped to `window`, and the
        train trials' X X^T. Errors come in the order a per-trial pipeline
        meets them: train band, train window, test band, test window."""
        if band != self.band:
            self.filtered.clear()
            self.covariances.clear()
            self.band = band
        views = []
        for which, ts in enumerate(self.sets):
            key = (which, channels)
            if key not in self.filtered:
                self.filtered[key] = preprocess_trials(
                    [t.data for t in ts], ts.sampling_rate_hz,
                    Chain(channels=channels, band_hz=band),
                )
            x = self.filtered[key]
            i0, i1 = _window_indices(x.shape[-1], ts.sampling_rate_hz, *window)
            views.append(x[..., i0:i1])
        key = (window, channels)
        if key not in self.covariances:
            contiguous = np.ascontiguousarray(views[0])
            self.covariances[key] = contiguous @ contiguous.transpose(0, 2, 1)
        return views[0], views[1], self.covariances[key]


def _unit_lda(features: np.ndarray, labels: np.ndarray) -> LdaModel:
    lda = fit_lda(features[:, None], labels)
    # unit-norm hyperplane: scores become signed distances, so fold models
    # and the full-fit model land on one comparable scale
    norm = float(np.linalg.norm(lda.w))
    return LdaModel(w=lda.w / norm, b=lda.b / norm)


def _fit(train_x, covs, labels, fit, m):
    """CSP and unit-norm LDA fitted on train trials `fit`, and the log
    variance shares of every train trial under that CSP."""
    y = labels[fit]
    csp = csp_from_trial_covariances(covs[fit], y, m)
    shares, totals = csp_log_shares(csp, train_x)
    check_csp_shares(shares[fit], totals[fit])
    return csp, _unit_lda(shares[fit], y), shares, totals


def candidate_scores(train_x, test_x, covs, labels, folds, m) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-fold train scores and full-fit test scores for one candidate.

    train_x and test_x are band-passed, cropped (n_trials, n_channels,
    n_samples) batches; covs holds X X^T of each train trial.
    """
    n = len(train_x)
    train_scores = np.empty(n)
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        _, lda, shares, totals = _fit(train_x, covs, labels, np.flatnonzero(mask), m)
        check_csp_shares(shares[fold], totals[fold])
        train_scores[fold] = shares[fold, None] @ lda.w + lda.b

    csp, lda, _, _ = _fit(train_x, covs, labels, np.arange(n), m)
    shares, totals = csp_log_shares(csp, test_x)
    check_csp_shares(shares, totals)
    return train_scores, shares[:, None] @ lda.w + lda.b


def _candidate_rho(batches, labels, band, window, channels, m, feasibility_threshold):
    """One candidate's table entries; its views of the band's batches end
    with this call, so dropping a band frees its memory."""
    train_x, test_x, covs = batches.crop(band, window, channels)
    tr_scores, te_scores = candidate_scores(
        train_x, test_x, covs, labels, _search_folds(labels), m
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
    labels = [t.label for t in train.trials]
    if -1 not in labels or 1 not in labels:
        raise ValueError("training set must contain both classes")

    # a None channel set means the base config's channels
    channel_sets = [base.channels if cs is None else cs for cs in space.channel_sets]
    candidates = itertools.product(
        space.bands_hz, space.windows_s, channel_sets, space.m_values
    )
    batches = _BandBatches(train, test_unlabeled)
    labels = np.array(labels)
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
                batches, labels, band, window, channels, m, feasibility_threshold
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
        preprocess=base.preprocess.__class__(
            band_hz=winner["band_hz"],
            lowpass_hz=base.preprocess.lowpass_hz,
            spatial_ref=base.preprocess.spatial_ref,
            window_s=winner["window_s"],
            baseline_window_s=base.preprocess.baseline_window_s,
        ),
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
