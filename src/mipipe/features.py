"""Feature extractors: CSP, autoregressive coefficients, slow-potential means,
and Fisher-score channel selection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import eigh, toeplitz

from .data_model import Trial
from .errors import RankDeficientError

DEFAULT_AR_ORDER = 7


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray
    method: str  # csp | ar | lrp | combined

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        if not np.all(np.isfinite(values)):
            raise ValueError("feature vector contains non-finite values")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ArCoefficients:
    """AR model in the convention x(n) = -sum_k a_k x(n-k) + u(n)."""

    a: np.ndarray
    noise_variance: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float).ravel()
        if len(a) < 1:
            raise ValueError("AR order must be >= 1")
        if self.noise_variance < 0:
            raise ValueError("noise variance must be >= 0")
        object.__setattr__(self, "a", a)

    @property
    def order(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class CspModel:
    """Fitted spatial filters: first m rows maximize class -1 variance share,
    last m rows minimize it. eigenvalues are the class -1 shares per filter."""

    filters: np.ndarray  # (2m, n_channels)
    eigenvalues: np.ndarray  # (2m,)
    m: int

    @property
    def n_channels(self) -> int:
        return self.filters.shape[1]


def mean_normalized_covariance(covs: np.ndarray) -> np.ndarray:
    """Mean over trials of X X^T / tr(X X^T), given the stacked X X^T."""
    traces = np.trace(covs, axis1=1, axis2=2)
    if np.any(traces <= 0):
        raise ValueError("trial has zero total variance")
    return np.mean(covs / traces[:, None, None], axis=0)


def class_covariance(trials: Sequence[Trial]) -> np.ndarray:
    """Mean over trials of the trace-normalized covariance X X^T / tr."""
    return mean_normalized_covariance(np.array([t.data @ t.data.T for t in trials]))


def fit_csp(class_neg: Sequence[Trial], class_pos: Sequence[Trial], m: int = 1) -> CspModel:
    """CSP from two classes of trials; see `csp_from_covariances`."""
    if not class_neg or not class_pos:
        raise ValueError("both classes must be nonempty")
    n_ch = class_neg[0].n_channels
    for t in list(class_neg) + list(class_pos):
        if t.n_channels != n_ch:
            raise ValueError("mismatched channel counts across trials")
    return csp_from_covariances(class_covariance(class_neg), class_covariance(class_pos), m)


def csp_from_trial_covariances(covs: np.ndarray, labels, m: int = 1) -> CspModel:
    """CSP from each trial's X X^T, stacked, and its label (-1 or +1)."""
    labels = np.asarray(labels)
    neg, pos = covs[labels == -1], covs[labels == 1]
    if not len(neg) or not len(pos):
        raise ValueError("both classes must be nonempty")
    return csp_from_covariances(
        mean_normalized_covariance(neg), mean_normalized_covariance(pos), m
    )


def csp_from_covariances(cov_neg: np.ndarray, cov_pos: np.ndarray, m: int = 1) -> CspModel:
    """Simultaneously diagonalize the two class covariances.

    Whitens the composite covariance, eigendecomposes the whitened class -1
    covariance and keeps the top-m / bottom-m eigenvectors mapped back through
    the whitening transform.
    """
    n_ch = cov_neg.shape[0]
    if 2 * m > n_ch:
        raise ValueError(f"2m = {2 * m} filters exceed {n_ch} channels")
    composite = cov_neg + cov_pos

    d, u = eigh(composite)
    if d[0] < 1e-10 * d[-1]:
        raise RankDeficientError(
            f"composite covariance is rank deficient (eigenvalue ratio "
            f"{d[0] / d[-1]:.2e} below 1e-10)"
        )
    whitener = (u / np.sqrt(d)).T  # rows whiten the composite

    lam, b = eigh(whitener @ cov_neg @ whitener.T)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    filters = (b[:, order].T @ whitener)

    keep = np.r_[0:m, n_ch - m:n_ch]
    filters = filters[keep]
    lam = lam[keep]
    # eigenvectors are sign-ambiguous; make the largest coefficient positive
    for row in filters:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1
    return CspModel(filters=filters, eigenvalues=lam, m=m)


def csp_log_shares(model: CspModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log variance share log(vH / (vH + vF)) of the class -1 projections, and
    the total vH + vF, for a trial or an (n_trials, n_channels, n_samples)
    batch. Unchecked: pass both to `check_csp_shares`."""
    variances = (model.filters @ x).var(axis=-1)
    var_h = variances[..., : model.m].sum(axis=-1)
    var_f = variances[..., model.m:].sum(axis=-1)
    total = var_h + var_f
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(var_h / total), total


def check_csp_shares(shares: np.ndarray, totals: np.ndarray) -> None:
    """Raise for the first trial with zero total variance or a non-finite share."""
    bad = np.flatnonzero((totals <= 0) | ~np.isfinite(shares))
    if len(bad):
        if totals[bad[0]] <= 0:
            raise ValueError("zero total variance after spatial filtering")
        raise ValueError("feature vector contains non-finite values")


def csp_feature(model: CspModel, trial: Trial) -> FeatureVector:
    """Log variance share of the class -1 projections: log(vH / (vH + vF))."""
    if trial.n_channels != model.n_channels:
        raise ValueError("trial channel count does not match CSP model")
    share, total = csp_log_shares(model, trial.data)
    check_csp_shares(np.atleast_1d(share), np.atleast_1d(total))
    return FeatureVector(np.array([share]), "csp")


def ar_from_autocovariance(r: np.ndarray, p: int) -> ArCoefficients:
    """Solve the Yule-Walker equations given autocovariances r(0..p)."""
    r = np.asarray(r, dtype=float).ravel()
    if len(r) < p + 1:
        raise ValueError(f"need autocovariances r(0..{p}), got {len(r)}")
    if r[0] <= 0:
        raise ValueError("zero-variance series: autocovariance r(0) <= 0")
    big_r = toeplitz(r[:p])
    try:
        a_fwd = np.linalg.solve(big_r, r[1 : p + 1])
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular autocovariance system: {exc}") from exc
    sigma2 = float(r[0] - a_fwd @ r[1 : p + 1])
    return ArCoefficients(a=-a_fwd, noise_variance=max(sigma2, 0.0))


def fit_ar(series: np.ndarray, p: int = DEFAULT_AR_ORDER) -> ArCoefficients:
    """Yule-Walker AR fit on biased sample autocovariances of a 1-D series."""
    x = np.asarray(series, dtype=float).ravel()
    n = len(x)
    if n <= 10 * p:
        raise ValueError(f"series of {n} samples too short for AR order {p}")
    x = x - x.mean()
    r = np.array([x[: n - k] @ x[k:] for k in range(p + 1)]) / n
    if r[0] <= 0:
        raise ValueError("constant series: cannot fit AR model")
    return ar_from_autocovariance(r, p)


def ar_feature(trial: Trial, channels: Sequence[int], p: int = DEFAULT_AR_ORDER) -> FeatureVector:
    """Concatenated per-channel AR parameters: [a_1..a_p sigma^2] per channel."""
    if not len(channels):
        raise ValueError("no channels selected")
    parts = []
    for c in channels:
        try:
            model = fit_ar(trial.data[c], p)
        except ValueError as exc:
            raise ValueError(f"channel {c}: {exc}") from exc
        parts.append(np.r_[model.a, model.noise_variance])
    return FeatureVector(np.concatenate(parts), "ar")


def lrp_feature(
    trial: Trial,
    channels: Sequence[int],
    fs_hz: float,
    feature_window_s: tuple[float, float] = (0.5, 1.5),
) -> FeatureVector:
    """Per selected channel, the mean amplitude inside the feature window."""
    from .preprocess import _window_indices

    if not len(channels):
        raise ValueError("no channels selected")
    i0, i1 = _window_indices(trial.n_samples, fs_hz, *feature_window_s)
    means = trial.data[list(channels), i0:i1].mean(axis=1)
    return FeatureVector(means, "lrp")


def fisher_scores(values: np.ndarray, labels: Sequence[int]) -> np.ndarray:
    """Per-channel Fisher score (mu- - mu+)^2 / (var- + var+).

    values: (n_trials, n_channels) matrix of scalar channel summaries.
    Zero pooled variance with unequal means yields +inf (ranked first).
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    neg = values[labels == -1]
    pos = values[labels == 1]
    if len(neg) < 2 or len(pos) < 2:
        raise ValueError("each class needs >= 2 trials for Fisher scoring")
    delta = neg.mean(axis=0) - pos.mean(axis=0)
    pooled = neg.var(axis=0, ddof=1) + pos.var(axis=0, ddof=1)
    scores = np.empty(values.shape[1])
    zero = pooled == 0
    scores[~zero] = delta[~zero] ** 2 / pooled[~zero]
    scores[zero] = np.where(delta[zero] != 0, np.inf, 0.0)
    return scores


def select_channels(scores: np.ndarray, n: int) -> list[int]:
    """Indices of the n largest scores, descending, ties to lower index."""
    scores = np.asarray(scores, dtype=float)
    if not 1 <= n <= len(scores):
        raise ValueError(f"cannot select {n} of {len(scores)} channels")
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:n]
