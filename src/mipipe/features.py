"""Feature extractors: CSP, autoregressive coefficients and Fisher-score
channel selection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

DEFAULT_AR_ORDER = 7


@dataclass(frozen=True)
class CspModel:
    """Fitted spatial filters: first m rows maximize class -1 variance share,
    last m rows minimize it. eigenvalues are the class -1 shares per filter."""

    filters: np.ndarray  # (2m, n_channels)
    eigenvalues: np.ndarray  # (2m,)
    m: int


def trace_normalized(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each stacked X X^T divided by its trace, and the traces. Unchecked: a
    zero trace gives non-finite entries, which `csp_fits` refuses."""
    traces = np.trace(covs, axis1=1, axis2=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return covs / traces[:, None, None], traces


def _by_count(rows):
    """Per distinct row count k, the fits with k rows and their rows, (fits, k)."""
    sizes: dict = {}
    for f, r in enumerate(rows):
        sizes.setdefault(len(r), []).append(f)
    return [(np.array(s), np.array([rows[f] for f in s], dtype=np.intp)) for s in sizes.values()]


def csp_fits(unit: np.ndarray, traces: np.ndarray, neg_rows, pos_rows, m: int = 1):
    """`csp_stack` of fits over rows of one `trace_normalized` stack, fit f's
    classes being rows neg_rows[f] and pos_rows[f]; a fit on a row of zero
    trace fails with code 1. Each class mean is one np.add.reduce per row
    count, summing in one fit's np.mean order."""
    if not all(len(rows) for rows in (*neg_rows, *pos_rows)):
        raise ValueError("both classes must be nonempty")
    means = np.empty((2, len(neg_rows)) + unit.shape[1:])
    flat = np.zeros(len(neg_rows), dtype=bool)
    for c, rows in enumerate((neg_rows, pos_rows)):
        for fits, stacked in _by_count(rows):
            means[c, fits] = np.add.reduce(unit[stacked], axis=1) / stacked.shape[1]
            flat[fits] |= (traces[stacked] <= 0).any(axis=1)
    filters, lam, code, ratio = csp_stack(means[0], means[1], m)
    return filters, lam, np.where(flat, 1, code), ratio


def csp_stack(cov_neg: np.ndarray, cov_pos: np.ndarray, m: int = 1):
    """CSP filters (fits, 2m, c) and class -1 shares (fits, 2m) of stacked
    (fits, c, c) class covariances, each fit's failure code (2 more filters
    than channels, 3 a non-finite composite or whitened matrix, 4 a
    rank-deficient or all-zero composite) and its composite's eigenvalue
    ratio, least to greatest (0 where the greatest is 0). Whitens each
    composite covariance, eigendecomposes the whitened class -1 covariance
    and keeps the top-m / bottom-m eigenvectors mapped back through the
    whitening transform. Each eigendecomposition is one np.linalg.eigh of
    the stack; a failed fit's steps run on the identity.
    """
    n_fit, n_ch = cov_neg.shape[:2]
    if 2 * m > n_ch:
        return (np.zeros((n_fit, 2 * m, n_ch)), np.zeros((n_fit, 2 * m)),
                np.full(n_fit, 2), np.ones(n_fit))
    composite = cov_neg + cov_pos
    code = np.where(np.isfinite(composite).all(axis=(1, 2)), 0, 3)
    composite, cov_neg = (np.where(code[:, None, None], np.eye(n_ch), a)
                          for a in (composite, cov_neg))
    d, u = np.linalg.eigh(composite)
    code[(code == 0) & ~(d[:, 0] > 1e-10 * d[:, -1])] = 4
    scaled = u / np.sqrt(np.where(code[:, None], 1.0, d))[:, None, :]
    whitened = scaled.transpose(0, 2, 1) @ cov_neg @ scaled  # scaled's transpose whitens
    code[(code == 0) & ~np.isfinite(whitened).all(axis=(1, 2))] = 3
    lam, vecs = np.linalg.eigh(np.where(code[:, None, None], np.eye(n_ch), whitened))

    order = np.argsort(lam, axis=-1)[:, ::-1]
    keep = np.r_[0:m, n_ch - m:n_ch]
    lam = np.take_along_axis(lam, order, axis=-1)[:, keep]
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=-1)
    filters = (vecs.transpose(0, 2, 1) @ scaled.transpose(0, 2, 1))[:, keep]
    # eigenvectors are sign-ambiguous; make each row's largest coefficient positive
    peak = np.take_along_axis(filters, np.abs(filters).argmax(axis=-1)[..., None], axis=-1)
    filters[peak[..., 0] < 0] *= -1
    return filters, lam, code, np.divide(d[:, 0], d[:, -1], out=np.zeros(n_fit),
                                         where=d[:, -1] != 0)


def trial_moments(x: np.ndarray) -> np.ndarray:
    """Each trial's second moments of a (..., c, n) batch as one
    (..., c + 1, c + 1) matrix: X Xᵀ bordered by the channel sums and n,
    the X Xᵀ of X with a row of ones appended. Moments add: a window's are
    the sum of its segments'."""
    c, n = x.shape[-2:]
    out = np.empty(x.shape[:-2] + (c + 1, c + 1))
    out[..., :c, :c] = x @ x.swapaxes(-1, -2)
    out[..., c, :c] = out[..., :c, c] = x.sum(axis=-1)
    out[..., c, c] = n
    return out


def moment_log_shares(filters: np.ndarray, moments: np.ndarray,
                      m: int) -> tuple[np.ndarray, np.ndarray]:
    """Log variance share log(vH / (vH + vF)) of the class -1 filters, and
    the total vH + vF, of each trial under each fit's filters, from its
    `trial_moments` rather than its projections: over n samples with
    channel means μ, filter f's variance is fᵀ(X Xᵀ / n − μ μᵀ) f.

    filters (..., fits, 2m, c), the first m rows of each fit the class -1
    filters'; moments (..., rows, c + 1, c + 1). Returns (..., fits, rows)
    each. Unchecked: pass both to `share_codes`."""
    *lead, n_fit, _, c = filters.shape
    n = moments[..., c, c, None]
    mean = moments[..., :c, c] / n
    cov = moments[..., :c, :c] / n[..., None] - mean[..., :, None] * mean[..., None, :]
    # fᵀ C f of every filter and trial as one product: vec(f fᵀ) · vec(C)
    outer = (filters[..., :, None] * filters[..., None, :]).reshape(*lead, n_fit * 2 * m, c * c)
    variances = cov.reshape(*cov.shape[:-2], c * c) @ outer.swapaxes(-1, -2)
    variances = variances.reshape(*variances.shape[:-1], n_fit, 2 * m).swapaxes(-2, -3)
    var_h = variances[..., :m].sum(axis=-1)
    total = var_h + variances[..., m:].sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(var_h / total), total


def share_codes(shares: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Each trial's failure code of its share and total: 5 zero total
    variance, 6 a non-finite share, else 0."""
    return np.where(totals <= 0, 5, np.where(np.isfinite(shares), 0, 6))


def yule_walker(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Yule-Walker fits of stacked autocovariances r(0..p), (rows, p + 1):
    the parameters [a_1..a_p, sigma^2] (rows, p + 1) of
    x(n) = -sum_k a_k x(n-k) + u(n), sigma^2 clamped at 0, and each row's
    failure code (16 a constant series, r(0) <= 0; 17 a singular system; 0
    for a fit). A failed row's parameters are NaN. A row with r(0) <= 0 is
    set aside; the rest are one stacked solve, which falls back to a solve
    per row only if one of its systems is singular."""
    p = r.shape[1] - 1
    codes = np.where(r[:, 0] <= 0, 16, 0).astype(np.int8)
    fit = np.flatnonzero(codes == 0)
    lags = np.arange(p)
    toeplitz = r[fit][:, np.abs(lags[:, None] - lags)]
    rhs = r[fit, 1:, None]
    try:
        a = np.linalg.solve(toeplitz, rhs)
    except LinAlgError:
        a = np.full(rhs.shape, np.nan)
        for i, row in enumerate(fit):
            try:
                a[i] = np.linalg.solve(toeplitz[i], rhs[i])
            except LinAlgError:
                codes[row] = 17
    sigma2 = r[fit, 0] - (a.transpose(0, 2, 1) @ rhs)[:, 0, 0]
    params = np.full(r.shape, np.nan)
    params[fit, :p] = -a[..., 0]
    params[fit, p] = np.where(sigma2 < 0, 0.0, sigma2)
    return params, codes


def ar_fits(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """`yule_walker` of the biased sample autocovariances r(0..p) of each
    demeaned row of x (rows, n); each lag's is a (1 x n-k) @ (n-k x 1)
    product."""
    n = x.shape[-1]
    x = x - x.mean(axis=-1, keepdims=True)
    r = np.stack([(x[:, None, :n - k] @ x[:, k:, None])[:, 0, 0] for k in range(p + 1)],
                 axis=1) / n
    return yule_walker(r)


def fisher_scores(values: np.ndarray, labels: Sequence[int]) -> np.ndarray:
    """Per-channel Fisher score (mu- - mu+)^2 / (var- + var+).

    values: (n_trials, n_channels) matrix of scalar channel summaries.
    Zero pooled variance with unequal means yields +inf (ranked first). A
    channel constant in every trial, such as a dead channel's log power of
    -inf, has equal means and zero pooled variance: score 0.
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    neg = values[labels == -1]
    pos = values[labels == 1]
    if len(neg) < 2 or len(pos) < 2:
        raise ValueError("each class needs >= 2 trials for Fisher scoring")
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, ranked last
        delta = neg.mean(axis=0) - pos.mean(axis=0)
        pooled = neg.var(axis=0, ddof=1) + pos.var(axis=0, ddof=1)
    constant = (values == values[0]).all(axis=0)
    delta[constant] = 0.0
    scores = np.empty(values.shape[1])
    zero = constant | (pooled == 0)
    scores[~zero] = delta[~zero] ** 2 / pooled[~zero]
    scores[zero] = np.where(delta[zero] != 0, np.inf, 0.0)
    return scores


def select_channels(scores: np.ndarray, n: int) -> list[int]:
    """Indices of the n largest scores, descending, ties to lower index, NaN
    last."""
    scores = np.asarray(scores, dtype=float)
    if not 1 <= n <= len(scores):
        raise ValueError(f"cannot select {n} of {len(scores)} channels")
    return np.argsort(-scores, kind="stable")[:n].tolist()
