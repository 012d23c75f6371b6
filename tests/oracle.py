"""Trial-at-a-time and one-fit references for the tests: each one runs on
one `Trial`, or for one fit, what the batched chains in `mipipe.preprocess`,
the stacked CSP fits in `mipipe.features`, the extractors in
`mipipe.pipeline`, the stacked LDAs and bagging in `mipipe.classify` and the
search in `mipipe.param_select` run on stacked arrays. The filters run one
trial at a time through `mipipe.preprocess`; `scipy_zero_phase` is the
filter's own reference, which it meets to a tolerance. `percent_17g` is
CPython's `%` formatting, the reference for the archive's CSV text."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from mipipe.classify import SHRINKAGE, BaggingEnsemble, hyperplane_codes
from mipipe.data_model import Trial, TrialSet
from mipipe.errors import (CriterionUndefinedError, NumericalError, RankDeficientError,
                           raise_first)
from mipipe.features import DEFAULT_AR_ORDER, CspModel, share_codes
from mipipe.preprocess import (
    _baseline,
    _car,
    _crop,
    _window_indices,
    lowpass_array,
)


def percent_17g(x: np.ndarray) -> bytes:
    """The reference for `mipipe.data_model._format_17g`: CPython's
    ``"%.17g" %`` of every value of a (rows, columns) block, ',' between
    values and '\\n' after each row."""
    row = ",".join(["%.17g"] * x.shape[1]) + "\n"
    return (row * len(x) % tuple(x.ravel().tolist())).encode()


def scipy_zero_phase(design, x: np.ndarray) -> np.ndarray:
    """The reference for `mipipe.preprocess._zero_phase`: scipy's Gustafsson
    filtfilt of each 1-D series or 2-D trial."""
    from scipy import signal

    irlen = min(design.settle, x.shape[-1] - 1)
    if x.ndim <= 2:
        return signal.filtfilt(design.b, design.a, x, method="gust", irlen=irlen)
    return np.array([scipy_zero_phase(design, t) for t in x])


def projection_log_shares(projections: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The reference for `mipipe.features.moment_log_shares`: the log
    variance share log(vH / (vH + vF)) of the class -1 projections, and the
    total vH + vF, of (..., 2m, n_samples) CSP projections whose first m
    rows are the class -1 filters', each variance taken over the projected
    samples. Unchecked."""
    variances = projections.var(axis=-1)
    var_h = variances[..., :m].sum(axis=-1)
    var_f = variances[..., m:].sum(axis=-1)
    total = var_h + var_f
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(var_h / total), total


def csp_log_shares(model: CspModel, x: np.ndarray):
    """The unchecked log variance shares and totals of `model`'s projections
    of a trial or a batch."""
    return projection_log_shares(model.filters @ x, model.m)


def lowpass_zero_phase(trial: Trial, fs_hz: float, cutoff_hz: float) -> Trial:
    return trial.with_data(lowpass_array(trial.data, fs_hz, cutoff_hz))


def common_average_reference(trial: Trial) -> Trial:
    """Subtract the instantaneous mean over channels from every channel."""
    return trial.with_data(_car(trial.data))


def crop(trial: Trial, fs_hz: float, start_s: float, end_s: float) -> Trial:
    """Keep samples with start_s <= k/fs < end_s (sample k at time k/fs)."""
    return trial.with_data(_crop(trial.data, fs_hz, (start_s, end_s)))


def baseline_correct(trial: Trial, fs_hz: float, window_s: tuple[float, float]) -> Trial:
    """Per channel, subtract the mean over the baseline window."""
    return trial.with_data(_baseline(trial.data, fs_hz, window_s))


def yule_walker_row(r: np.ndarray, p: int) -> np.ndarray:
    """`mipipe.features.yule_walker` of one row r(0..p): [a_1..a_p, sigma^2]
    of x(n) = -sum_k a_k x(n-k) + u(n), or the error its failure code names."""
    if r[0] <= 0:
        raise ValueError("constant series: cannot fit AR model")
    lags = np.arange(p)
    big_r = r[np.abs(lags[:, None] - lags)]  # the Toeplitz matrix of r(0..p-1)
    try:
        a_fwd = np.linalg.solve(big_r, r[1: p + 1])
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular autocovariance system: {exc}") from exc
    sigma2 = float(r[0] - a_fwd @ r[1: p + 1])
    return np.r_[-a_fwd, max(sigma2, 0.0)]


def fit_ar(series: np.ndarray, p: int = DEFAULT_AR_ORDER) -> np.ndarray:
    """`mipipe.features.ar_fits` of one 1-D series: the Yule-Walker fit of its
    biased sample autocovariances."""
    x = np.asarray(series, dtype=float).ravel()
    n = len(x)
    x = x - x.mean()
    r = np.array([x[: n - k] @ x[k:] for k in range(p + 1)]) / n
    return yule_walker_row(r, p)


def ar_feature(trial: Trial, channels: Sequence[int], p: int = DEFAULT_AR_ORDER) -> np.ndarray:
    """Concatenated per-channel AR parameters: [a_1..a_p sigma^2] per channel."""
    if not len(channels):
        raise ValueError("no channels selected")
    parts = []
    for c in channels:
        try:
            parts.append(fit_ar(trial.data[c], p))
        except ValueError as exc:
            raise ValueError(f"channel {c}: {exc}") from exc
    return np.concatenate(parts)


def lrp_feature(
    trial: Trial,
    channels: Sequence[int],
    fs_hz: float,
    feature_window_s: tuple[float, float] = (0.5, 1.5),
) -> np.ndarray:
    """Per selected channel, the mean amplitude inside the feature window."""
    if not len(channels):
        raise ValueError("no channels selected")
    i0, i1 = _window_indices(trial.data.shape[1], fs_hz, *feature_window_s)
    return trial.data[list(channels), i0:i1].mean(axis=1)


def session(trial_set: TrialSet, session_id: int) -> TrialSet:
    """Subset containing one session, order preserved."""
    return trial_set[trial_set.sessions == session_id]


def finite_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.linalg.eigh` of a symmetric matrix, refusing non-finite entries
    with `scipy.linalg.eigh`'s message."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return np.linalg.eigh(a)


def csp_from_covariances(cov_neg: np.ndarray, cov_pos: np.ndarray, m: int = 1,
                         eigh=finite_eigh) -> CspModel:
    """`mipipe.features.csp_stack` for one pair of class covariances, each
    eigendecomposition by `eigh`."""
    n_ch = cov_neg.shape[0]
    if 2 * m > n_ch:
        raise ValueError(f"2m = {2 * m} filters exceed {n_ch} channels")
    composite = cov_neg + cov_pos

    d, u = eigh(composite)
    if not d[0] > 1e-10 * d[-1]:  # an all-zero composite too
        raise RankDeficientError(
            f"composite covariance is rank deficient (eigenvalue ratio "
            f"{d[0] / d[-1] if d[-1] else 0.0:.2e} below 1e-10)"
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


def _class_mean(unit: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """Mean of trace-normalized covariances, once every trace is positive."""
    if np.any(traces <= 0):
        raise ValueError("trial has zero total variance")
    return np.mean(unit, axis=0)


def csp_from_normalized(unit: np.ndarray, traces: np.ndarray, labels, m: int = 1) -> CspModel:
    """`mipipe.features.csp_fits` for one fit, with np.mean class means."""
    labels = np.asarray(labels)
    neg, pos = labels == -1, labels == 1
    if not neg.any() or not pos.any():
        raise ValueError("both classes must be nonempty")
    return csp_from_covariances(
        _class_mean(unit[neg], traces[neg]), _class_mean(unit[pos], traces[pos]), m
    )


def fit_lda(x: np.ndarray, labels) -> tuple[np.ndarray, float]:
    """`mipipe.classify.fit_ldas` of one fit on all of an (n, d) matrix, as
    one 2-D fit: w = (S_w + ridge)^(-1) (mu+ - mu-), b at the midpoint."""
    y = np.asarray(labels)
    neg = x[y == -1]
    pos = x[y == 1]
    if len(neg) == 0 or len(pos) == 0:
        raise ValueError("both classes must be present")
    d = x.shape[1]
    if d == 0:
        raise ValueError("zero-dimension features")
    mu_neg = neg.mean(axis=0)
    mu_pos = pos.mean(axis=0)
    scatter = np.zeros((d, d))
    for block, mu in ((neg, mu_neg), (pos, mu_pos)):
        centered = block - mu
        scatter += centered.T @ centered
    tr = np.trace(scatter)
    ridge = SHRINKAGE * (tr / d if tr > 0 else 1.0)
    w = np.linalg.solve(scatter + ridge * np.eye(d), mu_pos - mu_neg)
    if not np.any(w):
        raise NumericalError("classes have identical means: no discriminant direction")
    b = -float(w @ (mu_pos + mu_neg) / 2.0)
    raise_first(hyperplane_codes(w[None], np.array([b])))
    return w, b


def fit_bagging(x: np.ndarray, labels, rounds: int, subset_fraction: float,
                seed: int) -> BaggingEnsemble:
    """`mipipe.classify.fit_bagging`, one round after another: each round
    draws its bootstrap rows and is fitted before the next round draws."""
    y = np.asarray(labels)
    n = len(x)
    k = math.ceil(subset_fraction * n)
    ldas = []
    for r in range(rounds):
        rng = np.random.default_rng([seed, r])
        for attempt in range(100):
            idx = rng.integers(0, n, size=k)
            if len(np.unique(y[idx])) == 2:
                break
        else:
            raise NumericalError(
                f"round {r}: 100 consecutive single-class draws; data degenerate"
            )
        ldas.append(fit_lda(x[idx], y[idx]))
    w, b = zip(*ldas)
    return BaggingEnsemble(np.stack(w), np.array(b), subset_fraction, rounds, seed)


def bagging_predict(ensemble: BaggingEnsemble, x: np.ndarray) -> int:
    """`mipipe.classify.bagging_predict_rows` of one row: each round scores
    w . x + b and votes; an exact tie goes to the sign of the mean score."""
    scores = np.array([float(w @ x + b) for w, b in zip(ensemble.w, ensemble.b)])
    votes = np.where(scores >= 0, 1, -1).sum()
    if votes != 0:
        return 1 if votes > 0 else -1
    return 1 if scores.mean() >= 0 else -1


def unit_lda(features: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, float]:
    """`fit_lda` of one feature scaled to a unit-norm hyperplane: the
    search's LDA for one fit."""
    w, b = fit_lda(features[:, None], labels)
    norm = float(np.linalg.norm(w))
    w, b = w / norm, b / norm
    raise_first(hyperplane_codes(w[None], np.array([b])))
    return w, b


def candidate_scores(train_x, test_x, normalized, labels, fits, m):
    """`mipipe.param_select._stack_scores` of one window fit by fit, from
    projections, raising the window's failure: each fold, then the full fit,
    gets its CSP, its checks and its LDA in that order, as if fitted alone,
    and its shares are the variances of its projections of the train
    trials. The full fit, last, holds out no row and scores the test trials."""
    train_scores = np.empty(len(train_x))
    for neg, pos, fold in fits:
        fit = np.sort(np.r_[neg, pos])
        csp = csp_from_normalized(normalized[0][fit], normalized[1][fit], labels[fit], m)
        share, total = csp_log_shares(csp, train_x)
        raise_first(share_codes(share[fit], total[fit]))
        w, b = unit_lda(share[fit], labels[fit])
        raise_first(share_codes(share[fold], total[fold]))
        train_scores[fold] = share[fold, None] @ w + b
    shares, totals = csp_log_shares(csp, test_x)
    raise_first(share_codes(shares, totals))
    return train_scores, shares[:, None] @ w + b


def candidate_rho(train_scores: np.ndarray, test_scores: np.ndarray) -> dict:
    """`mipipe.param_select._criterion` of one window's scores from
    np.histogram and np.corrcoef: its rho and balance penalty, or its error."""
    pooled = np.r_[train_scores, test_scores]
    lo, hi = float(pooled.min()), float(pooled.max())
    if not hi > lo:
        raise CriterionUndefinedError("criterion undefined: all scores identical")
    edges = np.linspace(lo, hi, 41)
    widths = np.diff(edges)
    if np.any(widths <= 0) or np.ptp(widths) > 1e-9 * widths[0]:
        raise ValueError("bin edges must be strictly increasing, equal width")
    masses = []
    for scores, name in ((train_scores, "train"), (test_scores, "test")):
        counts, _ = np.histogram(np.clip(scores, lo, hi), bins=edges)
        masses.append(counts / counts.sum())
    for mass, name in zip(masses, ("train", "test")):
        if np.ptp(mass) == 0:
            raise CriterionUndefinedError(f"criterion undefined: {name} histogram is flat")
    return {"rho": float(np.corrcoef(*masses)[0, 1]),
            "penalty": abs(float(np.mean(test_scores >= 0)) - 0.5)}
