"""Fisher-discriminant linear classification and bagged ensembles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError
from .features import FeatureVector, _by_count

SHRINKAGE = 1e-6  # ridge on the pooled scatter, scaled by trace/dim


def _as_matrix(features) -> np.ndarray:
    if isinstance(features, np.ndarray):
        return np.atleast_2d(np.asarray(features, dtype=float))
    return np.vstack([np.asarray(f.values if isinstance(f, FeatureVector) else f, dtype=float)
                      for f in features])


def _as_vector(x) -> np.ndarray:
    if isinstance(x, FeatureVector):
        return x.values
    return np.asarray(x, dtype=float).ravel()


@dataclass(frozen=True)
class LdaModel:
    w: np.ndarray
    b: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).ravel()
        if w.size == 0 or not np.any(w):
            raise ValueError("hyperplane normal must have a nonzero entry")
        if not (np.all(np.isfinite(w)) and math.isfinite(self.b)):
            raise ValueError("non-finite LDA parameters")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class BaggingEnsemble:
    components: tuple[LdaModel, ...]
    subset_fraction: float
    rounds: int
    seed: int

    def __post_init__(self):
        if not self.components or len(self.components) != self.rounds:
            raise ValueError("ensemble must hold one component per round")
        if not 0 < self.subset_fraction <= 1:
            raise ValueError("subset_fraction must be in (0, 1]")


def fit_ldas(x: np.ndarray, neg_rows, pos_rows) -> tuple[np.ndarray, np.ndarray]:
    """Fisher discriminants w = (S_w + ridge)^(-1) (mu+ - mu-), b at the
    midpoint, of the fits of x (fits, n, d) on rows neg_rows[f] and
    pos_rows[f] of x[f]: w (fits, d) and b (fits,), bitwise each fit's alone.
    Means and scatter sum per class row count (`_by_count`) in one fit's
    order, then one stacked solve. The first failing fit raises; a singular
    solve (features near the ends of the float range) raises for the stack."""
    n_fit, d = x.shape[0], x.shape[-1]
    mu = np.empty((2, n_fit, d))
    scatter = np.zeros((n_fit, d, d))
    with np.errstate(all="ignore"):  # a failed fit raises below
        for c, rows in enumerate((neg_rows, pos_rows)):
            for fits, stacked in _by_count(rows):
                block = x[fits[:, None], stacked]
                mu[c, fits] = np.add.reduce(block, axis=1) / stacked.shape[1]
                centered = block - mu[c, fits, None]
                scatter[fits] += centered.transpose(0, 2, 1) @ centered
        tr = np.trace(scatter, axis1=1, axis2=2)
        ridge = SHRINKAGE * np.where(tr > 0, tr / d, 1.0)
        w = np.linalg.solve(scatter + ridge[:, None, None] * np.eye(d),
                            (mu[1] - mu[0])[..., None])[..., 0]
        b = -((w[:, None, :] @ (mu[1] + mu[0])[:, :, None])[:, 0, 0] / 2.0)
    for f in np.flatnonzero(~(np.isfinite(w).all(axis=1) & np.isfinite(b) & w.any(axis=1))):
        if not len(neg_rows[f]) or not len(pos_rows[f]):
            raise ValueError("both classes must be present")
        if d == 0:
            raise ValueError("zero-dimension features")
        if not np.any(w[f]):
            raise NumericalError("classes have identical means: no discriminant direction")
        LdaModel(w=w[f], b=float(b[f]))
    return w, b


def fit_lda(features, labels: Sequence[int]) -> LdaModel:
    """Fisher discriminant of one fit; see `fit_ldas`."""
    x, y = _as_matrix(features), np.asarray(labels)
    w, b = fit_ldas(x[None], [np.flatnonzero(y == -1)], [np.flatnonzero(y == 1)])
    return LdaModel(w=w[0], b=float(b[0]))


def lda_score(model: LdaModel, x) -> float:
    v = _as_vector(x)
    if v.shape != model.w.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {model.w.shape}")
    return float(model.w @ v + model.b)


def lda_predict(model: LdaModel, x) -> int:
    # score exactly 0 counts as +1
    return 1 if lda_score(model, x) >= 0 else -1


def fit_bagging(
    features,
    labels: Sequence[int],
    rounds: int = 50,
    subset_fraction: float = 0.5,
    seed: int = 0,
) -> BaggingEnsemble:
    """One LDA per bootstrap round, deterministic in (seed, round), fitted as
    one `fit_ldas` stack. The first failing round raises, a fit before a draw."""
    x = _as_matrix(features)
    y = np.asarray(labels)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    n = len(x)
    k = math.ceil(subset_fraction * n)
    draws = []
    for r in range(rounds):
        rng = np.random.default_rng([seed, r])
        for attempt in range(100):
            idx = rng.integers(0, n, size=k)
            if len(np.unique(y[idx])) == 2:
                draws.append(idx)
                break
        else:
            break
    w, b = fit_ldas(np.broadcast_to(x, (len(draws),) + x.shape),
                    [idx[y[idx] == -1] for idx in draws], [idx[y[idx] == 1] for idx in draws])
    if len(draws) < rounds:
        raise NumericalError(
            f"round {len(draws)}: 100 consecutive single-class draws; data degenerate"
        )
    return BaggingEnsemble(
        components=tuple(LdaModel(w=w[r], b=float(b[r])) for r in range(rounds)),
        subset_fraction=subset_fraction,
        rounds=rounds,
        seed=seed,
    )


def bagging_predict_rows(ensemble: BaggingEnsemble, features) -> np.ndarray:
    """`bagging_predict` of each row of an (n, d) matrix: each score is a
    (1 x d) @ (d x 1) product, bitwise the component's `lda_score`."""
    x = np.ascontiguousarray(_as_matrix(features))
    w = np.stack([c.w for c in ensemble.components])
    b = np.array([c.b for c in ensemble.components])
    scores = (w[None, :, None, :] @ x[:, None, :, None])[..., 0, 0] + b
    votes = np.where(scores >= 0, 1, -1).sum(axis=1)
    return np.where(votes != 0, np.sign(votes), np.where(scores.mean(axis=1) >= 0, 1, -1))


def bagging_predict(ensemble: BaggingEnsemble, x) -> int:
    """Majority vote; exact ties fall back to the sign of the mean score."""
    return int(bagging_predict_rows(ensemble, _as_vector(x)[None])[0])
