"""Fisher-discriminant linear classification and bagged ensembles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .features import FeatureVector

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


def fit_lda(features, labels: Sequence[int]) -> LdaModel:
    """Fisher discriminant: w = (S_w + ridge)^(-1) (mu+ - mu-), b at midpoint."""
    x = _as_matrix(features)
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
        raise ValueError("classes have identical means: no discriminant direction")
    b = -float(w @ (mu_pos + mu_neg) / 2.0)
    return LdaModel(w=w, b=b)


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
    """Fit one LDA per bootstrap round; deterministic in (seed, round)."""
    x = _as_matrix(features)
    y = np.asarray(labels)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    n = len(x)
    k = math.ceil(subset_fraction * n)
    components = []
    for r in range(rounds):
        rng = np.random.default_rng([seed, r])
        for attempt in range(100):
            idx = rng.integers(0, n, size=k)
            if len(np.unique(y[idx])) == 2:
                break
        else:
            raise ValueError(
                f"round {r}: 100 consecutive single-class draws; data degenerate"
            )
        components.append(fit_lda(x[idx], y[idx]))
    return BaggingEnsemble(
        components=tuple(components),
        subset_fraction=subset_fraction,
        rounds=rounds,
        seed=seed,
    )


def bagging_scores(ensemble: BaggingEnsemble, x) -> np.ndarray:
    return np.array([lda_score(c, x) for c in ensemble.components])


def bagging_predict(ensemble: BaggingEnsemble, x) -> int:
    """Majority vote; exact ties fall back to the sign of the mean score."""
    scores = bagging_scores(ensemble, x)
    votes = np.where(scores >= 0, 1, -1).sum()
    if votes > 0:
        return 1
    if votes < 0:
        return -1
    return 1 if scores.mean() >= 0 else -1
