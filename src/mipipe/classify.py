"""Fisher-discriminant linear classification and bagged ensembles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import raise_first
from .features import _by_count

SHRINKAGE = 1e-6  # ridge on the pooled scatter, scaled by trace/dim


def hyperplane_codes(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each hyperplane's failure code, normal w[f] and offset b[f]: 10 an
    all-zero normal, 11 a non-finite parameter, else 0."""
    return np.where(~w.any(axis=1), 10,
                    np.where(np.isfinite(w).all(axis=1) & np.isfinite(b), 0, 11))


@dataclass(frozen=True)
class BaggingEnsemble:
    """One LDA per round: hyperplane normals w (rounds, d), offsets b (rounds,)."""

    w: np.ndarray
    b: np.ndarray
    subset_fraction: float
    rounds: int
    seed: int

    def __post_init__(self):
        # read-only views: the arrays passed in stay writable
        w, b = (np.asarray(a, dtype=float).view() for a in (self.w, self.b))
        if (self.rounds < 1 or w.ndim != 2 or w.shape[0] != self.rounds
                or b.shape != (self.rounds,)):
            raise ValueError("ensemble must hold one component per round")
        if not 0 < self.subset_fraction <= 1:
            raise ValueError("subset_fraction must be in (0, 1]")
        for name, a in (("w", w), ("b", b)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def fit_ldas(x: np.ndarray, neg_rows, pos_rows):
    """Fisher discriminants w = (S_w + ridge)^(-1) (mu+ - mu-), b at the
    midpoint, of the fits of x (fits, n, d) on rows neg_rows[f] and
    pos_rows[f] of x[f]: w (fits, d), b (fits,) and each fit's failure code
    (7 an empty class, 8 no feature, 9 identical means, then
    `hyperplane_codes`), bitwise each fit's alone. Means and scatter sum per
    class row count (`_by_count`) in one fit's order, then one stacked solve,
    which raises for a singular system; with one feature its pivot, S_w +
    ridge, is positive or NaN, so it never does."""
    n_fit, d = x.shape[0], x.shape[-1]
    mu = np.empty((2, n_fit, d))
    scatter = np.zeros((n_fit, d, d))
    with np.errstate(all="ignore"):  # a failed fit gets its code below
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
    empty = [not (len(neg) and len(pos)) for neg, pos in zip(neg_rows, pos_rows)]
    return w, b, np.where(empty, 7, 8 if d == 0 else
                          np.where(w.any(axis=1), hyperplane_codes(w, b), 9))


def fit_bagging(
    x: np.ndarray,
    labels: Sequence[int],
    rounds: int = 50,
    subset_fraction: float = 0.5,
    seed: int = 0,
) -> BaggingEnsemble:
    """One LDA per bootstrap round, deterministic in (seed, round), fitted as
    one `fit_ldas` stack from the (n, d) rows of x. The first failing round
    raises, a fit before a draw."""
    x = np.asarray(x, dtype=float)
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
    w, b, codes = fit_ldas(np.broadcast_to(x, (len(draws),) + x.shape),
                           [idx[y[idx] == -1] for idx in draws],
                           [idx[y[idx] == 1] for idx in draws])
    raise_first([*codes, 18 if len(draws) < rounds else 0], round=len(draws))
    return BaggingEnsemble(
        w=w,
        b=b,
        subset_fraction=subset_fraction,
        rounds=rounds,
        seed=seed,
    )


def bagging_predict_rows(ensemble: BaggingEnsemble, x: np.ndarray) -> np.ndarray:
    """Majority vote of the rounds on each row of an (n, d) matrix; exact
    ties fall back to the sign of the mean score. Each score w . x + b is a
    (1 x d) @ (d x 1) product, bitwise one round's alone."""
    x = np.ascontiguousarray(x, dtype=float)
    scores = (ensemble.w[None, :, None, :] @ x[:, None, :, None])[..., 0, 0] + ensemble.b
    votes = np.where(scores >= 0, 1, -1).sum(axis=1)
    return np.where(votes != 0, np.sign(votes), np.where(scores.mean(axis=1) >= 0, 1, -1))
