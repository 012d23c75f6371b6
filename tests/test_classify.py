import numpy as np
import pytest

from mipipe.classify import (
    BaggingEnsemble,
    LdaModel,
    bagging_predict,
    fit_bagging,
    fit_lda,
    lda_predict,
    lda_score,
)


def symmetric_clusters(rng, n=50, separation=1.0, dim=2):
    offsets = rng.normal(size=(n, dim))
    offsets -= offsets.mean(axis=0)  # class means land exactly at +-separation
    neg = -separation * np.eye(dim)[0] + offsets
    pos = separation * np.eye(dim)[0] + offsets  # mirrored offsets: exact symmetry
    x = np.vstack([neg, pos])
    y = np.array([-1] * n + [1] * n)
    return x, y


class TestLda:
    def test_symmetric_construction(self, rng):
        x, y = symmetric_clusters(rng)
        model = fit_lda(x, y)
        assert abs(model.b) < 1e-9
        direction = model.w / np.linalg.norm(model.w)
        # closed-form pooled-scatter oracle, no ridge
        neg, pos = x[y == -1], x[y == 1]
        scatter = sum((blk - blk.mean(axis=0)).T @ (blk - blk.mean(axis=0))
                      for blk in (neg, pos))
        oracle = np.linalg.solve(scatter, pos.mean(axis=0) - neg.mean(axis=0))
        oracle /= np.linalg.norm(oracle)
        angle = np.arccos(np.clip(abs(direction @ oracle), -1, 1))
        assert angle < 1e-6

    def test_1d_threshold_at_midpoint(self, rng):
        neg = rng.normal(0.0, 1.0, size=(100, 1))
        pos = 2.0 + rng.normal(0.0, 1.0, size=(100, 1))
        # symmetrize so means are exactly 0 and 2
        neg -= neg.mean()
        pos -= pos.mean() - 2.0
        model = fit_lda(np.vstack([neg, pos]), [-1] * 100 + [1] * 100)
        assert abs(lda_score(model, np.array([1.0]))) < 1e-9
        assert lda_score(model, np.array([0.99])) < 0 < lda_score(model, np.array([1.01]))

    def test_separable_training_accuracy(self, rng):
        neg = rng.normal((-5.0, 0.0), 0.5, size=(40, 2))
        pos = rng.normal((5.0, 0.0), 0.5, size=(40, 2))
        x = np.vstack([neg, pos])
        y = np.array([-1] * 40 + [1] * 40)
        model = fit_lda(x, y)
        assert all(lda_predict(model, xi) == yi for xi, yi in zip(x, y))

    def test_sign_convention_on_means(self, rng):
        x, y = symmetric_clusters(rng, separation=2.0)
        model = fit_lda(x, y)
        assert lda_score(model, x[y == 1].mean(axis=0)) > 0
        assert lda_score(model, x[y == -1].mean(axis=0)) < 0

    def test_midpoint_scores_zero(self, rng):
        x, y = symmetric_clusters(rng)
        model = fit_lda(x, y)
        midpoint = (x[y == 1].mean(axis=0) + x[y == -1].mean(axis=0)) / 2
        assert abs(lda_score(model, midpoint)) < 1e-12

    def test_score_linearity(self, rng):
        model = LdaModel(w=np.array([2.0, -1.0]), b=0.5)
        x = rng.normal(size=2)
        assert abs((lda_score(model, 2 * x) - lda_score(model, x))
                   - float(model.w @ x)) < 1e-12

    def test_predict_tie_rule(self):
        model = LdaModel(w=np.array([1.0]), b=0.0)
        assert lda_predict(model, np.array([0.0])) == 1
        assert lda_predict(model, np.array([3.2])) == 1
        assert lda_predict(model, np.array([-0.1])) == -1

    def test_positive_rescaling_invariance(self, rng):
        x, y = symmetric_clusters(rng)
        model = fit_lda(x, y)
        scaled = LdaModel(w=7.0 * model.w, b=7.0 * model.b)
        probes = rng.normal(size=(50, 2))
        assert all(lda_predict(model, p) == lda_predict(scaled, p) for p in probes)

    def test_permutation_invariance(self, rng):
        x, y = symmetric_clusters(rng)
        perm = rng.permutation(len(x))
        m1 = fit_lda(x, y)
        m2 = fit_lda(x[perm], y[perm])
        assert np.allclose(m1.w, m2.w)
        assert np.isclose(m1.b, m2.b)

    def test_single_class_errors(self, rng):
        with pytest.raises(ValueError):
            fit_lda(rng.normal(size=(10, 2)), [1] * 10)

    def test_dimension_mismatch(self):
        model = LdaModel(w=np.array([1.0, 2.0]), b=0.0)
        with pytest.raises(ValueError):
            lda_score(model, np.array([1.0]))


class TestBagging:
    def test_component_count_and_determinism(self, rng):
        x, y = symmetric_clusters(rng, n=112)  # 224 samples
        e1 = fit_bagging(x, y, rounds=50, subset_fraction=0.5, seed=42)
        e2 = fit_bagging(x, y, rounds=50, subset_fraction=0.5, seed=42)
        assert len(e1.components) == 50
        for c1, c2 in zip(e1.components, e2.components):
            assert np.array_equal(c1.w, c2.w) and c1.b == c2.b

    def test_different_seeds_differ(self, rng):
        x, y = symmetric_clusters(rng, n=30)
        e1 = fit_bagging(x, y, rounds=5, seed=1)
        e2 = fit_bagging(x, y, rounds=5, seed=2)
        assert any(not np.array_equal(c1.w, c2.w)
                   for c1, c2 in zip(e1.components, e2.components))

    def test_single_round_equals_component(self, rng):
        x, y = symmetric_clusters(rng, n=30)
        ensemble = fit_bagging(x, y, rounds=1, seed=3)
        probes = rng.normal(size=(30, 2))
        for p in probes:
            assert bagging_predict(ensemble, p) == lda_predict(ensemble.components[0], p)

    def test_unanimous_vote(self):
        comps = tuple(LdaModel(w=np.array([1.0]), b=float(i)) for i in range(1, 51))
        ensemble = BaggingEnsemble(comps, 0.5, 50, 0)
        assert bagging_predict(ensemble, np.array([10.0])) == 1

    def test_majority_vote(self):
        # 26 components vote -1, 24 vote +1
        comps = tuple(
            LdaModel(w=np.array([1.0]), b=-1.0) for _ in range(26)
        ) + tuple(
            LdaModel(w=np.array([1.0]), b=1.0) for _ in range(24)
        )
        ensemble = BaggingEnsemble(comps, 0.5, 50, 0)
        assert bagging_predict(ensemble, np.array([0.0])) == -1

    def test_tie_broken_by_mean_score(self):
        comps = (LdaModel(w=np.array([1.0]), b=-1.0),
                 LdaModel(w=np.array([1.0]), b=3.0))
        ensemble = BaggingEnsemble(comps, 0.5, 2, 0)
        # votes split 1/1; mean score at x=0 is +1 -> +1
        assert bagging_predict(ensemble, np.array([0.0])) == 1
        neg = (LdaModel(w=np.array([1.0]), b=-3.0),
               LdaModel(w=np.array([1.0]), b=1.0))
        ensemble = BaggingEnsemble(neg, 0.5, 2, 0)
        assert bagging_predict(ensemble, np.array([0.0])) == -1

    def test_degenerate_single_class_data(self, rng):
        x = rng.normal(size=(10, 2))
        with pytest.raises(ValueError, match="single-class"):
            fit_bagging(x, [1] * 10, rounds=3, seed=0)

    def test_noise_robustness_ordering(self, rng):
        # 30% flipped labels: ensemble beats mean component accuracy
        n = 60
        x = np.vstack([rng.normal((-2.0, 0), 1.0, size=(n, 2)),
                       rng.normal((2.0, 0), 1.0, size=(n, 2))])
        y = np.array([-1] * n + [1] * n)
        flipped = y.copy()
        flip_idx = rng.permutation(2 * n)[: int(0.3 * 2 * n)]
        flipped[flip_idx] *= -1
        xt = np.vstack([rng.normal((-2.0, 0), 1.0, size=(100, 2)),
                        rng.normal((2.0, 0), 1.0, size=(100, 2))])
        yt = np.array([-1] * 100 + [1] * 100)
        ensemble = fit_bagging(x, flipped, rounds=50, subset_fraction=0.5, seed=9)
        ens_acc = np.mean([bagging_predict(ensemble, xi) == ti for xi, ti in zip(xt, yt)])
        comp_acc = np.mean([
            [lda_predict(c, xi) == ti for xi, ti in zip(xt, yt)]
            for c in ensemble.components
        ])
        assert ens_acc >= comp_acc
