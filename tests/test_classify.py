import numpy as np
import pytest

from mipipe.classify import (
    BaggingEnsemble,
    LdaModel,
    bagging_predict,
    bagging_predict_rows,
    fit_bagging,
    fit_lda,
    fit_ldas,
    lda_predict,
    lda_score,
)
from mipipe.errors import NumericalError

import oracle


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


# --- the stacked LDA against the loop reference in `oracle`, bitwise --------

DIMS = [1, 2, 7, 14, 19, 33]
SCALES = [1e-6, 1.0, 1e6]


def drawn_set(rng, d, scale):
    """n rows of d features, both classes present, shifted apart by class."""
    n = int(rng.integers(20, 120))
    y = rng.permutation(np.r_[-1, 1, rng.choice([-1, 1], size=n - 2)])
    x = scale * (rng.normal(size=(n, d)) + 0.4 * y[:, None] * rng.normal(size=d))
    return x, y


def non_contiguous(x):
    """`x` as every other column of a Fortran-ordered matrix twice as wide."""
    wide = np.asfortranarray(np.repeat(x, 2, axis=1))
    return wide[:, ::2]


def same_components(got, want):
    return len(got.components) == len(want.components) and all(
        np.array_equal(a.w, b.w) and a.b == b.b
        for a, b in zip(got.components, want.components))


def on_boundary(probes, w, b):
    """`probes` moved onto the hyperplane w . x + b = 0, where the sign of a
    score turns on its last bits."""
    return probes - ((probes @ w + b) / (w @ w))[:, None] * w


class TestStackedLdaEqualsLoopReference:
    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("d", DIMS)
    def test_fit_lda(self, rng, d, scale):
        for _ in range(20):
            x, y = drawn_set(rng, d, scale)
            want = oracle.fit_lda(x, y)
            for got in (fit_lda(x, y), fit_lda(non_contiguous(x), y)):
                assert np.array_equal(got.w, want.w) and got.b == want.b

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("d", DIMS)
    def test_fit_bagging_components(self, rng, d, scale):
        for seed in range(4):
            x, y = drawn_set(rng, d, scale)
            want = oracle.fit_bagging(x, y, 50, 0.5, seed)
            assert same_components(fit_bagging(x, y, 50, 0.5, seed), want)
            assert same_components(fit_bagging(non_contiguous(x), y, 50, 0.5, seed), want)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("d", DIMS)
    def test_batch_prediction(self, rng, d, scale):
        x, y = drawn_set(rng, d, scale)
        for rounds in (1, 2, 50):
            ensemble = fit_bagging(x, y, rounds, 0.5, seed=rounds)
            w = sum(c.w for c in ensemble.components[:2])
            b = sum(c.b for c in ensemble.components[:2])
            # one component's boundary, or where two split votes' mean score is 0
            probes = np.vstack([scale * rng.normal(size=(40, d)),
                                on_boundary(scale * rng.normal(size=(40, d)), w, b)])
            want = [oracle.bagging_predict(ensemble, p) for p in probes]
            assert bagging_predict_rows(ensemble, probes).tolist() == want
            assert bagging_predict_rows(ensemble, non_contiguous(probes)).tolist() == want
            assert [bagging_predict(ensemble, p) for p in probes[::8]] == want[::8]

    def test_first_failing_round_raises(self):
        # one +1 row in 200 and draws of 10 rows: a round fails to draw both
        # classes 100 times in a row now and then. With constant features
        # every round that draws both classes has identical means, so a
        # round before a failed draw must raise that instead.
        y = np.r_[1, -np.ones(199, dtype=int)]
        varied = np.random.default_rng(3).normal(size=(200, 2))
        late_draw_failures = 0
        for seed in range(20):
            for x in (varied, np.ones((200, 2))):
                try:
                    want = oracle.fit_bagging(x, y, 50, 0.05, seed)
                except NumericalError as exc:
                    with pytest.raises(NumericalError) as got:
                        fit_bagging(x, y, 50, 0.05, seed)
                    assert str(got.value) == str(exc)
                    late_draw_failures += x is varied and not str(exc).startswith("round 0:")
                else:
                    assert same_components(fit_bagging(x, y, 50, 0.05, seed), want)
        assert late_draw_failures > 0

    def test_fit_ldas_raises_for_the_first_failing_fit(self):
        x = np.array([[1.0, 2.0], [2.0, 3.0], [1.0, 2.0], [2.0, 3.0]])
        shared = np.broadcast_to(x, (3,) + x.shape)
        fine, same, none = np.array([0, 1]), np.array([2, 3]), np.array([], dtype=int)
        with pytest.raises(NumericalError, match="identical means"):
            fit_ldas(shared, [fine, fine, fine], [np.array([0, 0]), same, none])
        with pytest.raises(ValueError, match="both classes must be present"):
            fit_ldas(shared, [fine, none, fine], [np.array([0, 0]), same, same])
        with pytest.raises(ValueError, match="zero-dimension features"):
            fit_ldas(np.zeros((2, 4, 0)), [fine, none], [same, same])
