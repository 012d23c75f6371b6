import itertools

import numpy as np
import pytest

from mipipe.classify import (
    BaggingEnsemble,
    bagging_predict_rows,
    fit_bagging,
    fit_ldas,
)
from mipipe.errors import NumericalError, raise_first

import oracle


def symmetric_clusters(rng, n=50, separation=1.0, dim=2):
    offsets = rng.normal(size=(n, dim))
    offsets -= offsets.mean(axis=0)  # class means land exactly at +-separation
    neg = -separation * np.eye(dim)[0] + offsets
    pos = separation * np.eye(dim)[0] + offsets  # mirrored offsets: exact symmetry
    x = np.vstack([neg, pos])
    y = np.array([-1] * n + [1] * n)
    return x, y


def one_lda(x, y):
    """`fit_ldas` of one fit on all of x: w (d,) and b."""
    y = np.asarray(y)
    w, b, codes = fit_ldas(x[None], [np.flatnonzero(y == -1)], [np.flatnonzero(y == 1)])
    raise_first(codes)
    return w[0], b[0]


def hyperplane_scores(w, b, x):
    """w . x + b of each (n, d) row, one dot product per row."""
    return np.array([w @ row for row in x]) + b


def hyperplane_sides(w, b, x):
    """Each row's side of the hyperplane; a score of exactly 0 is +1."""
    return np.where(hyperplane_scores(w, b, x) >= 0, 1, -1)


def ensemble_of(w, b):
    w = np.array(w, dtype=float)
    return BaggingEnsemble(w, np.array(b, dtype=float), 0.5, len(w), 0)


def component_predictions(ensemble, x):
    """Each round's votes on the rows of x, (rounds, n)."""
    return np.array([hyperplane_sides(w, b, x) for w, b in zip(ensemble.w, ensemble.b)])


class TestLda:
    def test_symmetric_construction(self, rng):
        x, y = symmetric_clusters(rng)
        w, b = one_lda(x, y)
        assert abs(b) < 1e-9
        direction = w / np.linalg.norm(w)
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
        w, b = one_lda(np.vstack([neg, pos]), [-1] * 100 + [1] * 100)
        assert abs(hyperplane_scores(w, b, [[1.0]])[0]) < 1e-9
        assert hyperplane_scores(w, b, [[0.99]])[0] < 0 < hyperplane_scores(w, b, [[1.01]])[0]

    def test_separable_training_accuracy(self, rng):
        neg = rng.normal((-5.0, 0.0), 0.5, size=(40, 2))
        pos = rng.normal((5.0, 0.0), 0.5, size=(40, 2))
        x = np.vstack([neg, pos])
        y = np.array([-1] * 40 + [1] * 40)
        w, b = one_lda(x, y)
        assert np.array_equal(hyperplane_sides(w, b, x), y)

    def test_sign_convention_on_means(self, rng):
        x, y = symmetric_clusters(rng, separation=2.0)
        w, b = one_lda(x, y)
        assert hyperplane_scores(w, b, [x[y == 1].mean(axis=0)])[0] > 0
        assert hyperplane_scores(w, b, [x[y == -1].mean(axis=0)])[0] < 0

    def test_midpoint_scores_zero(self, rng):
        x, y = symmetric_clusters(rng)
        w, b = one_lda(x, y)
        midpoint = (x[y == 1].mean(axis=0) + x[y == -1].mean(axis=0)) / 2
        assert abs(hyperplane_scores(w, b, [midpoint])[0]) < 1e-12

    def test_score_linearity(self, rng):
        w, b = np.array([2.0, -1.0]), 0.5
        x = rng.normal(size=2)
        score = hyperplane_scores(w, b, [2 * x, x])
        assert abs((score[0] - score[1]) - float(w @ x)) < 1e-12

    def test_predict_tie_rule(self):
        ensemble = ensemble_of([[1.0]], [0.0])
        probes = np.array([[0.0], [3.2], [-0.1]])
        assert bagging_predict_rows(ensemble, probes).tolist() == [1, 1, -1]

    def test_positive_rescaling_invariance(self, rng):
        x, y = symmetric_clusters(rng)
        w, b = one_lda(x, y)
        probes = rng.normal(size=(50, 2))
        assert np.array_equal(hyperplane_sides(w, b, probes),
                              hyperplane_sides(7.0 * w, 7.0 * b, probes))

    def test_permutation_invariance(self, rng):
        x, y = symmetric_clusters(rng)
        perm = rng.permutation(len(x))
        w1, b1 = one_lda(x, y)
        w2, b2 = one_lda(x[perm], y[perm])
        assert np.allclose(w1, w2)
        assert np.isclose(b1, b2)

    def test_single_class_errors(self, rng):
        with pytest.raises(ValueError):
            one_lda(rng.normal(size=(10, 2)), [1] * 10)


class TestBagging:
    def test_component_count_and_determinism(self, rng):
        x, y = symmetric_clusters(rng, n=112)  # 224 samples
        e1 = fit_bagging(x, y, rounds=50, subset_fraction=0.5, seed=42)
        e2 = fit_bagging(x, y, rounds=50, subset_fraction=0.5, seed=42)
        assert e1.w.shape == (50, 2) and e1.b.shape == (50,)
        assert np.array_equal(e1.w, e2.w) and np.array_equal(e1.b, e2.b)

    def test_different_seeds_differ(self, rng):
        x, y = symmetric_clusters(rng, n=30)
        e1 = fit_bagging(x, y, rounds=5, seed=1)
        e2 = fit_bagging(x, y, rounds=5, seed=2)
        assert any(not np.array_equal(w1, w2) for w1, w2 in zip(e1.w, e2.w))

    def test_single_round_equals_component(self, rng):
        x, y = symmetric_clusters(rng, n=30)
        ensemble = fit_bagging(x, y, rounds=1, seed=3)
        probes = rng.normal(size=(30, 2))
        assert np.array_equal(bagging_predict_rows(ensemble, probes),
                              component_predictions(ensemble, probes)[0])

    def test_unanimous_vote(self):
        ensemble = ensemble_of(np.ones((50, 1)), np.arange(1.0, 51.0))
        assert bagging_predict_rows(ensemble, np.array([[10.0]])).tolist() == [1]

    def test_majority_vote(self):
        # 26 components vote -1, 24 vote +1
        ensemble = ensemble_of(np.ones((50, 1)), [-1.0] * 26 + [1.0] * 24)
        assert bagging_predict_rows(ensemble, np.array([[0.0]])).tolist() == [-1]

    def test_tie_broken_by_mean_score(self):
        ensemble = ensemble_of([[1.0], [1.0]], [-1.0, 3.0])
        # votes split 1/1; mean score at x=0 is +1 -> +1
        assert bagging_predict_rows(ensemble, np.array([[0.0]])).tolist() == [1]
        ensemble = ensemble_of([[1.0], [1.0]], [-3.0, 1.0])
        assert bagging_predict_rows(ensemble, np.array([[0.0]])).tolist() == [-1]

    @pytest.mark.parametrize("w,b,rounds", [
        (np.ones((2, 1)), np.zeros(2), 3),
        (np.ones((3, 1)), np.zeros(2), 3),
        (np.ones(3), np.zeros(3), 3),
        (np.ones((0, 1)), np.zeros(0), 0),
    ])
    def test_hyperplanes_must_match_rounds(self, w, b, rounds):
        with pytest.raises(ValueError, match="one component per round"):
            BaggingEnsemble(w, b, 0.5, rounds, 0)

    def test_hyperplanes_are_read_only_views(self):
        w, b = np.ones((2, 1)), np.zeros(2)
        ensemble = BaggingEnsemble(w, b, 0.5, 2, 0)
        assert not ensemble.w.flags.writeable and not ensemble.b.flags.writeable
        assert w.flags.writeable and b.flags.writeable

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
        ens_acc = np.mean(bagging_predict_rows(ensemble, xt) == yt)
        comp_acc = np.mean(component_predictions(ensemble, xt) == yt)
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
    return np.array_equal(got.w, want.w) and np.array_equal(got.b, want.b)


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
            want_w, want_b = oracle.fit_lda(x, y)
            for w, b in (one_lda(x, y), one_lda(non_contiguous(x), y)):
                assert np.array_equal(w, want_w) and b == want_b

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
            w, b = ensemble.w[:2].sum(axis=0), ensemble.b[:2].sum()
            # one component's boundary, or where two split votes' mean score is 0
            probes = np.vstack([scale * rng.normal(size=(40, d)),
                                on_boundary(scale * rng.normal(size=(40, d)), w, b)])
            want = [oracle.bagging_predict(ensemble, p) for p in probes]
            assert bagging_predict_rows(ensemble, probes).tolist() == want
            assert bagging_predict_rows(ensemble, non_contiguous(probes)).tolist() == want
            assert [bagging_predict_rows(ensemble, p[None])[0] for p in probes[::8]] == want[::8]

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

        def first_failure(*args):
            raise_first(fit_ldas(*args)[2])

        with pytest.raises(NumericalError, match="identical means"):
            first_failure(shared, [fine, fine, fine], [np.array([0, 0]), same, none])
        with pytest.raises(ValueError, match="both classes must be present"):
            first_failure(shared, [fine, none, fine], [np.array([0, 0]), same, same])
        with pytest.raises(ValueError, match="zero-dimension features"):
            first_failure(np.zeros((2, 4, 0)), [fine, none], [same, same])
        # each fit's own code, whatever the fits before it
        assert fit_ldas(shared, [fine, fine, fine],
                        [np.array([0, 0]), same, none])[2].tolist() == [0, 9, 7]
        assert fit_ldas(np.zeros((2, 4, 0)), [fine, none], [same, same])[2].tolist() == [8, 7]

    def test_one_feature_solve_is_never_singular(self):
        # the search's one-feature LDA: its pivot, scatter + ridge, is
        # positive or NaN, whatever finite, infinite or NaN features it fits
        values = np.array([0.0, -0.0, 5e-324, 1e-300, 1.0, 1e300, -1e300,
                           np.inf, -np.inf, np.nan])
        pairs = np.array(list(itertools.product(values, repeat=4)))[..., None]
        w, b, codes = fit_ldas(pairs, [np.array([0, 1])] * len(pairs),
                               [np.array([2, 3])] * len(pairs))
        assert set(codes.tolist()) == {0, 9, 11}
        assert np.isfinite(w[codes == 0]).all()
