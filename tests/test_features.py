import numpy as np
import pytest
from scipy.linalg import solve_toeplitz

from mipipe.errors import FAILURES, NumericalError, RankDeficientError, failure, raise_first
from mipipe.features import (
    CspModel,
    ar_fits,
    csp_fits,
    fisher_scores,
    moment_log_shares,
    select_channels,
    share_codes,
    trace_normalized,
    trial_moments,
    yule_walker,
)

from conftest import as_trials, make_trial
from oracle import ar_feature, baseline_correct, crop, lowpass_zero_phase, lrp_feature


def orthogonal_trial(scales):
    """(2, 4) trial whose normalized covariance is diag(scales) / sum(scales)."""
    base = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
    return np.diag(np.sqrt(scales)) @ base


def class_mean(x):
    """Mean trace-normalized covariance of the (n, c, s) trials x."""
    return trace_normalized(x @ x.transpose(0, 2, 1))[0].mean(axis=0)


def one_csp(neg, pos, m):
    """`csp_fits` of one fit, classes -1 and +1 being the trials neg and pos."""
    x = np.concatenate([neg, pos])
    unit, traces = trace_normalized(x @ x.transpose(0, 2, 1))
    (filters,), (eigenvalues,), codes, (ratio,) = csp_fits(
        unit, traces, [np.arange(len(neg))], [np.arange(len(neg), len(x))], m)
    raise_first(codes, ratio=ratio, filters=2 * m, channels=x.shape[1])
    return CspModel(filters=filters, eigenvalues=eigenvalues, m=m)


def csp_shares(model, x):
    """Checked log variance shares of `model`'s filters on (n, c, s) trials,
    from the trials' moments."""
    (shares,), (totals,) = moment_log_shares(model.filters[None], trial_moments(x), model.m)
    raise_first(share_codes(shares, totals))
    return shares


class TestCsp:
    def test_hand_computed_2x2_oracle(self):
        # class covariances diag(2,1)/3 and diag(1,2)/3 exactly
        neg = np.array([orthogonal_trial([2.0, 1.0])])
        pos = np.array([orthogonal_trial([1.0, 2.0])])
        assert np.allclose(class_mean(neg), np.diag([2 / 3, 1 / 3]))
        model = one_csp(neg, pos, m=1)
        assert np.allclose(model.eigenvalues, [2 / 3, 1 / 3], atol=1e-8)
        # filters are the coordinate axes up to sign and scale
        for row in model.filters:
            assert np.min(np.abs(row)) < 1e-8 * np.max(np.abs(row))
        # both projected covariances diagonal, summing to identity
        for cov in (class_mean(neg), class_mean(pos)):
            proj = model.filters @ cov @ model.filters.T
            off = proj - np.diag(np.diag(proj))
            assert np.max(np.abs(off)) < 1e-8
        total = model.filters @ (class_mean(neg) + class_mean(pos)) @ model.filters.T
        assert np.allclose(total, np.eye(2), atol=1e-8)

    def test_identical_classes_half_eigenvalues(self, rng):
        trials = rng.normal(size=(6, 4, 50))
        model = one_csp(trials, trials, m=2)
        assert np.allclose(model.eigenvalues, 0.5, atol=1e-8)

    def test_composite_whitening_identity(self, rng):
        neg = rng.normal(size=(8, 4, 200))
        pos = rng.normal(size=(8, 4, 200))
        model = one_csp(neg, pos, m=2)
        composite = class_mean(neg) + class_mean(pos)
        assert np.allclose(model.filters @ composite @ model.filters.T,
                           np.eye(4), atol=1e-8)
        # per-filter complementarity: class shares sum to 1
        neg_shares = np.diag(model.filters @ class_mean(neg) @ model.filters.T)
        pos_shares = np.diag(model.filters @ class_mean(pos) @ model.filters.T)
        assert np.allclose(neg_shares + pos_shares, 1.0, atol=1e-8)
        assert np.allclose(neg_shares, model.eigenvalues, atol=1e-8)

    def test_rank_deficient_error(self):
        # second channel duplicates the first
        trials = np.array([[np.arange(8.0), np.arange(8.0)]])
        with pytest.raises(RankDeficientError):
            one_csp(trials, trials, m=1)

    def test_too_many_filters(self, rng):
        trials = rng.normal(size=(1, 2, 20))
        with pytest.raises(ValueError):
            one_csp(trials, trials, m=2)

    def test_sign_convention(self, rng):
        neg = rng.normal(size=(4, 4, 100))
        pos = rng.normal(size=(4, 4, 100))
        model = one_csp(neg, pos, m=1)
        for row in model.filters:
            assert row[np.argmax(np.abs(row))] > 0


class TestCspFeature:
    def identity_model(self):
        return CspModel(filters=np.eye(2), eigenvalues=np.array([0.7, 0.3]), m=1)

    def test_equal_variances(self, rng):
        x = rng.normal(size=(1, 100))
        shares = csp_shares(self.identity_model(), np.vstack([x, x[:, ::-1]])[None])
        assert abs(shares[0] - np.log(0.5)) < 1e-12

    def test_three_to_one_ratio(self, rng):
        x = rng.normal(size=100)
        x = (x - x.mean()) / x.std()
        shares = csp_shares(self.identity_model(), np.vstack([np.sqrt(3.0) * x, x])[None])
        assert abs(shares[0] - np.log(0.75)) < 1e-12

    def test_scale_invariance(self, rng):
        x = rng.normal(size=(2, 100))
        f1, f2 = csp_shares(self.identity_model(), np.array([x, 17.5 * x]))
        assert abs(f1 - f2) < 1e-9

    def test_variance_shares_sum_to_one(self, rng):
        model = self.identity_model()
        projected = model.filters @ rng.normal(size=(2, 100))
        v = projected.var(axis=1)
        share_h = v[0] / v.sum()
        share_f = v[1] / v.sum()
        assert abs(share_h + share_f - 1.0) < 1e-12

    def test_output_negative(self, rng):
        assert csp_shares(self.identity_model(), rng.normal(size=(1, 2, 100)))[0] < 0

    def test_class_sign_on_synthetic(self):
        from mipipe.preprocess import bandpass_zero_phase
        from mipipe.synthgen import SynthConfig, generate

        ts = generate(SynthConfig(n_channels=4, trials_per_session=40,
                                  erd_depth=0.7, noise_sigma_uv=0.5, seed=2))
        prepped = [crop(bandpass_zero_phase(t, 100.0, 12.0, 14.0), 100.0, 0.5, 4.5)
                   for t in as_trials(ts)]
        neg = np.array([t.data for t in prepped if t.label == -1])
        pos = np.array([t.data for t in prepped if t.label == 1])
        model = one_csp(neg[:10], pos[:10], m=1)
        neg_feats = csp_shares(model, neg[10:])
        pos_feats = csp_shares(model, pos[10:])
        assert np.mean(neg_feats) > np.log(0.5) > np.mean(pos_feats)


def one_ar_fit(x, p):
    """`ar_fits` of one series: [a_1..a_p] and sigma^2, checked to be a fit."""
    params, codes = ar_fits(x[None], p)
    assert codes[0] == 0
    return params[0, :p], params[0, p]


class TestAr:
    def test_white_noise(self, rng):
        x = rng.normal(size=10000)
        a, noise_variance = one_ar_fit(x, p=7)
        assert np.max(np.abs(a)) < 0.05
        assert abs(noise_variance - 1.0) < 0.05

    def test_analytic_ar1_autocovariance(self):
        # x(n) = 0.9 x(n-1) + u(n), var(u) = 1: r(k) = 0.9^k / (1 - 0.81)
        r = 0.9 ** np.arange(2) / (1 - 0.81)
        (params,), _ = yule_walker(r[None])
        assert abs(params[0] - (-0.9)) < 1e-10
        assert abs(params[1] - 1.0) < 1e-10

    def test_analytic_matches_toeplitz_solver(self, rng):
        # independent oracle: generic SPD autocovariance solved by Levinson
        r = np.r_[5.0, 2.0, 1.0, 0.5, 0.1]
        p = 4
        (params,), _ = yule_walker(r[None])
        oracle = solve_toeplitz(r[:p], r[1: p + 1])
        assert np.max(np.abs(params[:p] + oracle)) < 1e-10

    def test_simulated_ar1(self, rng):
        n = 10000
        u = rng.normal(size=n + 500)
        x = np.empty(n + 500)
        x[0] = u[0]
        for i in range(1, n + 500):
            x[i] = 0.9 * x[i - 1] + u[i]
        a, noise_variance = one_ar_fit(x[500:], p=1)
        assert abs(a[0] - (-0.9)) < 0.05
        assert abs(noise_variance - 1.0) < 0.05

    def test_constant_series_errors(self):
        params, codes = ar_fits(np.ones((1, 1000)), p=3)
        assert str(failure(codes[0], channel=0)) == (
            "channel 0: constant series: cannot fit AR model")
        assert np.isnan(params).all()

    def test_failed_fits_raise_their_own_failures(self):
        # AR codes index the one failure table, where code 1 is CSP's "trial
        # has zero total variance"
        _, codes = ar_fits(np.ones((1, 200)), 3)
        with pytest.raises(NumericalError,
                           match="^channel 5: constant series: cannot fit AR model$"):
            raise_first(codes, channel=5)
        _, codes = yule_walker(np.array([[1.0, 1.0, 1.0]]))  # a rank-one Toeplitz system
        with pytest.raises(NumericalError, match="^channel 0: singular autocovariance system: "
                                                 "Singular matrix$"):
            raise_first(codes, channel=0)

    def test_too_short_errors(self, rng):
        # the one bound on the window: AR order 7 needs more than 70 samples
        from mipipe.config import PipelineConfig
        from mipipe.errors import ConfigError
        from mipipe.pipeline import ArExtractor
        from mipipe.preprocess import PreprocessConfig

        config = PipelineConfig(method="ar", ar_order=7,
                                preprocess=PreprocessConfig(window_s=(0.5, 1.1)))
        with pytest.raises(ConfigError, match="needs more than 70 samples per window, got 60"):
            ArExtractor(config, 100.0).prepare(rng.normal(size=(2, 3, 400)))

    def test_noise_variance_nonnegative(self):
        # r = [1, 2], p = 1: a_1 = -2 and sigma^2 = 1 - 2 * 2 = -3, clamped
        (params,), codes = yule_walker(np.array([[1.0, 2.0]]))
        assert codes[0] == 0
        assert params[0] == -2.0 and params[1] == 0.0


class TestArFeature:
    def test_dimension_one_channel(self, rng):
        trial = make_trial(rng.normal(size=(3, 200)))
        f = ar_feature(trial, [0], p=7)
        assert len(f) == 8

    def test_dimension_and_layout_two_channels(self, rng):
        trial = make_trial(rng.normal(size=(3, 200)))
        both = ar_feature(trial, [1, 2], p=7)
        first = ar_feature(trial, [1], p=7)
        assert len(both) == 16
        assert np.array_equal(both[:8], first)

    def test_error_tagged_with_channel(self, rng):
        data = rng.normal(size=(2, 200))
        data[1] = 1.0
        with pytest.raises(ValueError, match="channel 1"):
            ar_feature(make_trial(data), [0, 1], p=7)


class TestLrpFeature:
    def test_constant_after_baseline(self):
        trial = make_trial(np.full((2, 300), 2.0))
        corrected = baseline_correct(trial, 100.0, (0.0, 0.5))
        f = lrp_feature(corrected, [0, 1], 100.0, (0.5, 1.5))
        assert np.allclose(f, 0.0)

    def test_ramp_mean(self):
        # channel rises linearly 0 -> 1 across the feature window
        n = 300
        data = np.zeros((1, n))
        window = slice(50, 150)
        data[0, window] = np.linspace(0, 1, 100)
        f = lrp_feature(make_trial(data), [0], 100.0, (0.5, 1.5))
        assert abs(f[0] - 0.5) < 1 / (2 * 100)

    def test_lateralized_drift_sign(self):
        from mipipe.synthgen import SynthConfig, generate

        ts = generate(SynthConfig(n_channels=4, trials_per_session=20,
                                  erd_depth=0.0, lrp_slope_uv_per_s=5.0,
                                  noise_sigma_uv=0.1, seed=5))
        feats = []
        for t in as_trials(ts):
            p = baseline_correct(lowpass_zero_phase(t, 100.0, 1.5), 100.0, (0.0, 0.5))
            feats.append(lrp_feature(p, range(4), 100.0, (0.5, 1.5)))
        feats = np.array(feats)
        labels = ts.labels
        # the most drift-loaded channel separates the classes by sign
        scores = fisher_scores(feats, labels)
        best = int(np.argmax(scores))
        neg_mean = feats[labels == -1, best].mean()
        pos_mean = feats[labels == 1, best].mean()
        assert neg_mean * pos_mean < 0


class TestFisher:
    def test_equal_means_zero(self):
        values = np.array([[0.0], [0.0], [1.0], [1.0]])
        labels = [-1, 1, -1, 1]
        assert fisher_scores(values, labels)[0] == 0.0

    def test_known_score(self, rng):
        neg = rng.normal(0.0, 1.0, size=(5000, 1))
        pos = rng.normal(1.0, 1.0, size=(5000, 1))
        values = np.vstack([neg, pos])
        labels = [-1] * 5000 + [1] * 5000
        score = fisher_scores(values, labels)[0]
        assert abs(score - 0.5) < 0.05

    def test_exact_score_from_moments(self):
        # means 0 and 1, sample variances 1 and 1 exactly
        neg = np.array([-1.0, 1.0])  # mean 0, var (ddof=1) = 2 -> scale
        neg = neg / np.sqrt(2)
        pos = neg + 1.0
        values = np.r_[neg, pos][:, None]
        labels = [-1, -1, 1, 1]
        assert abs(fisher_scores(values, labels)[0] - 0.5) < 1e-12

    def test_scale_invariance(self, rng):
        values = rng.normal(size=(20, 3))
        labels = [-1] * 10 + [1] * 10
        s1 = fisher_scores(values, labels)
        s2 = fisher_scores(10.0 * values + 3.0, labels)
        assert np.max(np.abs(s1 - s2)) < 1e-9

    def test_zero_variance_separable_is_inf(self):
        values = np.array([[0.0], [0.0], [1.0], [1.0]])
        labels = [-1, -1, 1, 1]
        assert fisher_scores(values, labels)[0] == np.inf

    def test_too_few_per_class(self):
        with pytest.raises(ValueError):
            fisher_scores(np.zeros((3, 2)), [-1, 1, 1])

    def test_dead_channels_score_zero_without_warning(self):
        # log band power of channels 1 and 3, dead in every trial, is -inf;
        # warnings are errors here, so inf - inf must not warn
        dead = -np.inf
        values = np.array([[1.0, dead, 0.2, dead], [2.0, dead, 0.1, dead],
                           [0.5, dead, 0.3, dead], [3.0, dead, 0.4, dead]])
        scores = fisher_scores(values, [-1, -1, 1, 1])
        assert scores[1] == scores[3] == 0.0
        assert abs(scores[2] - 4.0) < 1e-9 and abs(scores[0] - 0.0625 / 3.625) < 1e-12
        assert select_channels(scores, 2) == [2, 0]

    def test_permutation_equivariance(self, rng):
        values = rng.normal(size=(20, 4))
        labels = [-1] * 10 + [1] * 10
        perm = [2, 0, 3, 1]
        s1 = fisher_scores(values, labels)[perm]
        s2 = fisher_scores(values[:, perm], labels)
        assert np.allclose(s1, s2)


class TestSelectChannels:
    def test_top_two(self):
        assert select_channels(np.array([0.1, 0.9, 0.5]), 2) == [1, 2]

    def test_tie_goes_to_lower_index(self):
        assert select_channels(np.array([0.5, 0.5, 0.5]), 1) == [0]

    def test_all_channels_sorted_by_score(self):
        assert select_channels(np.array([0.1, 0.9, 0.5]), 3) == [1, 2, 0]

    def test_nan_ranks_below_every_number(self):
        scores = np.array([np.nan, 0.0, np.inf, np.nan, 1.0, 1.0])
        assert select_channels(scores, 6) == [2, 4, 5, 1, 0, 3]
        assert select_channels(scores, 1) == [2]

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            select_channels(np.array([1.0, 2.0]), 0)
        with pytest.raises(ValueError):
            select_channels(np.array([1.0, 2.0]), 3)


def test_every_failure_formats_with_the_keys_its_callers_pass():
    # a CSP fit's failure names its ratio, filters and channels, an AR fit's
    # its channel, a bagging draw's its round; every other caller names none
    keys = {**dict.fromkeys(range(1, 5), {"ratio": 1e-12, "filters": 4, "channels": 3}),
            16: {"channel": 2}, 17: {"channel": 2}, 18: {"round": 0}}
    assert FAILURES[0] is None
    for code in range(1, len(FAILURES)):
        exc = failure(code, **keys.get(code, {}))
        assert isinstance(exc, ValueError) and str(exc) and "{" not in str(exc)
