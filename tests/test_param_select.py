import itertools

import numpy as np
import pytest

from mipipe import features, param_select
from mipipe.classify import LdaModel, fit_ldas, lda_score
from mipipe.config import PipelineConfig, SearchSpace
from mipipe.data_model import SplitSpec, Trial, join, split, usable_folds
from mipipe.errors import CriterionUndefinedError
from mipipe.features import csp_feature, csp_stack, fit_csp
from mipipe.param_select import (
    FEASIBILITY_THRESHOLD,
    N_BINS,
    PdfEstimate,
    _BandBatches,
    _fold_fits,
    _unit_hyperplanes,
    candidate_scores,
    class_balance_penalty,
    estimate_pdf,
    grid_search,
    pdf_correlation,
)
from mipipe.synthgen import SynthConfig, generate

import oracle
from conftest import as_trials, count_filtered_trials, make_set, replace_trials, with_label
from oracle import crop, scipy_bandpass


def uniform_edges(lo=-1.0, hi=1.0):
    return np.linspace(lo, hi, N_BINS + 1)


class TestEstimatePdf:
    def test_mass_sums_to_one(self, rng):
        pdf = estimate_pdf(rng.normal(size=200), (-4.0, 4.0))
        assert abs(pdf.mass.sum() - 1.0) < 1e-12
        assert len(pdf.mass) == N_BINS
        assert len(pdf.bin_edges) == N_BINS + 1

    def test_known_placement(self):
        # one score per bin center -> uniform histogram
        edges = uniform_edges(0.0, 4.0)
        centers = (edges[:-1] + edges[1:]) / 2
        pdf = estimate_pdf(centers, (0.0, 4.0))
        assert np.allclose(pdf.mass, 1.0 / N_BINS)

    def test_single_bin_concentration(self):
        pdf = estimate_pdf([0.01, 0.02, 0.012], (0.0, 4.0))
        assert pdf.mass[0] == 1.0
        assert pdf.mass[1:].sum() == 0.0

    def test_out_of_range_clips_to_end_bins(self):
        pdf = estimate_pdf([-100.0, 100.0], (0.0, 1.0))
        assert pdf.mass[0] == 0.5
        assert pdf.mass[-1] == 0.5

    def test_empty_scores_error(self):
        with pytest.raises(ValueError):
            estimate_pdf([], (0.0, 1.0))

    def test_degenerate_range_error(self):
        with pytest.raises(ValueError):
            estimate_pdf([0.5], (1.0, 1.0))

    def test_pdf_estimate_validation(self):
        edges = uniform_edges()
        good = np.full(N_BINS, 1.0 / N_BINS)
        PdfEstimate(edges, good)  # valid
        with pytest.raises(ValueError):
            PdfEstimate(edges[:-1], good[:-1])
        with pytest.raises(ValueError):
            PdfEstimate(edges, 2 * good)  # sums to 2
        bad = good.copy()
        bad[0] = -bad[0]
        with pytest.raises(ValueError):
            PdfEstimate(edges, bad / bad.sum())


class TestClassBalancePenalty:
    def test_balanced_is_zero(self):
        assert class_balance_penalty([-1.0, 2.0, -0.5, 0.3]) == 0.0

    def test_all_one_class_is_half(self):
        assert class_balance_penalty([1.0, 2.0, 3.0]) == 0.5
        assert class_balance_penalty([-1.0, -2.0]) == 0.5

    def test_zero_score_counts_positive(self):
        # {0, -1}: one positive, one negative -> balanced
        assert class_balance_penalty([0.0, -1.0]) == 0.0

    def test_three_to_one(self):
        assert abs(class_balance_penalty([1.0, 2.0, 3.0, -1.0]) - 0.25) < 1e-12

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            class_balance_penalty([])


class TestPdfCorrelation:
    def test_identical_is_one(self, rng):
        scores = rng.normal(size=300)
        pdf = estimate_pdf(scores, (-4.0, 4.0))
        assert abs(pdf_correlation(pdf, pdf) - 1.0) < 1e-12

    def test_antisymmetric_is_minus_one(self):
        # q = 2*base - p is an affine map with negative slope -> rho = -1
        edges = uniform_edges()
        base = np.full(N_BINS, 1.0 / N_BINS)
        delta = 0.5 / N_BINS * np.where(np.arange(N_BINS) % 2 == 0, 1.0, -1.0)
        p = PdfEstimate(edges, base + delta)
        q = PdfEstimate(edges, base - delta)
        assert abs(pdf_correlation(p, q) + 1.0) < 1e-12

    def test_flat_histogram_undefined(self, rng):
        edges = uniform_edges()
        flat = PdfEstimate(edges, np.full(N_BINS, 1.0 / N_BINS))
        peaked = estimate_pdf(rng.normal(size=100), (-1.0, 1.0))
        with pytest.raises(CriterionUndefinedError):
            pdf_correlation(flat, peaked)
        with pytest.raises(CriterionUndefinedError):
            pdf_correlation(peaked, flat)

    def test_mismatched_edges_error(self, rng):
        p = estimate_pdf(rng.normal(size=100), (-1.0, 1.0))
        q = estimate_pdf(rng.normal(size=100), (-2.0, 2.0))
        with pytest.raises(ValueError):
            pdf_correlation(p, q)

    def test_same_distribution_high_correlation(self, rng):
        a = rng.normal(size=2000)
        b = rng.normal(size=2000)
        lo = min(a.min(), b.min())
        hi = max(a.max(), b.max())
        rho = pdf_correlation(estimate_pdf(a, (lo, hi)), estimate_pdf(b, (lo, hi)))
        assert rho >= 0.7


def planted_sets(seed, trials_per_session=280, fraction=0.2):
    ts = generate(SynthConfig(
        n_channels=5, trials_per_session=trials_per_session,
        rhythm_band_hz=(13.0, 2.0), erd_depth=0.6,
        noise_sigma_uv=1.5, seed=seed,
    ))
    return split(ts, SplitSpec(fraction, "prefix"))


SPACE = SearchSpace(
    bands_hz=((8.0, 10.0), (12.0, 14.0), (20.0, 24.0)),
    windows_s=((0.5, 4.5),),
)


class TestGridSearch:
    def test_single_candidate_is_winner(self):
        train, test = planted_sets(seed=0, trials_per_session=80)
        space = SearchSpace(bands_hz=((12.0, 14.0),), windows_s=((0.5, 4.5),))
        result = grid_search(train, test.without_labels(), space)
        assert result.winner_index == 0
        assert len(result.table) == 1
        assert result.config.preprocess.band_hz == (12.0, 14.0)
        assert result.config.preprocess.window_s == (0.5, 4.5)
        assert -1.0 <= result.rho <= 1.0

    def test_planted_band_recovered(self):
        train, test = planted_sets(seed=0)
        result = grid_search(train, test.without_labels(), SPACE)
        assert result.config.preprocess.band_hz == (12.0, 14.0)

    def test_test_labels_never_read(self):
        train, test = planted_sets(seed=1, trials_per_session=80)
        with_labels = grid_search(train, test, SPACE)
        without = grid_search(train, test.without_labels(), SPACE)
        assert with_labels.winner_index == without.winner_index
        for a, b in zip(with_labels.table, without.table):
            assert a == b

    def test_table_covers_all_candidates(self):
        train, test = planted_sets(seed=2, trials_per_session=80)
        windows = ((0.5, 2.5), (0.5, 4.5))
        space = SearchSpace(bands_hz=SPACE.bands_hz, windows_s=windows)
        result = grid_search(train, test.without_labels(), space)
        assert len(result.table) == 6
        listed = {(r["band_hz"], r["window_s"]) for r in result.table}
        assert listed == {(b, w) for b in SPACE.bands_hz for w in windows}
        winner = result.table[result.winner_index]
        assert winner["band_hz"] == result.config.preprocess.band_hz
        assert winner["rho"] == result.rho
        assert winner["penalty"] == result.balance_penalty

    def test_feasible_winner_respects_gate(self):
        train, test = planted_sets(seed=3, trials_per_session=80)
        result = grid_search(train, test.without_labels(), SPACE)
        feasible = [r for r in result.table if r["feasible"]]
        if feasible:
            assert result.balance_penalty <= FEASIBILITY_THRESHOLD
            assert result.rho == max(r["rho"] for r in feasible)

    def test_infeasible_fallback_objective(self):
        train, test = planted_sets(seed=4, trials_per_session=80)
        # an impossible gate forces the fallback rho - penalty objective
        result = grid_search(
            train, test.without_labels(), SPACE, feasibility_threshold=-1.0
        )
        assert not result.table[result.winner_index]["feasible"]
        best = max(r["rho"] - r["penalty"]
                   for r in result.table if r["rho"] is not None)
        winner = result.table[result.winner_index]
        assert winner["rho"] - winner["penalty"] == best

    def test_base_config_fields_preserved(self):
        train, test = planted_sets(seed=0, trials_per_session=80)
        base = PipelineConfig(method="ar", ar_order=5)
        space = SearchSpace(bands_hz=((12.0, 14.0),), windows_s=((0.5, 4.5),))
        result = grid_search(train, test.without_labels(), space, base=base)
        assert result.config.method == "ar"
        assert result.config.ar_order == 5

    def test_empty_test_errors(self):
        train, _ = planted_sets(seed=0, trials_per_session=80)
        empty = replace_trials(train, ())
        with pytest.raises(ValueError, match="empty"):
            grid_search(train, empty, SPACE)

    def test_single_class_train_errors(self):
        train, test = planted_sets(seed=0, trials_per_session=80)
        one_class = replace_trials(
            train, tuple(t for t in as_trials(train) if t.label == 1)
        )
        with pytest.raises(ValueError, match="both classes"):
            grid_search(one_class, test.without_labels(), SPACE)

    def test_unlabeled_train_trial_errors_before_filtering(self, monkeypatch):
        train, test = planted_sets(seed=0, trials_per_session=80)
        train = replace_trials(
            train, (with_label(as_trials(train)[0], None),) + as_trials(train)[1:]
        )
        filtered = count_filtered_trials(monkeypatch)
        with pytest.raises(ValueError, match="training set contains unlabeled trials"):
            grid_search(train, test.without_labels(), SPACE)
        assert filtered == []

    def test_too_few_labels_per_class_errors_before_filtering(self, monkeypatch):
        train, test = planted_sets(seed=0, trials_per_session=80)
        first_pos = train.labels.tolist().index(1)
        train = replace_trials(train, tuple(
            t for i, t in enumerate(as_trials(train)) if t.label == -1 or i == first_pos))
        filtered = count_filtered_trials(monkeypatch)
        with pytest.raises(ValueError, match="^too few labeled trials per class"):
            grid_search(train, test.without_labels(), SPACE)
        assert filtered == []

    def test_train_test_shape_mismatch_errors(self):
        train, test = planted_sets(seed=0, trials_per_session=80)
        fs = test.sampling_rate_hz
        mismatched = {
            "channels": make_set(
                [t.with_data(t.data[:4]) for t in as_trials(test)], fs,
                test.channel_labels[:4]),
            "samples": replace_trials(
                test, (t.with_data(t.data[:, :-10]) for t in as_trials(test))),
            "rate": make_set(as_trials(test), 2 * fs, test.channel_labels),
        }
        expected = {
            "channels": "test has 4 channels x 500 samples at 100.0 Hz",
            "samples": "test has 5 channels x 490 samples at 100.0 Hz",
            "rate": "test has 5 channels x 500 samples at 200.0 Hz",
        }
        for name, other in mismatched.items():
            with pytest.raises(ValueError) as exc:
                grid_search(train, other.without_labels(), SPACE)
            assert str(exc.value) == (
                "train and test sets differ: train has 5 channels x 500 samples "
                f"at 100.0 Hz, {expected[name]}"
            )

    def test_each_trial_filtered_once_per_band_and_channel_set(self, monkeypatch):
        train, test = planted_sets(seed=2, trials_per_session=60)
        space = SearchSpace(
            bands_hz=SPACE.bands_hz, windows_s=((0.5, 2.5), (1.0, 4.5)),
            channel_sets=(None, (0, 3)), m_values=(1, 2),
        )
        filtered = count_filtered_trials(monkeypatch)
        grid_search(train, test.without_labels(), space)
        # one call per (band, channel set), over the train and test rows
        assert filtered == [len(train) + len(test)] * (3 * 2)

    def test_deterministic(self):
        train, test = planted_sets(seed=5, trials_per_session=80)
        r1 = grid_search(train, test.without_labels(), SPACE)
        r2 = grid_search(train, test.without_labels(), SPACE)
        assert r1.winner_index == r2.winner_index
        assert r1.rho == r2.rho
        for a, b in zip(r1.table, r2.table):
            assert a == b


# --- per-trial oracle: the search as written before it was batched by band ---

def unit_ldas(shares, neg_rows, pos_rows):
    """The search's unit-norm LDAs of one feature, fit f's classes being
    shares[f, neg_rows[f]] and shares[f, pos_rows[f]]."""
    return _unit_hyperplanes(*fit_ldas(shares[..., None], neg_rows, pos_rows))


def unit_lda(features, labels):
    """`unit_ldas` of one fit."""
    w, b = unit_ldas(features[None], [np.flatnonzero(labels == -1)],
                     [np.flatnonzero(labels == 1)])
    return LdaModel(w=w, b=float(b[0]))


class TestUnitLda:
    """The search's one-feature LDA, the stacked `fit_ldas` scaled to unit
    norm, against the loop `fit_lda` of one fit and the same scaling."""

    reference = staticmethod(oracle.unit_lda)

    @staticmethod
    def random_sets(rng, scale, count=300):
        for _ in range(count):
            n = int(rng.integers(2, 130))
            labels = rng.permutation(np.r_[-1, 1, rng.choice([-1, 1], size=n - 2)])
            yield scale * (rng.normal(size=n) - 0.3 * labels * rng.uniform()), labels

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_bitwise_equal_to_fit_lda_normalised(self, rng, scale):
        for features, labels in self.random_sets(rng, scale):
            got, want = unit_lda(features, labels), self.reference(features, labels)
            assert got.w.shape == want.w.shape == (1,)
            assert np.array_equal(got.w, want.w) and got.b == want.b

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_all_fits_at_once_equal_each_fit_alone(self, rng, scale):
        # 300 fits of many class sizes in one call, padded to one width
        sets = list(self.random_sets(rng, scale))
        shares = np.zeros((len(sets), max(len(f) for f, _ in sets)))
        for f, (features, _) in enumerate(sets):
            shares[f, :len(features)] = features
        w, b = unit_ldas(shares, [np.flatnonzero(y == -1) for _, y in sets],
                         [np.flatnonzero(y == 1) for _, y in sets])
        for f, (features, labels) in enumerate(sets):
            want = self.reference(features, labels)
            assert w[f] == want.w[0] and b[f] == want.b

    @pytest.mark.parametrize("features, labels, match", [
        ([1.0, 2.0, 1.0, 2.0], [-1, -1, 1, 1], "identical means"),
        ([3.0, 3.0, 3.0, 3.0], [-1, 1, -1, 1], "identical means"),
        ([1.0, 2.0, 3.0], [1, 1, 1], "both classes must be present"),
    ])
    def test_same_errors_as_fit_lda(self, features, labels, match):
        features, labels = np.array(features), np.array(labels)
        for fit in (unit_lda, self.reference):
            with pytest.raises(ValueError, match=match):
                fit(features, labels)

    def test_first_failing_fit_raises(self):
        fine, same_means = [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 1.0, 2.0]
        rows = [np.array([0, 1]), np.array([2, 3]), np.array([], dtype=int)]
        cases = [
            ([fine, same_means, fine], [rows[0]] * 3, [rows[1]] * 3, "identical means"),
            ([fine, fine, same_means], [rows[0]] * 3, [rows[1], rows[2], rows[1]],
             "both classes must be present"),
        ]
        for shares, neg, pos, match in cases:
            with pytest.raises(ValueError, match=match):
                unit_ldas(np.array(shares), neg, pos)


def test_csp_stack_equals_each_fit_alone(rng):
    # class covariances as the search forms them, of 2-8 channels, with
    # m = 1 and 2; one stacked call per shape
    for n_ch in range(2, 9):
        x = rng.normal(size=(40, n_ch, 60)) * rng.uniform(0.5, 2.0, size=(1, n_ch, 1))
        unit, _ = features.trace_normalized(x @ x.transpose(0, 2, 1))
        picks = [rng.permutation(40) for _ in range(12)]
        cov_neg = np.array([unit[p[:15]].mean(axis=0) for p in picks])
        cov_pos = np.array([unit[p[15:]].mean(axis=0) for p in picks])
        for m in (1, 2)[:n_ch // 2]:
            filters, lam = csp_stack(cov_neg, cov_pos, m)
            for f in range(12):
                want = oracle.csp_from_covariances(cov_neg[f], cov_pos[f], m)
                assert np.array_equal(filters[f], want.filters)
                assert np.array_equal(lam[f], want.eigenvalues)


def test_csp_stack_raises_for_the_first_failing_fit():
    eye, rank_one, nan = np.eye(3) / 3, np.diag([1.0, 0.0, 0.0]), np.full((3, 3), np.nan)
    with pytest.raises(ValueError, match="rank deficient"):
        csp_stack(np.array([eye, rank_one, eye]), np.array([eye, rank_one, nan]), 1)
    with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
        csp_stack(np.array([eye, eye, rank_one]), np.array([eye, nan, rank_one]), 1)
    with pytest.raises(ValueError, match="^2m = 4 filters exceed 3 channels$"):
        csp_stack(np.array([eye]), np.array([eye]), 2)


def unbalanced_batches(channels):
    """Cropped train and test batches of a planted set with 33 trials of
    class -1 and 17 of class +1: ten folds whose fits hold 29 or 30 trials
    of class -1 and 15 or 16 of class +1, and the full fit 33 and 17."""
    train, test = planted_sets(seed=7, trials_per_session=200, fraction=0.4)
    counts = {-1: 0, 1: 0}
    keep = []
    for t in as_trials(train):
        counts[t.label] += 1
        if counts[t.label] <= {-1: 33, 1: 17}[t.label]:
            keep.append(t)
    train = replace_trials(train, keep)
    labels = np.array(train.labels)
    batches = _BandBatches(join(train, test.without_labels()).data, len(train),
                           train.sampling_rate_hz)
    return batches.crop((12.0, 14.0), (0.5, 3.5), channels), labels


class TestStackedScoresMatchPerFit:
    """`candidate_scores` against the fit-by-fit reference in `oracle`."""

    @pytest.mark.parametrize("channels", [None, (0, 2, 3, 4)])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("per_group", [None, 3])
    def test_scores_equal_reference(self, monkeypatch, channels, m, per_group):
        (train_x, test_x, normalized), labels = unbalanced_batches(channels)
        fits = _fold_fits(labels)
        assert len(fits) == 11
        assert len({len(neg) for _, neg, _, _ in fits}) == 3
        assert len({len(pos) for _, _, pos, _ in fits}) == 3
        block = param_select.BLOCK_VALUES
        if per_group is not None:  # several groups: 3, 3, 3 and 2 fits
            block = per_group * len(train_x) * 2 * m * train_x.shape[-1]
            monkeypatch.setattr(param_select, "BLOCK_VALUES", block)
        got = candidate_scores(train_x, test_x, normalized, fits, m)
        want = oracle.candidate_scores(train_x, test_x, normalized, labels, fits, m, block)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("broken", ["trial", "projection", "test trial"])
    @pytest.mark.parametrize("flat_fold", [0, 4])
    @pytest.mark.parametrize("scale", [0.0, np.nan])
    def test_first_error_equals_reference(self, monkeypatch, broken, flat_fold, scale):
        # one trial zeroed or made NaN: a train trial held out in fold 0 or
        # in the second group of fits, in its trace and projections or in
        # its projections only, or a test trial, which only the full fit in
        # the last group projects
        (train_x, test_x, normalized), labels = unbalanced_batches((0, 2, 3))
        fits = _fold_fits(labels)
        row = fits[flat_fold][3][0]
        train_x, test_x = train_x.copy(), test_x.copy()
        unit, traces = (a.copy() for a in normalized)
        if broken == "test trial":
            test_x[row] *= scale
        else:
            train_x[row] *= scale
        if broken == "trial":
            unit[row] *= scale
            traces[row] *= scale
        block = 3 * len(train_x) * 2 * train_x.shape[-1]
        monkeypatch.setattr(param_select, "BLOCK_VALUES", block)
        messages = []
        for scores in (lambda: candidate_scores(train_x, test_x, (unit, traces), fits, 1),
                       lambda: oracle.candidate_scores(
                           train_x, test_x, (unit, traces), labels, fits, 1, block)):
            with pytest.raises(ValueError) as exc:
                scores()
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0] in {
            "trial has zero total variance",
            "array must not contain infs or NaNs",
            "zero total variance after spatial filtering",
            "feature vector contains non-finite values",
        }


def test_ten_fold_candidate_makes_two_eigendecompositions_per_fit(monkeypatch):
    (train_x, test_x, normalized), labels = unbalanced_batches(None)
    fits = _fold_fits(labels)
    eigh_calls, projected = [], []
    eigh, project = features._eigh, param_select.projection_log_shares

    def counting_eigh(a):
        eigh_calls.append(a.shape)
        return eigh(a)

    def counting_projection(projections, m):
        projected.append(projections.shape)
        return project(projections, m)

    monkeypatch.setattr(features, "_eigh", counting_eigh)
    monkeypatch.setattr(param_select, "projection_log_shares", counting_projection)
    n, n_ch, n_samples = train_x.shape
    monkeypatch.setattr(param_select, "BLOCK_VALUES", 4 * n * 2 * n_samples)
    candidate_scores(train_x, test_x, normalized, fits, 1)
    assert len(eigh_calls) == 22  # two dsyevr calls per fit, 10 folds and the full fit
    # one projection per group of 4, 4 and 3 fits, then the test trials'
    assert projected == [(4, n, 2, n_samples), (4, n, 2, n_samples),
                         (3, n, 2, n_samples), (len(test_x), 2, n_samples)]


def _oracle_prep(ts, band, window, channels):
    out = []
    for t in as_trials(ts):
        data = t.data if channels is None else t.data[list(channels)]
        trial = Trial(data, t.label, t.session_id, t.trial_index)
        trial = scipy_bandpass(trial, ts.sampling_rate_hz, *band)
        out.append(crop(trial, ts.sampling_rate_hz, *window))
    return out


def _oracle_fit_and_score(train_trials, train_labels, score_trials, m):
    neg = [t for t, y in zip(train_trials, train_labels) if y == -1]
    pos = [t for t, y in zip(train_trials, train_labels) if y == 1]
    model = fit_csp(neg, pos, m)
    lda = oracle.unit_lda(np.array([csp_feature(model, t).values[0] for t in train_trials]),
                          np.asarray(train_labels))
    return [lda_score(lda, csp_feature(model, t)) for t in score_trials]


def _oracle_scores(train, test, band, window, channels, m):
    train_trials = _oracle_prep(train, band, window, channels)
    test_trials = _oracle_prep(test, band, window, channels)
    labels = np.array([t.label for t in as_trials(train)])
    train_scores = np.empty(len(train_trials))
    for fold in usable_folds(labels, 10):
        mask = np.ones(len(train_trials), dtype=bool)
        mask[fold] = False
        fit_part = [train_trials[i] for i in np.flatnonzero(mask)]
        train_scores[fold] = _oracle_fit_and_score(
            fit_part, labels[mask], [train_trials[i] for i in fold], m
        )
    test_scores = np.array(_oracle_fit_and_score(train_trials, labels, test_trials, m))
    return train_scores, test_scores


def oracle_table(train, test, space):
    table = []
    for band, window, channels, m in itertools.product(
        space.bands_hz, space.windows_s, space.channel_sets, space.m_values
    ):
        row = {
            "band_hz": band, "window_s": window, "channels": channels, "m": m,
            "rho": None, "penalty": None, "feasible": False, "error": None,
        }
        try:
            tr, te = _oracle_scores(train, test, band, window, channels, m)
            pooled = np.r_[tr, te]
            lo, hi = float(pooled.min()), float(pooled.max())
            if not hi > lo:
                raise CriterionUndefinedError("criterion undefined: all scores identical")
            rho = pdf_correlation(estimate_pdf(tr, (lo, hi)), estimate_pdf(te, (lo, hi)))
            penalty = class_balance_penalty(te)
            row.update(rho=rho, penalty=penalty, feasible=penalty <= FEASIBILITY_THRESHOLD)
        except ValueError as exc:
            row["error"] = str(exc)
        table.append(row)
    return table


class TestBatchedSearchMatchesOracle:
    # every axis of the grid, plus a failure at each stage: an invalid band
    # at 100 Hz, a window past the 5 s trial, and 2m > channels for m=2 on
    # the two-channel subset
    SPACE = SearchSpace(
        bands_hz=((12.0, 14.0), (45.0, 55.0), (8.0, 30.0)),
        windows_s=((0.5, 2.5), (3.0, 6.0), (1.0, 4.5)),
        channel_sets=(None, (0, 3)),
        m_values=(1, 2),
    )

    def _errors_after_matching_oracle(self, train, test):
        test = test.without_labels()
        result = grid_search(train, test, self.SPACE)
        expected = oracle_table(train, test, self.SPACE)
        assert len(result.table) == len(expected) == 36
        for got, want in zip(result.table, expected):
            assert got == want

        errors = {(r["band_hz"], r["window_s"], r["channels"], r["m"]): r["error"]
                  for r in result.table}
        # band before window before CSP
        assert "invalid band" in errors[((45.0, 55.0), (3.0, 6.0), (0, 3), 2)]
        assert "window" in errors[((12.0, 14.0), (3.0, 6.0), (0, 3), 2)]
        assert errors[((8.0, 30.0), (1.0, 4.5), None, 2)] is None
        return errors

    def test_table_rows_equal_oracle(self):
        train, test = planted_sets(seed=6, trials_per_session=60, fraction=0.4)
        errors = self._errors_after_matching_oracle(train, test)
        assert "exceed" in errors[((12.0, 14.0), (0.5, 2.5), (0, 3), 2)]
        assert errors[((12.0, 14.0), (0.5, 2.5), (0, 3), 1)] is None

    @pytest.mark.parametrize("flat_fold", [0, 3])
    def test_table_rows_equal_oracle_with_flat_trial(self, flat_fold):
        # a train trial flat (all zero) on the (0, 3) subset, held out in
        # fold 0 or in a later fold. Held out in fold 0, that fold fits
        # and then fails on it, while every later fold's CSP fails; held
        # out later, fold 0's CSP fails. Either way the first error a
        # per-trial search meets must be the one reported.
        train, test = planted_sets(seed=6, trials_per_session=60, fraction=0.4)
        row = int(usable_folds(np.array(train.labels), 10)[flat_fold][0])
        data = train.data[row].copy()
        data[[0, 3]] = 0.0
        trials = list(as_trials(train))
        trials[row] = trials[row].with_data(data)
        train = replace_trials(train, trials)
        errors = self._errors_after_matching_oracle(train, test)
        subset = errors[((12.0, 14.0), (0.5, 2.5), (0, 3), 1)]
        if flat_fold == 0:
            assert subset == "zero total variance after spatial filtering"
        else:
            assert subset == "trial has zero total variance"
