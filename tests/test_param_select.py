import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest

from mipipe import features, param_select
from mipipe.classify import fit_ldas
from mipipe.config import PipelineConfig, SearchSpace
from mipipe.data_model import SplitSpec, Trial, split_count, usable_folds
from mipipe.errors import CriterionUndefinedError
from mipipe.features import check_csp_shares, csp_stack, trace_normalized
from mipipe.param_select import (
    FEASIBILITY_THRESHOLD,
    N_BINS,
    PdfEstimate,
    _fold_fits,
    _unit_hyperplanes,
    candidate_scores,
    class_balance_penalty,
    estimate_pdf,
    grid_search,
    pdf_correlation,
)
from mipipe.preprocess import Chain, _window_indices, bandpass_zero_phase, preprocess_trials
from mipipe.synthgen import SynthConfig, generate

import oracle
from conftest import as_trials, count_filtered_trials, replace_trials
from oracle import crop


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


def planted_recording(seed, trials_per_session=280, fraction=0.2):
    """A recording with a planted 12-14 Hz rhythm, and the labels of its
    train rows: the first `fraction` of its trials."""
    ts = generate(SynthConfig(
        n_channels=5, trials_per_session=trials_per_session,
        rhythm_band_hz=(13.0, 2.0), erd_depth=0.6,
        noise_sigma_uv=1.5, seed=seed,
    ))
    return ts, ts.labels[:split_count(ts, SplitSpec(fraction, "prefix"))]


SPACE = SearchSpace(
    bands_hz=((8.0, 10.0), (12.0, 14.0), (20.0, 24.0)),
    windows_s=((0.5, 4.5),),
)


class TestGridSearch:
    def test_single_candidate_is_winner(self):
        ts, labels = planted_recording(seed=0, trials_per_session=80)
        space = SearchSpace(bands_hz=((12.0, 14.0),), windows_s=((0.5, 4.5),))
        result = grid_search(ts, labels, space)
        assert result.winner_index == 0
        assert len(result.table) == 1
        assert result.config.preprocess.band_hz == (12.0, 14.0)
        assert result.config.preprocess.window_s == (0.5, 4.5)
        assert -1.0 <= result.rho <= 1.0

    def test_planted_band_recovered(self):
        ts, labels = planted_recording(seed=0)
        result = grid_search(ts, labels, SPACE)
        assert result.config.preprocess.band_hz == (12.0, 14.0)

    def test_labels_of_the_recording_never_read(self):
        # only the `labels` argument says which rows are train rows and
        # what their classes are: the recording's own labels, test rows
        # included, may say anything
        ts, labels = planted_recording(seed=1, trials_per_session=80)
        result = grid_search(ts, labels, SPACE)
        for fill in (1, 0):
            blind = replace(ts, labels=np.full(len(ts), fill), finite=True)
            other = grid_search(blind, labels, SPACE)
            assert other.winner_index == result.winner_index
            assert other.table == result.table

    def test_table_covers_all_candidates(self):
        ts, labels = planted_recording(seed=2, trials_per_session=80)
        windows = ((0.5, 2.5), (0.5, 4.5))
        space = SearchSpace(bands_hz=SPACE.bands_hz, windows_s=windows)
        result = grid_search(ts, labels, space)
        assert len(result.table) == 6
        listed = {(r["band_hz"], r["window_s"]) for r in result.table}
        assert listed == {(b, w) for b in SPACE.bands_hz for w in windows}
        winner = result.table[result.winner_index]
        assert winner["band_hz"] == result.config.preprocess.band_hz
        assert winner["rho"] == result.rho
        assert winner["penalty"] == result.balance_penalty

    def test_feasible_winner_respects_gate(self):
        ts, labels = planted_recording(seed=3, trials_per_session=80)
        result = grid_search(ts, labels, SPACE)
        feasible = [r for r in result.table if r["feasible"]]
        if feasible:
            assert result.balance_penalty <= FEASIBILITY_THRESHOLD
            assert result.rho == max(r["rho"] for r in feasible)

    def test_infeasible_fallback_objective(self, monkeypatch):
        ts, labels = planted_recording(seed=4, trials_per_session=80)
        # an impossible gate forces the fallback rho - penalty objective
        monkeypatch.setattr(param_select, "FEASIBILITY_THRESHOLD", -1.0)
        result = grid_search(ts, labels, SPACE)
        assert not result.table[result.winner_index]["feasible"]
        best = max(r["rho"] - r["penalty"]
                   for r in result.table if r["rho"] is not None)
        winner = result.table[result.winner_index]
        assert winner["rho"] - winner["penalty"] == best

    def test_base_config_fields_preserved(self):
        ts, labels = planted_recording(seed=0, trials_per_session=80)
        base = PipelineConfig(method="ar", ar_order=5)
        space = SearchSpace(bands_hz=((12.0, 14.0),), windows_s=((0.5, 4.5),))
        result = grid_search(ts, labels, space, base=base)
        assert result.config.method == "ar"
        assert result.config.ar_order == 5

    def test_empty_test_errors(self):
        ts, labels = planted_recording(seed=0, trials_per_session=80)
        with pytest.raises(ValueError, match="^test set is empty$"):
            grid_search(ts[:len(labels)], labels, SPACE)

    def test_single_class_train_errors(self):
        ts, labels = planted_recording(seed=0, trials_per_session=80)
        with pytest.raises(ValueError, match="both classes"):
            grid_search(ts, np.ones_like(labels), SPACE)

    def test_unlabeled_train_trial_errors_before_filtering(self, monkeypatch):
        ts, labels = planted_recording(seed=0, trials_per_session=80)
        filtered = count_filtered_trials(monkeypatch)
        with pytest.raises(ValueError, match="training set contains unlabeled trials"):
            grid_search(ts, np.r_[0, labels[1:]], SPACE)
        assert filtered == []

    def test_too_few_labels_per_class_errors_before_filtering(self, monkeypatch):
        ts, labels = planted_recording(seed=0, trials_per_session=80)
        # one trial of class +1: the rest of the train rows are class -1
        one_pos = np.full_like(labels, -1)
        one_pos[labels.tolist().index(1)] = 1
        filtered = count_filtered_trials(monkeypatch)
        with pytest.raises(ValueError, match="^too few labeled trials per class"):
            grid_search(ts, one_pos, SPACE)
        assert filtered == []

    def test_each_trial_filtered_once_per_band_and_channel_set(self, monkeypatch):
        ts, labels = planted_recording(seed=2, trials_per_session=60)
        space = SearchSpace(
            bands_hz=SPACE.bands_hz, windows_s=((0.5, 2.5), (1.0, 4.5)),
            channel_sets=(None, (0, 3)), m_values=(1, 2),
        )
        filtered = count_filtered_trials(monkeypatch)
        grid_search(ts, labels, space)
        # one call per (band, channel set), over the train and test rows
        assert filtered == [len(ts)] * (3 * 2)

    def test_one_band_of_filtered_trials_is_alive_at_a_time(self, monkeypatch):
        # a window past the trial's end makes some candidates fail after the crop
        ts, labels = planted_recording(seed=2, trials_per_session=60)
        space = SearchSpace(
            bands_hz=SPACE.bands_hz, windows_s=((0.5, 2.5), (1.0, 9.0), (1.0, 4.5)),
            channel_sets=(None, (0, 3)), m_values=(1, 2),
        )
        batches = []  # (band, weak reference to the batch filtered under it)
        real = param_select.preprocess_trials

        def spy(rows, fs_hz, chain):
            alive = [band for band, ref in batches if ref() is not None]
            assert set(alive) <= {chain.band_hz}, f"filtering {chain.band_hz}, {alive} alive"
            batch = real(rows, fs_hz, chain)
            batches.append((chain.band_hz, weakref.ref(batch)))
            return batch

        monkeypatch.setattr(param_select, "preprocess_trials", spy)
        result = grid_search(ts, labels, space)
        assert all(row["error"] for row in result.table if row["window_s"] == (1.0, 9.0))
        assert len(batches) == 3 * 2
        assert [band for band, ref in batches if ref() is not None] == []

    def test_deterministic(self):
        ts, labels = planted_recording(seed=5, trials_per_session=80)
        r1 = grid_search(ts, labels, SPACE)
        r2 = grid_search(ts, labels, SPACE)
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
    return w, float(b[0])


class TestUnitLda:
    """The search's one-feature LDA, the stacked `fit_ldas` scaled to unit
    norm, against the loop `oracle.fit_lda` of one fit and the same scaling."""

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
            (got_w, got_b), (want_w, want_b) = (unit_lda(features, labels),
                                                self.reference(features, labels))
            assert got_w.shape == want_w.shape == (1,)
            assert np.array_equal(got_w, want_w) and got_b == want_b

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
            want_w, want_b = self.reference(features, labels)
            assert w[f] == want_w[0] and b[f] == want_b

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
    """Cropped train and test batches, and `trace_normalized` of the train
    trials' X X^T, of a planted set with 33 trials of
    class -1 and 17 of class +1: ten folds whose fits hold 29 or 30 trials
    of class -1 and 15 or 16 of class +1, and the full fit 33 and 17."""
    ts, labels = planted_recording(seed=7, trials_per_session=200, fraction=0.4)
    # the first 33 train rows of class -1 and 17 of class +1, then the test rows
    keep = np.r_[np.flatnonzero(labels == -1)[:33], np.flatnonzero(labels == 1)[:17]]
    keep.sort()
    fs = ts.sampling_rate_hz
    x = preprocess_trials(ts.data[np.r_[keep, len(labels):len(ts)]], fs,
                          Chain(channels=channels, band_hz=(12.0, 14.0)))
    i0, i1 = _window_indices(x.shape[-1], fs, 0.5, 3.5)
    train_x, test_x = x[:len(keep), :, i0:i1], x[len(keep):, :, i0:i1]
    contiguous = np.ascontiguousarray(train_x)
    normalized = features.trace_normalized(contiguous @ contiguous.transpose(0, 2, 1))
    return (train_x, test_x, normalized), labels[keep]


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
        trial = bandpass_zero_phase(trial, ts.sampling_rate_hz, *band)
        out.append(crop(trial, ts.sampling_rate_hz, *window))
    return out


def _oracle_fit_and_score(train_trials, train_labels, score_trials, m):
    labels = np.asarray(train_labels)
    unit, traces = trace_normalized(np.array([t.data @ t.data.T for t in train_trials]))
    model = oracle.csp_from_normalized(unit, traces, labels, m)

    def feature(t):
        share, total = oracle.csp_log_shares(model, t.data)
        check_csp_shares(np.atleast_1d(share), np.atleast_1d(total))
        return np.atleast_1d(share)

    w, b = oracle.unit_lda(np.array([feature(t)[0] for t in train_trials]), labels)
    return [float(w @ feature(t) + b) for t in score_trials]


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

    def _errors_after_matching_oracle(self, ts, labels):
        result = grid_search(ts, labels, self.SPACE)
        expected = oracle_table(ts[:len(labels)], ts[len(labels):], self.SPACE)
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
        ts, labels = planted_recording(seed=6, trials_per_session=60, fraction=0.4)
        errors = self._errors_after_matching_oracle(ts, labels)
        assert "exceed" in errors[((12.0, 14.0), (0.5, 2.5), (0, 3), 2)]
        assert errors[((12.0, 14.0), (0.5, 2.5), (0, 3), 1)] is None

    @pytest.mark.parametrize("flat_fold", [0, 3])
    def test_table_rows_equal_oracle_with_flat_trial(self, flat_fold):
        # a train trial flat (all zero) on the (0, 3) subset, held out in
        # fold 0 or in a later fold. Held out in fold 0, that fold fits
        # and then fails on it, while every later fold's CSP fails; held
        # out later, fold 0's CSP fails. Either way the first error a
        # per-trial search meets must be the one reported.
        ts, labels = planted_recording(seed=6, trials_per_session=60, fraction=0.4)
        row = int(usable_folds(labels, 10)[flat_fold][0])
        data = ts.data[row].copy()
        data[[0, 3]] = 0.0
        trials = list(as_trials(ts))
        trials[row] = trials[row].with_data(data)
        errors = self._errors_after_matching_oracle(replace_trials(ts, trials), labels)
        subset = errors[((12.0, 14.0), (0.5, 2.5), (0, 3), 1)]
        if flat_fold == 0:
            assert subset == "zero total variance after spatial filtering"
        else:
            assert subset == "trial has zero total variance"
