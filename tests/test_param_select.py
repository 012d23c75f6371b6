import itertools

import numpy as np
import pytest

from mipipe.classify import LdaModel, fit_lda, lda_score
from mipipe.config import PipelineConfig, SearchSpace
from mipipe.data_model import SplitSpec, Trial, split
from mipipe.errors import CriterionUndefinedError
from mipipe.features import csp_feature, fit_csp
from mipipe.param_select import (
    FEASIBILITY_THRESHOLD,
    N_BINS,
    PdfEstimate,
    _search_folds,
    class_balance_penalty,
    estimate_pdf,
    grid_search,
    pdf_correlation,
)
from mipipe.preprocess import bandpass_zero_phase, crop
from mipipe.synthgen import SynthConfig, generate


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
        empty = train.replace_trials(())
        with pytest.raises(ValueError, match="empty"):
            grid_search(train, empty, SPACE)

    def test_single_class_train_errors(self):
        train, test = planted_sets(seed=0, trials_per_session=80)
        one_class = train.replace_trials(
            tuple(t for t in train.trials if t.label == 1)
        )
        with pytest.raises(ValueError, match="both classes"):
            grid_search(one_class, test.without_labels(), SPACE)

    def test_deterministic(self):
        train, test = planted_sets(seed=5, trials_per_session=80)
        r1 = grid_search(train, test.without_labels(), SPACE)
        r2 = grid_search(train, test.without_labels(), SPACE)
        assert r1.winner_index == r2.winner_index
        assert r1.rho == r2.rho
        for a, b in zip(r1.table, r2.table):
            assert a == b


# --- per-trial oracle: the search as written before it was batched by band ---

def _oracle_prep(ts, band, window, channels):
    out = []
    for t in ts:
        data = t.data if channels is None else t.data[list(channels)]
        trial = Trial(data, t.label, t.session_id, t.trial_index)
        trial = bandpass_zero_phase(trial, ts.sampling_rate_hz, *band)
        out.append(crop(trial, ts.sampling_rate_hz, *window))
    return out


def _oracle_fit_and_score(train_trials, train_labels, score_trials, m):
    neg = [t for t, y in zip(train_trials, train_labels) if y == -1]
    pos = [t for t, y in zip(train_trials, train_labels) if y == 1]
    model = fit_csp(neg, pos, m)
    lda = fit_lda([csp_feature(model, t) for t in train_trials], train_labels)
    norm = float(np.linalg.norm(lda.w))
    lda = LdaModel(w=lda.w / norm, b=lda.b / norm)
    return [lda_score(lda, csp_feature(model, t)) for t in score_trials]


def _oracle_scores(train, test, band, window, channels, m):
    train_trials = _oracle_prep(train, band, window, channels)
    test_trials = _oracle_prep(test, band, window, channels)
    labels = np.array([t.label for t in train.trials])
    train_scores = np.empty(len(train_trials))
    for fold in _search_folds(labels):
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

    def test_table_rows_equal_oracle(self):
        train, test = planted_sets(seed=6, trials_per_session=60, fraction=0.4)
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
        assert "exceed" in errors[((12.0, 14.0), (0.5, 2.5), (0, 3), 2)]
        assert errors[((12.0, 14.0), (0.5, 2.5), (0, 3), 1)] is None
        assert errors[((8.0, 30.0), (1.0, 4.5), None, 2)] is None
