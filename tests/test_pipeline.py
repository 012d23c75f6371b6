import json
from dataclasses import replace

import numpy as np
import pytest

from mipipe.config import EnsembleConfig, PipelineConfig, SearchSpace
from mipipe.data_model import SplitSpec, split_count
from mipipe.pipeline import (
    Extractor,
    cross_validate,
    evaluate,
    run_adaptive,
    run_static,
    sweep_fractions,
)
from mipipe.preprocess import PreprocessConfig
from mipipe.synthgen import SynthConfig, generate

from conftest import as_trials, count_filtered_trials, replace_trials, with_label

FAST_ENSEMBLE = EnsembleConfig(rounds=5, subset_fraction=0.5, seed=0)


def quiet_config(method="csp", **kwargs):
    return PipelineConfig(method=method, ensemble=FAST_ENSEMBLE, **kwargs)


def easy_set(seed=0, trials_per_session=40, n_sessions=1, **kwargs):
    return generate(SynthConfig(
        n_channels=4, n_sessions=n_sessions,
        trials_per_session=trials_per_session,
        erd_depth=0.8, noise_sigma_uv=0.5, seed=seed, **kwargs,
    ))


class TestEvaluate:
    def test_perfect(self):
        acc, confusion = evaluate([1, -1, 1], [1, -1, 1])
        assert acc == 100.0
        assert confusion.tolist() == [[1, 0], [0, 2]]

    def test_known_confusion(self):
        acc, confusion = evaluate([1, 1, -1, -1], [1, -1, 1, -1])
        assert acc == 50.0
        # rows are true -1 then +1; columns predicted -1 then +1
        assert confusion.tolist() == [[1, 1], [1, 1]]

    def test_all_wrong(self):
        acc, confusion = evaluate([-1, 1], [1, -1])
        assert acc == 0.0
        assert confusion.tolist() == [[0, 1], [1, 0]]

    def test_confusion_total(self, rng):
        predicted = rng.choice([-1, 1], size=37)
        true = rng.choice([-1, 1], size=37)
        _, confusion = evaluate(predicted, true)
        assert confusion.sum() == 37

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([1, 1], [1])

    def test_bad_labels(self):
        with pytest.raises(ValueError):
            evaluate([1, 0], [1, 1])
        with pytest.raises(ValueError):
            evaluate([1, 1], [1, 2])


def fitted_extractor(ts, config):
    """An extractor fitted on every row of `ts`, and its preparation."""
    extractor = Extractor(config, ts.sampling_rate_hz)
    prepared = extractor.prepare(ts.data)
    extractor.fit_rows(prepared, np.arange(len(ts)), ts.labels)
    return extractor, prepared


class TestExtractors:
    @pytest.mark.parametrize("method,expected_dim", [
        ("csp", 1),       # m=1 -> one variance-share scalar
        ("ar", 16),       # 2 channels x (7 coefficients + noise variance)
        ("lrp", 2),       # 2 selected channel means
        ("combined", 19),
    ])
    def test_feature_dimensions(self, method, expected_dim):
        ts = easy_set(lrp_slope_uv_per_s=2.0)
        extractor, prepared = fitted_extractor(ts, quiet_config(method))
        assert extractor.transform_rows(prepared, np.array([0])).shape == (1, expected_dim)

    def test_explicit_channels_respected(self):
        ts = easy_set()
        extractor, _ = fitted_extractor(ts, quiet_config("ar", channels=(0, 3)))
        assert list(extractor.parts[0].selected) == [0, 3]


class TestCrossValidate:
    def test_separable_near_perfect(self):
        ts = easy_set()
        mean, std = cross_validate(ts, quiet_config(), folds=5, seed=0)
        assert mean >= 95.0

    def test_shuffled_labels_near_chance(self, rng):
        ts = easy_set(seed=1)
        perm = rng.permutation(len(ts))
        labels = [as_trials(ts)[i].label for i in perm]
        shuffled = replace_trials(ts, [
            with_label(t, y) for t, y in zip(as_trials(ts), labels)
        ])
        mean, _ = cross_validate(shuffled, quiet_config(), folds=5, seed=0)
        assert 30.0 <= mean <= 70.0

    def test_unlabeled_rejected(self):
        ts = easy_set()
        broken = replace_trials(
            ts, [with_label(as_trials(ts)[0], None)] + list(as_trials(ts)[1:])
        )
        with pytest.raises(ValueError, match="cross-validation needs a fully labeled set"):
            cross_validate(broken, quiet_config(), folds=5)

    def test_too_many_folds_rejected(self):
        ts = easy_set(trials_per_session=8)
        with pytest.raises(ValueError):
            cross_validate(ts, quiet_config(), folds=100)
        # 4 trials per class fill 4 folds, not the 5 asked for
        with pytest.raises(ValueError, match=r"^folds must be in \[2, 4\] \(the larger class "
                                             r"has 4 labelled trials\), got 5$"):
            cross_validate(ts, quiet_config(), folds=5)


HALF = SplitSpec(0.5, "prefix")


class TestRunStatic:
    def test_report_fields(self):
        ts = easy_set(trials_per_session=60)
        report = run_static(ts, HALF, quiet_config(), folds=5)
        assert report.method == "csp"
        assert report.train_accuracy_mean is not None
        assert len(report.predicted_labels) == len(ts) - 30
        assert np.asarray(report.confusion).sum() == len(ts) - 30
        assert set(report.per_session) == {1}
        assert report.test_accuracy >= 90.0

    def test_unlabeled_test_scores_nothing(self):
        ts = easy_set(trials_per_session=60)
        blind = replace(ts, labels=np.r_[ts.labels[:30], [0] * 30], finite=True)
        report = run_static(blind, HALF, quiet_config(), folds=5)
        assert report.test_accuracy is None
        assert report.per_session == {1: None}
        assert len(report.predicted_labels) == len(ts) - 30

    def test_search_records_choice(self):
        space = SearchSpace(bands_hz=((8.0, 10.0), (12.0, 14.0)),
                            windows_s=((0.5, 4.5),))
        ts = easy_set(trials_per_session=60)
        report = run_static(ts, HALF, quiet_config(search=space), folds=5)
        assert len(report.chosen) == 1
        assert report.chosen[0]["phase"] == "static"
        assert tuple(report.chosen[0]["band_hz"]) in space.bands_hz

    def test_fit_pipeline_rejects_unlabeled_train(self):
        ts = easy_set()
        broken = replace_trials(ts, [with_label(t, None) for t in as_trials(ts)])
        with pytest.raises(ValueError, match="training set contains unlabeled trials"):
            run_static(broken, HALF, quiet_config())
        # whether or not the training set is large enough to cross-validate
        with pytest.raises(ValueError, match="training set contains unlabeled trials"):
            run_static(broken, HALF, quiet_config(), folds=0)


class TestRunAdaptive:
    def test_needs_multiple_sessions(self):
        ts = easy_set()
        with pytest.raises(ValueError, match="sessions"):
            run_adaptive(ts, SplitSpec(0.5, "prefix"), quiet_config())

    def test_initial_train_must_stay_in_first_session(self):
        ts = easy_set(n_sessions=2, trials_per_session=20)
        with pytest.raises(ValueError, match="first session"):
            run_adaptive(ts, SplitSpec(0.75, "prefix"), quiet_config())

    def test_zero_drift_accuracy_and_coverage(self):
        ts = easy_set(n_sessions=3, trials_per_session=20, seed=2)
        report = run_adaptive(ts, SplitSpec(10 / 60, "prefix"), quiet_config(), folds=5)
        # classifies the rest of session 1 plus sessions 2 and 3
        assert len(report.predicted_labels) == 50
        assert set(report.per_session) == {1, 2, 3}
        assert report.test_accuracy >= 90.0

    def test_deterministic(self):
        ts = easy_set(n_sessions=2, trials_per_session=20, seed=3)
        r1 = run_adaptive(ts, SplitSpec(0.5, "prefix"), quiet_config(), folds=5)
        r2 = run_adaptive(ts, SplitSpec(0.5, "prefix"), quiet_config(), folds=5)
        assert r1.predicted_labels == r2.predicted_labels
        assert r1.test_accuracy == r2.test_accuracy

    def test_test_labels_do_not_leak(self):
        ts = easy_set(n_sessions=2, trials_per_session=20, seed=4)
        hidden = replace_trials(ts, [
            t if t.session_id == 1 and t.trial_index < 10 else with_label(t, None)
            for t in as_trials(ts)
        ])
        full = run_adaptive(ts, SplitSpec(0.25, "prefix"), quiet_config(), folds=5)
        blind = run_adaptive(hidden, SplitSpec(0.25, "prefix"), quiet_config(), folds=5)
        assert full.predicted_labels == blind.predicted_labels

    def test_search_runs_per_phase(self):
        space = SearchSpace(bands_hz=((12.0, 14.0),), windows_s=((0.5, 4.5),))
        ts = easy_set(n_sessions=2, trials_per_session=20, seed=5)
        report = run_adaptive(ts, SplitSpec(0.25, "prefix"),
                              quiet_config(search=space), folds=5)
        phases = [c["phase"] for c in report.chosen]
        assert phases == ["session1", "session2"]

    def test_search_phases_name_the_session_ids(self):
        from mipipe.data_model import Trial

        space = SearchSpace(bands_hz=((12.0, 14.0),), windows_s=((0.5, 4.5),))
        ts = easy_set(n_sessions=2, trials_per_session=20, seed=5)
        renumbered = replace_trials(ts, [
            Trial(t.data, t.label, t.session_id + 2, t.trial_index) for t in as_trials(ts)
        ])
        report = run_adaptive(renumbered, SplitSpec(0.25, "prefix"),
                              quiet_config(search=space), folds=5)
        assert [c["phase"] for c in report.chosen] == ["session3", "session4"]
        assert report.per_session.keys() == {3, 4}

    def test_search_cross_validates_under_the_first_choice(self):
        # the trial's first 0.5 s precede the ERD, so the chosen window
        # cross-validates far worse than the configured 0.5-4.5 s one
        space = SearchSpace(bands_hz=((12.0, 14.0),), windows_s=((0.0, 0.5),))
        ts = easy_set(n_sessions=2, trials_per_session=20, seed=5)
        config = quiet_config(search=space)
        k = 10
        report = run_adaptive(ts, SplitSpec(k / len(ts), "prefix"), config, folds=5)
        chosen = report.chosen[0]
        assert chosen["window_s"] != list(config.preprocess.window_s)
        searched = replace(config, preprocess=PreprocessConfig(
            band_hz=tuple(chosen["band_hz"]), window_s=tuple(chosen["window_s"])))
        labels = ts.labels[:k]
        folds = min(5, (labels == -1).sum(), (labels == 1).sum())
        expected = cross_validate(ts[:k], searched, folds=folds)
        assert (report.train_accuracy_mean, report.train_accuracy_std) == expected
        assert expected != cross_validate(ts[:k], config, folds=folds)

    def test_report_roundtrips_to_dict(self):
        ts = easy_set(n_sessions=2, trials_per_session=20, seed=6)
        report = run_adaptive(ts, SplitSpec(0.25, "prefix"), quiet_config(), folds=5)
        doc = report.to_dict()
        assert doc["method"] == "csp"
        assert doc["per_session"].keys() == {"1", "2"}
        assert len(doc["predicted_labels"]) == 30


# --- per-trial reference: the Trial-by-Trial chains the extractors replaced --

def _reference_transform(method, config, fs, trials, labels):
    """Fit one method trial by trial; return its transform (Trial -> array)."""
    from mipipe.errors import raise_first
    from mipipe.features import (fisher_scores, select_channels, share_codes,
                                 trace_normalized)
    from mipipe.preprocess import bandpass_zero_phase
    from oracle import (ar_feature, baseline_correct, common_average_reference, crop,
                        csp_from_normalized, csp_log_shares, lowpass_zero_phase, lrp_feature)

    if method == "combined":
        parts = [_reference_transform(m, config, fs, trials, labels)
                 for m in ("csp", "ar", "lrp")]
        return lambda t: np.concatenate([part(t) for part in parts])

    def pick(values):
        if config.channels is not None:
            return list(config.channels)
        scores = fisher_scores(np.array(values), labels)
        return select_channels(scores, config.n_select)

    if method == "csp":
        def prep(t):
            if config.channels is not None:
                t = t.with_data(t.data[list(config.channels)])
            t = bandpass_zero_phase(t, fs, *config.preprocess.band_hz)
            return crop(t, fs, *config.preprocess.window_s)
        unit, traces = trace_normalized(np.array([p.data @ p.data.T for p in map(prep, trials)]))
        model = csp_from_normalized(unit, traces, labels, config.m)

        def transform(t):
            share, total = csp_log_shares(model, prep(t).data)
            raise_first(share_codes(np.atleast_1d(share), np.atleast_1d(total)))
            return np.atleast_1d(share)
        return transform
    if method == "ar":
        def prep(t):
            t = bandpass_zero_phase(common_average_reference(t), fs, *config.ar_band_hz)
            return crop(t, fs, *config.preprocess.window_s)
        selected = pick([np.log(prep(t).data.var(axis=1)) for t in trials])
        return lambda t: ar_feature(prep(t), selected, config.ar_order)

    def prep(t):
        t = lowpass_zero_phase(t, fs, config.lrp_lowpass_hz)
        return baseline_correct(t, fs, config.lrp_baseline_window_s)
    window = config.lrp_feature_window_s
    selected = pick([lrp_feature(prep(t), range(t.n_channels), fs, window) for t in trials])
    return lambda t: lrp_feature(prep(t), selected, fs, window)


def _reference_fit(config, fs, trials, labels):
    from oracle import bagging_predict, fit_bagging

    transform = _reference_transform(config.method, config, fs, trials, labels)
    ensemble = fit_bagging(np.array([transform(t) for t in trials]), labels,
                           rounds=config.ensemble.rounds,
                           subset_fraction=config.ensemble.subset_fraction,
                           seed=config.ensemble.seed)
    return lambda t: bagging_predict(ensemble, transform(t))


def _reference_cross_validate(ts, config, folds, seed):
    from mipipe.data_model import stratified_folds

    labels = np.array(ts.labels)
    trials = as_trials(ts)
    accuracies = []
    for fold in stratified_folds(labels, folds, seed):
        fit = [i for i in range(len(ts)) if i not in set(fold.tolist())]
        predict = _reference_fit(config, ts.sampling_rate_hz,
                                 [trials[i] for i in fit], [trials[i].label for i in fit])
        accuracy, _ = evaluate([predict(trials[i]) for i in fold], labels[fold])
        accuracies.append(accuracy)
    return float(np.mean(accuracies)), float(np.std(accuracies))


# CSP shares from moments against projection shares, relative: at most
# 4.2e-14 here (100 Hz, m = 1); CHANGES.md tabulates the deviation by band,
# rate and window
SHARE_BOUND = 1e-13


@pytest.mark.parametrize("channels", [None, (0, 2)])
@pytest.mark.parametrize("method", ["csp", "ar", "lrp", "combined"])
def test_prepared_once_equals_per_trial_reference(method, channels):
    ts = easy_set(seed=8, trials_per_session=30, lrp_slope_uv_per_s=2.0)
    config = quiet_config(method, channels=channels)
    # features of every trial, from an extractor fitted on some rows only
    fit = np.arange(3, len(ts))
    extractor = Extractor(config, ts.sampling_rate_hz)
    prepared = extractor.prepare(ts.data)
    extractor.fit_rows(prepared, fit, np.array(ts.labels))
    trials = as_trials(ts)
    transform = _reference_transform(method, config, ts.sampling_rate_hz,
                                     [trials[i] for i in fit],
                                     [trials[i].label for i in fit])
    expected = np.array([transform(t) for t in trials])
    got = extractor.transform_rows(prepared, np.arange(len(ts)))
    # the CSP share, the first column, comes from moments, the reference's
    # from projections; the other columns and the predictions are bitwise
    csp = int(method in ("csp", "combined"))
    assert np.array_equal(got[:, csp:], expected[:, csp:])
    deviation = np.abs(got[:, :csp] - expected[:, :csp]) / np.abs(expected[:, :csp])
    assert got.shape == expected.shape and np.all(deviation <= SHARE_BOUND)

    assert cross_validate(ts, config, folds=5, seed=3) == \
        _reference_cross_validate(ts, config, 5, 3)

    k = split_count(ts, HALF)
    train, test = ts[:k], ts[k:]
    report = run_static(ts, HALF, config, folds=4)
    predict = _reference_fit(config, ts.sampling_rate_hz, as_trials(train), train.labels)
    assert (report.train_accuracy_mean, report.train_accuracy_std) == \
        _reference_cross_validate(train, config, 4, 0)
    assert report.predicted_labels == [predict(t) for t in as_trials(test)]


@pytest.mark.parametrize("method,chains", [("csp", 1), ("combined", 3)])
def test_each_trial_filtered_once_per_chain(monkeypatch, method, chains):
    ts = easy_set(seed=9, trials_per_session=40, lrp_slope_uv_per_s=2.0)
    config = quiet_config(method)
    filtered = count_filtered_trials(monkeypatch)
    if method == "csp":
        cross_validate(ts, config, folds=5)
        assert sum(filtered) == len(ts)
        filtered.clear()
    run_static(ts, SplitSpec(0.2, "prefix"), config, folds=5)
    assert sum(filtered) == chains * len(ts)


@pytest.mark.parametrize("channels", [None, (0, 2)])
def test_sweep_fractions_equals_per_split_reference(channels):
    ts = easy_set(seed=10, trials_per_session=30, lrp_slope_uv_per_s=2.0)
    config = quiet_config(channels=channels)
    methods, fractions = ["csp", "ar", "lrp", "combined"], [0.3, 0.6]
    expected = []
    for method in methods:
        method_config = replace(config, method=method)
        for fraction in fractions:
            k = split_count(ts, SplitSpec(fraction, "prefix"))
            train, test = ts[:k], ts[k:]
            labels = np.array(train.labels)
            folds = min(10, (labels == -1).sum(), (labels == 1).sum())
            predict = _reference_fit(method_config, ts.sampling_rate_hz,
                                     as_trials(train), train.labels)
            accuracy, _ = evaluate([predict(t) for t in as_trials(test)], test.labels)
            expected.append({
                "method": method, "train_fraction": fraction,
                "n_train": len(train), "n_test": len(test),
                "test_accuracy": accuracy,
                "train_accuracy_mean": _reference_cross_validate(
                    train, method_config, folds, 0)[0],
            })
    assert sweep_fractions(ts, config, methods, fractions) == expected


def test_sweep_fractions_prepares_each_chain_once(monkeypatch):
    from mipipe import pipeline

    ts = easy_set(seed=11, trials_per_session=30, lrp_slope_uv_per_s=2.0)
    filtered, ar_fits = count_filtered_trials(monkeypatch), []
    fits = pipeline.ar_fits

    def counting_ar_fits(x, p):
        ar_fits.extend([x.shape[1]] * len(x))  # one entry per series fitted
        return fits(x, p)

    monkeypatch.setattr(pipeline, "ar_fits", counting_ar_fits)
    # csp, ar and lrp chains; combined reuses all three
    sweep_fractions(ts, quiet_config(), ["csp", "ar", "lrp", "combined"], [0.3, 0.6])
    assert sum(filtered) == 3 * len(ts)
    assert len(ar_fits) == len(ts) * ts.n_channels

    filtered.clear()
    ar_fits.clear()
    run_static(ts, SplitSpec(0.2, "prefix"), quiet_config("ar"), folds=5)
    assert sum(filtered) == len(ts)
    assert len(ar_fits) == len(ts) * ts.n_channels


def test_ar_table_and_codes_do_not_depend_on_the_block_size(monkeypatch, rng):
    from mipipe import preprocess
    from mipipe.pipeline import ArExtractor

    # channels a, -a, 0, 0 in every third trial: the common average is
    # exactly zero, so channels 2 and 3 stay dead and their fits fail
    trials = rng.normal(size=(9, 4, 500))
    trials[::3, 1] = -trials[::3, 0]
    trials[::3, 2:] = 0.0
    part = ArExtractor(quiet_config("ar"), 100.0)
    table, codes = part.prepare(trials)
    assert codes.shape == (9, 4) and table.shape == (9, 4, part.config.ar_order + 2)
    assert (codes[::3, 2:] == 16).all() and np.count_nonzero(codes) == 6  # constant series
    assert np.isnan(table[::3, 2:, 1:]).all() and np.isfinite(table[codes == 0]).all()
    rows = np.array([4, 0, 3, 8])
    for block_values in (1, 4 * 500 * 2):
        monkeypatch.setattr(preprocess, "BLOCK_VALUES", block_values)
        small_table, small_codes = part.prepare(trials)
        assert np.array_equal(small_table, table, equal_nan=True)
        assert np.array_equal(small_codes, codes)
        row_table, row_codes = part.prepare(trials[rows])
        assert np.array_equal(row_table, table[rows], equal_nan=True)
        assert np.array_equal(row_codes, codes[rows])


@pytest.mark.parametrize("channels", [None, (0, 2)])
@pytest.mark.parametrize("method", ["csp", "ar", "lrp", "combined"])
def test_run_adaptive_equals_per_block_reference(method, channels):
    ts = easy_set(seed=12, n_sessions=3, trials_per_session=12, lrp_slope_uv_per_s=2.0)
    config = quiet_config(method, channels=channels)
    k = 6
    report = run_adaptive(ts, SplitSpec(k / len(ts), "prefix"), config, folds=5)

    # the rest of session 1, then each later session, fitted trial by trial
    # on the initial split plus the frozen pseudo-labels before it
    fs = ts.sampling_rate_hz
    train0 = ts[:k]
    trials = as_trials(ts)
    labels = train0.labels.tolist()
    for end in (12, 24, 36):
        predict = _reference_fit(config, fs, trials[:len(labels)], labels)
        labels += [predict(t) for t in trials[len(labels):end]]
    predicted, true = labels[k:], ts.labels[k:]

    assert report.predicted_labels == predicted
    accuracy, confusion = evaluate(predicted, true)
    assert (report.test_accuracy, report.confusion) == (accuracy, confusion.tolist())
    assert report.per_session == {
        sid: evaluate(predicted[lo - k:hi - k], true[lo - k:hi - k])[0]
        for sid, lo, hi in ((1, k, 12), (2, 12, 24), (3, 24, 36))
    }
    assert (report.train_accuracy_mean, report.train_accuracy_std) == \
        _reference_cross_validate(train0, config, 3, 0)


@pytest.mark.parametrize("method,chains,fits_ar", [
    ("csp", 1, False), ("ar", 1, True), ("combined", 3, True),
])
def test_run_adaptive_prepares_the_archive_once(monkeypatch, method, chains, fits_ar):
    from mipipe import pipeline

    ts = easy_set(seed=13, n_sessions=4, trials_per_session=12, lrp_slope_uv_per_s=2.0)
    filtered, ar_fits = count_filtered_trials(monkeypatch), []
    fits = pipeline.ar_fits

    def counting_ar_fits(x, p):
        ar_fits.extend([x.shape[1]] * len(x))  # one entry per series fitted
        return fits(x, p)

    monkeypatch.setattr(pipeline, "ar_fits", counting_ar_fits)
    n, k = len(ts), 8
    report = run_adaptive(ts, SplitSpec(k / n, "prefix"), quiet_config(method), folds=5)
    assert len(report.predicted_labels) == n - k
    # the initial cross-validation and every block index one preparation of all n
    assert sum(filtered) == chains * n
    assert len(ar_fits) == (n * ts.n_channels if fits_ar else 0)


def test_no_path_builds_a_trial_per_row(monkeypatch, tmp_path):
    from mipipe import data_model
    from mipipe.data_model import Trial, load_archive, save_archive

    built = []
    init = Trial.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(data_model.Trial, "__init__", counting_init)
    space = SearchSpace(bands_hz=((8.0, 10.0), (12.0, 14.0)), windows_s=((0.5, 4.5),))
    ts = easy_set(seed=14, n_sessions=2, trials_per_session=20, lrp_slope_uv_per_s=2.0)
    save_archive(ts, tmp_path / "arch")
    ts = load_archive(tmp_path / "arch")
    cross_validate(ts, quiet_config("combined"), folds=5)
    run_static(ts, HALF, quiet_config(search=space), folds=5)
    sweep_fractions(ts, quiet_config(), ["csp", "ar", "lrp", "combined"], [0.3])
    run_adaptive(ts, SplitSpec(0.25, "prefix"), quiet_config(search=space), folds=5)
    assert built == []
    Trial(ts.data[0])
    assert built == [1]


def test_cli_paths_preprocess_the_recording_in_place(monkeypatch, tmp_path):
    from mipipe import cli, param_select, pipeline, preprocess
    from mipipe.data_model import save_archive

    seen = []
    loaded = []
    prepared_rows = []
    preprocess_trials = pipeline.preprocess_trials
    preprocess_block = preprocess.preprocess

    def recording(trials, *args, **kwargs):
        seen.append(trials)
        return preprocess_trials(trials, *args, **kwargs)

    def counting(block, *args, **kwargs):
        prepared_rows.append(len(block))
        return preprocess_block(block, *args, **kwargs)

    def crossval(trial_set, name):
        """`mipipe crossval` on `trial_set`, saved as `name`: its report, and
        the set the command loaded."""
        save_archive(trial_set, tmp_path / name)
        (tmp_path / "quiet.json").write_text(json.dumps({"ensemble": {
            "rounds": 5, "subset_fraction": 0.5, "seed": 0}}))
        report = tmp_path / f"{name}.json"
        assert cli.main(["crossval", "--data", str(tmp_path / name), "--config",
                         str(tmp_path / "quiet.json"), "--folds", "5",
                         "--report", str(report)]) == 0
        return json.loads(report.read_text()), loaded[-1]

    # the archive is made first: synth filters through `preprocess` too
    ts = easy_set(seed=15, n_sessions=2, trials_per_session=20, lrp_slope_uv_per_s=2.0)
    partly = replace_trials(ts, [with_label(as_trials(ts)[0], None)] + list(as_trials(ts)[1:]))
    monkeypatch.setattr(pipeline, "preprocess_trials", recording)
    monkeypatch.setattr(param_select, "preprocess_trials", recording)
    monkeypatch.setattr(preprocess, "preprocess", counting)
    load_archive = cli.load_archive
    monkeypatch.setattr(cli, "load_archive",
                        lambda path: loaded.append(load_archive(path)) or loaded[-1])
    space = SearchSpace(bands_hz=((12.0, 14.0),), windows_s=((0.5, 4.5),))
    # crossval copies out the labelled rows of a partly labelled archive, and
    # prepares only those
    doc, _ = crossval(partly, "partly")
    labeled = np.flatnonzero(partly.labels)
    assert (doc["mean"], doc["std"]) == cross_validate(partly[1:], quiet_config(), folds=5)
    assert prepared_rows == [len(labeled), len(labeled)]
    with pytest.raises(ValueError, match="cross-validation needs a fully labeled set"):
        cross_validate(partly, quiet_config(), folds=5)
    # and prepares a fully labelled one in place
    seen.clear()
    _, full = crossval(ts, "full")
    assert seen[0] is full.data
    seen.clear()
    run_static(ts, SplitSpec(0.25, "prefix"), quiet_config("combined", search=space), folds=5)
    sweep_fractions(ts, quiet_config(), ["csp", "combined"], [0.3, 0.6])
    run_adaptive(ts, SplitSpec(0.25, "prefix"), quiet_config(search=space), folds=5)
    run_adaptive(ts, SplitSpec(0.25, "prefix"), quiet_config("ar"), folds=5)
    assert len(seen) > 10
    assert all(np.shares_memory(x, ts.data) for x in seen)


@pytest.mark.parametrize("method, chains", [("csp", 1), ("combined", 3)])
def test_searched_adaptive_run_prepares_each_chain_once(monkeypatch, method, chains):
    # every block of a one-band search chooses the same CSP chain, and no
    # choice changes the AR or LRP chain: each is prepared once, over the
    # whole recording, however many blocks fit on it
    from mipipe import pipeline

    calls = []
    preprocess_trials = pipeline.preprocess_trials

    def recording(trials, *args, **kwargs):
        calls.append(len(trials))
        return preprocess_trials(trials, *args, **kwargs)

    ts = easy_set(seed=17, n_sessions=4, trials_per_session=20, lrp_slope_uv_per_s=2.0)
    monkeypatch.setattr(pipeline, "preprocess_trials", recording)
    space = SearchSpace(bands_hz=((12.0, 14.0),), windows_s=((0.5, 4.5),))
    report = run_adaptive(ts, SplitSpec(0.15, "prefix"), quiet_config(method, search=space),
                          folds=3)
    assert len(report.chosen) == 4
    assert calls == [len(ts)] * chains


def test_cli_run_goes_through_the_public_search_and_run(monkeypatch, tmp_path):
    """`mipipe run` reaches `run_static` and `grid_search` under those names,
    which is where a tracer of the public functions counts them."""
    from mipipe import cli, pipeline
    from mipipe.data_model import save_archive

    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "run_static", counting("run_static", cli.run_static))
    monkeypatch.setattr(pipeline, "grid_search", counting("grid_search", pipeline.grid_search))
    ts = easy_set(seed=16, n_sessions=2, trials_per_session=20)
    save_archive(ts, tmp_path / "arch")
    search = {"search": {"bands_hz": [[8, 10], [12, 14]], "windows_s": [[0.5, 4.5]]},
              "ensemble": {"rounds": 5}}
    (tmp_path / "search.json").write_text(json.dumps(search))
    common = ["--data", str(tmp_path / "arch"), "--config", str(tmp_path / "search.json"),
              "--report", str(tmp_path / "r.json")]
    assert cli.main(["run", *common, "--train-fraction", "0.5", "--sweep"]) == 0
    assert calls == ["run_static", "grid_search"]
    calls.clear()
    assert cli.main(["run", *common, "--train-fraction", "0.25", "--adapt"]) == 0
    assert calls == ["grid_search", "grid_search"]
