import numpy as np
import pytest

from mipipe.config import EnsembleConfig, PipelineConfig, SearchSpace
from mipipe.data_model import SplitSpec, split
from mipipe.features import FeatureVector
from mipipe.pipeline import (
    combine_features,
    cross_validate,
    evaluate,
    fit_pipeline,
    make_extractor,
    predict_set,
    run_adaptive,
    run_static,
)
from mipipe.synthgen import SynthConfig, generate

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


class TestCombineFeatures:
    def test_concatenation_order(self):
        a = FeatureVector(np.array([1.0, 2.0, 3.0]), "csp")
        b = FeatureVector(np.array([4.0, 5.0]), "ar")
        combined = combine_features([a, b])
        assert combined.values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert combined.method == "combined"

    def test_single_passthrough(self):
        a = FeatureVector(np.array([1.0]), "lrp")
        assert combine_features([a]) is a

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            combine_features([])

    def test_dimensions_add(self, rng):
        parts = [FeatureVector(rng.normal(size=k), "x") for k in (2, 16, 2)]
        assert len(combine_features(parts).values) == 20


class TestExtractors:
    @pytest.mark.parametrize("method,expected_dim", [
        ("csp", 1),       # m=1 -> one variance-share scalar
        ("ar", 16),       # 2 channels x (7 coefficients + noise variance)
        ("lrp", 2),       # 2 selected channel means
        ("combined", 19),
    ])
    def test_feature_dimensions(self, method, expected_dim):
        ts = easy_set(lrp_slope_uv_per_s=2.0)
        config = quiet_config(method)
        extractor = make_extractor(config, ts.sampling_rate_hz)
        extractor.fit(ts.trials, [t.label for t in ts.trials])
        vec = extractor.transform(ts.trials[0])
        assert vec.values.shape == (expected_dim,)

    def test_explicit_channels_respected(self):
        ts = easy_set()
        config = quiet_config("ar", channels=(0, 3))
        extractor = make_extractor(config, ts.sampling_rate_hz)
        extractor.fit(ts.trials, [t.label for t in ts.trials])
        assert list(extractor.selected) == [0, 3]


class TestCrossValidate:
    def test_separable_near_perfect(self):
        ts = easy_set()
        mean, std = cross_validate(ts, quiet_config(), folds=5, seed=0)
        assert mean >= 95.0

    def test_shuffled_labels_near_chance(self, rng):
        ts = easy_set(seed=1)
        perm = rng.permutation(len(ts))
        labels = [ts.trials[i].label for i in perm]
        shuffled = ts.replace_trials([
            t.with_label(y) for t, y in zip(ts.trials, labels)
        ])
        mean, _ = cross_validate(shuffled, quiet_config(), folds=5, seed=0)
        assert 30.0 <= mean <= 70.0

    def test_unlabeled_rejected(self):
        ts = easy_set()
        broken = ts.replace_trials(
            [ts.trials[0].with_label(None)] + list(ts.trials[1:])
        )
        with pytest.raises(ValueError):
            cross_validate(broken, quiet_config(), folds=5)

    def test_too_many_folds_rejected(self):
        ts = easy_set(trials_per_session=8)
        with pytest.raises(ValueError):
            cross_validate(ts, quiet_config(), folds=100)


class TestRunStatic:
    def test_train_equals_test_perfect(self):
        ts = easy_set()
        report = run_static(ts, ts, quiet_config(), folds=5)
        assert report.test_accuracy == 100.0
        assert np.asarray(report.confusion).sum() == len(ts)

    def test_report_fields(self):
        ts = easy_set(trials_per_session=60)
        train, test = split(ts, SplitSpec(0.5, "prefix"))
        report = run_static(train, test, quiet_config(), folds=5)
        assert report.method == "csp"
        assert report.train_accuracy_mean is not None
        assert len(report.predicted_labels) == len(test)
        assert set(report.per_session) == {1}
        assert report.test_accuracy >= 90.0

    def test_unlabeled_test_scores_nothing(self):
        ts = easy_set(trials_per_session=60)
        train, test = split(ts, SplitSpec(0.5, "prefix"))
        report = run_static(train, test.without_labels(), quiet_config(), folds=5)
        assert report.test_accuracy is None
        assert report.per_session == {1: None}
        assert len(report.predicted_labels) == len(test)

    def test_search_records_choice(self):
        space = SearchSpace(bands_hz=((8.0, 10.0), (12.0, 14.0)),
                            windows_s=((0.5, 4.5),))
        ts = easy_set(trials_per_session=60)
        train, test = split(ts, SplitSpec(0.5, "prefix"))
        report = run_static(train, test, quiet_config(search=space), folds=5)
        assert len(report.chosen) == 1
        assert report.chosen[0]["phase"] == "static"
        assert tuple(report.chosen[0]["band_hz"]) in space.bands_hz

    def test_fit_pipeline_rejects_unlabeled_train(self):
        ts = easy_set()
        broken = ts.replace_trials([t.with_label(None) for t in ts.trials])
        with pytest.raises(ValueError):
            fit_pipeline(broken, quiet_config())


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
        hidden = ts.replace_trials([
            t if t.session_id == 1 and t.trial_index < 10 else t.with_label(None)
            for t in ts.trials
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

    def test_report_roundtrips_to_dict(self):
        ts = easy_set(n_sessions=2, trials_per_session=20, seed=6)
        report = run_adaptive(ts, SplitSpec(0.25, "prefix"), quiet_config(), folds=5)
        doc = report.to_dict()
        assert doc["method"] == "csp"
        assert doc["per_session"].keys() == {"1", "2"}
        assert len(doc["predicted_labels"]) == 30


def test_predict_set_matches_manual(rng):
    ts = easy_set(seed=7)
    train, test = split(ts, SplitSpec(0.5, "prefix"))
    extractor, ensemble = fit_pipeline(train, quiet_config())
    predicted = predict_set(extractor, ensemble, test)
    assert predicted.shape == (len(test),)
    assert set(np.unique(predicted)) <= {-1, 1}


# --- per-trial reference: the Trial-by-Trial chains the extractors replaced --

def _reference_transform(method, config, fs, trials, labels):
    """Fit one method trial by trial; return its transform (Trial -> array)."""
    from mipipe.features import (ar_feature, csp_feature, fisher_scores, fit_csp,
                                 lrp_feature, select_channels)
    from mipipe.preprocess import (bandpass_zero_phase, baseline_correct,
                                   common_average_reference, crop, lowpass_zero_phase)

    if method == "combined":
        parts = [_reference_transform(m, config, fs, trials, labels)
                 for m in ("csp", "ar", "lrp")]
        return lambda t: np.concatenate([part(t) for part in parts])

    def pick(values):
        if config.channels is not None:
            return list(config.channels)
        scores = fisher_scores(np.array(values), labels)
        return select_channels(scores, min(config.n_select, len(scores)))

    if method == "csp":
        def prep(t):
            if config.channels is not None:
                t = t.with_data(t.data[list(config.channels)])
            t = bandpass_zero_phase(t, fs, *config.preprocess.band_hz)
            return crop(t, fs, *config.preprocess.window_s)
        prepped = [prep(t) for t in trials]
        model = fit_csp([p for p, y in zip(prepped, labels) if y == -1],
                        [p for p, y in zip(prepped, labels) if y == 1], config.m)
        return lambda t: csp_feature(model, prep(t)).values
    if method == "ar":
        def prep(t):
            t = bandpass_zero_phase(common_average_reference(t), fs, *config.ar_band_hz)
            return crop(t, fs, *config.preprocess.window_s)
        selected = pick([np.log(prep(t).data.var(axis=1)) for t in trials])
        return lambda t: ar_feature(prep(t), selected, config.ar_order).values

    def prep(t):
        t = lowpass_zero_phase(t, fs, config.lrp_lowpass_hz)
        return baseline_correct(t, fs, config.lrp_baseline_window_s)
    window = config.lrp_feature_window_s
    selected = pick([lrp_feature(prep(t), range(t.n_channels), fs, window).values
                     for t in trials])
    return lambda t: lrp_feature(prep(t), selected, fs, window).values


def _reference_fit(config, fs, trials, labels):
    from mipipe.classify import bagging_predict, fit_bagging

    transform = _reference_transform(config.method, config, fs, trials, labels)
    ensemble = fit_bagging([transform(t) for t in trials], labels,
                           rounds=config.ensemble.rounds,
                           subset_fraction=config.ensemble.subset_fraction,
                           seed=config.ensemble.seed)
    return lambda t: bagging_predict(ensemble, transform(t))


def _reference_cross_validate(ts, config, folds, seed):
    from mipipe.data_model import stratified_folds

    labels = np.array(ts.labels)
    accuracies = []
    for fold in stratified_folds(labels, folds, seed):
        fit = [i for i in range(len(ts)) if i not in set(fold.tolist())]
        predict = _reference_fit(config, ts.sampling_rate_hz,
                                 [ts.trials[i] for i in fit], [ts.trials[i].label for i in fit])
        accuracy, _ = evaluate([predict(ts.trials[i]) for i in fold], labels[fold])
        accuracies.append(accuracy)
    return float(np.mean(accuracies)), float(np.std(accuracies))


@pytest.mark.parametrize("channels", [None, (0, 2)])
@pytest.mark.parametrize("method", ["csp", "ar", "lrp", "combined"])
def test_prepared_once_equals_per_trial_reference(method, channels):
    ts = easy_set(seed=8, trials_per_session=30, lrp_slope_uv_per_s=2.0)
    config = quiet_config(method, channels=channels)
    # features of every trial, from an extractor fitted on some rows only
    fit = np.arange(3, len(ts))
    extractor = make_extractor(config, ts.sampling_rate_hz)
    prepared = extractor.prepare([t.data for t in ts.trials])
    extractor.fit_rows(prepared, fit, np.array(ts.labels))
    transform = _reference_transform(method, config, ts.sampling_rate_hz,
                                     [ts.trials[i] for i in fit],
                                     [ts.trials[i].label for i in fit])
    expected = np.array([transform(t) for t in ts.trials])
    assert np.array_equal(extractor.transform_rows(prepared, np.arange(len(ts))), expected)
    assert np.array_equal(extractor.transform(ts.trials[0]).values, expected[0])

    assert cross_validate(ts, config, folds=5, seed=3) == \
        _reference_cross_validate(ts, config, 5, 3)

    train, test = split(ts, SplitSpec(0.5, "prefix"))
    report = run_static(train, test, config, folds=4, cv_seed=1)
    predict = _reference_fit(config, ts.sampling_rate_hz, train.trials, train.labels)
    assert (report.train_accuracy_mean, report.train_accuracy_std) == \
        _reference_cross_validate(train, config, 4, 1)
    assert report.predicted_labels == [predict(t) for t in test.trials]


@pytest.mark.parametrize("method,chains", [("csp", 1), ("combined", 3)])
def test_each_trial_filtered_once_per_chain(monkeypatch, method, chains):
    from mipipe import preprocess

    ts = easy_set(seed=9, trials_per_session=40, lrp_slope_uv_per_s=2.0)
    config = quiet_config(method)
    calls = []
    zero_phase = preprocess._zero_phase

    def counting(design, x):
        calls.append(x.shape)
        return zero_phase(design, x)

    monkeypatch.setattr(preprocess, "_zero_phase", counting)
    if method == "csp":
        cross_validate(ts, config, folds=5)
        assert len(calls) == len(ts)
        calls.clear()
    train, test = split(ts, SplitSpec(0.2, "prefix"))
    run_static(train, test, config, folds=5)
    assert len(calls) == chains * len(ts)
