import numpy as np
import pytest

from mipipe.preprocess import (
    bandpass_array,
    bandpass_zero_phase,
    baseline_correct,
    common_average_reference,
    crop,
    lowpass_zero_phase,
)

from conftest import make_trial

FS = 100.0


def sinusoid(freq, duration=4.0, fs=FS, channels=1):
    t = np.arange(round(duration * fs)) / fs
    return make_trial(np.tile(np.sin(2 * np.pi * freq * t), (channels, 1)))


def interior(x, fraction=0.1):
    n = x.shape[-1]
    k = int(n * fraction)
    return x[..., k: n - k]


def test_bandpass_rejects_dc():
    trial = make_trial(np.full((2, 400), 7.0))
    out = bandpass_zero_phase(trial, FS, 12.0, 14.0)
    assert np.max(np.abs(out.data)) < 1e-6 * 7.0


def test_bandpass_passes_band_center():
    trial = sinusoid(13.0)
    out = bandpass_zero_phase(trial, FS, 12.0, 14.0)
    x, y = interior(trial.data[0]), interior(out.data[0])
    assert abs(y.max() - 1.0) < 0.01
    assert abs(y.min() + 1.0) < 0.01
    # zero phase: peak positions shifted by at most one sample
    x_peaks = np.flatnonzero((x[1:-1] >= x[:-2]) & (x[1:-1] > x[2:])) + 1
    y_peaks = np.flatnonzero((y[1:-1] >= y[:-2]) & (y[1:-1] > y[2:])) + 1
    assert len(x_peaks) == len(y_peaks)
    assert np.max(np.abs(x_peaks - y_peaks)) <= 1


def test_bandpass_attenuates_stopband():
    trial = sinusoid(30.0)
    out = bandpass_zero_phase(trial, FS, 12.0, 14.0)
    ratio = np.sqrt(np.mean(interior(out.data[0]) ** 2) /
                    np.mean(interior(trial.data[0]) ** 2))
    assert ratio < 0.05


def test_bandpass_batch_equals_per_trial(rng):
    batch = rng.normal(size=(2, 3, 4, 300)) + 5.0
    out = bandpass_array(batch, FS, 8.0, 30.0)
    assert out.shape == batch.shape
    for idx in np.ndindex(batch.shape[:-2]):
        assert np.array_equal(out[idx], bandpass_array(batch[idx], FS, 8.0, 30.0))
    # a list of equally shaped trials is stacked; the input stays
    trials = list(batch[0])
    kept = [t.copy() for t in trials]
    assert np.array_equal(bandpass_array(trials, FS, 8.0, 30.0), out[0])
    assert all(np.array_equal(a, b) for a, b in zip(trials, kept))


def test_bandpass_invalid_band():
    trial = sinusoid(13.0)
    with pytest.raises(ValueError):
        bandpass_zero_phase(trial, FS, 14.0, 12.0)
    with pytest.raises(ValueError):
        bandpass_zero_phase(trial, FS, 12.0, 60.0)


def test_bandpass_trial_too_short():
    trial = make_trial(np.zeros((1, 10)))
    with pytest.raises(ValueError, match="too short"):
        bandpass_zero_phase(trial, FS, 12.0, 14.0)


def test_lowpass_dc_gain():
    trial = make_trial(np.full((2, 600), 5.0))
    out = lowpass_zero_phase(trial, FS, 1.5)
    assert np.max(np.abs(interior(out.data) - 5.0)) < 1e-6


def test_lowpass_passband_and_stopband():
    slow = sinusoid(0.2, duration=30.0)
    out = lowpass_zero_phase(slow, FS, 1.5)
    assert abs(interior(out.data[0]).max() - 1.0) < 0.02
    fast = sinusoid(10.0, duration=30.0)
    out = lowpass_zero_phase(fast, FS, 1.5)
    ratio = np.sqrt(np.mean(interior(out.data[0]) ** 2) /
                    np.mean(interior(fast.data[0]) ** 2))
    assert ratio < 0.05


def test_lowpass_invalid_cutoff():
    with pytest.raises(ValueError):
        lowpass_zero_phase(sinusoid(1.0), FS, 0.0)
    with pytest.raises(ValueError):
        lowpass_zero_phase(sinusoid(1.0), FS, 50.0)


def test_car_identical_channels():
    trial = make_trial(np.tile(np.arange(10.0), (2, 1)))
    out = common_average_reference(trial)
    assert np.allclose(out.data, 0.0)


def test_car_constant_channels():
    trial = make_trial(np.array([[1.0] * 4, [2.0] * 4, [3.0] * 4]))
    out = common_average_reference(trial)
    assert np.allclose(out.data, np.array([[-1.0] * 4, [0.0] * 4, [1.0] * 4]))


def test_car_zero_column_means(rng):
    trial = make_trial(rng.normal(size=(5, 100)))
    out = common_average_reference(trial)
    assert np.max(np.abs(out.data.mean(axis=0))) < 1e-12


def test_car_idempotent(rng):
    trial = make_trial(rng.normal(size=(4, 50)))
    once = common_average_reference(trial)
    twice = common_average_reference(once)
    assert np.max(np.abs(once.data - twice.data)) < 1e-12


def test_car_single_channel_errors():
    with pytest.raises(ValueError):
        common_average_reference(make_trial(np.zeros((1, 10))))


def test_crop_window_size():
    trial = make_trial(np.zeros((2, 500)))  # 5 s at 100 Hz
    out = crop(trial, FS, 0.5, 4.5)
    assert out.n_samples == 400


def test_crop_identity():
    trial = make_trial(np.arange(20.0).reshape(2, 10))
    out = crop(trial, FS, 0.0, 10 / FS)
    assert np.array_equal(out.data, trial.data)


def test_crop_composition():
    trial = make_trial(np.arange(500.0).reshape(1, 500))
    once = crop(trial, FS, 1.0, 4.0)
    twice = crop(crop(trial, FS, 1.0, 5.0), FS, 0.0, 3.0)
    assert np.array_equal(once.data, twice.data)


def test_crop_outside_trial():
    trial = make_trial(np.zeros((1, 100)))
    with pytest.raises(ValueError):
        crop(trial, FS, 0.5, 2.0)


def test_baseline_constant():
    trial = make_trial(np.full((2, 100), 3.0))
    out = baseline_correct(trial, FS, (0.0, 0.5))
    assert np.allclose(out.data, 0.0)


def test_baseline_ramp():
    t = np.arange(100) / FS
    trial = make_trial(t[None, :])
    out = baseline_correct(trial, FS, (0.0, 0.5))
    expected = t - t[:50].mean()
    assert np.allclose(out.data[0], expected)


def test_baseline_window_mean_zero(rng):
    trial = make_trial(rng.normal(size=(3, 200)))
    out = baseline_correct(trial, FS, (0.3, 0.9))
    window = out.data[:, 30:90]
    assert np.max(np.abs(window.mean(axis=1))) < 1e-12


def test_zero_phase_time_reversal(rng):
    x = rng.normal(size=(1, 800))
    fwd = bandpass_zero_phase(make_trial(x), FS, 12.0, 14.0).data
    rev = bandpass_zero_phase(make_trial(x[:, ::-1]), FS, 12.0, 14.0).data[:, ::-1]
    assert np.max(np.abs(interior(fwd) - interior(rev))) < 1e-9


def test_filter_linearity(rng):
    x = rng.normal(size=(1, 400))
    y = rng.normal(size=(1, 400))
    a, b = 2.5, -1.25
    lhs = bandpass_zero_phase(make_trial(a * x + b * y), FS, 8.0, 30.0).data
    rhs = (a * bandpass_zero_phase(make_trial(x), FS, 8.0, 30.0).data
           + b * bandpass_zero_phase(make_trial(y), FS, 8.0, 30.0).data)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_shape_and_metadata_preserved(rng):
    trial = make_trial(rng.normal(size=(3, 400)), label=1, session_id=2,
                       trial_index=5)
    for op in (
        lambda t: bandpass_zero_phase(t, FS, 8.0, 30.0),
        lambda t: lowpass_zero_phase(t, FS, 1.5),
        common_average_reference,
        lambda t: baseline_correct(t, FS, (0.0, 0.5)),
    ):
        out = op(trial)
        assert out.data.shape == trial.data.shape
        assert (out.label, out.session_id, out.trial_index) == (1, 2, 5)


def test_filter_designs_are_cached_read_only_butter():
    from scipy import signal

    from mipipe.preprocess import bandpass_ba, _butter

    design = bandpass_ba(250.0, 8.0, 30.0)
    b, a = signal.butter(2, [8.0 / 125.0, 30.0 / 125.0], btype="bandpass")
    assert np.array_equal(design.b, b) and np.array_equal(design.a, a)
    assert bandpass_ba(250.0, 8.0, 30.0) is design
    low = _butter("lowpass", 4, FS, (1.5,))
    b, a = signal.butter(4, 1.5 / (FS / 2.0), btype="lowpass")
    assert np.array_equal(low.b, b) and np.array_equal(low.a, a)
    for arr in (design.b, design.a, low.b, low.a):
        with pytest.raises(ValueError):
            arr[0] = 0.0
