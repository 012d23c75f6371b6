import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipipe.preprocess import (
    _gust_matrices,
    _lfilter,
    _scipy_module,
    _zero_phase,
    bandpass_array,
    bandpass_ba,
    bandpass_zero_phase,
    lowpass_ba,
)

from conftest import fresh_interpreter, make_trial
from oracle import (baseline_correct, common_average_reference, crop, lowpass_zero_phase,
                    scipy_zero_phase)

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
    assert out.data.shape[1] == 400


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


# --- oracles: the numpy design bitwise, the filter near scipy.signal's -------

GRID_FS = (100.0, 128.0, 250.0, 256.0, 500.0, 1000.0, 1024.0, 2000.0)


def _edges(fs):
    """Band edges across the range, with some near DC and near Nyquist."""
    nyq = fs / 2.0
    return (
        [(0.05, 0.4), (0.5, 4.0), (8.0, 30.0), (12.0, 14.0), (13.25, 15.5),
         (0.01, 0.99 * nyq), (0.9 * nyq, 0.999 * nyq), (0.6 * nyq, 0.7 * nyq)],
        [0.01, 0.5, 1.0, 1.5, 7.3, 30.0, 0.5 * nyq, 0.999 * nyq],
    )


@pytest.mark.parametrize("fs", GRID_FS)
def test_design_equals_scipy_butter_bitwise(fs):
    from scipy import signal

    from mipipe.preprocess import _butter

    nyq = fs / 2.0
    bands, cutoffs = _edges(fs)
    for lo, hi in bands:
        design = _butter("bandpass", 2, fs, (lo, hi))
        b, a = signal.butter(2, [lo / nyq, hi / nyq], btype="bandpass")
        assert np.array_equal(design.b, b) and np.array_equal(design.a, a), (lo, hi)
    for cutoff in cutoffs:
        design = _butter("lowpass", 4, fs, (cutoff,))
        b, a = signal.butter(4, cutoff / nyq, btype="lowpass")
        assert np.array_equal(design.b, b) and np.array_equal(design.a, a), cutoff


# Gustafsson's method fits the initial conditions on m edge samples, where m
# is the settle length, or all n samples when n <= 2 * settle; the shapes
# below have both m < n and m == n for every design
ORACLE_DESIGNS = {
    "band 12-14": lambda: bandpass_ba(FS, 12.0, 14.0),  # settles in 704 samples
    "band 8-30": lambda: bandpass_ba(FS, 8.0, 30.0),  # 104
    "low 1.5": lambda: lowpass_ba(FS, 1.5),  # 831
}
# max |ours - scipy| / max |scipy| allowed per design: twenty times the
# worst seen on trials of 100, 400 and 1,250 samples at 100 Hz (9.4e-15,
# 8.7e-16 and 8.8e-13). The initial conditions solve the least-squares
# problem of scipy's `lstsq` through M's cached SVD, so the two agree to M's
# conditioning, not bit for bit
ORACLE_BOUNDS = {"band 12-14": 1.9e-13, "band 8-30": 1.7e-14, "low 1.5": 1.8e-11}


def assert_near_scipy(design, x, out, bound):
    expected = scipy_zero_phase(design, x)
    assert np.abs(out - expected).max() <= bound * np.abs(expected).max()


@pytest.mark.parametrize("name", ORACLE_DESIGNS)
@pytest.mark.parametrize("shape", [
    (150,), (300,), (2000,),  # 1-D series
    (1, 500), (3, 300), (8, 1250), (8, 2000),  # trials of 1-8 channels
    (5, 1, 400), (4, 2, 200), (7, 3, 500), (33, 8, 300), (4, 6, 1800),  # blocks
])
def test_zero_phase_near_scipy_filtfilt(rng, name, shape):
    design = ORACLE_DESIGNS[name]()
    x = 4.0 * rng.normal(size=shape) + 1.5
    out = _zero_phase(design, x)
    assert out.flags.c_contiguous
    assert_near_scipy(design, x, out, ORACLE_BOUNDS[name])


@pytest.mark.parametrize("block_values", [1, 1000, 1 << 30])
def test_zero_phase_blocks_and_series(monkeypatch, rng, block_values):
    from mipipe import preprocess

    monkeypatch.setattr(preprocess, "BLOCK_VALUES", block_values)
    design = bandpass_ba(FS, 8.0, 30.0)
    chain = preprocess.Chain(band_hz=(8.0, 30.0))  # demeans, then filters
    trials = rng.normal(size=(9, 4, 400))
    assert_near_scipy(design, trials - trials.mean(axis=-1, keepdims=True),
                      preprocess.preprocess_trials(trials, FS, chain), ORACLE_BOUNDS["band 8-30"])
    series = rng.normal(size=(11, 900))
    assert_near_scipy(design, series - series.mean(axis=-1, keepdims=True),
                      preprocess.preprocess_trials(series[:, None], FS, chain)[:, 0],
                      ORACLE_BOUNDS["band 8-30"])


def test_zero_phase_non_contiguous_input(rng):
    design = lowpass_ba(FS, 1.5)
    base = rng.normal(size=(6, 900, 5))
    x = base.transpose(0, 2, 1)[:, ::2, ::-1]  # (6, 3, 900), no unit stride
    out = _zero_phase(design, x)
    assert out.flags.c_contiguous
    assert np.array_equal(out, _zero_phase(design, np.ascontiguousarray(x)))
    assert_near_scipy(design, x, out, ORACLE_BOUNDS["low 1.5"])


def test_preprocess_trials_blocks_equal_one_at_a_time(monkeypatch, rng):
    from mipipe import preprocess

    trials = rng.normal(size=(7, 4, 500))
    trials.flags.writeable = False  # read as a TrialSet's rows are
    chains = [
        preprocess.Chain(channels=(2, 0), band_hz=(12.0, 14.0), window_s=(0.5, 4.5)),
        preprocess.Chain(car=True, band_hz=(8.0, 35.0), window_s=(0.5, 4.5)),
        preprocess.Chain(lowpass_hz=1.5, baseline_s=(0.0, 0.5), window_s=(2.0, 4.0)),
    ]
    for chain in chains:
        alone = [preprocess.preprocess(x, FS, chain) for x in trials]
        for block_values in (1, 4 * 500 * 3):
            monkeypatch.setattr(preprocess, "BLOCK_VALUES", block_values)
            assert np.array_equal(preprocess.preprocess_trials(trials, FS, chain), alone)


@given(channels=st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True),
       block_values=st.sampled_from([1, 800, 3000, 1 << 30]), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_each_row_filtered_alone(channels, block_values, seed):
    # any channel subset, block size and row order gives the rows of
    # filtering every channel of every trial at once, bit for bit
    from mipipe import preprocess

    rng = np.random.default_rng(seed)
    trials = rng.normal(size=(6, 8, 300))
    every = preprocess.preprocess_trials(trials, FS, preprocess.Chain(band_hz=(12.0, 14.0)))
    rows = rng.permutation(len(trials))
    chain = preprocess.Chain(channels=tuple(channels), band_hz=(12.0, 14.0))
    with mock.patch.object(preprocess, "BLOCK_VALUES", block_values):
        subset = preprocess.preprocess_trials(trials, FS, chain, rows=rows)
    assert np.array_equal(subset, every[rows][:, channels])


@given(
    n_items=st.integers(1, 4), width=st.integers(0, 5), n=st.integers(16, 700),
    low=st.floats(0.2, 40.0), span=st.floats(0.2, 9.0), seed=st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_zero_phase_near_scipy_property(n_items, width, n, low, span, seed):
    # width 0 draws a 1-D series. Any band may be drawn, so the bound is
    # M's conditioning, which ORACLE_BOUNDS' designs meet with room to spare;
    # a 0.2-0.4 Hz band on 16 samples has cond(M) near 1e16
    design = bandpass_ba(FS, low, min(low + span, 49.5))
    shape = (n_items, width, n) if width else (n,)
    x = np.random.default_rng(seed).normal(size=shape)
    irlen = min(design.settle, n - 1)
    m = n if n <= 2 * irlen else irlen
    big_m = _gust_matrices(tuple(design.b), tuple(design.a), m, m == n)[0]
    bound = 32 * np.finfo(np.float64).eps * np.linalg.cond(big_m)
    assert_near_scipy(design, x, _zero_phase(design, x), bound)


@pytest.mark.parametrize("design", [bandpass_ba(100.0, 0.2, 0.4), lowpass_ba(1000.0, 1.5)],
                         ids=["band 0.2-0.4 at 100 Hz", "low 1.5 at 1 kHz"])
def test_initial_conditions_residual_near_lstsq(rng, design):
    # on these ill-conditioned designs (cond(M) 1.3e12 and 5.1e13) M's cached
    # SVD factors solve for the initial conditions as well as LAPACK's
    # `dgelsd` (1.0 and 0.95 times its largest residual on these rows); an
    # explicit pinv(M) leaves 47 and 267 times it
    from scipy import signal

    b, a = design.b, design.a
    x = rng.normal(size=(20, 100))  # m == n for both designs

    def forward_backward(x):
        return signal.lfilter(b, a, signal.lfilter(b, a, x)[:, ::-1])[:, ::-1]

    delta = forward_backward(x[:, ::-1])[:, ::-1] - forward_backward(x)
    big_m, _, u, inv_s, vt = _gust_matrices(tuple(b), tuple(a), 100, True)
    ours = (((delta[:, None] @ u) * inv_s) @ vt)[:, 0]  # as `_gust_block` applies them
    eps = np.finfo(np.float64).eps
    lstsq = np.array([np.linalg.lstsq(big_m, row, rcond=eps)[0] for row in delta])

    def residual(solution):
        return np.linalg.norm(solution @ big_m.T - delta, axis=-1).max()

    assert residual(ours) <= 2 * residual(lstsq)


def test_non_finite_values_are_refused():
    # the check scipy's `lstsq` makes, on the edge differences and on M
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
        bandpass_array(np.r_[np.zeros(50), np.inf, np.zeros(49)], FS, 8.0, 12.0)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
        _gust_matrices((1.0, 0.0), (1.0, -2.0), 1100, True)  # 2 ** 1100 overflows


# --- the compiled kernels: scipy's filter loop and LAPACK module ------------

@pytest.mark.parametrize("name", ORACLE_DESIGNS)
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("with_zi", [False, True])
def test_lfilter_equals_scipy_lfilter_bitwise(rng, name, reverse, with_zi):
    from scipy import signal

    design = ORACLE_DESIGNS[name]()
    x = 3.0 * rng.normal(size=(9, 700)) - 1.0
    if reverse:  # a negative-stride view, as the second pass of `_gust_block` gets
        x = x[:, ::-1]
    zi = rng.normal(size=(len(x), len(design.a) - 1)) if with_zi else None
    expected = signal.lfilter(design.b, design.a, x, zi=zi)
    out = _lfilter(design.b, design.a, x, zi)
    assert np.array_equal(out, expected[0] if with_zi else expected)


AGREES_WITH_PUBLIC_SCIPY = """
import sys
import numpy as np
from mipipe.features import _eigh
from mipipe.preprocess import _scipy_module, _zero_phase, bandpass_ba, lowpass_ba

bounds = [float(bound) for bound in sys.argv[1:]]
rng = np.random.default_rng(5)
x = rng.normal(size=(4, 900))
a = rng.normal(size=(7, 7))
a = a @ a.T
designs = [bandpass_ba(100.0, 8.0, 30.0), lowpass_ba(100.0, 1.5)]
filtered, (w, v) = [_zero_phase(design, x) for design in designs], _eigh(a)
names = ["scipy.signal._sigtools", "scipy.linalg._flapack"]
loaded = [_scipy_module(name) for name in names]
import scipy.linalg, scipy.signal
assert [sys.modules[name] for name in names] == loaded
assert scipy.linalg.lapack.dsyevr is loaded[1].dsyevr
for design, y, bound in zip(designs, filtered, bounds):
    irlen = min(design.settle, x.shape[-1] - 1)
    expected = scipy.signal.filtfilt(design.b, design.a, x, method="gust", irlen=irlen)
    assert np.abs(y - expected).max() <= bound * np.abs(expected).max()
assert all(np.array_equal(ours, theirs) for ours, theirs in zip((w, v), scipy.linalg.eigh(a)))
print("ok")
"""
PUBLIC_SCIPY_BOUNDS = (str(ORACLE_BOUNDS["band 8-30"]), str(ORACLE_BOUNDS["low 1.5"]))


def test_helper_loaded_modules_serve_public_scipy():
    # the helper loads scipy's compiled modules first; scipy.signal and
    # scipy.linalg imported afterwards take them from sys.modules and give
    # the same bits, or the filter within its bound
    assert fresh_interpreter(AGREES_WITH_PUBLIC_SCIPY, *PUBLIC_SCIPY_BOUNDS) == "ok\n"


def test_helper_reuses_modules_scipy_loaded():
    code = """
import scipy.linalg, scipy.signal
from mipipe.preprocess import _scipy_module
assert _scipy_module("scipy.signal._sigtools") is scipy.signal._sigtools
assert _scipy_module("scipy.linalg._flapack") is scipy.linalg._flapack
"""
    assert fresh_interpreter(code + AGREES_WITH_PUBLIC_SCIPY, *PUBLIC_SCIPY_BOUNDS) == "ok\n"


def test_helper_takes_the_module_in_sys_modules(monkeypatch):
    # CPython hands back an already loaded extension module even when it is
    # loaded again, so only a stand-in shows that the entry is taken as it is
    stand_in = type(sys)("scipy.signal._sigtools")
    monkeypatch.setitem(sys.modules, "scipy.signal._sigtools", stand_in)
    assert _scipy_module("scipy.signal._sigtools") is stand_in


def test_missing_compiled_module_names_it_and_the_scipy_version(monkeypatch, tmp_path):
    import scipy

    # a scipy package on the search path without the compiled module
    (tmp_path / "scipy" / "signal").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "scipy.signal._sigtools", raising=False)
    message = f"no compiled module scipy.signal._sigtools in scipy {scipy.__version__}"
    with pytest.raises(ImportError, match=re.escape(message)):
        _scipy_module("scipy.signal._sigtools")
