"""Temporal filtering, spatial referencing, epoch cropping and baseline removal.

All filters are Butterworth, applied forward-backward for zero phase, with
reflect padding so interior samples are free of edge transients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy import signal

from .data_model import Trial

BANDPASS_ORDER = 4  # transfer-function order; doubled by forward-backward pass
LOWPASS_ORDER = 4


def _settle_samples(a: np.ndarray, tol: float = 1e-13) -> int:
    """Samples until the slowest pole's transient decays below tol."""
    poles = np.roots(a)
    r_max = float(np.max(np.abs(poles))) if len(poles) else 0.0
    if r_max <= 0 or r_max >= 1:
        return 3 * len(a)
    return int(np.ceil(np.log(tol) / np.log(r_max)))


class FilterDesign(NamedTuple):
    """Butterworth coefficients, read-only, and the settle length of the
    slowest pole (`_settle_samples`)."""

    b: np.ndarray
    a: np.ndarray
    settle: int


@functools.lru_cache(maxsize=256)
def _butter(btype: str, order: int, fs_hz: float, edges_hz: tuple[float, ...]) -> FilterDesign:
    """One memoised design: every trial of a chain, and every search
    candidate of a band, uses the same few filters. The arrays are shared
    by all callers, so they are made read-only."""
    nyq = fs_hz / 2.0
    wn = [e / nyq for e in edges_hz] if len(edges_hz) > 1 else edges_hz[0] / nyq
    b, a = signal.butter(order, wn, btype=btype)
    b.flags.writeable = False
    a.flags.writeable = False
    return FilterDesign(b, a, _settle_samples(a))


def _zero_phase(design: FilterDesign, x: np.ndarray) -> np.ndarray:
    b, a, settle = design
    min_len = 3 * max(len(a), len(b))
    if x.shape[-1] <= min_len:
        raise ValueError(
            f"trial too short for zero-phase filtering: {x.shape[-1]} samples, "
            f"need > {min_len}"
        )
    # Gustafsson edge handling: forward-backward equals backward-forward,
    # which keeps interior samples transient-free on short epochs
    irlen = min(settle, x.shape[-1] - 1)
    return signal.filtfilt(b, a, x, axis=-1, method="gust", irlen=irlen)


def bandpass_ba(fs_hz: float, low_hz: float, high_hz: float) -> FilterDesign:
    """The (memoised) band-pass design for a band in Hz."""
    nyq = fs_hz / 2.0
    if not 0 < low_hz < high_hz < nyq:
        raise ValueError(
            f"invalid band ({low_hz}, {high_hz}) Hz for fs={fs_hz} Hz"
        )
    return _butter("bandpass", BANDPASS_ORDER // 2, fs_hz, (low_hz, high_hz))


def bandpass_array(x: np.ndarray, fs_hz: float, low_hz: float, high_hz: float) -> np.ndarray:
    """Zero-phase band-pass of an array along its last axis.

    Any leading shape is accepted, e.g. a batch of trials. Each 2-D slab
    (one trial) is filtered on its own, because filtfilt allocates about
    nine times its input in temporaries.
    """
    batch = np.asarray(x, float)
    design = bandpass_ba(fs_hz, low_hz, high_hz)
    if batch.ndim <= 2:
        return _demeaned_zero_phase(design, batch)
    out = np.empty_like(batch)
    for idx in np.ndindex(batch.shape[:-2]):
        out[idx] = _demeaned_zero_phase(design, batch[idx])
    return out


def _demeaned_zero_phase(design: FilterDesign, x: np.ndarray) -> np.ndarray:
    # the band-pass has zero DC gain; removing the mean up front avoids
    # edge transients from large offsets
    return _zero_phase(design, x - x.mean(axis=-1, keepdims=True))


def lowpass_array(x: np.ndarray, fs_hz: float, cutoff_hz: float) -> np.ndarray:
    """Zero-phase low-pass of an array along its last axis."""
    nyq = fs_hz / 2.0
    if not 0 < cutoff_hz < nyq:
        raise ValueError(f"invalid cutoff {cutoff_hz} Hz for fs={fs_hz} Hz")
    design = _butter("lowpass", LOWPASS_ORDER, fs_hz, (cutoff_hz,))
    return _zero_phase(design, np.asarray(x, float))


def bandpass_zero_phase(trial: Trial, fs_hz: float, low_hz: float, high_hz: float) -> Trial:
    return trial.with_data(bandpass_array(trial.data, fs_hz, low_hz, high_hz))


def lowpass_zero_phase(trial: Trial, fs_hz: float, cutoff_hz: float) -> Trial:
    return trial.with_data(lowpass_array(trial.data, fs_hz, cutoff_hz))


def common_average_reference(trial: Trial) -> Trial:
    """Subtract the instantaneous mean over channels from every channel."""
    return trial.with_data(_car(trial.data))


def _car(x: np.ndarray) -> np.ndarray:
    if x.shape[0] < 2:
        raise ValueError("common average reference needs >= 2 channels")
    return x - x.mean(axis=0, keepdims=True)


def _window_indices(n_samples: int, fs_hz: float, start_s: float, end_s: float):
    duration = n_samples / fs_hz
    if not (0 <= start_s < end_s <= duration + 0.5 / fs_hz):
        raise ValueError(
            f"window [{start_s}, {end_s}) s outside trial of {duration} s"
        )
    i0 = round(start_s * fs_hz)
    count = round((end_s - start_s) * fs_hz)
    if count < 1 or i0 + count > n_samples:
        raise ValueError(
            f"window [{start_s}, {end_s}) s maps to no valid samples"
        )
    return i0, i0 + count


def crop(trial: Trial, fs_hz: float, start_s: float, end_s: float) -> Trial:
    """Keep samples with start_s <= k/fs < end_s (sample k at time k/fs)."""
    return trial.with_data(_crop(trial.data, fs_hz, (start_s, end_s)))


def _crop(x: np.ndarray, fs_hz: float, window_s: tuple[float, float]) -> np.ndarray:
    i0, i1 = _window_indices(x.shape[-1], fs_hz, *window_s)
    return x[..., i0:i1]


def baseline_correct(trial: Trial, fs_hz: float, window_s: tuple[float, float]) -> Trial:
    """Per channel, subtract the mean over the baseline window."""
    return trial.with_data(_baseline(trial.data, fs_hz, window_s))


def _baseline(x: np.ndarray, fs_hz: float, window_s: tuple[float, float]) -> np.ndarray:
    return x - _crop(x, fs_hz, window_s).mean(axis=-1, keepdims=True)


@dataclass(frozen=True)
class Chain:
    """One method's preprocessing, as data. `preprocess` runs the steps in
    this order and skips those left as None or False."""

    channels: tuple[int, ...] | None = None
    car: bool = False
    band_hz: tuple[float, float] | None = None
    lowpass_hz: float | None = None
    baseline_s: tuple[float, float] | None = None
    window_s: tuple[float, float] | None = None


def preprocess(x: np.ndarray, fs_hz: float, chain: Chain) -> np.ndarray:
    """Run `chain` over one trial's (channels, samples) array.

    The result is C-contiguous, like the data of a `Trial`, so every later
    reduction sees the same memory layout as it does on a prepared `Trial`.
    """
    if chain.channels is not None:
        x = x[list(chain.channels)]
    if chain.car:
        x = _car(x)
    if chain.band_hz is not None:
        x = bandpass_array(x, fs_hz, *chain.band_hz)
    if chain.lowpass_hz is not None:
        x = lowpass_array(x, fs_hz, chain.lowpass_hz)
    if chain.baseline_s is not None:
        x = _baseline(x, fs_hz, chain.baseline_s)
    if chain.window_s is not None:
        x = _crop(x, fs_hz, chain.window_s)
    return np.ascontiguousarray(x)


def preprocess_trials(trials: Sequence[np.ndarray], fs_hz: float, chain: Chain,
                      reduce=None) -> np.ndarray:
    """`reduce(preprocess(x))` of each trial array (the preprocessed array
    itself when `reduce` is None), written into one preallocated
    (n_trials, ...) array. Trials are processed one at a time, so only one
    trial's filter temporaries are alive at once."""
    if not len(trials):
        raise ValueError("no trials to preprocess")
    out = None
    for i, x in enumerate(trials):
        row = preprocess(x, fs_hz, chain)
        if reduce is not None:
            row = reduce(row)
        if out is None:
            out = np.empty((len(trials),) + np.shape(row))
        out[i] = row
    return out


@dataclass(frozen=True)
class PreprocessConfig:
    """The CSP chain's band and window; the AR chain crops to the same
    window."""

    band_hz: tuple[float, float] | None = None
    window_s: tuple[float, float] | None = None

    def __post_init__(self):
        if self.band_hz is not None and not self.band_hz[0] < self.band_hz[1]:
            raise ValueError("band_hz must satisfy low < high")

