"""Temporal filtering, spatial referencing, epoch cropping and baseline removal.

All filters are Butterworth, applied forward-backward for zero phase, with
reflect padding so interior samples are free of edge transients.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _zero_phase(ba: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    b, a = ba
    min_len = 3 * max(len(a), len(b))
    if x.shape[-1] <= min_len:
        raise ValueError(
            f"trial too short for zero-phase filtering: {x.shape[-1]} samples, "
            f"need > {min_len}"
        )
    # Gustafsson edge handling: forward-backward equals backward-forward,
    # which keeps interior samples transient-free on short epochs
    irlen = min(_settle_samples(a), x.shape[-1] - 1)
    return signal.filtfilt(b, a, x, axis=-1, method="gust", irlen=irlen)


def bandpass_ba(fs_hz: float, low_hz: float, high_hz: float):
    nyq = fs_hz / 2.0
    if not 0 < low_hz < high_hz < nyq:
        raise ValueError(
            f"invalid band ({low_hz}, {high_hz}) Hz for fs={fs_hz} Hz"
        )
    return signal.butter(
        BANDPASS_ORDER // 2, [low_hz / nyq, high_hz / nyq], btype="bandpass"
    )


def bandpass_array(x: np.ndarray, fs_hz: float, low_hz: float, high_hz: float) -> np.ndarray:
    """Zero-phase band-pass of an array along its last axis.

    Any leading shape is accepted, e.g. a batch of trials or a list of
    equally shaped trial arrays. The filter is designed once and each 2-D
    slab (one trial) is filtered on its own, because filtfilt allocates about
    nine times its input in temporaries. A list or tuple is stacked into a
    new array that is then filtered in place, so the batch exists once.
    """
    batch = np.asarray(x, float)
    ba = bandpass_ba(fs_hz, low_hz, high_hz)
    if batch.ndim <= 2:
        return _demeaned_zero_phase(ba, batch)
    out = batch if isinstance(x, (list, tuple)) else np.empty_like(batch)
    for idx in np.ndindex(batch.shape[:-2]):
        out[idx] = _demeaned_zero_phase(ba, batch[idx])
    return out


def _demeaned_zero_phase(ba, x: np.ndarray) -> np.ndarray:
    # the band-pass has zero DC gain; removing the mean up front avoids
    # edge transients from large offsets
    return _zero_phase(ba, x - x.mean(axis=-1, keepdims=True))


def lowpass_array(x: np.ndarray, fs_hz: float, cutoff_hz: float) -> np.ndarray:
    """Zero-phase low-pass of an array along its last axis."""
    nyq = fs_hz / 2.0
    if not 0 < cutoff_hz < nyq:
        raise ValueError(f"invalid cutoff {cutoff_hz} Hz for fs={fs_hz} Hz")
    ba = signal.butter(LOWPASS_ORDER, cutoff_hz / nyq, btype="lowpass")
    return _zero_phase(ba, np.asarray(x, float))


def bandpass_zero_phase(trial: Trial, fs_hz: float, low_hz: float, high_hz: float) -> Trial:
    return trial.with_data(bandpass_array(trial.data, fs_hz, low_hz, high_hz))


def lowpass_zero_phase(trial: Trial, fs_hz: float, cutoff_hz: float) -> Trial:
    return trial.with_data(lowpass_array(trial.data, fs_hz, cutoff_hz))


def common_average_reference(trial: Trial) -> Trial:
    """Subtract the instantaneous mean over channels from every channel."""
    if trial.n_channels < 2:
        raise ValueError("common average reference needs >= 2 channels")
    return trial.with_data(trial.data - trial.data.mean(axis=0, keepdims=True))


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
    i0, i1 = _window_indices(trial.n_samples, fs_hz, start_s, end_s)
    return trial.with_data(trial.data[:, i0:i1])


def baseline_correct(trial: Trial, fs_hz: float, window_s: tuple[float, float]) -> Trial:
    """Per channel, subtract the mean over the baseline window."""
    i0, i1 = _window_indices(trial.n_samples, fs_hz, window_s[0], window_s[1])
    baseline = trial.data[:, i0:i1].mean(axis=1, keepdims=True)
    return trial.with_data(trial.data - baseline)


@dataclass(frozen=True)
class PreprocessConfig:
    """Preprocessing parameters. The CSP chain uses band_hz and window_s;
    no extractor reads the other fields yet."""

    band_hz: tuple[float, float] | None = None
    lowpass_hz: float | None = None
    spatial_ref: str = "none"  # "none" or "CAR"
    window_s: tuple[float, float] | None = None
    baseline_window_s: tuple[float, float] | None = None

    def __post_init__(self):
        if self.spatial_ref not in ("none", "CAR"):
            raise ValueError(f"unknown spatial_ref {self.spatial_ref!r}")
        if self.band_hz is not None and not self.band_hz[0] < self.band_hz[1]:
            raise ValueError("band_hz must satisfy low < high")

