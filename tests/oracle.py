"""Trial-at-a-time steps that the package no longer calls, kept as
references for the tests: each one runs on one `Trial` what the batched
chains in `mipipe.preprocess` and the extractors in `mipipe.pipeline` run
on stacked arrays."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from mipipe.data_model import Trial, TrialSet
from mipipe.features import DEFAULT_AR_ORDER, FeatureVector, fit_ar
from mipipe.preprocess import _baseline, _car, _crop, _window_indices, lowpass_array


def lowpass_zero_phase(trial: Trial, fs_hz: float, cutoff_hz: float) -> Trial:
    return trial.with_data(lowpass_array(trial.data, fs_hz, cutoff_hz))


def common_average_reference(trial: Trial) -> Trial:
    """Subtract the instantaneous mean over channels from every channel."""
    return trial.with_data(_car(trial.data))


def crop(trial: Trial, fs_hz: float, start_s: float, end_s: float) -> Trial:
    """Keep samples with start_s <= k/fs < end_s (sample k at time k/fs)."""
    return trial.with_data(_crop(trial.data, fs_hz, (start_s, end_s)))


def baseline_correct(trial: Trial, fs_hz: float, window_s: tuple[float, float]) -> Trial:
    """Per channel, subtract the mean over the baseline window."""
    return trial.with_data(_baseline(trial.data, fs_hz, window_s))


def ar_feature(trial: Trial, channels: Sequence[int], p: int = DEFAULT_AR_ORDER) -> FeatureVector:
    """Concatenated per-channel AR parameters: [a_1..a_p sigma^2] per channel."""
    if not len(channels):
        raise ValueError("no channels selected")
    parts = []
    for c in channels:
        try:
            model = fit_ar(trial.data[c], p)
        except ValueError as exc:
            raise ValueError(f"channel {c}: {exc}") from exc
        parts.append(np.r_[model.a, model.noise_variance])
    return FeatureVector(np.concatenate(parts), "ar")


def lrp_feature(
    trial: Trial,
    channels: Sequence[int],
    fs_hz: float,
    feature_window_s: tuple[float, float] = (0.5, 1.5),
) -> FeatureVector:
    """Per selected channel, the mean amplitude inside the feature window."""
    if not len(channels):
        raise ValueError("no channels selected")
    i0, i1 = _window_indices(trial.n_samples, fs_hz, *feature_window_s)
    means = trial.data[list(channels), i0:i1].mean(axis=1)
    return FeatureVector(means, "lrp")


def session(trial_set: TrialSet, session_id: int) -> TrialSet:
    """Subset containing one session, order preserved."""
    return trial_set.replace_trials([t for t in trial_set.trials if t.session_id == session_id])
