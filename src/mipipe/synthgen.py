"""Deterministic synthetic motor-imagery EEG generator.

Two narrowband rhythm sources whose amplitudes drop class-conditionally
during the imagery period (ERD), one slow class-signed drift source (LRP),
mixed into channels by a seeded full-rank matrix that optionally rotates
from session to session, plus white sensor noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import config_from_dict
from .data_model import TrialSet
from .errors import ConfigError
from .preprocess import Chain, block_trials, preprocess_trials

IMAGERY_ONSET_S = 0.5
RHYTHM_AMPLITUDE_UV = 10.0


@dataclass(frozen=True)
class SynthConfig:
    n_channels: int = 5
    n_sessions: int = 1
    trials_per_session: int = 40
    fs_hz: float = 100.0
    trial_duration_s: float = 5.0
    rhythm_band_hz: tuple[float, float] = (13.0, 2.0)  # (center, width)
    erd_depth: float = 0.6
    lrp_slope_uv_per_s: float = 0.0
    noise_sigma_uv: float = 1.0
    session_drift: float = 0.0  # radians of mixing rotation per session
    seed: int = 0

    def __post_init__(self):
        if self.n_channels < 3:
            raise ConfigError("n_channels must be >= 3 (three latent sources)")
        if self.n_sessions < 1:
            raise ConfigError("n_sessions must be >= 1")
        if self.trials_per_session < 2 or self.trials_per_session % 2:
            raise ConfigError("trials_per_session must be even and >= 2")
        if not 0 <= self.erd_depth <= 1:
            raise ConfigError("erd_depth must be in [0, 1]")
        for name in ("fs_hz", "trial_duration_s"):
            if not getattr(self, name) > 0:  # NaN included
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        center, width = self.rhythm_band_hz
        if not 0 < center - width / 2 < center + width / 2 < self.fs_hz / 2:
            raise ConfigError("rhythm band must lie strictly below Nyquist")
        for name in ("noise_sigma_uv", "session_drift"):
            if not getattr(self, name) >= 0:  # NaN included
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        # the trials are one float64 array, whose byte count numpy holds in 63 bits
        sizes = {"n_sessions x trials_per_session": self.n_sessions * self.trials_per_session,
                 "n_channels": self.n_channels,
                 "fs_hz x trial_duration_s": self.fs_hz * self.trial_duration_s}
        if not math.prod(min(size, 2.0**63) for size in sizes.values()) < 2**60:
            name = max(sizes, key=sizes.get)
            raise ConfigError(f"{name} = {sizes[name]} makes more trial data than one "
                              f"array holds")


def _rotation(n: int, theta: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotation by theta in the plane spanned by orthonormal u, v."""
    eye = np.eye(n)
    return (
        eye
        + (np.cos(theta) - 1) * (np.outer(u, u) + np.outer(v, v))
        + np.sin(theta) * (np.outer(v, u) - np.outer(u, v))
    )


def _rhythm_sources(band_noise, envelope_noise, fs, lo, hi):
    """Band-limited noise with a slow positive envelope: amplitude-modulated
    rhythm sources, one per row of a block's (trials, sources, n) noise
    arrays. Each row is filtered as it would be alone, so the sources do not
    depend on the trials that share their block."""
    band = preprocess_trials(band_noise, fs, Chain(band_hz=(lo, hi)))
    band /= np.maximum(band.std(axis=-1, keepdims=True), 1e-12)
    env_cut = min(1.0, fs / 4)
    envelope = 1.0 + 0.4 * preprocess_trials(envelope_noise, fs, Chain(lowpass_hz=env_cut))
    return band * np.clip(envelope, 0.2, None)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported at the end
def generate(config: SynthConfig) -> TrialSet:
    """Build a labeled multi-session TrialSet; bitwise deterministic in seed."""
    rng = np.random.default_rng(config.seed)
    n_ch = config.n_channels
    fs = config.fs_hz
    n = round(config.trial_duration_s * fs)
    t = np.arange(n) / fs
    imagery = t >= IMAGERY_ONSET_S

    mixing = rng.normal(size=(n_ch, 3))
    mixing /= np.linalg.norm(mixing, axis=0, keepdims=True)
    # plane for the session-drift rotation, fixed by the seed
    basis = rng.normal(size=(n_ch, 2))
    q, _ = np.linalg.qr(basis)
    u, v = q[:, 0], q[:, 1]

    center, width = config.rhythm_band_hz
    lo, hi = center - width / 2, center + width / 2

    # trials alternate class -1, +1 within each session
    n_trials = config.n_sessions * config.trials_per_session
    labels = np.tile([-1, 1], n_trials // 2)
    sessions, indices = np.divmod(np.arange(n_trials), config.trials_per_session)
    session_mixing = [_rotation(n_ch, float(config.session_drift) * s, u, v) @ mixing
                      for s in range(config.n_sessions)]

    # a block of trials at a time, so only the recording and one block's
    # sources are alive: first the block's random draws, in the order of a
    # trial-by-trial generator (per trial, band then envelope noise of each
    # rhythm source, then the sensor noise, held in the output until the
    # trial is mixed), then its rhythm sources, then its trials' mixing
    data = np.empty((n_trials, n_ch, n))
    step = block_trials(n_ch * n)
    for i0 in range(0, n_trials, step):
        block = range(i0, min(i0 + step, n_trials))
        band_noise = np.empty((len(block), 2, n))
        envelope_noise = np.empty((len(block), 2, n))
        for row, trial in enumerate(block):
            for i in (0, 1):
                band_noise[row, i] = rng.normal(size=n)
                envelope_noise[row, i] = rng.normal(size=n)
            if config.noise_sigma_uv > 0:
                data[trial] = rng.normal(size=(n_ch, n))
        rhythms = RHYTHM_AMPLITUDE_UV * _rhythm_sources(band_noise, envelope_noise, fs, lo, hi)
        for trial, rhythm in zip(block, rhythms):
            label = int(labels[trial])
            src = np.empty((3, n))
            src[:2] = rhythm
            src[0 if label == -1 else 1, imagery] *= 1.0 - config.erd_depth
            src[2] = label * config.lrp_slope_uv_per_s * np.clip(
                t - IMAGERY_ONSET_S, 0.0, None
            )
            mixed = session_mixing[sessions[trial]] @ src
            if config.noise_sigma_uv > 0:
                mixed = mixed + config.noise_sigma_uv * data[trial]
            data[trial] = mixed

    if not np.isfinite(data).all():
        raise ConfigError("lrp_slope_uv_per_s or noise_sigma_uv is too large: the trial "
                          "data overflows float64")
    data.flags.writeable = False
    return TrialSet(data, labels, sessions + 1, indices, fs,
                    tuple(f"ch{i}" for i in range(n_ch)), finite=True)


def synth_config_from_dict(doc: dict) -> SynthConfig:
    return config_from_dict(SynthConfig, doc, "synth config")
