import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mipipe.data_model import Trial, TrialSet


def make_trial(data, label=None, session_id=1, trial_index=0):
    return Trial(np.asarray(data, dtype=float), label, session_id, trial_index)


def make_set(trials, fs=100.0, channel_labels=None):
    """A TrialSet holding copies of `trials`, in order; channels are named
    ch0, ch1, ... unless `channel_labels` is given."""
    trials = list(trials)
    if channel_labels is None:
        channel_labels = tuple(f"ch{i}" for i in range(trials[0].n_channels))
    return TrialSet(np.stack([t.data for t in trials]),
                    [t.label or 0 for t in trials], [t.session_id for t in trials],
                    [t.trial_index for t in trials], fs, channel_labels)


def replace_trials(trial_set, trials):
    """A set of `trials` with `trial_set`'s sampling rate and channels."""
    trials = list(trials)
    if not trials:
        return trial_set[:0]
    return make_set(trials, trial_set.sampling_rate_hz, trial_set.channel_labels)


def as_trials(trial_set) -> tuple:
    """Each row of `trial_set` as a `Trial` (label None where it has none)."""
    return tuple(Trial(x, label or None, session, index) for x, label, session, index in zip(
        trial_set.data, trial_set.labels.tolist(), trial_set.sessions.tolist(),
        trial_set.trial_indices.tolist()))


def fresh_interpreter(code: str, *args: str) -> str:
    """stdout of `code` run with `args` in a fresh interpreter."""
    import mipipe

    env = {**os.environ, "PYTHONPATH": str(Path(mipipe.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          timeout=300, capture_output=True, text=True).stdout


def with_label(trial, label):
    return Trial(trial.data, label, trial.session_id, trial.trial_index)


def count_filtered_trials(monkeypatch) -> list:
    """Patch the zero-phase filter to record how many trials each call
    filters: a 3-D block its leading length, a 2-D trial one."""
    from mipipe import preprocess

    counts = []
    zero_phase = preprocess._zero_phase

    def counting(design, x):
        counts.append({3: len(x), 2: 1}[x.ndim])
        return zero_phase(design, x)

    monkeypatch.setattr(preprocess, "_zero_phase", counting)
    return counts


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
