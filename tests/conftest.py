import numpy as np
import pytest

from mipipe.data_model import Trial, TrialSet


def make_trial(data, label=None, session_id=1, trial_index=0):
    return Trial(np.asarray(data, dtype=float), label, session_id, trial_index)


def make_set(trials, fs=100.0):
    n_ch = trials[0].n_channels
    return TrialSet(tuple(trials), fs, tuple(f"ch{i}" for i in range(n_ch)))


def count_filtered_trials(monkeypatch) -> list:
    """Patch the zero-phase filter to record how many trials each call
    filters: a 3-D block its leading length, a 2-D trial one."""
    from mipipe import preprocess

    counts = []
    zero_phase = preprocess._zero_phase

    def counting(design, x, *args):
        counts.append({3: len(x), 2: 1}[x.ndim])
        return zero_phase(design, x, *args)

    monkeypatch.setattr(preprocess, "_zero_phase", counting)
    return counts


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
