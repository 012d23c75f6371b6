import numpy as np
import pytest

from mipipe.config import EnsembleConfig, PipelineConfig
from mipipe.data_model import SplitSpec
from mipipe.errors import ConfigError
from mipipe.pipeline import run_static
from mipipe.preprocess import bandpass_array
from mipipe.synthgen import SynthConfig, _rhythm_sources, generate, synth_config_from_dict

from conftest import as_trials
from oracle import session


def classify_split(ts, method="csp", **config_kwargs):
    config = PipelineConfig(
        method=method, ensemble=EnsembleConfig(rounds=5, seed=0), **config_kwargs
    )
    return run_static(ts, SplitSpec(0.5, "prefix"), config, folds=0).test_accuracy


def test_shapes_labels_and_sessions():
    ts = generate(SynthConfig(n_channels=4, n_sessions=2, trials_per_session=6,
                              trial_duration_s=2.0, seed=0))
    assert len(ts) == 12
    assert ts.n_channels == 4
    assert ts.session_ids == [1, 2]
    for trial in as_trials(ts):
        assert trial.data.shape == (4, 200)
    labels = [t.label for t in as_trials(session(ts, 1))]
    assert labels == [-1, 1, -1, 1, -1, 1]


def test_seed_determinism_bitwise():
    cfg = SynthConfig(n_channels=4, trials_per_session=6, trial_duration_s=2.0,
                      seed=11)
    a, b = generate(cfg), generate(cfg)
    for ta, tb in zip(as_trials(a), as_trials(b)):
        assert np.array_equal(ta.data, tb.data)
        assert (ta.label, ta.session_id, ta.trial_index) == (
            tb.label, tb.session_id, tb.trial_index)


def test_different_seeds_differ():
    base = dict(n_channels=4, trials_per_session=6, trial_duration_s=2.0)
    a = generate(SynthConfig(seed=1, **base))
    b = generate(SynthConfig(seed=2, **base))
    assert not np.array_equal(a.data[0], b.data[0])


def test_rhythm_sources_of_a_batch_equal_each_source_alone():
    band, envelope = np.random.default_rng(4).normal(size=(2, 6, 2, 500))
    batch = _rhythm_sources(band, envelope, 100.0, 12.0, 14.0)
    alone = _rhythm_sources(band.reshape(-1, 1, 500), envelope.reshape(-1, 1, 500),
                            100.0, 12.0, 14.0)
    assert np.array_equal(batch, alone.reshape(batch.shape))


def test_rhythm_energy_concentrated_in_band():
    ts = generate(SynthConfig(n_channels=4, trials_per_session=4,
                              rhythm_band_hz=(13.0, 2.0), noise_sigma_uv=0.0,
                              seed=3))
    x = ts.data[1]  # label +1
    in_band = bandpass_array(x, ts.sampling_rate_hz, 11.0, 15.0)
    out_band = bandpass_array(x, ts.sampling_rate_hz, 25.0, 40.0)
    assert np.var(in_band) > 10.0 * np.var(out_band)


def test_erd_separates_classes_fisher():
    ts = generate(SynthConfig(n_channels=4, trials_per_session=60,
                              erd_depth=0.8, noise_sigma_uv=0.5, seed=4))
    fs = ts.sampling_rate_hz
    power = np.array([
        np.log(bandpass_array(t.data, fs, 12.0, 14.0)[:, 50:].var(axis=1))
        for t in as_trials(ts)
    ])
    labels = np.array([t.label for t in as_trials(ts)])
    mu_n, mu_p = power[labels == -1].mean(0), power[labels == 1].mean(0)
    var_n = power[labels == -1].var(0, ddof=1)
    var_p = power[labels == 1].var(0, ddof=1)
    fisher = (mu_n - mu_p) ** 2 / (var_n + var_p)
    no_signal = generate(SynthConfig(n_channels=4, trials_per_session=60,
                                     erd_depth=0.0, noise_sigma_uv=0.5, seed=4))
    power0 = np.array([
        np.log(bandpass_array(t.data, fs, 12.0, 14.0)[:, 50:].var(axis=1))
        for t in as_trials(no_signal)
    ])
    mu_n0, mu_p0 = power0[labels == -1].mean(0), power0[labels == 1].mean(0)
    fisher0 = (mu_n0 - mu_p0) ** 2 / (
        power0[labels == -1].var(0, ddof=1) + power0[labels == 1].var(0, ddof=1))
    assert fisher.max() >= 10.0 * fisher0.max()


def test_no_erd_classifies_near_chance():
    ts = generate(SynthConfig(n_channels=4, trials_per_session=80,
                              erd_depth=0.0, noise_sigma_uv=1.0, seed=5))
    accuracy = classify_split(ts)
    assert 30.0 <= accuracy <= 70.0


def test_erd_classifies_well():
    ts = generate(SynthConfig(n_channels=4, trials_per_session=80,
                              erd_depth=0.6, noise_sigma_uv=1.0, seed=5))
    assert classify_split(ts) >= 85.0


def test_lrp_slope_recoverable():
    base = dict(n_channels=4, trials_per_session=80, erd_depth=0.0,
                noise_sigma_uv=1.0, seed=6)
    flat = generate(SynthConfig(lrp_slope_uv_per_s=0.0, **base))
    sloped = generate(SynthConfig(lrp_slope_uv_per_s=3.0, **base))
    acc_flat = classify_split(flat, method="lrp")
    acc_sloped = classify_split(sloped, method="lrp")
    assert acc_sloped >= acc_flat + 25.0
    assert acc_sloped >= 85.0


def test_session_drift_changes_mixing():
    base = dict(n_channels=4, n_sessions=2, trials_per_session=4, seed=7,
                noise_sigma_uv=0.0)
    still = generate(SynthConfig(session_drift=0.0, **base))
    drifted = generate(SynthConfig(session_drift=0.5, **base))
    # session 1 identical, session 2 mixed differently
    assert np.array_equal(session(still, 1).data[0],
                          session(drifted, 1).data[0])
    assert not np.allclose(session(still, 2).data[0],
                           session(drifted, 2).data[0])


@pytest.mark.parametrize("kwargs", [
    dict(n_channels=2),
    dict(n_sessions=0),
    dict(trials_per_session=5),  # odd
    dict(trials_per_session=0),
    dict(erd_depth=1.5),
    dict(rhythm_band_hz=(60.0, 2.0)),  # above Nyquist at fs=100
    dict(noise_sigma_uv=-1.0),
    dict(session_drift=-0.1),
    dict(trial_duration_s=0.0),
])
def test_invalid_configs(kwargs):
    with pytest.raises(ConfigError):
        SynthConfig(**kwargs)


def test_config_from_dict_roundtrip():
    cfg = synth_config_from_dict({
        "n_channels": 4, "trials_per_session": 6, "seed": 3,
        "rhythm_band_hz": [13, 2],
    })
    assert cfg.n_channels == 4
    assert cfg.rhythm_band_hz == (13.0, 2.0)


def test_config_from_dict_unknown_field():
    with pytest.raises(ConfigError, match="bogus"):
        synth_config_from_dict({"bogus": 1})
