import json

import numpy as np
import pytest

from mipipe.data_model import (
    WRITE_BLOCK_ROWS,
    SplitSpec,
    Trial,
    TrialSet,
    load_archive,
    save_archive,
    split,
    stratified_folds,
    _write_matrix,
)
from mipipe.errors import ArchiveError
from mipipe.synthgen import SynthConfig, generate

from conftest import make_set, make_trial
from oracle import session


def test_trial_validation():
    with pytest.raises(ValueError):
        make_trial(np.zeros((2, 1)))  # too few samples
    with pytest.raises(ValueError):
        make_trial([[1.0, np.nan]])
    with pytest.raises(ValueError):
        make_trial(np.zeros((1, 4)), label=2)
    with pytest.raises(ValueError):
        Trial(np.zeros((1, 4)), None, 0, 0)


def test_trialset_rejects_mixed_shapes():
    t1 = make_trial(np.zeros((2, 4)))
    t2 = make_trial(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        make_set([t1, t2])


def test_trialset_rejects_decreasing_sessions():
    t1 = make_trial(np.zeros((2, 4)), session_id=2)
    t2 = make_trial(np.zeros((2, 4)), session_id=1)
    with pytest.raises(ValueError):
        make_set([t1, t2])


def test_roundtrip_small(tmp_path, rng):
    trials = [
        make_trial(rng.normal(size=(3, 4)), label=-1, trial_index=0),
        make_trial(rng.normal(size=(3, 4)), label=1, trial_index=1),
    ]
    ts = make_set(trials)
    save_archive(ts, tmp_path / "arch")
    back = load_archive(tmp_path / "arch")
    assert len(back) == 2
    assert back.n_channels == 3
    for a, b in zip(ts, back):
        assert np.allclose(a.data, b.data, atol=1e-9)
        assert a.label == b.label


def test_save_rejects_duplicate_trial_keys(tmp_path, rng):
    trials = [make_trial(rng.normal(size=(2, 4)), label=1, trial_index=i % 2)
              for i in range(4)]
    with pytest.raises(ArchiveError, match="session 1 and trial index 0"):
        save_archive(make_set(trials), tmp_path / "arch")
    assert not (tmp_path / "arch").exists()


def test_roundtrip_unlabeled_null(tmp_path):
    ts = make_set([make_trial(np.ones((2, 4)), label=None)])
    save_archive(ts, tmp_path / "arch")
    meta = json.loads((tmp_path / "arch" / "meta.json").read_text())
    assert meta["sessions"][0]["trials"][0]["label"] is None
    back = load_archive(tmp_path / "arch")
    assert back.trials[0].label is None


def test_single_trial_archive_has_one_matrix_file(tmp_path):
    ts = make_set([make_trial(np.ones((2, 4)), label=1)])
    save_archive(ts, tmp_path / "arch")
    csvs = list((tmp_path / "arch").glob("*.csv"))
    assert len(csvs) == 1


def test_roundtrip_synthetic_multisession(tmp_path):
    ts = generate(SynthConfig(n_channels=4, n_sessions=4, trials_per_session=60,
                              seed=7))
    save_archive(ts, tmp_path / "arch")
    back = load_archive(tmp_path / "arch")
    assert back.session_ids == [1, 2, 3, 4]
    for sid in back.session_ids:
        assert len(session(back, sid)) == 60
    for a, b in zip(ts, back):
        assert np.max(np.abs(a.data - b.data)) <= 1e-9
        assert (a.label, a.session_id, a.trial_index) == (b.label, b.session_id, b.trial_index)


def test_channel_mismatch_names_file(tmp_path, rng):
    ts = make_set([make_trial(rng.normal(size=(3, 4)), label=1)])
    save_archive(ts, tmp_path / "arch")
    meta_path = tmp_path / "arch" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["channel_labels"] = ["a", "b"]  # declare 2 channels, files have 3
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ArchiveError, match=r"s01_t000\.csv"):
        load_archive(tmp_path / "arch")


def test_missing_metadata(tmp_path):
    (tmp_path / "arch").mkdir()
    with pytest.raises(ArchiveError, match="meta.json"):
        load_archive(tmp_path / "arch")


def test_unknown_version(tmp_path):
    ts = make_set([make_trial(np.ones((2, 4)))])
    save_archive(ts, tmp_path / "arch")
    meta_path = tmp_path / "arch" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["version"] = 99
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ArchiveError, match="version"):
        load_archive(tmp_path / "arch")


def test_nonfinite_value_names_file(tmp_path):
    ts = make_set([make_trial(np.ones((2, 4)), label=1)])
    save_archive(ts, tmp_path / "arch")
    bad = tmp_path / "arch" / "s01_t000.csv"
    bad.write_text(bad.read_text().replace("1", "nan", 1))
    with pytest.raises(ArchiveError, match=r"s01_t000\.csv"):
        load_archive(tmp_path / "arch")


@pytest.mark.parametrize("x", [
    np.random.default_rng(0).normal(scale=30.0, size=(1250, 8)),
    np.random.default_rng(1).normal(size=(2 * WRITE_BLOCK_ROWS + 3, 1)),  # 3 blocks
    np.array([[-0.0, 0.0, 5e-324],
              [-2.2250738585072014e-308, 1e-310, 1.7976931348623157e308],
              [-1e300, 1.0 / 3.0, 123456789.0]]),
], ids=["random", "one_channel", "signed_zero_subnormal_huge"])
def test_matrix_file_bytes_equal_savetxt(tmp_path, x):
    _write_matrix(tmp_path / "fast.csv", x)
    np.savetxt(tmp_path / "ref.csv", x, fmt="%.17g", delimiter=",")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _dummy_set(n, sessions=1):
    per = n // sessions
    trials = [
        make_trial(np.full((2, 4), float(i)), label=(-1) ** i,
                   session_id=1 + i // per, trial_index=i % per)
        for i in range(n)
    ]
    return make_set(trials)


@pytest.mark.parametrize("n,fraction,expect_train", [
    (280, 0.8, 224),
    (280, 0.6, 168),
    (280, 0.3, 84),
    (280, 0.2, 56),
    (280, 0.1, 28),
])
def test_prefix_split_counts(n, fraction, expect_train):
    train, test = split(_dummy_set(n), SplitSpec(fraction, "prefix"))
    assert len(train) == expect_train
    assert len(test) == n - expect_train


def test_by_session_split():
    ts = _dummy_set(240, sessions=4)
    train, test = split(ts, SplitSpec(0.25, "by_session"))
    assert len(train) == 60
    assert len(test) == 180
    assert {t.session_id for t in train.trials} == {1}


def test_split_is_ordered_partition():
    ts = _dummy_set(97)
    for fraction in (0.1, 0.37, 0.5, 0.9):
        train, test = split(ts, SplitSpec(fraction, "prefix"))
        assert len(train) + len(test) == len(ts)
        rejoined = list(train.trials) + list(test.trials)
        assert all(a is b for a, b in zip(rejoined, ts.trials))


def test_split_degenerate_errors():
    ts = _dummy_set(10)
    with pytest.raises(ValueError):
        split(ts, SplitSpec(1.0, "prefix"))  # empty test
    with pytest.raises(ValueError):
        SplitSpec(0.0, "prefix")
    with pytest.raises(ValueError):
        SplitSpec(0.5, "bogus")


# Fold lists of the two helpers stratified_folds replaced: the search's
# round-robin one (seed None, k capped by the smaller class) and
# cross-validation's seeded permutation.
ALTERNATING = [-1, 1] * 5
BLOCKS = [-1] * 4 + [1] * 7
MIXED = [1, 1, -1, 1, -1, -1, 1, -1, 1, 1, -1, 1, -1]


@pytest.mark.parametrize("labels,k,seed,expected", [
    (ALTERNATING, 5, None, [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]),
    (ALTERNATING, 3, None, [[0, 1, 6, 7], [2, 3, 8, 9], [4, 5]]),
    (BLOCKS, 4, None, [[0, 4, 8], [1, 5, 9], [2, 6, 10], [3, 7]]),
    (BLOCKS, 3, None, [[0, 3, 4, 7, 10], [1, 5, 8], [2, 6, 9]]),
    (MIXED, 6, None, [[0, 2, 11], [1, 4], [3, 5], [6, 7], [8, 10], [9, 12]]),
    (MIXED, 3, None, [[0, 2, 6, 7, 11], [1, 4, 8, 10], [3, 5, 9, 12]]),
    (ALTERNATING, 3, 0, [[0, 1, 4, 9], [2, 3, 7, 8], [5, 6]]),
    (ALTERNATING, 4, 7, [[1, 4, 5, 6], [0, 3], [8, 9], [2, 7]]),
    (BLOCKS, 3, 0, [[2, 3, 4, 8, 10], [0, 7, 9], [1, 5, 6]]),
    (BLOCKS, 4, 7, [[0, 4, 9], [2, 6, 10], [1, 5, 8], [3, 7]]),
    (MIXED, 3, 0, [[3, 7, 8, 10, 11], [0, 2, 5, 9], [1, 4, 6, 12]]),
    (MIXED, 4, 7, [[1, 4, 8, 12], [5, 6, 7, 11], [2, 3, 9], [0, 10]]),
    # more folds than either class fills: the empty ones are dropped
    ([-1, -1, 1, 1, 1], 5, 1, [[0, 2], [1, 3], [4]]),
])
def test_stratified_folds_pinned(labels, k, seed, expected):
    folds = stratified_folds(np.array(labels), k, seed)
    assert [f.tolist() for f in folds] == expected
