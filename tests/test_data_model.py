import json
import re
import tracemalloc

import numpy as np
import pytest

from mipipe.data_model import (
    WRITE_BLOCK_ROWS,
    SplitSpec,
    Trial,
    TrialSet,
    join,
    load_archive,
    save_archive,
    split,
    stratified_folds,
    usable_folds,
    _write_matrix,
)
from mipipe.errors import ArchiveError
from mipipe.synthgen import SynthConfig, generate

from conftest import as_trials, make_set, make_trial
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
    with pytest.raises(ValueError, match="train has 2 channels x 4 samples at 100.0 Hz, "
                                         "test has 3 channels x 4 samples"):
        join(make_set([t1]), make_set([t2]))


def test_trialset_rejects_decreasing_sessions():
    t1 = make_trial(np.zeros((2, 4)), session_id=2)
    t2 = make_trial(np.zeros((2, 4)), session_id=1)
    with pytest.raises(ValueError):
        make_set([t1, t2])


def _set(n=3, **rows):
    fields = {"data": np.zeros((n, 2, 4)), "labels": [1] * n, "sessions": [1] * n,
              "trial_indices": range(n), "sampling_rate_hz": 100.0,
              "channel_labels": ("a", "b")}
    return TrialSet(**(fields | rows))


@pytest.mark.parametrize("rows,message", [
    ({"data": np.zeros((3, 2, 1))}, "trial data must be channels x samples"),
    ({"data": np.zeros((3, 4))}, "trial data must be channels x samples with >=1 channel "
                                 "and >=2 samples, got shape (4,)"),
    ({"data": np.r_[np.zeros((2, 2, 4)), np.full((1, 2, 4), np.inf)]},
     "trial data contains non-finite values"),
    ({"labels": [1, 2, -1]}, "label must be -1, +1 or None, got 2"),
    ({"labels": [1, 1]}, "one entry per trial"),
    ({"sessions": [1, 0, 1]}, "session_id must be >= 1"),
    ({"trial_indices": [0, -1, 2]}, "trial_index must be >= 0"),
    ({"sampling_rate_hz": 0.0}, "sampling_rate_hz must be positive"),
    ({"channel_labels": ("a",)}, "channel_labels has 1 entries for 2 channels"),
    ({"sessions": [1, 2, 1]}, "session_ids must be nondecreasing"),
])
def test_trialset_validates_the_whole_array(rows, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _set(**rows)


def test_trialset_arrays_are_read_only_and_unaliased(rng):
    x = rng.normal(size=(3, 2, 4))
    ts = _set(data=x)
    x[0, 0, 0] = 99.0  # the caller's array was copied
    assert ts.data[0, 0, 0] != 99.0
    for name in ("data", "labels", "sessions", "trial_indices"):
        value = getattr(ts, name)
        assert not value.flags.writeable and value.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            value[0] = 0
    assert ts.data.dtype == np.float64 and ts.labels.dtype == np.int64
    # a read-only array is taken as it is
    assert _set(data=ts.data).data is ts.data


def test_split_and_without_labels_share_the_recording():
    ts = generate(SynthConfig(n_channels=3, n_sessions=2, trials_per_session=10))
    for spec in (SplitSpec(0.3, "prefix"), SplitSpec(0.3, "by_session")):
        train, test = split(ts, spec)
        assert np.shares_memory(train.data, ts.data)
        assert np.shares_memory(test.data, ts.data)
    blind = ts.without_labels()
    assert blind.data is ts.data
    assert not blind.labels.any() and ts.labels.all()
    assert blind.sessions is ts.sessions


def test_views_of_a_checked_set_skip_only_the_data_pass():
    # a set built over memory its caller can still write: a value changed
    # after the check shows which constructions look at the data again
    raw = np.zeros((4, 2, 4))
    data = raw.view()
    data.flags.writeable = False
    ts = _set(4, data=data, sessions=[1, 1, 2, 2])
    raw[3, 1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        _set(4, data=data)
    views = [ts[1:], ts[[0, 3]], ts.without_labels(), join(ts[:2], ts[2:])]
    assert all(np.isnan(v.data).any() for v in views)
    # the label, session-order and index checks still run
    with pytest.raises(ValueError, match="session_ids must be nondecreasing"):
        join(ts[2:], ts[:2])
    with pytest.raises(ValueError, match="session_ids must be nondecreasing"):
        ts[[3, 0]]
    with pytest.raises(ValueError, match="trial_index must be >= 0"):
        _set(4, data=data, trial_indices=[0, 1, 2, -3], finite=True)


def test_index_array_gathers_the_rows_once(rng):
    ts = _set(240, data=rng.normal(size=(240, 8, 1250)), channel_labels=tuple("abcdefgh"))
    idx = np.arange(0, 240, 2)
    tracemalloc.start()
    try:
        picked = ts[idx]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * picked.data.nbytes
    assert not picked.data.flags.writeable and picked.data.flags.c_contiguous
    np.testing.assert_array_equal(picked.data, ts.data[idx])


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
    for a, b in zip(as_trials(ts), as_trials(back)):
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
    assert as_trials(back)[0].label is None


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
    for a, b in zip(as_trials(ts), as_trials(back)):
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


def test_sample_count_mismatch_is_an_archive_error(tmp_path, rng):
    ts = make_set([make_trial(rng.normal(size=(2, 6)), label=1, trial_index=i)
                   for i in range(3)])
    save_archive(ts, tmp_path / "arch")
    short = tmp_path / "arch" / "s01_t001.csv"
    short.write_text("".join(short.read_text().splitlines(keepends=True)[:4]))
    with pytest.raises(ArchiveError, match="all trials must share channel and sample counts"):
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
    assert set(train.sessions.tolist()) == {1}


def test_split_is_ordered_partition():
    ts = _dummy_set(97)
    for fraction in (0.1, 0.37, 0.5, 0.9):
        train, test = split(ts, SplitSpec(fraction, "prefix"))
        assert len(train) + len(test) == len(ts)
        for name in ("data", "labels", "sessions", "trial_indices"):
            rejoined = np.concatenate([getattr(train, name), getattr(test, name)])
            assert np.array_equal(rejoined, getattr(ts, name))
            # the halves are views of the set's rows, not copies
            assert np.shares_memory(getattr(train, name), getattr(ts, name))
            assert np.shares_memory(getattr(test, name), getattr(ts, name))


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


@pytest.mark.parametrize("labels,most,seed,count", [
    (BLOCKS, 10, None, 4),  # capped by the 4 trials of class -1
    (BLOCKS, 3, 7, 3),  # capped by `most`
    (MIXED, 10, 0, 6),
    ([-1, 1, 1, 1], 10, None, 0),  # one trial of class -1: no folds
    (ALTERNATING, 1, None, 0),
])
def test_usable_folds_cap_the_count_by_each_class(labels, most, seed, count):
    labels = np.array(labels)
    folds = usable_folds(labels, most, seed)
    expected = stratified_folds(labels, count, seed) if count else []
    assert len(folds) == count
    assert [f.tolist() for f in folds] == [f.tolist() for f in expected]


def test_join_of_split_halves_shares_the_recording():
    ts = generate(SynthConfig(n_channels=3, n_sessions=2, trials_per_session=10))
    for spec in (SplitSpec(0.3, "prefix"), SplitSpec(0.3, "by_session")):
        train, test = split(ts, spec)
        joined = join(train, test.without_labels())
        assert np.shares_memory(joined.data, ts.data)
        assert np.array_equal(joined.data, ts.data) and not joined.data.flags.writeable
        assert joined.labels.tolist() == train.labels.tolist() + [0] * len(test)
    # halves that do not meet in one array are copied
    apart = join(ts[:3], ts[5:])
    assert not np.shares_memory(apart.data, ts.data)
    assert np.array_equal(apart.data, np.concatenate([ts.data[:3], ts.data[5:]]))
