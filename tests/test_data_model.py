import hashlib
import json
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from mipipe import data_model
from mipipe.cli import EXIT_IO, main
from mipipe.data_model import (
    RECORDING_FILE,
    WRITE_BLOCK_ROWS,
    SplitSpec,
    Trial,
    TrialSet,
    load_archive,
    save_archive,
    split_count,
    stratified_folds,
    usable_folds,
    _recording_digest,
    _write_matrix,
)
from mipipe.errors import ArchiveError
from mipipe.synthgen import SynthConfig, generate

from conftest import as_trials, make_set, make_trial
from oracle import percent_17g, session


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
    ({"sampling_rate_hz": np.nan}, "sampling_rate_hz must be positive and finite, got nan"),
    ({"sampling_rate_hz": np.inf}, "sampling_rate_hz must be positive and finite, got inf"),
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


def test_train_and_test_rows_share_the_recording():
    ts = generate(SynthConfig(n_channels=3, n_sessions=2, trials_per_session=10))
    for spec in (SplitSpec(0.3, "prefix"), SplitSpec(0.3, "by_session")):
        k = split_count(ts, spec)
        for rows in (ts[:k], ts[k:]):
            for name in ("data", "labels", "sessions", "trial_indices"):
                assert np.shares_memory(getattr(rows, name), getattr(ts, name))


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
    views = [ts[1:], ts[[0, 3]]]
    assert all(np.isnan(v.data).any() for v in views)
    # the label, session-order and index checks still run
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


def test_roundtrip_keeps_trial_indices(tmp_path):
    ts = generate(SynthConfig(n_channels=3, trials_per_session=20, seed=1))[10:13]
    assert ts.trial_indices.tolist() == [10, 11, 12]
    save_archive(ts, tmp_path / "arch")
    assert load_archive(tmp_path / "arch").trial_indices.tolist() == [10, 11, 12]


def test_trial_without_index_is_numbered_by_its_place(tmp_path):
    ts = generate(SynthConfig(n_channels=3, n_sessions=2, trials_per_session=4, seed=1))
    save_archive(ts[2:7], tmp_path / "arch")
    meta_path = tmp_path / "arch" / "meta.json"
    meta = json.loads(meta_path.read_text())
    for session in meta["sessions"]:
        for entry in session["trials"]:
            del entry["index"]
    meta_path.write_text(json.dumps(meta))
    back = load_archive(tmp_path / "arch")
    assert back.sessions.tolist() == [1, 1, 2, 2, 2]
    assert back.trial_indices.tolist() == [0, 1, 0, 1, 2]


@pytest.mark.parametrize("index,message", [
    (2 ** 63, f"meta.json: trial index {2 ** 63} does not fit in 64 bits"),
    (-2 ** 63 - 1, f"meta.json: trial index {-2 ** 63 - 1} does not fit in 64 bits"),
    ("3", "meta.json: trial index '3' is not an integer"),
    (1.0, "meta.json: trial index 1.0 is not an integer"),
    (True, "meta.json: trial index True is not an integer"),
    (-1, "trial_index must be >= 0"),
])
def test_bad_trial_index_is_an_archive_error(tmp_path, index, message):
    save_archive(make_set([make_trial(np.ones((2, 4)), label=1)]), tmp_path / "arch")
    meta_path = tmp_path / "arch" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["sessions"][0]["trials"][0]["index"] = index
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ArchiveError, match=re.escape(message)):
        load_archive(tmp_path / "arch")


def test_repeated_trial_index_is_an_archive_error(tmp_path, rng):
    ts = make_set([make_trial(rng.normal(size=(2, 4)), label=1, trial_index=i) for i in range(3)])
    save_archive(ts, tmp_path / "arch")
    meta_path = tmp_path / "arch" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["sessions"][0]["trials"][2]["index"] = 0
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ArchiveError, match=re.escape(
            f"{meta_path}: two trials share session 1 and trial index 0")):
        load_archive(tmp_path / "arch")


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


def _row_arrays(ts):
    return [getattr(ts, name) for name in ("data", "labels", "sessions", "trial_indices")]


def _assert_bitwise_equal(a, b):
    for x, y in zip(_row_arrays(a), _row_arrays(b)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("make", [
    lambda: generate(SynthConfig(n_channels=4, n_sessions=3, trials_per_session=12, seed=7)),
    lambda: generate(SynthConfig(n_channels=3, trials_per_session=20, seed=1))[10:13],
], ids=["multisession", "slice"])
def test_binary_copy_and_csvs_load_bitwise_equal(tmp_path, monkeypatch, make):
    ts = make()
    save_archive(ts, tmp_path / "arch")
    np.testing.assert_array_equal(np.load(tmp_path / "arch" / RECORDING_FILE), ts.data)

    def no_parsing(fpath):
        raise AssertionError(f"{fpath} parsed")

    with monkeypatch.context() as m:
        m.setattr(data_model, "_read_matrix", no_parsing)
        fast = load_archive(tmp_path / "arch")
    _assert_bitwise_equal(fast, ts)
    assert not fast.data.flags.writeable and fast.data.flags.c_contiguous
    (tmp_path / "arch" / RECORDING_FILE).unlink()
    _assert_bitwise_equal(load_archive(tmp_path / "arch"), fast)


def _csv_digests(path):
    meta = json.loads((path / "meta.json").read_text())
    return [hashlib.sha256((path / t["file"]).read_bytes()).digest()
            for s in meta["sessions"] for t in s["trials"]]


def _replace_copy(path, array):
    """Write `array` as the binary copy, with a digest over the bytes the
    file holds (in `array`'s own memory order)."""
    np.save(path / RECORDING_FILE, array)
    _set_digest(path, _recording_digest(_csv_digests(path), array.tobytes(order="A")))


def _set_digest(path, digest):
    meta_path = path / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["recording_sha256"] = digest
    meta_path.write_text(json.dumps(meta))


def _huge_header(fpath, x):
    """A copy whose header declares far more samples than the file holds."""
    with open(fpath, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {"descr": "<f8", "fortran_order": False,
                                                  "shape": (*x.shape[:2], 10 ** 13)})
        fh.write(x.tobytes())


# each breaks one condition of the copy; the digest is made to match the
# broken copy where it can be, so that the condition itself is what counts
@pytest.mark.parametrize("damage", [
    lambda path, x: (path / RECORDING_FILE).unlink(),
    lambda path, x: (path / RECORDING_FILE).write_bytes(
        (path / RECORDING_FILE).read_bytes()[:-8]),
    lambda path, x: (path / RECORDING_FILE).write_bytes(b"not an array"),
    lambda path, x: _replace_copy(path, x.astype(np.float32)),
    lambda path, x: _replace_copy(path, x.astype(">f8")),
    lambda path, x: _replace_copy(path, x.reshape(len(x) * x.shape[1], 1, -1)),
    lambda path, x: _replace_copy(path, x[:, :-1]),
    lambda path, x: _replace_copy(path, np.asfortranarray(x)),
    lambda path, x: np.save(path / RECORDING_FILE, x.astype(object), allow_pickle=True),
    lambda path, x: _replace_copy(path, np.where(np.arange(x.size).reshape(x.shape) == 5,
                                                 np.nan, x)),
    lambda path, x: np.save(path / RECORDING_FILE, x + 1.0),
    lambda path, x: _huge_header(path / RECORDING_FILE, x),
    lambda path, x: (path / RECORDING_FILE).write_bytes(
        (path / RECORDING_FILE).read_bytes() + bytes(8)),
    lambda path, x: _set_digest(path, "0" * 64),
    lambda path, x: _set_digest(path, _recording_digest(_csv_digests(path)[::-1], x)),
], ids=["deleted", "truncated", "garbage", "float32", "big_endian", "trials_x_channels",
        "fewer_channels", "fortran_order", "pickled", "nan", "other_values",
        "huge_header", "trailing_bytes", "digest_mismatch", "digest_of_reordered_csvs"])
def test_damaged_binary_copy_falls_back_to_the_csvs(tmp_path, monkeypatch, damage):
    ts = generate(SynthConfig(n_channels=3, n_sessions=2, trials_per_session=4, seed=2))
    save_archive(ts, tmp_path / "arch")
    damage(tmp_path / "arch", np.array(ts.data))
    parsed, read = [], data_model._read_matrix
    monkeypatch.setattr(data_model, "_read_matrix",
                        lambda fpath: parsed.append(fpath) or read(fpath))
    _assert_bitwise_equal(load_archive(tmp_path / "arch"), ts)
    assert len(parsed) == len(ts)


def test_rows_moved_between_csvs_are_read_from_the_csvs(tmp_path):
    # the CSV bytes in entry order are unchanged; the files they split into
    # are not, so the digest differs and the CSVs' own error shows
    ts = generate(SynthConfig(n_channels=3, trials_per_session=4, seed=2))
    save_archive(ts, tmp_path / "arch")
    first, second = (tmp_path / "arch" / f"s01_t00{i}.csv" for i in (0, 1))
    lines = first.read_text().splitlines(keepends=True)
    first.write_text("".join(lines[:-1]))
    second.write_text(lines[-1] + second.read_text())
    with pytest.raises(ArchiveError, match="all trials must share channel and sample counts"):
        load_archive(tmp_path / "arch")


@pytest.mark.parametrize("digest", [None, 123, "", "0" * 63, "0" * 65, "g" * 64,
                                    " " + "0" * 63, ["0" * 64]])
def test_malformed_recording_digest_is_an_archive_error(tmp_path, digest):
    save_archive(make_set([make_trial(np.ones((2, 4)), label=1)]), tmp_path / "arch")
    _set_digest(tmp_path / "arch", digest)
    with pytest.raises(ArchiveError, match=re.escape(
            f"{tmp_path / 'arch' / 'meta.json'}: recording_sha256 must be a "
            f"64-character hex string")):
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


def _decade_neighbours():
    """The 10 floats on each side of every power of ten from 1e-5 to 1e17
    (next to which log10 can miss the decimal exponent), and their negatives."""
    values = []
    for e in range(-5, 18):
        down = up = float(f"1e{e}")
        for _ in range(10):
            down = np.nextafter(down, 0.0)
            values += [down, up]
            up = np.nextafter(up, np.inf)
    return np.array(values).reshape(-1, 2) * [1.0, -1.0]


def _half_way_values():
    """Odd multiples m * 2**-s in [10**(17 - s), 10**(18 - s)): each one's
    exact decimal has 18 significant digits ending in 5, so its 17-digit
    rounding is a tie; 1e-4 <= each < 1e16."""
    values = []
    for s in range(2, 22):
        first = int(np.ceil(10.0 ** (17 - s) * 2 ** s)) | 1
        values += [m * 2.0 ** -s for m in range(first, first + 400, 2)]
    return np.array(values).reshape(-1, 8)


def _over_decades(shape, seed):
    """Normal draws scaled by 10**-6 .. 10**18, so that a block mixes every
    fixed-point exponent with values %.17g prints in exponent form."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) * 10.0 ** rng.integers(-6, 19, size=shape)


def test_half_way_values_are_ties():
    for value in _half_way_values().ravel().tolist():
        digits = Decimal(value).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, value


@pytest.mark.parametrize("x", [
    _decade_neighbours(),
    _half_way_values(),
    -_half_way_values(),
    np.array([[1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1)],
              [1e17, np.nextafter(1e17, 0), np.nextafter(1e17, np.inf)],
              [-1e-4, -np.nextafter(1e-4, 0), -np.nextafter(1e17, 0)]]),
    np.array([[-0.0, 0.0, 5e-324, -np.nextafter(2.2250738585072014e-308, 0)],
              [1e16, 1e16 + 2, 2.0 ** 54, 12345678901234568.0],
              [99999999999999984.0, 2.0 ** 60, 1e22, -1e23]]),
    np.array([[np.nan, 1.5, np.inf], [-np.inf, -0.25, np.nan]]),
    _over_decades((300, 64), seed=2),
    np.where(np.arange(2 * WRITE_BLOCK_ROWS + 3)[:, None] % 97 == 0, 0.0,
             _over_decades((2 * WRITE_BLOCK_ROWS + 3, 1), seed=3)),
], ids=["decade_neighbours", "half_way", "half_way_negative", "fixed_point_bounds",
        "zero_subnormal_integers", "non_finite", "wide_64_channels", "one_channel_3_blocks"])
def test_matrix_file_equals_percent_17g(tmp_path, x):
    with np.errstate(all="raise"):  # the arithmetic raises no floating-point flag
        _write_matrix(tmp_path / "m.csv", x)
    assert (tmp_path / "m.csv").read_bytes() == percent_17g(x)


def test_failed_save_over_an_archive_leaves_nothing_to_load(tmp_path, monkeypatch, capsys):
    arch = tmp_path / "arch"
    save_archive(generate(SynthConfig(n_channels=3, trials_per_session=20, seed=0)), arch)
    write, calls = data_model._write_matrix, []

    def failing(fpath, x):
        calls.append(fpath)
        if len(calls) == 8:
            raise OSError("no space left on device")
        return write(fpath, x)

    monkeypatch.setattr(data_model, "_write_matrix", failing)
    with pytest.raises(OSError, match="no space left"):
        save_archive(generate(SynthConfig(n_channels=3, trials_per_session=20, seed=1)), arch)
    # 7 new trial files beside 13 old ones, and no meta.json to join them
    with pytest.raises(ArchiveError, match=re.escape(f"missing metadata file {arch / 'meta.json'}")):
        load_archive(arch)
    assert main(["crossval", "--data", str(arch), "--report", str(tmp_path / "cv.json")]) == EXIT_IO
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("name", ["s01_t000.csv", "./s01_t000.csv"])
def test_two_entries_naming_one_file_is_an_archive_error(tmp_path, name):
    save_archive(generate(SynthConfig(n_channels=3, trials_per_session=20, seed=0)),
                 tmp_path / "arch")
    meta_path = tmp_path / "arch" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["sessions"][0]["trials"][1]["file"] = name
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ArchiveError, match=re.escape(
            f"{meta_path}: two trial entries name the file {tmp_path / 'arch' / 's01_t000.csv'}")):
        load_archive(tmp_path / "arch")


@pytest.mark.parametrize("form", ["relative", "absolute"])
def test_trial_entry_outside_the_archive_is_an_archive_error(tmp_path, capsys, form):
    # archive A's second entry names B's second trial: by "../B/..." or by
    # B's absolute path
    for name, seed in (("A", 0), ("B", 1)):
        save_archive(generate(SynthConfig(n_channels=3, trials_per_session=4, seed=seed)),
                     tmp_path / name)
    name = {"relative": "../B/s01_t001.csv",
            "absolute": str(tmp_path / "B" / "s01_t001.csv")}[form]
    meta_path = tmp_path / "A" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["sessions"][0]["trials"][1]["file"] = name
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ArchiveError, match=re.escape(
            f"{meta_path}: trial file {name!r} is not in the archive directory")):
        load_archive(tmp_path / "A")
    report = tmp_path / "cv.json"
    assert main(["crossval", "--data", str(tmp_path / "A"), "--report", str(report)]) == EXIT_IO
    assert capsys.readouterr().err.count("\n") == 1
    assert not report.exists()


def test_save_over_a_larger_archive_leaves_only_its_own_trials(tmp_path):
    ts = generate(SynthConfig(n_channels=3, trials_per_session=40, seed=0))
    arch, other = tmp_path / "arch", tmp_path / "other"
    save_archive(ts, arch)
    save_archive(ts[:2], other)
    # an entry of the old meta.json naming a file outside the archive is not
    # the save's to remove
    meta = json.loads((arch / "meta.json").read_text())
    meta["sessions"][0]["trials"].append(
        {"file": "../other/s01_t001.csv", "label": None, "index": 40})
    (arch / "meta.json").write_text(json.dumps(meta))
    save_archive(ts[:10], arch)
    assert sorted(f.name for f in arch.glob("*.csv")) == [f"s01_t{i:03d}.csv" for i in range(10)]
    assert (other / "s01_t001.csv").exists()
    loaded = load_archive(arch)
    assert np.array_equal(loaded.data, ts.data[:10])


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
    assert split_count(_dummy_set(n), SplitSpec(fraction, "prefix")) == expect_train


def test_by_session_split():
    ts = _dummy_set(240, sessions=4)
    k = split_count(ts, SplitSpec(0.25, "by_session"))
    assert k == 60
    assert set(ts.sessions[:k].tolist()) == {1}
    # a count inside a session extends to that session's end
    assert split_count(ts, SplitSpec(0.3, "by_session")) == 120


def test_split_count_leaves_train_and_test_rows():
    ts = _dummy_set(97)
    for fraction in (0.1, 0.37, 0.5, 0.9):
        assert 0 < split_count(ts, SplitSpec(fraction, "prefix")) < len(ts)


def test_split_degenerate_errors():
    ts = _dummy_set(10)
    with pytest.raises(ValueError, match="degenerate split"):
        split_count(ts, SplitSpec(1.0, "prefix"))  # empty test
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
