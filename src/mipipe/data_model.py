"""Core domain types, the on-disk trial archive format, and dataset splitting.

A trial archive is a directory with a ``meta.json`` plus one CSV matrix file
per trial (rows = time samples, columns = channels).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import InitVar, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ArchiveError

ARCHIVE_VERSION = 1


def _read_only(values, dtype) -> np.ndarray:
    """`values` as a read-only C-contiguous array of `dtype`: an array that
    already is one is taken as it is, shared; anything else is copied."""
    a = np.asarray(values, dtype)
    if a.flags.writeable or not a.flags.c_contiguous:
        a = np.array(a, dtype, order="C")
        a.flags.writeable = False
    return a


def _checked_rows(data, labels, sessions, indices, finite=False) -> list[np.ndarray]:
    """A batch of trials and per trial its label (0 for none), session id and
    trial index, checked and made read-only (see `_read_only`); with `finite`,
    the data's values were checked already and are not looked at again."""
    data = _read_only(data, np.float64)
    if data.ndim != 3 or len(data) and (data.shape[1] < 1 or data.shape[2] < 2):
        raise ValueError(
            f"trial data must be channels x samples with >=1 channel and "
            f">=2 samples, got shape {data.shape[1:]}"
        )
    if not finite and not np.isfinite(data).all():
        raise ValueError("trial data contains non-finite values")
    labels, sessions, indices = (_read_only(a, np.int64) for a in (labels, sessions, indices))
    if not labels.shape == sessions.shape == indices.shape == (len(data),):
        raise ValueError("labels, sessions and trial_indices need one entry per trial")
    bad = labels[~np.isin(labels, (-1, 0, 1))]
    if len(bad):
        raise ValueError(f"label must be -1, +1 or None, got {int(bad[0])!r}")
    if (sessions < 1).any():
        raise ValueError("session_id must be >= 1")
    if (indices < 0).any():
        raise ValueError("trial_index must be >= 0")
    return [data, labels, sessions, indices]


@dataclass(frozen=True)
class Trial:
    """One multichannel EEG epoch (channels x samples, microvolts); its label
    is -1 (hand), +1 (foot) or None (unlabeled)."""

    data: np.ndarray
    label: int | None = None
    session_id: int = 1
    trial_index: int = 0

    def __post_init__(self):
        if self.label not in (-1, 1, None):
            raise ValueError(f"label must be -1, +1 or None, got {self.label!r}")
        data, *_ = _checked_rows(np.asarray(self.data, dtype=float)[None], [self.label or 0],
                                 [self.session_id], [self.trial_index])
        object.__setattr__(self, "data", data[0])

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    def with_data(self, data: np.ndarray) -> "Trial":
        """Same metadata, new signal matrix."""
        return Trial(data, self.label, self.session_id, self.trial_index)


# the per-trial arrays of a TrialSet, indexed like its data
_ROW_FIELDS = ("data", "labels", "sessions", "trial_indices")


@dataclass(frozen=True, eq=False)
class TrialSet:
    """An ordered batch of equally shaped trials: one read-only, C-contiguous
    (n_trials, n_channels, n_samples) float64 array, and per trial its label
    (-1 or +1, 0 for none), session id and trial index. `finite` marks data
    whose values were checked already (see `_checked_rows`)."""

    data: np.ndarray
    labels: np.ndarray
    sessions: np.ndarray
    trial_indices: np.ndarray
    sampling_rate_hz: float
    channel_labels: tuple[str, ...]
    finite: InitVar[bool] = False

    def __post_init__(self, finite):
        rows = _checked_rows(*(getattr(self, name) for name in _ROW_FIELDS), finite)
        if self.sampling_rate_hz <= 0:
            raise ValueError("sampling_rate_hz must be positive")
        channel_labels = tuple(self.channel_labels)
        if len(channel_labels) != rows[0].shape[1]:
            raise ValueError(
                f"channel_labels has {len(channel_labels)} entries "
                f"for {rows[0].shape[1]} channels"
            )
        if (np.diff(rows[2]) < 0).any():
            raise ValueError("session_ids must be nondecreasing")
        for name, value in zip(_ROW_FIELDS, rows):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "channel_labels", channel_labels)

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, rows) -> "TrialSet":
        """The trials at `rows`; a slice of rows shares this set's arrays.
        Other rows are gathered into fresh arrays, made read-only here so
        that `_read_only` takes them without a second copy."""
        picked = {name: getattr(self, name)[rows] for name in _ROW_FIELDS}
        for values in picked.values():
            if isinstance(values, np.ndarray):
                values.flags.writeable = False
        return replace(self, **picked, finite=True)

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def n_samples(self) -> int:
        return self.data.shape[2]

    @property
    def session_ids(self) -> list[int]:
        """The distinct session ids, in order."""
        return np.unique(self.sessions).tolist()

    def without_labels(self) -> "TrialSet":
        return replace(self, labels=np.zeros(len(self), np.int64), finite=True)


def _joined_data(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows of `a` then those of `b`, read-only. Where `b`'s rows start
    right where `a`'s end in the one array both are views of, as after
    `split`, that is a view of that array; otherwise a copy."""
    start = a.__array_interface__["data"][0]
    if (a.base is not None and a.base is b.base and a.flags.c_contiguous
            and b.flags.c_contiguous and start + a.nbytes == b.__array_interface__["data"][0]):
        # one run of a.size + b.size values from a's first, all inside the base
        run = np.lib.stride_tricks.as_strided(a, (a.size + b.size,), (a.itemsize,),
                                              writeable=False)
        return run.reshape((len(a) + len(b),) + a.shape[1:])
    out = np.concatenate([a, b])
    out.flags.writeable = False
    return out


def join(train: TrialSet, test: TrialSet) -> TrialSet:
    """The trials of `train`, then those of `test`, as one set. The data of
    the two halves of a `split` is joined without a copy (see
    `_joined_data`); the per-trial label, session and index arrays are
    copied."""
    shapes = [(ts.n_channels, ts.n_samples, ts.sampling_rate_hz) for ts in (train, test)]
    if shapes[0] != shapes[1]:
        raise ValueError("train and test sets differ: " + ", ".join(
            f"{name} has {c} channels x {n} samples at {fs} Hz"
            for name, (c, n, fs) in zip(("train", "test"), shapes)))
    rows = {name: np.concatenate([getattr(train, name), getattr(test, name)])
            for name in _ROW_FIELDS[1:]}
    return replace(train, data=_joined_data(train.data, test.data), **rows, finite=True)


@dataclass(frozen=True)
class SplitSpec:
    """How to carve a train set off the front of a recording."""

    train_fraction: float
    mode: str = "prefix"  # "prefix" or "by_session"

    def __post_init__(self):
        if not 0 < self.train_fraction <= 1:
            raise ValueError("train_fraction must be in (0, 1]")
        if self.mode not in ("prefix", "by_session"):
            raise ValueError(f"unknown split mode {self.mode!r}")


def split_count(trial_set: TrialSet, spec: SplitSpec) -> int:
    """The number of trials `split` puts in the train set.

    Prefix mode takes the first ceil(fraction * N) trials; by_session mode
    takes the smallest number of whole leading sessions covering that count.
    """
    n = len(trial_set)
    if n == 0:
        raise ValueError("cannot split an empty TrialSet")
    k = math.ceil(spec.train_fraction * n)
    if spec.mode == "by_session":
        # to the end of the session of the last trial the count covers
        k = int(np.searchsorted(trial_set.sessions, trial_set.sessions[k - 1], side="right"))
    if k == 0 or k >= n:
        raise ValueError(
            f"train_fraction {spec.train_fraction} yields a degenerate split "
            f"({k} train of {n} trials)"
        )
    return k


def split(trial_set: TrialSet, spec: SplitSpec) -> tuple[TrialSet, TrialSet]:
    """Partition into (train, test) preserving recording order, as views of
    `trial_set`'s rows (see `split_count`)."""
    k = split_count(trial_set, spec)
    return trial_set[:k], trial_set[k:]


def stratified_folds(labels: np.ndarray, k: int, seed: int | None = None) -> list[np.ndarray]:
    """Deal each class's trial indices (-1 first, then +1) round-robin over
    k folds: in index order when seed is None, else in the order of a
    permutation seeded by `seed`. Each fold is sorted; empty folds are
    dropped. Callers check the fold count against the class sizes."""
    labels = np.asarray(labels)
    rng = None if seed is None else np.random.default_rng(seed)
    out = [[] for _ in range(k)]
    for label in (-1, 1):
        block = np.flatnonzero(labels == label)
        if rng is not None:
            block = rng.permutation(block)
        for i, idx in enumerate(block):
            out[i % k].append(idx)
    return [np.array(sorted(f)) for f in out if f]


def usable_folds(labels: np.ndarray, most: int, seed: int | None = None) -> list[np.ndarray]:
    """`stratified_folds` into min(`most`, each class's size) folds; none below two."""
    k = min(most, int((labels == -1).sum()), int((labels == 1).sum()))
    return stratified_folds(labels, k, seed) if k >= 2 else []


def _trial_filename(session_id: int, trial_index: int) -> str:
    return f"s{session_id:02d}_t{trial_index:03d}.csv"


# rows per `%` call when writing a matrix file, so long trials stay bounded
WRITE_BLOCK_ROWS = 4096


def _write_matrix(fpath: Path, x: np.ndarray) -> None:
    """Write a (samples, channels) matrix as CSV, byte for byte what
    ``np.savetxt(fpath, x, fmt="%.17g", delimiter=",")`` writes (%.17g
    round-trips float64 exactly), with one `%` per block of rows."""
    row = ",".join(["%.17g"] * x.shape[1]) + "\n"
    with open(fpath, "w") as fh:
        for i in range(0, len(x), WRITE_BLOCK_ROWS):
            block = x[i:i + WRITE_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _read_matrix(fpath: Path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # an empty file is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fpath, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ArchiveError(f"{fpath}: unreadable matrix file: {exc}") from exc
    if data.size == 0:
        raise ArchiveError(f"{fpath}: empty matrix file")
    return data


def save_archive(trial_set: TrialSet, path) -> None:
    """Write a trial archive directory (meta.json + one CSV per trial)."""
    keys = list(zip(trial_set.sessions.tolist(), trial_set.trial_indices.tolist()))
    seen = set()
    for key in keys:
        if key in seen:
            raise ArchiveError(
                f"two trials share session {key[0]} and trial index {key[1]}; "
                f"they would be written to one file"
            )
        seen.add(key)
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    sessions: dict[int, list[dict]] = {}
    for x, label, (sid, index) in zip(trial_set.data, trial_set.labels.tolist(), keys):
        fname = _trial_filename(sid, index)
        label = None if label == 0 else f"{label:+d}"
        sessions.setdefault(sid, []).append(
            {"file": fname, "label": label}
        )
        _write_matrix(path / fname, x.T)
    meta = {
        "version": ARCHIVE_VERSION,
        "sampling_rate_hz": trial_set.sampling_rate_hz,
        "channel_labels": list(trial_set.channel_labels),
        "sessions": [
            {"id": sid, "trials": sessions[sid]} for sid in sorted(sessions)
        ],
    }
    (path / "meta.json").write_text(json.dumps(meta, indent=2))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_meta(meta, meta_path: Path) -> None:
    """Raise ArchiveError naming `meta_path` unless `meta` has every key of
    the archive format, each of the right JSON type."""
    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ArchiveError(f"{meta_path}: {what}")

    need(isinstance(meta, dict), "must hold a JSON object")
    need(meta.get("version") == ARCHIVE_VERSION,
         f"unknown format version {meta.get('version')!r}")
    labels = meta.get("channel_labels")
    need(isinstance(labels, list) and all(isinstance(c, str) for c in labels),
         "channel_labels must be a list of strings")
    rate = meta.get("sampling_rate_hz")
    need(isinstance(rate, (int, float)) and not isinstance(rate, bool)
         and math.isfinite(rate) and rate > 0,
         "sampling_rate_hz must be a positive number")
    sessions = meta.get("sessions")
    need(isinstance(sessions, list), "sessions must be a list")
    for session in sessions:
        need(isinstance(session, dict) and _is_int(session.get("id"))
             and isinstance(session.get("trials"), list),
             "each session needs an integer id and a list of trials")
        need(-1 << 63 <= session["id"] < 1 << 63,
             f"session id {session['id']} does not fit in 64 bits")
        for entry in session["trials"]:
            need(isinstance(entry, dict) and isinstance(entry.get("file"), str)
                 and "label" in entry and isinstance(entry["label"], (str, type(None))),
                 "each trial entry needs a file name and a label (string or null)")


def load_archive(path) -> TrialSet:
    """Read a trial archive directory back into a TrialSet."""
    path = Path(path)
    meta_path = path / "meta.json"
    if not meta_path.exists():
        raise ArchiveError(f"missing metadata file {meta_path}")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise ArchiveError(f"unparseable metadata file {meta_path}: {exc}") from exc
    _check_meta(meta, meta_path)
    channel_labels = meta["channel_labels"]
    n_ch = len(channel_labels)
    entries = [(session["id"], index, entry) for session in meta["sessions"]
               for index, entry in enumerate(session["trials"])]
    rows = np.zeros((3, len(entries)), np.int64)  # labels, sessions, trial indices
    data = np.zeros((len(entries), n_ch, 0))
    for row, (sid, index, entry) in enumerate(entries):
        fpath = path / entry["file"]
        if not fpath.exists():
            raise ArchiveError(f"missing trial file {fpath}")
        matrix = _read_matrix(fpath)
        if matrix.shape[1] != n_ch:
            raise ArchiveError(
                f"{fpath}: {matrix.shape[1]} columns but metadata declares "
                f"{n_ch} channels"
            )
        if not np.all(np.isfinite(matrix)):
            raise ArchiveError(f"{fpath}: non-finite value in matrix file")
        raw = entry["label"]
        if raw not in (None, "-1", "+1", "1"):
            raise ArchiveError(f"{fpath}: unknown label {raw!r} in metadata")
        if row == 0:
            data = np.empty((len(entries), n_ch, len(matrix)))
        elif len(matrix) != data.shape[2]:
            raise ArchiveError(f"{path}: all trials must share channel and sample counts")
        data[row] = matrix.T
        rows[:, row] = (0 if raw is None else int(raw), sid, index)
    data.flags.writeable = False
    try:
        return TrialSet(data, *rows, meta["sampling_rate_hz"], channel_labels, finite=True)
    except ValueError as exc:
        raise ArchiveError(f"{path}: {exc}") from exc
