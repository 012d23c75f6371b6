"""Core domain types, the on-disk trial archive format, and dataset splitting.

A trial archive is a directory with a ``meta.json`` plus one CSV matrix file
per trial (rows = time samples, columns = channels); each trial entry of
``meta.json`` holds its file, label and trial index. The CSVs are the
archive's data. ``save_archive`` also writes the recording once as
``recording.npy``, in `TrialSet`'s layout, and ``meta.json``'s
``recording_sha256`` digests the trial CSVs and that copy together (see
`_recording_digest`). ``load_archive`` takes the copy in place of parsing the
CSVs only while that digest matches the files on disk; an archive whose CSVs
were edited, or that has no copy, is read from its CSVs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import warnings
from dataclasses import InitVar, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ArchiveError

ARCHIVE_VERSION = 1
RECORDING_FILE = "recording.npy"


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
        if not 0 < self.sampling_rate_hz < math.inf:  # NaN included
            raise ValueError(f"sampling_rate_hz must be positive and finite, "
                             f"got {self.sampling_rate_hz}")
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
    """The number of leading trials of `trial_set` that `spec` puts in the
    train set; the trials after them are the test set.

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


# rows formatted at once when writing a matrix file, so long trials stay bounded
WRITE_BLOCK_ROWS = 4096

# bytes per value while a block is formatted: the longest %.17g text
# ("-2.2250738585072014e-308") and its separator; NUL bytes fill the rest
_FIELD = 25


def _veltkamp(a):
    """Veltkamp's split of float64 `a` into hi + lo == a exactly, each with
    at most 26 significant bits, so that a product of two halves is exact."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


# 10**j for j = 0..20, each exact in float64, and its Veltkamp halves
_POW10 = np.array([float(10 ** j) for j in range(21)])
_POW10_HI, _POW10_LO = _veltkamp(_POW10)


@functools.cache
def _digit_chunks() -> np.ndarray:
    """The 4 ASCII digits of each chunk 0000..9999 as one uint32 (at index
    c), then the same with the chunk's trailing zeros as NUL bytes (at index
    10000 + c). Built on first use, so that commands which write no
    archive neither build nor hold it."""
    c = np.arange(10000, dtype=np.int16)
    digits = np.stack([c // 1000, c // 100 % 10, c // 10 % 10, c % 10], axis=1).astype(np.uint8)
    digits += ord("0")
    trailing = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    chunks = np.concatenate([digits, np.where(trailing, 0, digits)]).view(np.uint32).ravel()
    chunks.flags.writeable = False
    return chunks


def _exact_scaled(a, k):
    """(p, e) with p = fl(a * 10**(16 - k)) and p + e equal to that product
    exactly: Dekker's error-free product (Numer. Math. 18, 1971) in float64."""
    j = (16 - k).astype(np.intp)
    p = a * _POW10.take(j)
    ah, al = _veltkamp(a)
    bh, bl = _POW10_HI.take(j), _POW10_LO.take(j)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _below(p, e, t):
    """Where the exact p + e (see `_exact_scaled`) lies below the float t."""
    return (p < t) | ((p == t) & (e < 0))


def _fixed_point(v: np.ndarray):
    """The %.17g text of each value of `v`, all with 1e-4 <= |v| < 1e17 (the
    values %.17g prints in fixed point), as NUL-filled `_FIELD`-byte rows
    whose last byte is left for the separator. Returns (order, rows): row i
    holds the text of v[order[i]].

    With k the decimal exponent, the 17 significant digits are the integer
    q = round-half-even(|v| * 10**(16 - k)) in [10**16, 10**17). Since
    p >= 10**16 > 2**53 is an even integer and e is exact, p + rint(e) is
    that rounding, ties included."""
    a = np.abs(v)
    # log10 can miss the exponent by one next to a power of ten
    k = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int8)
    p, e = _exact_scaled(a, k)
    step = (~_below(p, e, 1e17)).astype(np.int8) - _below(p, e, 1e16)
    redo = np.flatnonzero(step)
    if len(redo):
        k[redo] += step[redo]
        p[redo], e[redo] = _exact_scaled(a[redo], k[redo])
    q = p.astype(np.int64) + np.rint(e).astype(np.int64)
    carry = q == 10 ** 17  # rounded up into the next decade
    k += carry
    q[carry] = 10 ** 16

    # one group of rows per exponent, each laid out by slicing
    order = np.argsort(k, kind="stable")
    k, q = k[order], q[order]
    hi = q // 10 ** 8
    lo = (q - hi * 10 ** 8).astype(np.int32)
    hi = hi.astype(np.int32)
    lead = hi // 10 ** 8
    mid = hi - lead * 10 ** 8
    c1 = mid // 10 ** 4
    c2 = mid - c1 * 10 ** 4
    c3 = lo // 10 ** 4
    c4 = lo - c3 * 10 ** 4
    # q's digits as bytes 3..19 of five uint32 words: the leading digit,
    # then four chunks, each blanked where every later chunk is 0000
    chunks = _digit_chunks()
    words = np.empty((len(q), 5), np.uint32)
    words[:, 4] = chunks[c4 + 10000]
    words[:, 3] = chunks[c3 + 10000 * (c4 == 0)]
    words[:, 2] = chunks[c2 + 10000 * (lo == 0)]
    words[:, 1] = chunks[c1 + 10000 * ((c2 == 0) & (lo == 0))]
    digits = words.view(np.uint8)[:, 3:]
    digits[:, 0] = lead + ord("0")

    rows = np.zeros((len(q), _FIELD), np.uint8)
    rows[:, 0] = (v[order] < 0) * ord("-")
    starts = np.searchsorted(k, np.arange(-4, 18))
    for exp in range(-4, 17):
        group = slice(starts[exp + 4], starts[exp + 5])
        d, out = digits[group], rows[group]
        if not len(d):
            continue
        if exp < 0:  # 0.000ddd...
            zeros = -exp - 1
            out[:, 1:3 + zeros] = np.frombuffer(b"0." + b"0" * zeros, np.uint8)
            out[:, 3 + zeros:20 + zeros] = d
        else:  # the integer part keeps its zeros; a '.' only before a digit
            np.maximum(d[:, :exp + 1], ord("0"), out=out[:, 1:exp + 2])
            if exp < 16:
                out[:, exp + 2] = (d[:, exp + 1] != 0) * ord(".")
                out[:, exp + 3:19] = d[:, exp + 1:]
    return order, rows


def _format_17g(x: np.ndarray) -> bytes:
    """The CSV text of a (rows, columns) float64 block: each value as
    ``"%.17g" % value``, ',' between values and '\\n' after each row.

    Values %.17g prints in fixed point come from `_fixed_point`; zeros,
    non-finite values and |value| < 1e-4 or >= 1e17 take `%` one by one."""
    flat = x.ravel()
    a = np.abs(flat)
    fixed = (a >= 1e-4) & (a < 1e17)
    fields = np.zeros((flat.size, _FIELD), np.uint8)
    where = np.flatnonzero(fixed)
    if len(where):
        order, rows = _fixed_point(flat[where])
        # moved as whole _FIELD-byte rows, back into the block's order
        fields.view(f"V{_FIELD}")[where[order], 0] = rows.view(f"V{_FIELD}")[:, 0]
    rest = np.flatnonzero(~fixed)
    for i, value in zip(rest.tolist(), flat[rest].tolist()):
        text = b"%.17g" % value
        fields[i, :len(text)] = np.frombuffer(text, np.uint8)
    ends = fields.reshape(*x.shape, _FIELD)[..., -1]
    ends[:] = ord(",")
    ends[:, -1] = ord("\n")
    return fields.tobytes().translate(None, b"\0")


def _write_matrix(fpath: Path, x: np.ndarray) -> bytes:
    """Write a (samples, channels) matrix as CSV, byte for byte what
    ``np.savetxt(fpath, x, fmt="%.17g", delimiter=",")`` writes (%.17g
    round-trips float64 exactly); return the SHA-256 of the bytes written.

    The text is made by numpy a block of rows at a time (`_format_17g`).
    For the values %.17g prints in fixed point, the 17 digits are computed
    exactly: Dekker's error-free product gives |x| * 10**j as p + e with no
    rounding, so round-half-even is decided on the exact product. The digits
    come from a table of 4-digit chunks with the dropped trailing zeros as
    NUL bytes, the '.' is placed per decimal exponent, and the NULs are
    deleted. Every other value takes `%` one by one."""
    digest = hashlib.sha256()
    with open(fpath, "wb") as fh:
        for i in range(0, len(x), WRITE_BLOCK_ROWS):
            text = _format_17g(x[i:i + WRITE_BLOCK_ROWS])
            digest.update(text)
            fh.write(text)
    return digest.digest()


def _recording_digest(csv_digests, data: np.ndarray) -> str:
    """``recording_sha256``: the SHA-256 of each trial CSV's SHA-256, in
    entry order, followed by the raw bytes of the C-contiguous recording
    `data`. A file's own digest, not its bytes, goes in, so that bytes moved
    from one CSV to the next change the result."""
    digest = hashlib.sha256(b"".join(csv_digests))
    digest.update(data)
    return digest.hexdigest()


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


def _check_unique(keys, prefix: str, suffix: str = "") -> None:
    """Raise ArchiveError at the first (session id, trial index) pair of
    `keys` that repeats one before it."""
    seen = set()
    for sid, index in keys:
        if (sid, index) in seen:
            raise ArchiveError(
                f"{prefix}two trials share session {sid} and trial index {index}{suffix}")
        seen.add((sid, index))


def save_archive(trial_set: TrialSet, path) -> None:
    """Write a trial archive directory: one CSV per trial, the recording's
    binary copy, then meta.json."""
    keys = list(zip(trial_set.sessions.tolist(), trial_set.trial_indices.tolist()))
    _check_unique(keys, "", "; they would be written to one file")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    names = [_trial_filename(sid, index) for sid, index in keys]
    root, written = path.resolve(), set(names)
    stale = [f for f in _named_trial_files(root) if f.parent != root or f.name not in written]
    # a save that fails part way over an older archive then leaves no
    # meta.json, rather than one that reads old and new trials as one set
    (path / "meta.json").unlink(missing_ok=True)
    for fpath in stale:
        fpath.unlink(missing_ok=True)
    sessions: dict[int, list[dict]] = {}
    csv_digests = []
    # sessions are nondecreasing, so this order is meta.json's entry order
    for x, label, (sid, index), fname in zip(trial_set.data, trial_set.labels.tolist(), keys,
                                             names):
        label = None if label == 0 else f"{label:+d}"
        sessions.setdefault(sid, []).append({"file": fname, "label": label, "index": index})
        csv_digests.append(_write_matrix(path / fname, x.T))
    np.save(path / RECORDING_FILE, trial_set.data, allow_pickle=False)
    meta = {
        "version": ARCHIVE_VERSION,
        "sampling_rate_hz": trial_set.sampling_rate_hz,
        "channel_labels": list(trial_set.channel_labels),
        "sessions": [
            {"id": sid, "trials": sessions[sid]} for sid in sorted(sessions)
        ],
        "recording_sha256": _recording_digest(csv_digests, trial_set.data),
    }
    (path / "meta.json").write_text(json.dumps(meta, indent=2))


def _named_trial_files(root: Path) -> list[Path]:
    """The resolved trial files that a valid meta.json in the resolved
    directory `root` names and that lie in it; none when it has no valid
    meta.json."""
    meta_path = root / "meta.json"
    try:
        meta = json.loads(meta_path.read_text())
        _check_meta(meta, meta_path)
    except (OSError, ValueError):  # no meta.json, unparseable or malformed
        return []
    files = []
    for session in meta["sessions"]:
        for entry in session["trials"]:
            try:
                files.append(_trial_path(root, entry["file"], meta_path))
            except ArchiveError:
                pass
    return files


def _trial_path(root: Path, name: str, meta_path: Path) -> Path:
    """The resolved file a trial entry names, refused unless it lies in the
    resolved archive directory `root`: an entry such as
    "../B/s01_t001.csv", or an absolute path, would read another archive's
    trial."""
    fpath = (root / name).resolve()
    if fpath == root or not fpath.is_relative_to(root):
        raise ArchiveError(f"{meta_path}: trial file {name!r} is not in the archive "
                           f"directory {root}")
    return fpath


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an integer past float range
        return False


def _check_meta(meta, meta_path: Path) -> None:
    """Raise ArchiveError naming `meta_path` unless `meta` has every key of
    the archive format, each of the right JSON type, and any
    `recording_sha256` is a 64-character hex string."""
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
    need(_is_number(rate) and rate > 0, "sampling_rate_hz must be a positive number")
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
            index = entry.get("index", 0)
            need(_is_int(index), f"trial index {index!r} is not an integer")
            need(-1 << 63 <= index < 1 << 63, f"trial index {index} does not fit in 64 bits")
    if "recording_sha256" in meta:
        digest = meta["recording_sha256"]
        need(isinstance(digest, str) and re.fullmatch("[0-9a-fA-F]{64}", digest),
             "recording_sha256 must be a 64-character hex string")


def _read_copy(path: Path, files: list[Path], n_channels: int, digest) -> np.ndarray | None:
    """The recording from its binary copy, or None unless that copy is a
    version 1.0 ``.npy`` of a finite C-order (len(files), n_channels, samples)
    float64 array and `digest` is the `_recording_digest` of `files`' bytes
    and that array. The header is checked against the file's size before
    anything is allocated, so no header makes this read more than the file
    holds; an object array is refused by its dtype, never unpickled."""
    if digest is None:
        return None
    try:
        with open(path / RECORDING_FILE, "rb") as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            count = math.prod(shape)
            if (dtype != np.float64 or fortran_order or len(shape) != 3
                    or shape[:2] != (len(files), n_channels)
                    or os.fstat(fh.fileno()).st_size - fh.tell() != count * dtype.itemsize):
                return None
            data = np.fromfile(fh, dtype, count).reshape(shape)
    except (OSError, ValueError):
        return None
    csv_digests = [hashlib.sha256(fpath.read_bytes()).digest() for fpath in files]
    if _recording_digest(csv_digests, data) != digest or not np.isfinite(data).all():
        return None
    return data


def _read_csvs(path: Path, files: list[Path], n_channels: int) -> np.ndarray:
    """The recording parsed from its trial CSVs."""
    for row, fpath in enumerate(files):
        matrix = _read_matrix(fpath)
        if matrix.shape[1] != n_channels:
            raise ArchiveError(
                f"{fpath}: {matrix.shape[1]} columns but metadata declares "
                f"{n_channels} channels"
            )
        if not np.all(np.isfinite(matrix)):
            raise ArchiveError(f"{fpath}: non-finite value in matrix file")
        if row == 0:
            data = np.empty((len(files), n_channels, len(matrix)))
        elif len(matrix) != data.shape[2]:
            raise ArchiveError(f"{path}: all trials must share channel and sample counts")
        data[row] = matrix.T
    return data


def load_archive(path) -> TrialSet:
    """Read a trial archive directory back into a TrialSet: from its binary
    copy when that matches the trial CSVs (see `_read_copy`), else from the
    CSVs."""
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
    # an entry without an index is numbered by its place in its session
    entries = [(session["id"], entry.get("index", index), entry) for session in meta["sessions"]
               for index, entry in enumerate(session["trials"])]
    if not entries:
        raise ArchiveError(f"{meta_path}: the archive holds no trials")
    _check_unique([(sid, index) for sid, index, _ in entries], f"{meta_path}: ")
    files, named, root = [], set(), path.resolve()
    rows = np.zeros((3, len(entries)), np.int64)  # labels, sessions, trial indices
    for row, (sid, index, entry) in enumerate(entries):
        _trial_path(root, entry["file"], meta_path)
        fpath = path / entry["file"]
        if fpath in named:
            raise ArchiveError(f"{meta_path}: two trial entries name the file {fpath}")
        named.add(fpath)
        if not fpath.exists():
            raise ArchiveError(f"missing trial file {fpath}")
        raw = entry["label"]
        if raw not in (None, "-1", "+1", "1"):
            raise ArchiveError(f"{fpath}: unknown label {raw!r} in metadata")
        files.append(fpath)
        rows[:, row] = (0 if raw is None else int(raw), sid, index)
    data = _read_copy(path, files, n_ch, meta.get("recording_sha256"))
    if data is None:
        data = _read_csvs(path, files, n_ch)
    data.flags.writeable = False
    try:
        return TrialSet(data, *rows, meta["sampling_rate_hz"], channel_labels, finite=True)
    except ValueError as exc:
        raise ArchiveError(f"{path}: {exc}") from exc
