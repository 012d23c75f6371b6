"""Core domain types, the on-disk trial archive format, and dataset splitting.

A trial archive is a directory with a ``meta.json`` plus one CSV matrix file
per trial (rows = time samples, columns = channels).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArchiveError

ARCHIVE_VERSION = 1

VALID_LABELS = (-1, 1, None)  # -1 = hand, +1 = foot, None = unlabeled


@dataclass(frozen=True)
class Trial:
    """One multichannel EEG epoch (channels x samples, microvolts)."""

    data: np.ndarray
    label: int | None = None
    session_id: int = 1
    trial_index: int = 0

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 2:
            raise ValueError(
                f"trial data must be channels x samples with >=1 channel and "
                f">=2 samples, got shape {data.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("trial data contains non-finite values")
        if self.label not in VALID_LABELS:
            raise ValueError(f"label must be -1, +1 or None, got {self.label!r}")
        if self.session_id < 1:
            raise ValueError("session_id must be >= 1")
        if self.trial_index < 0:
            raise ValueError("trial_index must be >= 0")
        data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def with_data(self, data: np.ndarray) -> "Trial":
        """Same metadata, new signal matrix."""
        return Trial(data, self.label, self.session_id, self.trial_index)

    def with_label(self, label: int | None) -> "Trial":
        return Trial(self.data, label, self.session_id, self.trial_index)


@dataclass(frozen=True)
class TrialSet:
    """An ordered, shape-homogeneous collection of trials."""

    trials: tuple[Trial, ...]
    sampling_rate_hz: float
    channel_labels: tuple[str, ...]

    def __post_init__(self):
        trials = tuple(self.trials)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "channel_labels", tuple(self.channel_labels))
        if self.sampling_rate_hz <= 0:
            raise ValueError("sampling_rate_hz must be positive")
        if trials:
            n_ch = trials[0].n_channels
            n_s = trials[0].n_samples
            for t in trials:
                if t.n_channels != n_ch or t.n_samples != n_s:
                    raise ValueError(
                        "all trials must share channel and sample counts"
                    )
            if len(self.channel_labels) != n_ch:
                raise ValueError(
                    f"channel_labels has {len(self.channel_labels)} entries "
                    f"for {n_ch} channels"
                )
            sids = [t.session_id for t in trials]
            if any(b < a for a, b in zip(sids, sids[1:])):
                raise ValueError("session_ids must be nondecreasing")

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)

    @property
    def n_channels(self) -> int:
        return self.trials[0].n_channels if self.trials else len(self.channel_labels)

    @property
    def n_samples(self) -> int:
        return self.trials[0].n_samples if self.trials else 0

    @property
    def labels(self) -> list[int | None]:
        return [t.label for t in self.trials]

    @property
    def session_ids(self) -> list[int]:
        return sorted({t.session_id for t in self.trials})

    def replace_trials(self, trials) -> "TrialSet":
        return TrialSet(tuple(trials), self.sampling_rate_hz, self.channel_labels)

    def without_labels(self) -> "TrialSet":
        return self.replace_trials([t.with_label(None) for t in self.trials])


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


def split(trial_set: TrialSet, spec: SplitSpec) -> tuple[TrialSet, TrialSet]:
    """Partition into (train, test) preserving recording order.

    Prefix mode takes the first ceil(fraction * N) trials; by_session mode
    takes the smallest number of whole leading sessions covering that count.
    """
    n = len(trial_set)
    if n == 0:
        raise ValueError("cannot split an empty TrialSet")
    target = math.ceil(spec.train_fraction * n)
    if spec.mode == "prefix":
        k = target
    else:
        k = 0
        for sid in trial_set.session_ids:
            k += sum(1 for t in trial_set.trials if t.session_id == sid)
            if k >= target:
                break
    if k == 0 or k >= n:
        raise ValueError(
            f"train_fraction {spec.train_fraction} yields a degenerate split "
            f"({k} train of {n} trials)"
        )
    train = trial_set.replace_trials(trial_set.trials[:k])
    test = trial_set.replace_trials(trial_set.trials[k:])
    return train, test


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
    seen = set()
    for trial in trial_set:
        key = (trial.session_id, trial.trial_index)
        if key in seen:
            raise ArchiveError(
                f"two trials share session {key[0]} and trial index {key[1]}; "
                f"they would be written to one file"
            )
        seen.add(key)
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    sessions: dict[int, list[dict]] = {}
    for trial in trial_set:
        fname = _trial_filename(trial.session_id, trial.trial_index)
        label = None if trial.label is None else f"{trial.label:+d}"
        sessions.setdefault(trial.session_id, []).append(
            {"file": fname, "label": label}
        )
        _write_matrix(path / fname, trial.data.T)
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
    trials = []
    for session in meta["sessions"]:
        sid = session["id"]
        for idx, entry in enumerate(session["trials"]):
            fpath = path / entry["file"]
            if not fpath.exists():
                raise ArchiveError(f"missing trial file {fpath}")
            data = _read_matrix(fpath)
            if data.shape[1] != n_ch:
                raise ArchiveError(
                    f"{fpath}: {data.shape[1]} columns but metadata declares "
                    f"{n_ch} channels"
                )
            if not np.all(np.isfinite(data)):
                raise ArchiveError(f"{fpath}: non-finite value in matrix file")
            raw = entry["label"]
            if raw is None:
                label = None
            elif raw in ("-1", "+1", "1"):
                label = int(raw)
            else:
                raise ArchiveError(f"{fpath}: unknown label {raw!r} in metadata")
            try:
                trials.append(Trial(data.T, label, sid, idx))
            except ValueError as exc:
                raise ArchiveError(f"{fpath}: {exc}") from exc
    try:
        return TrialSet(tuple(trials), meta["sampling_rate_hz"], channel_labels)
    except ValueError as exc:
        raise ArchiveError(f"{path}: {exc}") from exc
