"""Workload definitions for the mipipe benchmark.

A workload is a synthetic-archive config (the workload seed becomes its
``seed`` field), an optional pipeline config, and the ``mipipe`` commands of
one repetition. The program only ever sees the generated archive and the
config files; the seed reaches it through the synth config.

Each command's report is reduced to the outputs the correctness check
compares (``extract``), so stored references stay small and readable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

# adapt_sweep's 24 candidates (6 bands x 4 windows); sweep_static instead
# uses the 264-candidate search that `run --sweep` builds without a config
ADAPT_SEARCH = {
    "bands_hz": [[8, 10], [10, 12], [12, 14], [14, 16], [16, 20], [20, 30]],
    "windows_s": [[0.5, 2.5], [1.5, 3.5], [2.5, 4.5], [0.5, 4.5]],
}

# tolerance on rho, accuracies and archive probe sums: absolute up to 1,
# relative above
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Step:
    """One `mipipe` command of a repetition."""

    command: str  # synth, run, crossval or fig1
    args: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    steps: tuple[Step, ...]
    pipeline: dict | None = None
    # every accuracy a report gives must reach this, whatever the seed, so a
    # seed with no stored reference is checked against more than itself
    min_accuracy_pct: float | None = None

    @property
    def rep_synth(self) -> bool:
        """True when a repetition writes its own archive with `synth`."""
        return any(step.command == "synth" for step in self.steps)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_static",
            # the search and its per-trial filtering do almost all the work;
            # on the ROADMAP baseline archive (8 channels, 1 session x 120
            # trials, 100 Hz, 5 s trials)
            synth={"n_channels": 8, "n_sessions": 1, "trials_per_session": 120,
                   "fs_hz": 100.0, "trial_duration_s": 5.0},
            steps=(Step("run", ("--sweep", "--train-fraction", "0.2")),),
            min_accuracy_pct=90.0,
        ),
        Workload(
            name="adapt_sweep",
            # many small searches over a growing pseudo-labelled set, so the
            # cost grows with the square of the session count; with 0.3 rad
            # of drift per session the late sessions fall towards chance
            synth={"n_channels": 4, "n_sessions": 6, "trials_per_session": 30,
                   "session_drift": 0.3, "noise_sigma_uv": 1.5},
            pipeline={"search": ADAPT_SEARCH},
            steps=(Step("run", ("--adapt", "--train-fraction", "0.1")),),
            # no accuracy floor: the collapse is a known defect to keep visible
        ),
        Workload(
            name="archive_fig1",
            # no search: archive write and read, synthgen, low-pass/CAR/broad
            # band-pass filters, AR/LRP/Fisher features and bagging
            synth={"n_channels": 8, "n_sessions": 2, "trials_per_session": 120,
                   "fs_hz": 250.0, "lrp_slope_uv_per_s": 2.0},
            steps=(
                Step("synth"),
                Step("crossval"),
                # one fraction keeps a repetition no longer than sweep_static
                Step("fig1", ("--methods", "csp,ar,lrp,combined",
                              "--fractions", "0.2")),
            ),
            min_accuracy_pct=90.0,
        ),
    )
}

_TINY_SEARCH = {"search": {"bands_hz": [[8, 10], [12, 14]], "windows_s": [[0.5, 4.5]]}}

# seconds-long variants of each workload, for the benchmark's own smoke test
TINY = {
    "sweep_static": replace(
        WORKLOADS["sweep_static"],
        synth={"n_channels": 4, "trials_per_session": 40}, pipeline=_TINY_SEARCH,
        min_accuracy_pct=None,
    ),
    "adapt_sweep": replace(
        WORKLOADS["adapt_sweep"],
        synth={"n_channels": 4, "n_sessions": 3, "trials_per_session": 20,
               "session_drift": 0.3},
        pipeline=_TINY_SEARCH,
        steps=(Step("run", ("--adapt", "--train-fraction", "0.3")),),
    ),
    "archive_fig1": replace(
        WORKLOADS["archive_fig1"],
        synth={"n_channels": 4, "trials_per_session": 40, "lrp_slope_uv_per_s": 2.0},
        steps=(
            Step("synth"),
            Step("crossval", ("--folds", "4")),
            Step("fig1", ("--methods", "csp,ar,lrp,combined", "--fractions", "0.5")),
        ),
        min_accuracy_pct=None,
    ),
}


def write_configs(workload: Workload, seed: int, directory: Path) -> dict:
    """Write the synth and pipeline configs; return their paths by kind."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {"synth": directory / "synth.json"}
    paths["synth"].write_text(json.dumps({**workload.synth, "seed": seed}))
    if workload.pipeline is not None:
        paths["pipeline"] = directory / "pipeline.json"
        paths["pipeline"].write_text(json.dumps(workload.pipeline))
    return paths


def argv(step: Step, configs: dict, archive: Path, report: Path) -> list[str]:
    """The `mipipe` argument list for one step."""
    if step.command == "synth":
        return ["synth", "--out", str(archive), "--config", str(configs["synth"]),
                *step.args]
    out = [step.command, "--data", str(archive), *step.args, "--report", str(report)]
    if "pipeline" in configs:
        out += ["--config", str(configs["pipeline"])]
    return out


def _signs(labels) -> str:
    return "".join("+" if int(y) > 0 else "-" for y in labels)


def _archive_outputs(archive: Path) -> dict:
    """Metadata plus sums over the first and last trial matrix."""
    import numpy as np

    meta = json.loads((archive / "meta.json").read_text())
    entries = [t for s in meta["sessions"] for t in s["trials"]]
    probe = []
    for entry in (entries[0], entries[-1]):
        data = np.loadtxt(archive / entry["file"], delimiter=",", ndmin=2)
        probe += [float(data.sum()), float((data * data).sum())]
    return {
        "sampling_rate_hz": meta["sampling_rate_hz"],
        "channels": len(meta["channel_labels"]),
        "labels": ["".join("+" if t["label"] == "+1" else "-" for t in s["trials"])
                   for s in meta["sessions"]],
        "probe": probe,
    }


def extract(step: Step, archive: Path, report: Path) -> dict:
    """The outputs of one finished step that the check compares."""
    if step.command == "synth":
        return _archive_outputs(archive)
    doc = json.loads(report.read_text())
    if step.command == "crossval":
        return {"mean": doc["mean"], "std": doc["std"]}
    if step.command == "fig1":
        return {"rows": [[r["method"], r["train_fraction"], r["test_accuracy"],
                          r["train_accuracy_mean"]] for r in doc["rows"]]}
    return {
        "predicted": _signs(doc["predicted_labels"]),
        "chosen": [[c["phase"], c["band_hz"], c["window_s"], c["m"], c["rho"]]
                   for c in doc["chosen"]],
        "test_accuracy": doc["test_accuracy"],
        "train_accuracy_mean": doc["train_accuracy_mean"],
        "per_session": doc["per_session"],
    }


def accuracies(command: str, outputs: dict) -> list[float]:
    """Every test accuracy one command's extracted outputs give."""
    if command == "crossval":
        return [outputs["mean"]]
    if command == "fig1":
        return [r[2] for r in outputs["rows"]]
    if command == "run":
        return [outputs["test_accuracy"]]
    return []


def accuracy_pct(outputs: dict) -> float:
    """Test accuracy of a repetition: the run report's, or the fig1 mean."""
    command = "fig1" if "fig1" in outputs else "run"
    values = accuracies(command, outputs[command])
    return sum(values) / len(values)


def compare(expected, actual, path: str = "") -> list[str]:
    """Mismatches between two extracted outputs; floats within TOLERANCE."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected for m in compare(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in compare(e, a, f"{path}[{i}]")]
    numbers = (int, float)
    if (isinstance(expected, numbers) and isinstance(actual, numbers)
            and not isinstance(expected, bool) and not isinstance(actual, bool)):
        if abs(expected - actual) <= TOLERANCE * max(1.0, abs(expected)):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]
