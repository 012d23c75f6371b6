"""Every CLI report, byte for byte: the SHA-256 of one small `synth` archive's
files, of each command's report on it and of the `grid_search` tables in
`TABLES` against the digests in `report_digests.json`.

Manifests are left out (they hold paths). The digests are re-recorded with
`python tests/record_report_digests.py`, and only by a change that states
which outputs it changes and why.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from mipipe.cli import EXIT_OK, main
from mipipe.config import pipeline_config_from_dict
from mipipe.data_model import (RECORDING_FILE, SplitSpec, load_archive, split_count,
                               usable_folds)
from mipipe.param_select import grid_search
from mipipe.synthgen import SynthConfig, generate

DIGESTS = Path(__file__).with_name("report_digests.json")

# drift and a slow potential, so that no method or split is at 100 % everywhere
SYNTH = {"n_channels": 4, "n_sessions": 3, "trials_per_session": 20,
         "session_drift": 0.3, "lrp_slope_uv_per_s": 0.5, "seed": 0}
SEARCH = {"search": {"bands_hz": [[8, 12], [12, 14], [16, 20]],
                     "windows_s": [[0.5, 2.5], [0.5, 4.5]]}}
# the search over configured channel subsets and CSP filter counts too
CHANNEL_SEARCH = {"search": {**SEARCH["search"], "channel_sets": [None, [0, 1, 2]],
                             "m_values": [1, 2]}}
# report name: (config, command arguments after --data and --config)
COMMANDS = {
    **{f"crossval_{method}": ({"method": method}, ["crossval", "--folds", "5"])
       for method in ("csp", "ar", "lrp", "combined")},
    "crossval_combined_channels": ({"method": "combined", "channels": [0, 2, 3]},
                                   ["crossval", "--folds", "5"]),
    "run_prefix": ({}, ["run", "--train-fraction", "0.2"]),
    "run_by_session": ({}, ["run", "--train-fraction", "0.5", "--by-session"]),
    "run_search": (SEARCH, ["run", "--train-fraction", "0.2"]),
    "run_channel_search": (CHANNEL_SEARCH, ["run", "--train-fraction", "0.2"]),
    "run_adapt": ({}, ["run", "--train-fraction", "0.2", "--adapt"]),
    "run_adapt_search": (SEARCH, ["run", "--train-fraction", "0.2", "--adapt"]),
    "run_adapt_search_combined": ({**SEARCH, "method": "combined"},
                                  ["run", "--train-fraction", "0.2", "--adapt"]),
    **{name: (config, ["fig1", "--fractions", "0.3,0.5",
                       "--methods", "csp,ar,lrp,combined"])
       for name, config in (("fig1", {}), ("fig1_search", SEARCH),
                            ("fig1_channel_search", CHANNEL_SEARCH))},
}


# a search that fails at every stage its table reports: a band past Nyquist, a
# window past the 5 s trials' end and m = 2 on two-channel subsets, then fits
# on the (0, 3) subset that meet a flat train trial and, on (1, 2), scores of
# a flat test trial
FAILING_SEARCH = {"bands_hz": [[12, 14], [45, 55], [8, 30]],
                  "windows_s": [[0.5, 2.5], [3.0, 6.0], [1.0, 4.5]],
                  "channel_sets": [None, [0, 3], [1, 2]], "m_values": [1, 2]}


def failing_table(flat_fold: int) -> tuple:
    """`FAILING_SEARCH`'s table on a recording whose train trial held out in
    search fold `flat_fold` is zero on channels 0 and 3, and whose first test
    trial is zero on channels 1 and 2."""
    ts = generate(SynthConfig(n_channels=5, trials_per_session=60, seed=6))
    labels = ts.labels[:24]
    data = ts.data.copy()
    data[usable_folds(labels, 10)[flat_fold][0], [0, 3]] = 0.0
    data[len(labels), [1, 2]] = 0.0
    space = pipeline_config_from_dict({"search": FAILING_SEARCH}).search
    return grid_search(replace(ts, data=data), labels, space).table


def channel_search_table(archive: Path) -> tuple:
    """`CHANNEL_SEARCH`'s table on `archive`, trained on its first 20 %."""
    ts = load_archive(archive)
    labels = ts.labels[:split_count(ts, SplitSpec(0.2, "prefix"))]
    return grid_search(ts, labels, pipeline_config_from_dict(CHANNEL_SEARCH).search).table


# table name: the table, from the digest archive
TABLES = {
    "channel_search": channel_search_table,
    "failing_fold0": lambda archive: failing_table(0),
    "failing_fold3": lambda archive: failing_table(3),
}


def table_digest(table) -> str:
    """SHA-256 of every row of a `grid_search` table, rho and penalty as
    `float.hex`."""
    rows = [[row["band_hz"], row["window_s"], row["channels"], row["m"],
             *(None if row[k] is None else row[k].hex() for k in ("rho", "penalty")),
             row["feasible"], row["error"]] for row in table]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def build() -> dict:
    """The numpy and scipy versions and the BLAS numpy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def make_archive(root: Path) -> Path:
    (root / "synth.json").write_text(json.dumps(SYNTH))
    assert main(["synth", "--out", str(root / "arch"),
                 "--config", str(root / "synth.json")]) == EXIT_OK
    return root / "arch"


def archive_digests(archive: Path) -> dict:
    """SHA-256 of `meta.json`, of the recording's binary copy and of every
    trial CSV of `archive`."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(archive.iterdir())
            if path.name in ("meta.json", RECORDING_FILE) or path.suffix == ".csv"}


def report_digest(archive: Path, root: Path, name: str) -> str:
    """SHA-256 of the report `name` writes on `archive`."""
    config, args = COMMANDS[name]
    (root / f"{name}.json").write_text(json.dumps(config))
    report = root / f"{name}.report.json"
    assert main([args[0], "--data", str(archive), "--config", str(root / f"{name}.json"),
                 *args[1:], "--report", str(report)]) == EXIT_OK
    return hashlib.sha256(report.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    return make_archive(tmp_path_factory.mktemp("digests"))


def check(what: str, got, recorded_key: str, name: str) -> None:
    """Fail naming both builds unless `got` is the digest recorded under
    `recorded_key`, `name`."""
    recorded = json.loads(DIGESTS.read_text())
    want = recorded[recorded_key][name]
    if got != want:
        here = build()
        note = ("same build" if here == recorded["build"] else
                "a different build, which may change the bits by itself")
        pytest.fail(f"{what}: digest {got} differs from the recorded {want}; recorded "
                    f"with {recorded['build']}, running {here} ({note})")


def test_archive_is_byte_identical_to_the_recording(archive):
    recorded = json.loads(DIGESTS.read_text())["archive"]
    got = archive_digests(archive)
    assert sorted(got) == sorted(recorded)
    for name in recorded:
        check(f"archive file {name}", got[name], "archive", name)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_report_is_byte_identical_to_the_recording(archive, tmp_path, name):
    check(f"{name} report", report_digest(archive, tmp_path, name), "reports", name)


@pytest.mark.parametrize("name", list(TABLES))
def test_search_table_is_bitwise_the_recording(archive, name):
    check(f"{name} table", table_digest(TABLES[name](archive)), "tables", name)
