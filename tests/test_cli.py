import contextlib
import io
import json
import shutil
import tempfile
from copy import deepcopy
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mipipe.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from mipipe.data_model import load_archive, save_archive

from conftest import (as_trials, count_filtered_trials, fresh_interpreter, replace_trials,
                      with_label)

SYNTH_DOC = {
    "n_channels": 4,
    "trials_per_session": 40,
    "erd_depth": 0.8,
    "noise_sigma_uv": 0.5,
    "seed": 0,
}
FAST_PIPELINE_DOC = {"ensemble": {"rounds": 5}}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    cfg = write_json(root / "synth.json", SYNTH_DOC)
    out = root / "arch"
    assert main(["synth", "--out", str(out), "--config", cfg]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def multisession_archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("data_ms")
    doc = {**SYNTH_DOC, "n_sessions": 2, "trials_per_session": 20}
    cfg = write_json(root / "synth.json", doc)
    out = root / "arch"
    assert main(["synth", "--out", str(out), "--config", cfg]) == EXIT_OK
    return out


@pytest.fixture
def fast_config(tmp_path):
    return write_json(tmp_path / "pipeline.json", FAST_PIPELINE_DOC)


class TestSynth:
    def test_creates_loadable_archive_and_manifest(self, archive):
        ts = load_archive(archive)
        assert len(ts) == 40
        assert ts.n_channels == 4
        manifest = json.loads((archive / "report.json.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 0
        assert manifest["tool_version"]

    def test_seed_determinism(self, tmp_path):
        cfg = write_json(tmp_path / "synth.json", SYNTH_DOC)
        for name in ("a", "b"):
            assert main(["synth", "--out", str(tmp_path / name),
                         "--config", cfg, "--seed", "5"]) == EXIT_OK
        a = (tmp_path / "a" / "s01_t000.csv").read_text()
        b = (tmp_path / "b" / "s01_t000.csv").read_text()
        assert a == b

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_json(tmp_path / "synth.json", SYNTH_DOC)
        for name, seed in (("a", "1"), ("b", "2")):
            assert main(["synth", "--out", str(tmp_path / name),
                         "--config", cfg, "--seed", seed]) == EXIT_OK
        a = (tmp_path / "a" / "s01_t000.csv").read_text()
        b = (tmp_path / "b" / "s01_t000.csv").read_text()
        assert a != b

    def test_invalid_config_names_field(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "synth.json", {**SYNTH_DOC, "erd_depth": 2.0})
        code = main(["synth", "--out", str(tmp_path / "arch"), "--config", cfg])
        assert code == EXIT_CONFIG
        assert "erd_depth" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "synth.json", {"bogus_knob": 1})
        code = main(["synth", "--out", str(tmp_path / "arch"), "--config", cfg])
        assert code == EXIT_CONFIG
        assert "bogus_knob" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        cfg = write_json(tmp_path / "synth.json", SYNTH_DOC)
        monkeypatch.setenv("MI_SEED", "9")
        assert main(["synth", "--out", str(tmp_path / "env"), "--config", cfg]) == EXIT_OK
        assert main(["synth", "--out", str(tmp_path / "flag"), "--config", cfg,
                     "--seed", "9"]) == EXIT_OK
        env = (tmp_path / "env" / "s01_t000.csv").read_text()
        flag = (tmp_path / "flag" / "s01_t000.csv").read_text()
        assert env == flag
        manifest = json.loads(
            (tmp_path / "env" / "report.json.manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        cfg = write_json(tmp_path / "synth.json", SYNTH_DOC)
        monkeypatch.setenv("MI_SEED", "9")
        assert main(["synth", "--out", str(tmp_path / "arch"), "--config", cfg,
                     "--seed", "3"]) == EXIT_OK
        manifest = json.loads(
            (tmp_path / "arch" / "report.json.manifest.json").read_text())
        assert manifest["seed"] == 3

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        cfg = write_json(tmp_path / "synth.json", SYNTH_DOC)
        monkeypatch.setenv("MI_SEED", "not-a-number")
        code = main(["synth", "--out", str(tmp_path / "arch"), "--config", cfg])
        assert code == EXIT_CONFIG
        assert "MI_SEED" in capsys.readouterr().err


class TestCrossval:
    def test_report_schema_and_accuracy(self, archive, tmp_path, fast_config):
        report = tmp_path / "cv.json"
        code = main(["crossval", "--data", str(archive), "--folds", "5",
                     "--config", fast_config, "--report", str(report)])
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert set(doc) == {"mean", "std", "folds", "config"}
        assert doc["folds"] == 5
        assert doc["mean"] >= 90.0
        assert (tmp_path / "cv.json.manifest.json").exists()

    def test_too_many_folds(self, archive, tmp_path, capsys):
        code = main(["crossval", "--data", str(archive), "--folds", "999",
                     "--report", str(tmp_path / "cv.json")])
        assert code == EXIT_CONFIG
        assert "folds" in capsys.readouterr().err

    def test_missing_archive(self, tmp_path, capsys):
        code = main(["crossval", "--data", str(tmp_path / "nope"),
                     "--report", str(tmp_path / "cv.json")])
        assert code == EXIT_IO

    def test_missing_config_file(self, archive, tmp_path, capsys):
        code = main(["crossval", "--data", str(archive),
                     "--config", str(tmp_path / "missing.json"),
                     "--report", str(tmp_path / "cv.json")])
        assert code == EXIT_CONFIG

    def test_unparseable_config(self, archive, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["crossval", "--data", str(archive), "--config", str(bad),
                     "--report", str(tmp_path / "cv.json")])
        assert code == EXIT_CONFIG


class TestRun:
    def test_static_report(self, archive, tmp_path, fast_config):
        report = tmp_path / "run.json"
        code = main(["run", "--data", str(archive), "--train-fraction", "0.5",
                     "--config", fast_config, "--report", str(report)])
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["test_accuracy"] >= 90.0
        assert doc["train_fraction"] == 0.5
        assert doc["split_mode"] == "prefix"
        assert len(doc["predicted_labels"]) == 20
        assert (tmp_path / "run.json.manifest.json").exists()

    def test_bad_fraction(self, archive, tmp_path, capsys):
        code = main(["run", "--data", str(archive), "--train-fraction", "1.0",
                     "--report", str(tmp_path / "run.json")])
        assert code == EXIT_CONFIG
        assert "train-fraction" in capsys.readouterr().err

    def test_adapt_needs_sessions(self, archive, tmp_path, capsys):
        code = main(["run", "--data", str(archive), "--train-fraction", "0.5",
                     "--adapt", "--report", str(tmp_path / "run.json")])
        assert code == EXIT_CONFIG
        assert "sessions" in capsys.readouterr().err

    def test_adaptive_multisession(self, multisession_archive, tmp_path, fast_config):
        report = tmp_path / "adapt.json"
        code = main(["run", "--data", str(multisession_archive),
                     "--train-fraction", "0.25", "--adapt",
                     "--config", fast_config, "--report", str(report)])
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["per_session"].keys() == {"1", "2"}
        assert len(doc["predicted_labels"]) == 30

    def test_config_search_records_choice(self, archive, tmp_path):
        cfg = write_json(tmp_path / "pipeline.json", {
            **FAST_PIPELINE_DOC,
            "search": {
                "bands_hz": [[8, 10], [12, 14]],
                "windows_s": [[0.5, 4.5]],
            },
        })
        report = tmp_path / "run.json"
        code = main(["run", "--data", str(archive), "--train-fraction", "0.5",
                     "--config", cfg, "--report", str(report)])
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert len(doc["chosen"]) == 1
        assert doc["chosen"][0]["band_hz"] in ([8, 10], [12, 14])

    def test_sweep_refuses_unlabeled_train_trial_before_searching(
            self, archive, tmp_path, monkeypatch, capsys):
        ts = load_archive(archive)
        save_archive(replace_trials(
            ts, (with_label(as_trials(ts)[0], None),) + as_trials(ts)[1:]), tmp_path / "arch")
        filtered = count_filtered_trials(monkeypatch)
        code = main(["run", "--data", str(tmp_path / "arch"), "--sweep",
                     "--train-fraction", "0.5", "--report", str(tmp_path / "run.json")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "training set contains unlabeled trials" in err
        assert filtered == []

    def test_unlabeled_train_trial_is_one_message_with_and_without_sweep(
            self, archive, tmp_path, fast_config, capsys):
        ts = load_archive(archive)
        save_archive(replace_trials(
            ts, (with_label(as_trials(ts)[0], None),) + as_trials(ts)[1:]), tmp_path / "arch")
        lines = []
        for sweep in ([], ["--sweep"]):
            code = main(["run", "--data", str(tmp_path / "arch"), *sweep,
                         "--train-fraction", "0.5", "--config", fast_config,
                         "--report", str(tmp_path / "run.json")])
            assert code == EXIT_CONFIG
            lines.append(capsys.readouterr().err.splitlines())
        assert lines[0] == lines[1] == ["config error: training set contains unlabeled trials"]

    def test_by_session_split(self, multisession_archive, tmp_path, fast_config):
        report = tmp_path / "run.json"
        code = main(["run", "--data", str(multisession_archive),
                     "--train-fraction", "0.5", "--by-session",
                     "--config", fast_config, "--report", str(report)])
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["split_mode"] == "by_session"
        assert len(doc["predicted_labels"]) == 20


class TestConfigAgainstArchive:
    """Config the archive cannot honour exits 2 with a one-line message."""

    def run(self, archive, tmp_path, doc, command="run"):
        cfg = write_json(tmp_path / "pipeline.json", {**FAST_PIPELINE_DOC, **doc})
        args = [command, "--data", str(archive), "--config", cfg,
                "--report", str(tmp_path / "out.json")]
        if command == "run":
            args += ["--train-fraction", "0.5"]
        return main(args)

    @pytest.mark.parametrize("command", ["run", "crossval", "fig1"])
    def test_channel_out_of_range(self, archive, tmp_path, capsys, command):
        code = self.run(archive, tmp_path, {"channels": [0, 9]}, command=command)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "channel index 9" in err and "4 channels" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc,index", [
        ({"method": "lrp", "channels": [0, 0]}, 0),
        ({"method": "csp", "channels": [0, 1, 1]}, 1),
        ({"search": {"bands_hz": [[12, 14]], "windows_s": [[0.5, 4.5]],
                     "channel_sets": [[2, 3, 2]]}}, 2),
    ])
    def test_repeated_channel_index(self, archive, tmp_path, capsys, doc, index):
        code = self.run(archive, tmp_path, doc, command="crossval")
        assert code == EXIT_CONFIG
        assert f"channel index {index} is repeated" in one_line_error(capsys)

    def test_more_channels_selected_than_the_archive_has(self, archive, tmp_path, capsys):
        code = self.run(archive, tmp_path, {"method": "ar", "n_select": 9}, command="crossval")
        assert code == EXIT_CONFIG
        assert "cannot select 9 of 4 channels" in one_line_error(capsys)

    def test_search_channel_set_out_of_range(self, archive, tmp_path, capsys):
        search = {"bands_hz": [[12, 14]], "windows_s": [[0.5, 4.5]],
                  "channel_sets": [None, [0, 9]]}
        code = self.run(archive, tmp_path, {"search": search})
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "channel index 9" in err
        assert not (tmp_path / "out.json").exists()

    def test_search_in_which_every_candidate_fails_is_one_line(
            self, archive, tmp_path, capsys):
        # both bands reach past the 50 Hz Nyquist frequency of the archive
        search = {"bands_hz": [[60, 70], [55, 58]], "windows_s": [[0.5, 2.5], [0.5, 4.5]]}
        code = self.run(archive, tmp_path, {"search": search})
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: all candidates failed: 4 of 4 raised an error; "
                              "first: band=(60.0, 70.0) window=(0.5, 2.5) ")
        assert "Traceback" not in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("method", ["csp", "combined"])
    def test_missing_csp_parameters(self, archive, tmp_path, capsys, method):
        code = self.run(archive, tmp_path, {"method": method, "preprocess": {}})
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "preprocess.band_hz" in err and "preprocess.window_s" in err
        assert "Traceback" not in err

    def test_search_keeps_configured_channels(self, archive, tmp_path):
        # a search without channel_sets searches (and fits on) the config's
        # channels, so it predicts what a run at the chosen band does
        band = {"preprocess": {"band_hz": [12, 14], "window_s": [0.5, 4.5]}}
        search = {"search": {"bands_hz": [[12, 14]], "windows_s": [[0.5, 4.5]]}}
        docs = {}
        for name, doc in (("searched", search), ("fixed", band)):
            out = tmp_path / name
            out.mkdir()
            assert self.run(archive, out, {"channels": [0, 1], **doc}) == EXIT_OK
            docs[name] = json.loads((out / "out.json").read_text())
        assert docs["searched"]["chosen"][0]["channels"] == [0, 1]
        assert docs["searched"]["predicted_labels"] == docs["fixed"]["predicted_labels"]

    def test_sweep_supplies_csp_parameters(self, archive, tmp_path):
        search = {"bands_hz": [[8, 10], [12, 14]], "windows_s": [[0.5, 4.5]]}
        code = self.run(archive, tmp_path, {"preprocess": {}, "search": search})
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["chosen"][0]["window_s"] == [0.5, 4.5]


class TestFig1:
    def test_table_rows(self, archive, tmp_path, fast_config):
        report = tmp_path / "fig1.json"
        code = main(["fig1", "--data", str(archive),
                     "--fractions", "0.5,0.25", "--methods", "csp,lrp",
                     "--config", fast_config, "--report", str(report)])
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert len(doc["rows"]) == 4
        keys = {(r["method"], r["train_fraction"]) for r in doc["rows"]}
        assert keys == {("csp", 0.5), ("csp", 0.25), ("lrp", 0.5), ("lrp", 0.25)}
        for row in doc["rows"]:
            assert row["n_train"] + row["n_test"] == 40
            assert 0.0 <= row["test_accuracy"] <= 100.0

    def test_bad_fraction(self, archive, tmp_path, capsys):
        code = main(["fig1", "--data", str(archive), "--fractions", "0.5,1.5",
                     "--report", str(tmp_path / "fig1.json")])
        assert code == EXIT_CONFIG
        assert "1.5" in capsys.readouterr().err


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err
    return err


class TestTypedErrors:
    """Malformed configs exit 2, malformed archives 3, each with one line."""

    @pytest.fixture
    def copy(self, archive, tmp_path):
        out = tmp_path / "arch"
        shutil.copytree(archive, out)
        return out

    @pytest.mark.parametrize("command", ["synth", "crossval"])
    @pytest.mark.parametrize("doc", [[1, 2], 3, "csp", None])
    def test_config_not_an_object(self, archive, tmp_path, capsys, command, doc):
        cfg = write_json(tmp_path / "cfg.json", doc)
        if command == "synth":
            args = ["synth", "--out", str(tmp_path / "new"), "--config", cfg]
        else:
            args = ["crossval", "--data", str(archive), "--config", cfg,
                    "--report", str(tmp_path / "cv.json")]
        assert main(args) == EXIT_CONFIG
        assert "must hold a JSON object" in one_line_error(capsys)

    @pytest.mark.parametrize("doc,message", [
        ({"rhythm_band_hz": 5}, "rhythm_band_hz must be a pair of numbers, got 5"),
        ({"rhythm_band_hz": [13, 2, 1]}, "rhythm_band_hz must be a pair of numbers"),
        ({"rhythm_band_hz": [13, "2"]}, "rhythm_band_hz must be a number, got '2'"),
        ({"lrp_slope_uv_per_s": "x"}, "lrp_slope_uv_per_s must be a number, got 'x'"),
        ({"fs_hz": True}, "fs_hz must be a number, got True"),
        ({"noise_sigma_uv": None}, "noise_sigma_uv must be a number, got None"),
        ({"trial_duration_s": float("inf")}, "trial_duration_s must be a number, got inf"),
        ({"erd_depth": [0.5]}, "erd_depth must be a number, got [0.5]"),
        ({"session_drift": 10 ** 400}, "session_drift must be a number, got 1000"),
    ])
    def test_synth_number_fields_reject_other_values(self, tmp_path, capsys, doc, message):
        cfg = write_json(tmp_path / "synth.json", doc)
        assert main(["synth", "--out", str(tmp_path / "new"), "--config", cfg]) == EXIT_CONFIG
        assert f"config error: {message}" in one_line_error(capsys)

    @pytest.mark.parametrize("doc,message", [
        ({"fs_hz": 1e308}, "fs_hz x trial_duration_s = inf makes more trial data"),
        ({"trial_duration_s": 1e308}, "fs_hz x trial_duration_s = inf makes more trial data"),
        ({"n_channels": 10 ** 30}, f"n_channels = {10 ** 30} makes more trial data"),
        ({"n_sessions": 2 ** 40, "trials_per_session": 2 ** 20},
         f"n_sessions x trials_per_session = {2 ** 60} makes more trial data"),
        ({"lrp_slope_uv_per_s": 1e308}, "lrp_slope_uv_per_s or noise_sigma_uv is too large"),
        ({"noise_sigma_uv": 1e308}, "lrp_slope_uv_per_s or noise_sigma_uv is too large"),
    ])
    def test_synth_sizes_past_an_array_name_the_field(self, tmp_path, capsys, doc, message):
        cfg = write_json(tmp_path / "synth.json", doc)
        assert main(["synth", "--out", str(tmp_path / "new"), "--config", cfg]) == EXIT_CONFIG
        assert f"config error: {message}" in one_line_error(capsys)

    @pytest.mark.parametrize("command,doc,name", [
        ("synth", {"n_channels": 4.0}, "n_channels"),
        ("synth", {"seed": 1.5}, "seed"),
        ("synth", {"trials_per_session": True}, "trials_per_session"),
        ("crossval", {"m": True}, "m"),
        ("crossval", {"ar_order": "7"}, "ar_order"),
        ("crossval", {"n_select": 2.0}, "n_select"),
        ("crossval", {"ensemble": {"rounds": 50.9}}, "ensemble.rounds"),
        ("crossval", {"ensemble": {"seed": 0.5}}, "ensemble.seed"),
        ("crossval", {"channels": [0, 1.0]}, "channels"),
        ("crossval", {"search": {"bands_hz": [[12, 14]], "windows_s": [[0.5, 4.5]],
                                 "channel_sets": [[0, "1"]]}}, "search.channel_sets"),
        ("crossval", {"search": {"bands_hz": [[12, 14]], "windows_s": [[0.5, 4.5]],
                                 "m_values": [1.5]}}, "search.m_values"),
    ])
    def test_integer_fields_reject_other_values(self, archive, tmp_path, capsys,
                                                command, doc, name):
        cfg = write_json(tmp_path / "cfg.json", doc)
        if command == "synth":
            args = ["synth", "--out", str(tmp_path / "new"), "--config", cfg]
        else:
            args = ["crossval", "--data", str(archive), "--config", cfg,
                    "--report", str(tmp_path / "cv.json")]
        assert main(args) == EXIT_CONFIG
        assert f"{name} must be an integer" in one_line_error(capsys)

    @pytest.mark.parametrize("order", [45, 10 ** 30])
    def test_ar_order_past_the_window_is_named(self, archive, tmp_path, capsys, order):
        # the 4 s default window holds 400 samples; the order is checked
        # before the per-trial AR table of order + 2 columns is allocated
        cfg = write_json(tmp_path / "cfg.json", {"method": "ar", "ar_order": order})
        assert main(["crossval", "--data", str(archive), "--config", cfg,
                     "--report", str(tmp_path / "cv.json")]) == EXIT_CONFIG
        assert (f"config error: ar_order {order} needs more than {10 * order} samples "
                f"per window, got 400") in one_line_error(capsys)

    @pytest.mark.parametrize("mutate", [
        lambda m: m.pop("channel_labels"),
        lambda m: m.pop("sessions"),
        lambda m: m.pop("sampling_rate_hz"),
        lambda m: m["sessions"][0]["trials"][3].pop("file"),
        lambda m: m["sessions"][0]["trials"][3].pop("label"),
        lambda m: m["sessions"][0].pop("id"),
        lambda m: m.update(sampling_rate_hz="100"),
        lambda m: m.update(channel_labels="C3"),
        lambda m: m["sessions"][0].update(trials={}),
    ], ids=["no_channel_labels", "no_sessions", "no_rate", "no_file", "no_label",
            "no_session_id", "rate_string", "labels_string", "trials_object"])
    def test_meta_schema(self, copy, tmp_path, capsys, mutate):
        meta_path = copy / "meta.json"
        meta = json.loads(meta_path.read_text())
        mutate(meta)
        meta_path.write_text(json.dumps(meta))
        code = main(["crossval", "--data", str(copy), "--report", str(tmp_path / "cv.json")])
        assert code == EXIT_IO
        assert "meta.json" in one_line_error(capsys)

    @pytest.mark.parametrize("session_id,message", [
        (10 ** 30, f"session id {10 ** 30} does not fit in 64 bits"),
        (-10 ** 30, f"session id {-10 ** 30} does not fit in 64 bits"),
        (0, "session_id must be >= 1"),
        (-3, "session_id must be >= 1"),
    ])
    def test_session_id_out_of_range(self, copy, tmp_path, capsys, session_id, message):
        meta_path = copy / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["sessions"][0]["id"] = session_id
        meta_path.write_text(json.dumps(meta))
        code = main(["crossval", "--data", str(copy), "--report", str(tmp_path / "cv.json")])
        assert code == EXIT_IO
        err = one_line_error(capsys)
        assert message in err
        if "64 bits" in message:
            assert "meta.json" in err

    @pytest.mark.parametrize("content", ["1,2,3,x\n", "1,2,3,4\n1,2\n", ""],
                             ids=["non_numeric", "ragged", "empty"])
    def test_unparseable_matrix_file(self, copy, tmp_path, capsys, content):
        (copy / "s01_t005.csv").write_text(content)
        code = main(["crossval", "--data", str(copy), "--report", str(tmp_path / "cv.json")])
        assert code == EXIT_IO
        assert "s01_t005.csv" in one_line_error(capsys)


class TestNumericalFailures:
    """A fit the data cannot support exits 4 with one line."""

    def test_single_class_draws(self, archive, tmp_path, capsys):
        # two train trials, one of each class: every bootstrap draw of one row
        # holds one class
        code = main(["run", "--data", str(archive), "--train-fraction", "0.05",
                     "--report", str(tmp_path / "run.json")])
        assert code == EXIT_NUMERICAL
        assert one_line_error(capsys) == ("numerical failure: round 0: 100 consecutive "
                                          "single-class draws; data degenerate\n")
        assert not (tmp_path / "run.json").exists()

    def test_identical_class_means(self, archive, tmp_path, capsys, fast_config):
        # every trial the same recording: both classes share every feature
        copy = tmp_path / "arch"
        shutil.copytree(archive, copy)
        first = (copy / "s01_t000.csv").read_text()
        for path in copy.glob("s01_t*.csv"):
            path.write_text(first)
        code = main(["crossval", "--data", str(copy), "--config", fast_config,
                     "--report", str(tmp_path / "cv.json")])
        assert code == EXIT_NUMERICAL
        assert one_line_error(capsys) == ("numerical failure: classes have identical means: "
                                          "no discriminant direction\n")


class TestParser:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_argument(self, capsys):
        assert main(["run", "--train-fraction", "0.5"]) == 2
        capsys.readouterr()


SCIPY_LOADED = ("import sys; print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")


def test_cli_import_leaves_scipy_signal_out():
    # importing scipy.signal costs a process about a second, scipy.linalg a
    # third of one; a fresh interpreter must get through `import mipipe.cli`
    # without loading any scipy module
    assert fresh_interpreter("import mipipe.cli; " + SCIPY_LOADED) == "[]\n"


SYNTH_THEN_CROSSVAL = """
import sys
from mipipe.cli import main
arch, synth, config, report = sys.argv[1:]
assert main(["synth", "--out", arch, "--config", synth]) == 0
assert main(["crossval", "--data", arch, "--config", config, "--folds", "5",
             "--report", report]) == 0
"""


@pytest.mark.parametrize("method, fits_csp", [("lrp", False), ("csp", True)])
def test_scipy_is_loaded_only_to_fit_a_csp(tmp_path, method, fits_csp):
    # the filters load scipy's compiled filter loop, and only the first CSP
    # fit its compiled LAPACK module, each on its own: no scipy package
    # (`scipy`, `scipy.signal`, `scipy.linalg`) is ever imported
    out = fresh_interpreter(
        SYNTH_THEN_CROSSVAL + SCIPY_LOADED, str(tmp_path / "arch"),
        write_json(tmp_path / "synth.json", SYNTH_DOC),
        write_json(tmp_path / "pipeline.json", {**FAST_PIPELINE_DOC, "method": method}),
        str(tmp_path / "cv.json"))
    loaded = ["scipy.linalg._flapack"] * fits_csp + ["scipy.signal._sigtools"]
    assert out == f"{loaded}\n"


# JSON values a mutated field takes: wrong types, edge numbers, nesting
FUZZ_POOL = [None, True, False, 0, 1, -1, 10 ** 30, -10 ** 30, 1.5, 1e308, "", "ar",
             "combined", [], [[]], [0, 1], [0.5, 4.5], [[12, 14]], [[0, 1], None], {},
             {"a": [1]}]
FUZZ_META_PATHS = [
    ("version",), ("sampling_rate_hz",), ("channel_labels",), ("channel_labels", 0),
    ("sessions",), ("sessions", 0), ("sessions", 1, "id"), ("sessions", 0, "trials"),
    ("sessions", 0, "trials", 2), ("sessions", 0, "trials", 2, "label"),
    ("sessions", 1, "trials", 3, "file"),
]
FUZZ_CONFIG_PATHS = [
    ("method",), ("preprocess",), ("preprocess", "band_hz"), ("preprocess", "window_s"),
    ("m",), ("ar_order",), ("ar_band_hz",), ("lrp_lowpass_hz",), ("lrp_baseline_window_s",),
    ("lrp_feature_window_s",), ("n_select",), ("channels",), ("ensemble",),
    ("ensemble", "rounds"), ("ensemble", "subset_fraction"), ("ensemble", "seed"),
    ("search",), ("search", "bands_hz"), ("search", "windows_s"),
    ("search", "channel_sets"), ("search", "m_values"), ("bogus",),
]
FUZZ_SEARCH = {"bands_hz": [[12, 14]], "windows_s": [[0.5, 4.5]]}


@pytest.fixture(scope="module")
def tiny_archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    doc = {**SYNTH_DOC, "n_sessions": 2, "trials_per_session": 8, "fs_hz": 80,
           "trial_duration_s": 5}
    assert main(["synth", "--out", str(root / "arch"),
                 "--config", write_json(root / "synth.json", doc)]) == EXIT_OK
    return root / "arch"


def _set_path(doc, path, value) -> None:
    """Set `doc` at `path` to a copy of `value`. A config sub-object on the
    way that is missing or not an object is made one first (a minimal one
    for `search`)."""
    for key in path[:-1]:
        if key in ("preprocess", "ensemble", "search") and not isinstance(doc.get(key), dict):
            doc[key] = dict(FUZZ_SEARCH) if key == "search" else {}
        doc = doc[key]
    doc[path[-1]] = deepcopy(value)


def _one_line_exit(args) -> int:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL)
    assert len(err.getvalue().splitlines()) == (code != EXIT_OK), err.getvalue()
    return code


FUZZ_SYNTH_FIELDS = ["n_channels", "n_sessions", "trials_per_session", "fs_hz",
                     "trial_duration_s", "rhythm_band_hz", "erd_depth", "lrp_slope_uv_per_s",
                     "noise_sigma_uv", "session_drift", "seed", "bogus"]


@given(st.lists(st.tuples(st.sampled_from(FUZZ_SYNTH_FIELDS), st.sampled_from(FUZZ_POOL)),
                min_size=1, max_size=3))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_mutated_synth_config_exits_with_a_code_and_one_line(changes):
    """`synth` exits 0 or 2, with one stderr line on failure and no escaping
    exception, whatever 1-3 fields of a small config hold."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        doc = {**SYNTH_DOC, "n_sessions": 2, "trials_per_session": 4, "trial_duration_s": 2}
        for name, value in changes:
            doc[name] = deepcopy(value)
        code = _one_line_exit(["synth", "--out", str(tmp / "arch"),
                               "--config", write_json(tmp / "synth.json", doc)])
        assert code in (EXIT_OK, EXIT_CONFIG)


@given(st.one_of(
    st.tuples(st.just("meta"), st.lists(
        st.tuples(st.sampled_from(FUZZ_META_PATHS), st.sampled_from(FUZZ_POOL)),
        min_size=1, max_size=1)),
    st.tuples(st.just("config"), st.lists(
        st.tuples(st.sampled_from(FUZZ_CONFIG_PATHS), st.sampled_from(FUZZ_POOL)),
        min_size=1, max_size=3)),
))
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_archive_or_config_exits_with_a_code_and_one_line(tiny_archive, mutation):
    """Each command exits 0, 2, 3 or 4, with one stderr line on failure and
    no escaping exception, whatever one meta.json field or 1-3 config fields
    hold."""
    target, changes = mutation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive, config = tiny_archive, {"ensemble": {"rounds": 3}}
        if target == "meta":
            archive = tmp / "arch"
            shutil.copytree(tiny_archive, archive)
            config = json.loads((archive / "meta.json").read_text())
        for path, value in changes:
            if path == ("ensemble", "rounds") and type(value) is int:
                value = min(value, 100)  # more rounds is more work, not an error
            _set_path(config, path, value)
        if target == "meta":
            write_json(archive / "meta.json", config)
            config = {"ensemble": {"rounds": 3}}
        common = ["--data", str(archive), "--config", write_json(tmp / "cfg.json", config),
                  "--report", str(tmp / "report.json")]
        _one_line_exit(["crossval", *common, "--folds", "4"])
        _one_line_exit(["run", *common, "--train-fraction", "0.5"])
        _one_line_exit(["run", *common, "--train-fraction", "0.5", "--adapt"])
        _one_line_exit(["fig1", *common, "--fractions", "0.5",
                        "--methods", "csp,ar,lrp,combined"])
