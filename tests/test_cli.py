import json
import shutil

import pytest

from mipipe.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from mipipe.data_model import load_archive, save_archive

from conftest import as_trials, count_filtered_trials, replace_trials, with_label

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


def _fresh_interpreter(code: str, *args: str) -> str:
    """stdout of `code` run with `args` in a fresh interpreter."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import mipipe

    env = {**os.environ, "PYTHONPATH": str(Path(mipipe.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          timeout=300, capture_output=True, text=True).stdout


SCIPY_LOADED = ("import sys; print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")


def test_cli_import_leaves_scipy_signal_out():
    # importing scipy costs a process about 0.2 s (scipy.signal over a
    # second); a fresh interpreter must get through `import mipipe.cli`
    # without any of it
    assert _fresh_interpreter("import mipipe.cli; " + SCIPY_LOADED) == "[]\n"


SYNTH_THEN_CROSSVAL = """
import sys
from mipipe.cli import main
arch, synth, config, report = sys.argv[1:]
assert main(["synth", "--out", arch, "--config", synth]) == 0
assert main(["crossval", "--data", arch, "--config", config, "--folds", "5",
             "--report", report]) == 0
"""


@pytest.mark.parametrize("method, loaded", [("lrp", False), ("csp", True)])
def test_scipy_is_loaded_only_to_fit_a_csp(tmp_path, method, loaded):
    # scipy's `dsyevr` is imported at the first CSP fit; `synth` and the
    # other methods never load scipy
    out = _fresh_interpreter(
        SYNTH_THEN_CROSSVAL + SCIPY_LOADED, str(tmp_path / "arch"),
        write_json(tmp_path / "synth.json", SYNTH_DOC),
        write_json(tmp_path / "pipeline.json", {**FAST_PIPELINE_DOC, "method": method}),
        str(tmp_path / "cv.json"))
    assert ("'scipy.linalg" in out) is loaded
    assert (out == "[]\n") is not loaded
