"""Self-test of the benchmark harness, kept out of the repository's test suite.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

It takes about a minute: one tiny-size run of every workload, untraced and
traced, plus unit checks of the tracer arithmetic and the output check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracer
from run import HELDOUT_SEEDS, Checker, input_seed, load_reference, tail_percentile
from workloads import WORKLOADS, Step, compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _harness(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _specs():
    return json.loads((HERE / "metrics.json").read_text())


def test_self_times_of_nested_spans():
    # a(0-100) holds b(10-40), which holds c(20-30), and d(50-60); e(120-130)
    # is a second top-level span; the pass lasts 150
    names = ["cli.a", "features.b", "classify.c", "features.d", "pipeline.e"]
    start = np.array([0, 10, 20, 50, 120])
    end = np.array([100, 40, 30, 60, 130])
    parent = np.array([-1, 0, 1, 0, -1])
    assert tracer.self_times(start, end, parent).tolist() == [60, 20, 10, 10, 10]
    layers = tracer.layer_self_times(names, np.arange(5), start, end, parent, 150)
    assert layers["cli"] == 60
    assert layers["features"] == 30
    assert layers["classify"] == 10
    assert layers["pipeline"] == 10
    assert layers["unattributed"] == 40
    assert sum(layers.values()) == 150


def test_tracer_records_parents_and_failures():
    tr = tracer.Tracer()
    inner = tr.wrap("features.inner", lambda x: 1 / x)
    outer = tr.wrap("cli.outer", lambda x: inner(x) + inner(1))
    assert outer(2) == 1.5
    with pytest.raises(ZeroDivisionError):
        outer(0)
    a = tr.arrays()
    assert a["parent"].tolist() == [-1, 0, 0, -1, 3]
    assert a["failed"].tolist() == [4, 3]
    assert np.all(a["end_ns"] >= a["start_ns"])


def test_tracer_install_rebinds_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import mipipe.pipeline
    import mipipe.preprocess

    original = mipipe.preprocess.bandpass_zero_phase
    tr = tracer.Tracer()
    tr.install()
    try:
        wrapped = mipipe.preprocess.bandpass_zero_phase
        assert wrapped is not original and wrapped.__wrapped__ is original
        # the name pipeline imported is rebound too
        assert mipipe.pipeline.bandpass_zero_phase is wrapped
    finally:
        tr.uninstall()
    assert mipipe.preprocess.bandpass_zero_phase is original
    assert mipipe.pipeline.bandpass_zero_phase is original


def test_compare_and_checker_count_mismatches():
    assert compare({"rho": 0.5, "p": "+-"}, {"rho": 0.5 + 1e-12, "p": "+-"}) == []
    assert compare({"rho": 0.5}, {"rho": 0.5001}) == [".rho: 0.5001 != 0.5"]
    assert compare([1, 2], [1]) == [": length 1 != 2"]
    checker = Checker({"run": {"predicted": "+-"}})
    assert checker.check(Step("run"), 0, lambda: {"predicted": "+-"}) is not None
    assert checker.check(Step("run"), 0, lambda: {"predicted": "++"}) is None
    assert checker.check(Step("run"), 3, lambda: {"predicted": "+-"}) is None
    assert (checker.attempted, checker.failed) == (3, 2)
    floored = Checker(None, min_accuracy_pct=90.0)
    assert floored.check(Step("crossval"), 0, lambda: {"mean": 95.0, "std": 1.0}) is not None
    assert floored.check(Step("fig1"), 0, lambda: {"rows": [["csp", 0.2, 99.0, 99.0],
                                                            ["ar", 0.2, 60.0, 99.0]]}) is None
    assert floored.problems == ["fig1: accuracy 79.5% below 90%"]
    # the floor is on a command's mean accuracy, not on each fig1 row
    floored = Checker(None, min_accuracy_pct=90.0)
    assert floored.check(Step("fig1"), 0, lambda: {"rows": [["csp", 0.2, 100.0, 99.0],
                                                            ["ar", 0.2, 88.0, 95.0]]})


def test_every_seed_selects_a_recorded_archive_seed():
    for workload in WORKLOADS:
        for seed in (0, 39, 40, 1000, 1541633584):
            chosen = input_seed(workload, seed)
            assert chosen not in HELDOUT_SEEDS
            assert load_reference(workload, chosen) is not None
    assert input_seed("sweep_static", 41) == 1


def test_tail_percentile():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(11))) == (9, 0)
    assert tail_percentile(list(range(20))) == (50, 9)


def test_benchmark_json_matches_metrics_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = _specs()
    for kind in ("end_to_end", "per_layer"):
        listed = {n: s for n, s in specs[kind].items() if s.get("listed", True)}
        assert [m["name"] for m in bench[kind]] == list(listed)
        for m in bench[kind]:
            assert (m["unit"], m["better"]) == (listed[m["name"]]["unit"],
                                                listed[m["name"]]["better"])
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_run(workload, trace):
    proc = _harness("--workload", workload, "--seed", "3", "--seconds", "0",
                    "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    listed = [n for n, s in _specs()[kind].items() if s.get("listed", True)]
    assert list(result["metrics"]) == listed
    if trace == "1":
        saved = ROOT / ".perfbench" / "results" / f"{workload}-seed3-trace1-tiny.json"
        m = json.loads(saved.read_text())["result"]["metrics"]
        layers = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
        assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"], abs=1e-9)
        assert m["data_model.trial_new.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _harness("--workload", "sweep_static", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
