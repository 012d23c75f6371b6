"""Benchmark harness for the mipipe command-line paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_static --seed 0 --seconds 45 --trace 0

``--trace 0`` sets up the workload's inputs three times with ``mipipe synth``,
then repeats the workload's command sequence for ``--seconds``: a repetition
starts only if one as long as the last would end in time, and there is always
at least one. Each command runs in a fresh ``python -m mipipe.cli`` child,
one at a time: a closed loop with a single client. BLAS and OpenMP use one
thread. It reports the end-to-end metrics.

``--trace 1`` runs one set-up and one repetition in this process, first
untraced and then with every public mipipe function wrapped (see tracer.py),
and reports the per-layer metrics and the tracing overhead.

``--seed`` selects one of the archive seeds whose outputs were recorded from
the seed code (reference/). Every command is checked: a non-zero exit, or
outputs that differ from those references, count as failed. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Full results, with the machine
information, go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import (TINY, WORKLOADS, Step, accuracies, accuracy_pct, argv, compare,
                       extract, write_configs)

HERE = Path(__file__).resolve().parent
THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUPS = 3
# archive seeds kept for re-checking a claim with --heldout-seed
HELDOUT_SEEDS = (1000,)
STARTUP_PROBES = 3
COMMAND_TIMEOUT_S = 170.0
SYNTH = Step("synth")


@dataclass
class Command:
    returncode: int
    wall_s: float
    maxrss_mb: float


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MI_SEED", "PYTHONPATH")}
    env.update(THREADS)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(args: list[str], env: dict, log: Path) -> Command:
    """Run one `python -m mipipe.cli` child; wall time from spawn to reap."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mipipe.cli", *args],
                                env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def _reference_seeds(workload: str) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text())["seeds"] if path.exists() else {}


def load_reference(workload: str, seed: int) -> dict | None:
    return _reference_seeds(workload).get(str(seed))


def input_seed(workload: str, seed: int) -> int:
    """The archive seed a run's --seed selects: one of the workload's recorded
    seeds, taken in turn (seed modulo their number), so that every run is
    checked against the seed code's outputs. The held-out seeds are never
    selected."""
    recorded = sorted(int(s) for s in _reference_seeds(workload)
                      if int(s) not in HELDOUT_SEEDS)
    return recorded[seed % len(recorded)] if recorded else seed


class Checker:
    """Checks each command's exit code and outputs against one expected set
    per step: the stored reference, or else the first outputs seen. Each
    command's accuracy (the mean over fig1's rows) must also reach
    `min_accuracy_pct`, when one is given."""

    def __init__(self, reference: dict | None, min_accuracy_pct: float | None = None):
        self.expected = dict(reference or {})
        self.min_accuracy_pct = min_accuracy_pct
        self.source = "reference" if reference else "first repetition"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, step: Step, returncode: int, outputs_fn) -> dict | None:
        self.attempted += 1
        problems, outputs = [], None
        if returncode != 0:
            problems.append(f"exit code {returncode}")
        else:
            try:
                outputs = outputs_fn()
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            else:
                expected = self.expected.setdefault(step.command, outputs)
                problems += compare(expected, outputs, step.command)
                values = (accuracies(step.command, outputs)
                          if self.min_accuracy_pct is not None else [])
                if values:
                    mean = sum(values) / len(values)
                    if mean < self.min_accuracy_pct:
                        problems.append(f"accuracy {mean:.4g}% below "
                                        f"{self.min_accuracy_pct:g}%")
        if problems:
            self.failed += 1
            self.problems.append(f"{step.command}: " + "; ".join(problems[:5]))
            return None
        return outputs


def tail_percentile(samples: list[float]):
    """The highest percentile with at least ten samples beyond it, as
    (percent, value), or None when there are fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (1 - 10 / n))
    return p, sorted(samples)[max(math.ceil(p / 100 * n), 1) - 1]


def measure(workload, seed: int, seconds: float, root: Path, work: Path,
            setups: int = SETUPS, reference: dict | None = None) -> dict:
    """Set up `setups` times, then repeat the workload for `seconds`."""
    env = child_env(root)
    configs = write_configs(workload, seed, work)
    checker = Checker(reference, workload.min_accuracy_pct)
    setup_s = []
    for i in range(setups):
        archive = work / f"setup{i}"
        cmd = run_cli(argv(SYNTH, configs, archive, None), env, work / f"setup{i}.log")
        setup_s.append(cmd.wall_s)
        checker.check(SYNTH, cmd.returncode, lambda: extract(SYNTH, archive, None))
        if i:
            shutil.rmtree(archive, ignore_errors=True)

    reps = []
    deadline = time.perf_counter() + seconds
    # start a repetition only if one as long as the last ends by the deadline
    while not reps or time.perf_counter() + reps[-1]["wall_s"] <= deadline:
        rep_dir = work / f"rep{len(reps)}"
        rep_dir.mkdir()
        archive = rep_dir / "archive" if workload.rep_synth else work / "setup0"
        commands = []
        for step in workload.steps:
            args = argv(step, configs, archive, rep_dir / f"{step.command}.json")
            commands.append((step, run_cli(args, env, rep_dir / f"{step.command}.log")))
        outputs = {
            step.command: checker.check(
                step, cmd.returncode,
                lambda: extract(step, archive, rep_dir / f"{step.command}.json"))
            for step, cmd in commands
        }
        reps.append({
            "wall_s": sum(cmd.wall_s for _, cmd in commands),
            "maxrss_mb": max(cmd.maxrss_mb for _, cmd in commands),
            "commands_s": {step.command: cmd.wall_s for step, cmd in commands},
            "accuracy_pct": None if None in outputs.values() else accuracy_pct(outputs),
        })
        if workload.rep_synth:
            shutil.rmtree(archive, ignore_errors=True)

    walls = [r["wall_s"] for r in reps]
    accuracies = [r["accuracy_pct"] for r in reps if r["accuracy_pct"] is not None]
    return {
        "seed": seed,
        "metrics": {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": max(r["maxrss_mb"] for r in reps),
            "accuracy_pct": accuracies[0] if accuracies else 0.0,
            "failed_frac": checker.failed / checker.attempted,
            "setup_s": statistics.median(setup_s),
        },
        "wall_samples": walls,
        "wall_tail": tail_percentile(walls),
        "setup_samples": setup_s,
        "reps": reps,
        "check": checker.source,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "outputs": checker.expected,
    }


def import_program(root: Path):
    """Import mipipe from this checkout's src/ and return its cli module."""
    sys.path.insert(0, str(root / "src"))
    import mipipe.cli

    src = (root / "src").resolve()
    if src not in Path(mipipe.__file__).resolve().parents:
        raise RuntimeError(f"imported mipipe from {mipipe.__file__}, not {src}")
    return mipipe.cli


def _in_process(cli, args: list[str]) -> int:
    """One command through mipipe.cli.main; an escaping exception is exit 1."""
    try:
        return cli.main(args)
    except Exception:  # a traceback is a failed command, not a harness crash
        traceback.print_exc()
        return 1


def traced(workload, seed: int, root: Path, work: Path,
           reference: dict | None = None) -> dict:
    """Per-layer metrics from one set-up plus one repetition, run in process
    untraced and then traced."""
    import tracer

    env = child_env(root)
    checker = Checker(reference, workload.min_accuracy_pct)
    startup = []
    for i in range(STARTUP_PROBES):
        cmd = run_cli(["--version"], env, work / f"version{i}.log")
        startup.append(cmd.wall_s)
        checker.check(Step("--version"), cmd.returncode, dict)
    cli = import_program(root)
    configs = write_configs(workload, seed, work)

    passes = {}
    for name in ("untraced", "traced"):
        pass_dir = work / name
        inputs = pass_dir / "input"
        archive = pass_dir / "archive" if workload.rep_synth else inputs
        plan = [(SYNTH, inputs)] + [(s, archive) for s in workload.steps]
        tr = tracer.Tracer() if name == "traced" else None
        if tr:
            tr.install()
        cpu0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter_ns()
        try:
            codes = [_in_process(cli, argv(s, configs, a, pass_dir / f"{s.command}.json"))
                     for s, a in plan]
        finally:
            wall_ns = time.perf_counter_ns() - t0
            cpu1 = resource.getrusage(resource.RUSAGE_SELF)
            if tr:
                tr.uninstall()
        for (s, a), code in zip(plan, codes):
            checker.check(s, code, lambda: extract(s, a, pass_dir / f"{s.command}.json"))
        passes[name] = {
            "tracer": tr,
            "wall_ns": wall_ns,
            "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
        }

    tr = passes["traced"]["tracer"]
    metrics = tracer.layer_metrics(tr, passes["traced"]["wall_ns"])
    untraced_s = passes["untraced"]["wall_ns"] / 1e9
    metrics.update({
        "cli.startup_s": statistics.median(startup),
        "cli.cpu_s": passes["untraced"]["cpu_s"],
        "trace.untraced_wall_s": untraced_s,
        "trace.overhead_s": metrics["trace.wall_s"] - untraced_s,
        "trace.overhead_frac": (metrics["trace.wall_s"] - untraced_s) / untraced_s,
        "trace.overhead_est_s": metrics["trace.spans"] * tracer.span_cost_ns() / 1e9,
    })
    return {
        "seed": seed,
        "metrics": metrics,
        "spans": tr,
        "check": checker.source,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
    }


def machine_info(root: Path) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _summary_lines(label: str, result: dict, specs: dict) -> list[str]:
    lines = [f"{label}: archive seed {result['seed']}, {result['attempted']} commands, "
             f"{result['failed']} failed, outputs checked against the {result['check']}"]
    for name, value in result["metrics"].items():
        spec = specs.get(name, {})
        note = ""
        if name == "wall_s":
            tail = result["wall_tail"]
            note = (f"  (median of {len(result['wall_samples'])}; "
                    + (f"p{tail[0]} {tail[1]:.4f} s)" if tail else
                       "no percentile has 10 samples beyond it)"))
        elif name == "setup_s":
            note = f"  (median of {len(result['setup_samples'])})"
        lines.append(f"  {name:40s} {value:>14.6g} {spec.get('unit', '')}{note}")
    lines += [f"  FAILED {p}" for p in result["problems"]]
    return lines


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="selects the archive seed among the recorded ones "
                             "(seed modulo their number)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure repetitions for this long (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout-seed", type=int,
                        help="also run one repetition on inputs from this seed and "
                             "report it separately (untraced runs)")
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long inputs for the self-test; no references")
    opts = parser.parse_args(args)
    if opts.trace and opts.heldout_seed is not None:
        parser.error("--heldout-seed applies to untraced runs only")

    root = Path.cwd()
    if not (root / "src" / "mipipe" / "cli.py").is_file():
        print(f"perfbench: no mipipe source under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ.update(THREADS)
    specs = json.loads((HERE / "metrics.json").read_text())
    kind = "per_layer" if opts.trace else "end_to_end"
    workload = (TINY if opts.tiny else WORKLOADS)[opts.workload]

    def reference(seed):
        return None if opts.tiny else load_reference(workload.name, seed)

    seed = opts.seed if opts.tiny else input_seed(workload.name, opts.seed)

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = root / ".perfbench" / "work" / f"{workload.name}-{opts.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if opts.trace:
            result = traced(workload, seed, root, work, reference(seed))
            lines = _summary_lines(f"{workload.name} traced", result, specs[kind])
        else:
            result = measure(workload, seed, opts.seconds, root, work,
                             reference=reference(seed))
            lines = _summary_lines(workload.name, result, specs[kind])
        extra = []
        if opts.heldout_seed is not None:
            heldout = measure(workload, opts.heldout_seed, 0, root, work / "heldout",
                              setups=1, reference=reference(opts.heldout_seed))
            lines += _summary_lines(f"{workload.name} held-out", heldout, specs[kind])
            extra.append(heldout)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = results / (f"{workload.name}-seed{opts.seed}-trace{opts.trace}"
                      + ("-tiny" if opts.tiny else ""))
    spans = result.pop("spans", None)
    if spans is not None:
        spans.save(stem.with_suffix(".spans.npz"))
    machine = machine_info(root)
    doc = {"workload": workload.name, "tiny": opts.tiny, "trace": opts.trace,
           "seed": opts.seed,
           "machine": machine, "result": result, "heldout": extra}
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=1))

    attempted = result["attempted"] + sum(r["attempted"] for r in extra)
    failed = result["failed"] + sum(r["failed"] for r in extra)
    if any(r["check"] != "reference" for r in [result, *extra]) and not opts.tiny:
        lines.append("  NOTE no stored reference for this seed: outputs were checked "
                     "against the first repetition and the accuracy floor only")
    listed = [n for n, spec in specs[kind].items() if spec.get("listed", True)]
    print("\n".join(lines))
    print("machine: " + json.dumps(machine))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": result["metrics"][n], "unit": specs[kind][n]["unit"]}
                    for n in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
