"""In-process tracing of the mipipe layers, applied from outside the program.

``Tracer.install`` wraps every public function of each layer module, and the
``__init__`` and public methods of its public classes, then rebinds each
wrapped function under every name any ``mipipe`` module holds it by. A
wrapper records one span (name, start, end, parent) per call in memory, plus
a few argument or result probes at the same boundary. ``uninstall`` restores
the originals.

A layer's self time is the time its spans cover minus the time their child
spans cover; whatever the spans of the whole pass do not cover is reported
as ``trace.unattributed_s``, so the layer self times and that remainder add
up to the traced wall time.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# the package modules, in pipeline order; config and errors hold no work
LAYERS = ("cli", "data_model", "synthgen", "preprocess", "features",
          "classify", "param_select", "pipeline")


def _search_table(result):
    table = result.table
    return (len(table), sum(r["error"] is not None for r in table),
            sum(bool(r["feasible"]) for r in table))


# name -> (argument probe, result probe); a probe's values are kept per call
PROBES = {
    "data_model.load_archive": (lambda path: str(path), None),
    "data_model.save_archive": (lambda trial_set, path: str(path), None),
    "preprocess.bandpass_array": (lambda x, fs_hz, low_hz, high_hz: np.size(x), None),
    "preprocess.bandpass_ba": (lambda fs_hz, low_hz, high_hz: ("band", fs_hz, low_hz, high_hz), None),
    "preprocess.lowpass_array": (lambda x, fs_hz, cutoff_hz: ("low", fs_hz, cutoff_hz), None),
    "param_select.grid_search": (None, _search_table),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # one entry per span, in call order; 8 bytes each keeps long runs small
        self.name_idx = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.failed = array.array("q")
        self.probes: dict[str, list] = {}
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, name: str, fn, probe=None, result_probe=None):
        """`fn` recording one span per call under `name`."""
        nid = len(self.names)
        self.names.append(name)
        name_idx, start, end, parent = self.name_idx, self.start, self.end, self.parent
        stack, failed = self._stack, self.failed
        probed = self.probes.setdefault(name, []) if probe or result_probe else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_idx.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            start.append(0)
            if probe is not None:
                try:
                    probed.append(probe(*args, **kwargs))
                except TypeError:  # the program changed this signature
                    probed.append(None)
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed.append(idx)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if result_probe is not None:
                probed.append(result_probe(result))
            return result

        return traced

    def install(self) -> None:
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"mipipe.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = (obj, self.wrap(name, obj, *PROBES.get(name, (None, None))))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                            self._patch(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mipipe" and not mod_name.startswith("mipipe."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_idx": np.array(self.name_idx, dtype=np.int64),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "failed": np.array(self.failed, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        """Write every span, compressed, for later inspection."""
        np.savez_compressed(path, **self.arrays())


def span_cost_ns(calls: int = 100_000) -> float:
    """Mean nanoseconds a wrapper adds to one call, measured on a no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("cli.noop", noop)
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter_ns()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter_ns()
    return ((t2 - t1) - (t1 - t0)) / calls


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = end - start
    child = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    return duration - child


def layer_self_times(names, name_idx, start, end, parent, wall_ns: int) -> dict[str, int]:
    """Self nanoseconds per layer, plus the ``unattributed`` remainder of
    `wall_ns` that no top-level span covers."""
    own = self_times(start, end, parent)
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=np.int64)
    per_layer = np.bincount(layer_of[name_idx], weights=own, minlength=len(LAYERS))
    out = {layer: int(v) for layer, v in zip(LAYERS, per_layer)}
    top = parent < 0
    out["unattributed"] = int(wall_ns - (end[top] - start[top]).sum())
    return out


def _dir_bytes(path: str) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def layer_metrics(tr: Tracer, wall_ns: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass of `wall_ns` nanoseconds.

    Archive sizes are read from disk, so call this before the archives of
    the pass are removed.
    """
    a = tr.arrays()
    names = list(a["names"])
    name_idx, start, end = a["name_idx"], a["start_ns"], a["end_ns"]
    index = {n: i for i, n in enumerate(names)}
    calls_by_id = np.bincount(name_idx, minlength=len(names))
    secs_by_id = np.bincount(name_idx, weights=(end - start) / 1e9, minlength=len(names))

    def calls(name):
        return int(calls_by_id[index[name]]) if name in index else 0

    def secs(name):
        return float(secs_by_id[index[name]]) if name in index else 0.0

    def durations(name):
        mask = name_idx == index.get(name, -1)
        return (end[mask] - start[mask]) / 1e9

    def probes(name):
        return [p for p in tr.probes.get(name, []) if p is not None]

    selfs = layer_self_times(names, name_idx, start, end, a["parent"], wall_ns)
    m: dict[str, float] = {f"{layer}.self_s": selfs[layer] / 1e9 for layer in LAYERS}

    for op in ("load_archive", "save_archive"):
        s = secs(f"data_model.{op}")
        mb = sum(_dir_bytes(p) for p in probes(f"data_model.{op}")) / 1e6
        m[f"data_model.{op}.s"] = s
        m[f"data_model.{op}.mb_per_s"] = mb / s if s else 0.0
    m["data_model.trial_new.calls"] = calls("data_model.Trial.__init__")
    m["synthgen.generate.s"] = secs("synthgen.generate")

    m["preprocess.bandpass.calls"] = calls("preprocess.bandpass_array")
    m["preprocess.bandpass.s"] = secs("preprocess.bandpass_array")
    m["preprocess.bandpass.channel_samples"] = int(sum(probes("preprocess.bandpass_array")))
    designs = probes("preprocess.bandpass_ba") + probes("preprocess.lowpass_array")
    m["preprocess.filter_design.calls"] = len(designs)
    m["preprocess.filter_design.distinct"] = len(set(designs))
    m["preprocess.filter_design.reuse"] = len(set(designs)) / len(designs) if designs else 0.0
    m["preprocess.lowpass.calls"] = calls("preprocess.lowpass_array")
    m["preprocess.lowpass.s"] = secs("preprocess.lowpass_array")
    m["preprocess.crop.calls"] = calls("preprocess.crop")

    for fn in ("fit_csp", "csp_feature", "class_covariance", "ar_feature",
               "lrp_feature", "fisher_scores"):
        m[f"features.{fn}.calls"] = calls(f"features.{fn}")
        m[f"features.{fn}.s"] = secs(f"features.{fn}")
    for fn in ("fit_lda", "fit_bagging", "bagging_predict", "lda_score"):
        m[f"classify.{fn}.calls"] = calls(f"classify.{fn}")
        m[f"classify.{fn}.s"] = secs(f"classify.{fn}")

    searches = probes("param_select.grid_search")
    candidates = sum(t[0] for t in searches)
    m["param_select.grid_search.calls"] = calls("param_select.grid_search")
    m["param_select.grid_search.s"] = secs("param_select.grid_search")
    m["param_select.candidates"] = candidates
    m["param_select.candidates_failed"] = sum(t[1] for t in searches)
    m["param_select.feasible_frac"] = (sum(t[2] for t in searches) / candidates
                                       if candidates else 0.0)
    scores = durations("param_select.candidate_scores")
    m["param_select.candidate_scores.s_p50"] = float(statistics.median(scores)) if len(scores) else 0.0
    searched = durations("param_select.grid_search")
    m["param_select.grid_search.growth"] = float(searched[-1] / searched[0]) if len(searched) else 0.0

    for fn in ("run_static", "run_adaptive", "cross_validate", "fit_pipeline", "predict_set"):
        m[f"pipeline.{fn}.calls"] = calls(f"pipeline.{fn}")
        m[f"pipeline.{fn}.s"] = secs(f"pipeline.{fn}")

    m["trace.wall_s"] = wall_ns / 1e9
    m["trace.spans"] = len(name_idx)
    m["trace.unattributed_s"] = selfs["unattributed"] / 1e9
    return m
