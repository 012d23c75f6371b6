"""Command-line front end.

Exit codes: 0 success, 2 usage/config error, 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    PipelineConfig,
    default_search_space,
    pipeline_config_from_dict,
)
from .data_model import SplitSpec, TrialSet, load_archive, save_archive
from .errors import ArchiveError, ConfigError, NumericalError
from .pipeline import cross_validate, run_adaptive, run_static, sweep_fractions
from .synthgen import generate, synth_config_from_dict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _read_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"unparseable config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def _resolve_seed(flag_seed) -> int | None:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("MI_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"MI_SEED is not an integer: {env!r}") from exc
    return None


def _write_report(path, doc: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2))


def _write_manifest(out_path, command: str, args, config_doc: dict, seed) -> None:
    manifest = {
        "command": command,
        "config_path": getattr(args, "config", None),
        "resolved_config": config_doc,
        "seed": seed,
        "inputs": getattr(args, "data", None),
        "outputs": str(out_path),
        "tool_version": __version__,
    }
    out_path = Path(out_path)
    _write_report(out_path.with_name(out_path.name + ".manifest.json"), manifest)


def _load_inputs(args, seed) -> tuple[PipelineConfig, TrialSet]:
    """The pipeline config and the archive, with every configured channel
    index checked against the archive's channel count and for repeats."""
    doc = _read_json(args.config) if args.config else {}
    config = pipeline_config_from_dict(doc)
    if seed is not None:
        config = replace(config, ensemble=replace(config.ensemble, seed=seed))
    data = load_archive(args.data)
    channel_sets = [config.channels]
    if config.search is not None:
        channel_sets += config.search.channel_sets
    for channels in channel_sets:
        if channels is None:
            continue
        if not channels:
            raise ConfigError("channel sets must name at least one channel")
        for i, c in enumerate(channels):
            if not 0 <= c < data.n_channels:
                raise ConfigError(
                    f"channel index {c} out of range for an archive of "
                    f"{data.n_channels} channels"
                )
            if c in channels[:i]:
                raise ConfigError(f"channel index {c} is repeated in {list(channels)}")
    return config, data


def cmd_synth(args) -> int:
    doc = _read_json(args.config) if args.config else {}
    seed = _resolve_seed(args.seed)
    if seed is not None:
        doc = {**doc, "seed": seed}
    config = synth_config_from_dict(doc)
    trial_set = generate(config)
    save_archive(trial_set, args.out)
    _write_manifest(Path(args.out) / "report.json", "synth", args,
                    doc | {"seed": config.seed}, config.seed)
    return EXIT_OK


def cmd_crossval(args) -> int:
    seed = _resolve_seed(args.seed)
    config, data = _load_inputs(args, seed)
    if config.search is not None:
        raise ConfigError("crossval runs no search: remove search from the config")
    # a fully labelled archive is prepared in place, without a copy
    if not data.labels.all():
        data = data[np.flatnonzero(data.labels)]
    mean, std = cross_validate(data, config, folds=args.folds, seed=seed or 0)
    doc = {
        "mean": mean,
        "std": std,
        "folds": args.folds,
        "config": asdict(config),
    }
    _write_report(args.report, doc)
    _write_manifest(args.report, "crossval", args, doc["config"], seed)
    return EXIT_OK


def cmd_run(args) -> int:
    seed = _resolve_seed(args.seed)
    config, data = _load_inputs(args, seed)
    if not 0 < args.train_fraction < 1:
        raise ConfigError(
            f"--train-fraction must be in (0, 1), got {args.train_fraction}"
        )
    mode = "by_session" if args.by_session else "prefix"
    spec = SplitSpec(args.train_fraction, mode)
    if args.sweep and config.search is None:
        config = replace(
            config, search=default_search_space(data.n_samples / data.sampling_rate_hz)
        )
    if args.adapt:
        if len(data.session_ids) < 2:
            raise ConfigError("--adapt requires >= 2 sessions")
        report = run_adaptive(data, spec, config)
    else:
        report = run_static(data, spec, config)
    doc = report.to_dict()
    doc["config"] = asdict(config)
    doc["train_fraction"] = args.train_fraction
    doc["split_mode"] = mode
    doc["adapt"] = args.adapt
    _write_report(args.report, doc)
    _write_manifest(args.report, "run", args, doc["config"], seed)
    return EXIT_OK


def cmd_sweep_fractions(args) -> int:
    seed = _resolve_seed(args.seed)
    config, data = _load_inputs(args, seed)
    fractions = [float(f) for f in args.fractions.split(",")]
    methods = [m.strip() for m in args.methods.split(",")]
    for f in fractions:
        if not 0 < f < 1:
            raise ConfigError(f"fraction {f} outside (0, 1)")
    rows = sweep_fractions(data, config, methods, fractions)
    doc = {"rows": rows, "config": asdict(config)}
    _write_report(args.report, doc)
    _write_manifest(args.report, "fig1", args, doc["config"], seed)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mipipe",
        description="Small-training-set motor imagery EEG classification pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic trial archive")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("crossval", help="cross-validated training accuracy")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("run", help="train/test evaluation, optionally adaptive")
    p.add_argument("--data", required=True)
    p.add_argument("--train-fraction", type=float, required=True)
    p.add_argument("--by-session", action="store_true")
    p.add_argument("--config")
    p.add_argument("--sweep", action="store_true",
                   help="enable transductive parameter search")
    p.add_argument("--adapt", action="store_true",
                   help="session-by-session semi-supervised classification")
    p.add_argument("--seed", type=int)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("fig1", help="accuracy table over train fractions and methods")
    p.add_argument("--data", required=True)
    p.add_argument("--fractions", default="0.8,0.6,0.3,0.2,0.1")
    p.add_argument("--methods", default="csp,ar,lrp")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_sweep_fractions)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    try:
        # every non-finite value numpy warns of ends in a failure code or a
        # finiteness check, which prints the one line, so the warnings would
        # only add lines before it; library callers still see them
        with np.errstate(all="ignore"):
            return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ArchiveError as exc:
        print(f"archive error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
