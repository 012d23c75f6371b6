"""Acceptance gate: one test per headline criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from mipipe.classify import bagging_predict_rows, fit_bagging, fit_ldas
from mipipe.config import EnsembleConfig, PipelineConfig, SearchSpace
from mipipe.data_model import SplitSpec, split_count
from mipipe.errors import CriterionUndefinedError, raise_first
from mipipe.features import (
    ar_fits,
    csp_fits,
    moment_log_shares,
    share_codes,
    trace_normalized,
    trial_moments,
    yule_walker,
)
from mipipe.param_select import (
    class_balance_penalty,
    estimate_pdf,
    grid_search,
    pdf_correlation,
)
from mipipe.pipeline import run_adaptive, run_static
from mipipe.synthgen import SynthConfig, generate
from mipipe.cli import main


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def orthogonal_trial(scales):
    base = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
    return np.diag(scales) @ base


def one_lda(x, y):
    """`fit_ldas` of one fit on all of x: w (d,) and b."""
    w, b, codes = fit_ldas(x[None], [np.flatnonzero(y == -1)], [np.flatnonzero(y == 1)])
    raise_first(codes)
    return w[0], b[0]


def test_criterion_01_csp_oracle():
    # class covariances diag(2/3, 1/3) and diag(1/3, 2/3) after normalization
    x = np.array([orthogonal_trial([np.sqrt(2.0), 1.0]), orthogonal_trial([1.0, np.sqrt(2.0)])])
    unit, traces = trace_normalized(x @ x.transpose(0, 2, 1))
    filters, *_ = csp_fits(unit, traces, [np.array([0])], [np.array([1])], m=1)
    w = filters[0]
    sigma_n, sigma_p = unit
    eigen_n = np.sort(np.diag(w @ sigma_n @ w.T))[::-1]
    off_n = w @ sigma_n @ w.T - np.diag(np.diag(w @ sigma_n @ w.T))
    off_p = w @ sigma_p @ w.T - np.diag(np.diag(w @ sigma_p @ w.T))
    ok = (np.max(np.abs(eigen_n - [2 / 3, 1 / 3])) < 1e-8
          and np.max(np.abs(off_n)) < 1e-8
          and np.max(np.abs(off_p)) < 1e-8)
    report(1, "CSP 2x2 oracle", ok,
           f"eigenvalues {eigen_n}, max off-diagonal "
           f"{max(np.max(np.abs(off_n)), np.max(np.abs(off_p))):.2e}")


def test_criterion_02_ar_oracle():
    phi = 0.9
    r = phi ** np.arange(2) / (1 - phi ** 2)
    (analytic,), _ = yule_walker(r[None])
    rng = np.random.default_rng(0)
    x = np.empty(10000)
    x[0] = rng.normal()
    for i in range(1, len(x)):
        x[i] = phi * x[i - 1] + rng.normal()
    (simulated,), _ = ar_fits(x[None], 1)
    ok = (abs(analytic[0] + phi) < 1e-10
          and abs(simulated[0] + phi) < 0.05)
    report(2, "Yule-Walker AR(1) oracle", ok,
           f"analytic a1 {analytic[0]:+.12f}, simulated {simulated[0]:+.4f}")


def test_criterion_03_lda_oracle():
    rng = np.random.default_rng(7)
    n, dim, separation = 50, 2, 1.0
    offsets = rng.normal(size=(n, dim))
    offsets -= offsets.mean(axis=0)
    neg = -separation * np.eye(dim)[0] + offsets
    pos = separation * np.eye(dim)[0] + offsets
    x = np.vstack([neg, pos])
    y = np.array([-1] * n + [1] * n)
    w, b = one_lda(x, y)
    scatter = sum((blk - blk.mean(axis=0)).T @ (blk - blk.mean(axis=0))
                  for blk in (neg, pos))
    oracle = np.linalg.solve(scatter, pos.mean(axis=0) - neg.mean(axis=0))
    direction = w / np.linalg.norm(w)
    oracle /= np.linalg.norm(oracle)
    angle = float(np.arccos(np.clip(abs(direction @ oracle), -1, 1)))
    sep_rng = np.random.default_rng(8)
    xs = np.vstack([sep_rng.normal((-5, 0), 0.5, size=(40, 2)),
                    sep_rng.normal((5, 0), 0.5, size=(40, 2))])
    ys = np.array([-1] * 40 + [1] * 40)
    sep_w, sep_b = one_lda(xs, ys)
    train_acc = float(np.mean(np.where(xs @ sep_w + sep_b >= 0, 1, -1) == ys))
    ok = abs(b) < 1e-9 and angle < 1e-6 and train_acc == 1.0
    report(3, "shrinkage LDA oracle", ok,
           f"|b| {abs(b):.2e}, angle {angle:.2e}, "
           f"separable accuracy {100 * train_acc:.1f}%")


def test_criterion_04_variance_share_forced_values():
    x = np.array([orthogonal_trial([1.0, 1.0]), orthogonal_trial([np.sqrt(3.0), 1.0])])
    (shares,), (totals,) = moment_log_shares(np.eye(2)[None], trial_moments(x), m=1)
    raise_first(share_codes(shares, totals))
    equal, skewed = shares
    ok = (abs(equal - np.log(0.5)) < 1e-12
          and abs(skewed - np.log(0.75)) < 1e-12)
    report(4, "variance-share feature forced values", ok,
           f"equal {equal:.12f}, 3:1 {skewed:.12f}")


def test_criterion_05_selection_criteria_unit_properties():
    penalty = class_balance_penalty([-2.0, -1.0, 1.0, 2.0])
    rng = np.random.default_rng(0)
    pdf = estimate_pdf(rng.normal(size=500), (-4.0, 4.0))
    rho = pdf_correlation(pdf, pdf)
    edges = np.linspace(-4, 4, 41)
    flat = estimate_pdf((edges[:-1] + edges[1:]) / 2, (-4.0, 4.0))
    try:
        pdf_correlation(flat, pdf)
        flat_raises = False
    except CriterionUndefinedError:
        flat_raises = True
    ok = penalty == 0.0 and abs(rho - 1.0) < 1e-12 and flat_raises
    report(5, "balance penalty and pdf correlation unit properties", ok,
           f"penalty {penalty}, rho-1 {rho - 1:.2e}, flat raises {flat_raises}")


def test_criterion_06_bagging_robustness():
    n_train, n_test = 60, 100
    ens_accs, comp_accs = [], []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = np.vstack([rng.normal((-2.0, 0), 1.0, size=(n_train, 2)),
                       rng.normal((2.0, 0), 1.0, size=(n_train, 2))])
        y = np.array([-1] * n_train + [1] * n_train)
        flipped = y.copy()
        flip = rng.permutation(2 * n_train)[: int(0.3 * 2 * n_train)]
        flipped[flip] *= -1
        xt = np.vstack([rng.normal((-2.0, 0), 1.0, size=(n_test, 2)),
                        rng.normal((2.0, 0), 1.0, size=(n_test, 2))])
        yt = np.array([-1] * n_test + [1] * n_test)
        ensemble = fit_bagging(x, flipped, rounds=50, subset_fraction=0.5,
                               seed=seed)
        ens = float(np.mean(bagging_predict_rows(ensemble, xt) == yt))
        comp = float(np.mean(np.where(xt @ ensemble.w.T + ensemble.b >= 0, 1, -1)
                             == yt[:, None]))
        ens_accs.append(100 * ens)
        comp_accs.append(100 * comp)
    ens_mean = float(np.mean(ens_accs))
    comp_mean = float(np.mean(comp_accs))
    per_seed = all(e >= c for e, c in zip(ens_accs, comp_accs))
    ok = per_seed and ens_mean >= 90.0 and comp_mean <= ens_mean - 2.0
    report(6, "bagging beats its components under 30% label noise", ok,
           f"ensemble {ens_mean:.1f}%, components {comp_mean:.1f}%, "
           f"per-seed ordering {per_seed}")


def test_criterion_07_accuracy_vs_training_fraction():
    ts = generate(SynthConfig(n_channels=5, trials_per_session=280,
                              erd_depth=0.4, noise_sigma_uv=6.0, seed=2))
    fractions = (0.8, 0.6, 0.3, 0.2, 0.1)
    csp_config = PipelineConfig(method="csp")
    ar_config = PipelineConfig(method="ar", n_select=1)
    csp_acc, ar_acc = {}, {}
    for fraction in fractions:
        spec = SplitSpec(fraction, "prefix")
        csp_acc[fraction] = run_static(ts, spec, csp_config, folds=5).test_accuracy
        ar_acc[fraction] = run_static(ts, spec, ar_config, folds=5).test_accuracy
    spread = max(csp_acc.values()) - min(csp_acc.values())
    ar_drop = ar_acc[0.8] - ar_acc[0.1]
    ok = spread < 5.0 and ar_drop >= 5.0
    report(7, "stable CSP vs degrading 1-channel AR over train fractions", ok,
           f"CSP spread {spread:.1f} pts, AR drop {ar_drop:.1f} pts")


def test_criterion_08_planted_band_selection():
    space = SearchSpace(
        bands_hz=((8.0, 10.0), (12.0, 14.0), (20.0, 24.0)),
        windows_s=((0.5, 4.5),),
    )
    hits = 0
    for seed in range(10):
        ts = generate(SynthConfig(n_channels=5, trials_per_session=280,
                                  rhythm_band_hz=(13.0, 2.0), erd_depth=0.6,
                                  noise_sigma_uv=1.5, seed=seed))
        labels = ts.labels[:split_count(ts, SplitSpec(0.2, "prefix"))]
        result = grid_search(ts, labels, space)
        lo, hi = result.config.preprocess.band_hz
        if lo < 14.0 and hi > 12.0:  # overlaps the planted rhythm band
            hits += 1
    ok = hits >= 9
    report(8, "transductive search recovers the planted band", ok,
           f"{hits}/10 seeds")


def test_criterion_09_adaptive_gain():
    config = PipelineConfig(ensemble=EnsembleConfig(rounds=20, seed=0))
    spec = SplitSpec(0.125, "prefix")

    def late_session_accuracy(drift, seed):
        ts = generate(SynthConfig(n_channels=4, n_sessions=4,
                                  trials_per_session=30, erd_depth=0.6,
                                  noise_sigma_uv=1.5, session_drift=drift,
                                  seed=seed))
        static = run_static(ts, spec, config, folds=5)
        adaptive = run_adaptive(ts, spec, config, folds=5)
        s = np.mean([static.per_session[s_] for s_ in (3, 4)])
        a = np.mean([adaptive.per_session[s_] for s_ in (3, 4)])
        return float(s), float(a)

    drifting = [late_session_accuracy(0.35, seed) for seed in range(20)]
    static_mean = float(np.mean([s for s, _ in drifting]))
    adaptive_mean = float(np.mean([a for _, a in drifting]))
    still = [late_session_accuracy(0.0, seed) for seed in range(5)]
    still_gap = min(a - s for s, a in still)
    ok = adaptive_mean >= static_mean and still_gap >= -1.0
    report(9, "adaptive pipeline gains under session drift", ok,
           f"drift: adaptive {adaptive_mean:.1f}% vs static {static_mean:.1f}%; "
           f"zero-drift worst gap {still_gap:+.1f} pts")


def test_criterion_10_small_training_set_target():
    ts = generate(SynthConfig(n_channels=5, trials_per_session=280,
                              erd_depth=0.6, noise_sigma_uv=1.0, seed=3))
    space = SearchSpace(
        bands_hz=((8.0, 10.0), (12.0, 14.0), (20.0, 24.0)),
        windows_s=((0.5, 4.5),),
    )
    config = PipelineConfig(method="csp", search=space)
    spec = SplitSpec(0.1, "prefix")
    result = run_static(ts, spec, config, folds=5)
    ok = result.test_accuracy >= 90.0
    report(10, "90%+ test accuracy from 10% training data", ok,
           f"{split_count(ts, spec)} training trials -> {result.test_accuracy:.1f}%")


def test_criterion_11_determinism_and_leakage(tmp_path):
    synth_doc = {"n_channels": 4, "trials_per_session": 40,
                 "erd_depth": 0.8, "noise_sigma_uv": 0.5, "seed": 0}
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(synth_doc))
    arch = tmp_path / "arch"
    assert main(["synth", "--out", str(arch), "--config", cfg.as_posix()]) == 0
    reports = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        assert main(["run", "--data", str(arch), "--train-fraction", "0.5",
                     "--seed", "4", "--report", str(path)]) == 0
        reports.append(path.read_text())
    deterministic = reports[0] == reports[1]

    ts = generate(SynthConfig(**synth_doc))
    spec = SplitSpec(0.5, "prefix")
    k = split_count(ts, spec)
    blind = replace(ts, labels=np.r_[ts.labels[:k], [0] * (len(ts) - k)], finite=True)
    config = PipelineConfig(ensemble=EnsembleConfig(rounds=10, seed=0))
    with_labels = run_static(ts, spec, config, folds=5).predicted_labels
    without = run_static(blind, spec, config, folds=5).predicted_labels
    leak_free = with_labels == without
    ok = deterministic and leak_free
    report(11, "bitwise-deterministic reports, no test-label leakage", ok,
           f"identical reports {deterministic}, predictions unchanged {leak_free}")
