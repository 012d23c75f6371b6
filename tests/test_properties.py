"""Property-based invariants over randomly generated inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mipipe.classify import BaggingEnsemble, bagging_predict_rows, fit_ldas
from mipipe.features import AR_FAILURES, ar_fits, csp_fits, trace_normalized, yule_walker
from mipipe.param_select import class_balance_penalty, estimate_pdf

from oracle import fit_ar, yule_walker_row

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


@given(hnp.arrays(np.float64, st.integers(1, 200), elements=finite_floats),
       st.floats(min_value=-10, max_value=10, allow_nan=False),
       st.floats(min_value=0.1, max_value=10, allow_nan=False))
def test_estimate_pdf_mass_invariants(scores, lo, width):
    pdf = estimate_pdf(scores, (lo, lo + width))
    assert abs(pdf.mass.sum() - 1.0) < 1e-12
    assert np.all(pdf.mass >= 0)
    assert len(pdf.bin_edges) == len(pdf.mass) + 1


@given(hnp.arrays(np.float64, st.integers(1, 100), elements=finite_floats))
def test_balance_penalty_bounds_and_sign_flip(scores):
    penalty = class_balance_penalty(scores)
    assert 0.0 <= penalty <= 0.5
    if not np.any(scores == 0):  # score 0 maps to +1, so flipping it is asymmetric
        assert abs(class_balance_penalty(-scores) - penalty) < 1e-12


@given(st.floats(min_value=-0.95, max_value=0.95, allow_nan=False))
def test_yule_walker_recovers_any_stable_ar1(phi):
    r = phi ** np.arange(2) / (1 - phi ** 2)
    (params,), _ = yule_walker(r[None])
    assert abs(params[0] + phi) < 1e-9
    assert abs(params[1] - 1.0) < 1e-9


def assert_rows_match_oracle(params, codes, fits):
    """Each row's parameters and failure code against its oracle call: the
    same bits, or the failure code naming the error the oracle raises."""
    assert len(params) == len(codes) == len(fits)
    for row, code, fit in zip(params, codes, fits):
        try:
            want = fit()
        except ValueError as exc:
            assert AR_FAILURES[code] == str(exc)
            assert np.isnan(row).all()
        else:
            assert code == 0 and np.array_equal(row, want)


@given(st.integers(1, 8),
       st.lists(st.sampled_from(["noise", "walk", "zero", "constant"]), min_size=1, max_size=12),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_ar_fits_bitwise_equal_to_each_series_alone(p, kinds, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(p + 1, 400))
    x = np.empty((len(kinds), n))
    for row, kind in zip(x, kinds):
        scale = 10.0 ** rng.uniform(-6, 6)
        row[:] = {"noise": lambda: scale * rng.normal(size=n),
                  "walk": lambda: scale * np.cumsum(rng.normal(size=n)),  # ill-conditioned
                  "zero": lambda: 0.0,
                  "constant": lambda: scale * rng.normal()}[kind]()
    params, codes = ar_fits(x, p)
    assert params.shape == (len(x), p + 1)
    assert_rows_match_oracle(params, codes, [lambda s=s: fit_ar(s, p) for s in x])


@given(st.integers(2, 8),
       st.lists(st.sampled_from(["random", "ones", "alternating", "zero", "negative"]),
                max_size=12),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_yule_walker_bitwise_equal_to_each_row_alone(p, kinds, seed):
    # a constant or alternating r(k) makes a rank-one Toeplitz system; one is
    # always appended, so the stacked solve raises and every row is solved
    # alone. LU multiplies by the reciprocal pivot, and s * (1 / s) == 1 only
    # for some s: the appended row's scale is a power of two, so that LU meets
    # an exact zero pivot
    rng = np.random.default_rng(seed)
    kinds = [*kinds, rng.choice(["ones", "alternating"])]
    r = np.empty((len(kinds), p + 1))
    for row, kind in zip(r, kinds):
        scale = 10.0 ** rng.uniform(-6, 6)
        row[:] = {"random": lambda: scale * np.r_[rng.uniform(1, 2), rng.uniform(-1, 1, p)],
                  "ones": lambda: scale,
                  "alternating": lambda: scale * (-1.0) ** np.arange(p + 1),
                  "zero": lambda: 0.0,
                  "negative": lambda: -scale * rng.uniform(size=p + 1)}[kind]()
    r[-1] = np.sign(r[-1]) * 2.0 ** np.round(np.log2(r[-1, 0]))
    params, codes = yule_walker(r)
    assert (codes == 2).any()
    assert_rows_match_oracle(params, codes, [lambda row=row: yule_walker_row(row, p) for row in r])


@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_csp_diagonalizes_both_classes(n_channels, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(8, n_channels, 60))  # trials 0-3 are class -1, 4-7 class +1
    unit, traces = trace_normalized(x @ x.transpose(0, 2, 1))
    filters, _ = csp_fits(unit, traces, [np.arange(4)], [np.arange(4, 8)], m=1)
    filters = filters[0]
    class_covs = (unit[:4].mean(axis=0), unit[4:].mean(axis=0))
    for cov in class_covs:
        projected = filters @ cov @ filters.T
        off = projected - np.diag(np.diag(projected))
        assert np.max(np.abs(off)) < 1e-8
    shares = sum(np.diag(filters @ cov @ filters.T) for cov in class_covs)
    assert np.max(np.abs(shares - 1.0)) < 1e-8


@given(st.integers(0, 2 ** 32 - 1), st.floats(min_value=0.1, max_value=100))
@settings(max_examples=25, deadline=None)
def test_lda_predictions_invariant_to_feature_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(-1.0, 1.0, size=(10, 3)),
                   rng.normal(1.0, 1.0, size=(10, 3))])
    w, b = fit_ldas(np.array([x, scale * x]), [np.arange(10)] * 2, [np.arange(10, 20)] * 2)
    base, scaled = (BaggingEnsemble(w[f:f + 1], b[f:f + 1], 0.5, 1, 0) for f in (0, 1))
    probes = rng.normal(size=(20, 3))
    assert np.array_equal(bagging_predict_rows(base, probes),
                          bagging_predict_rows(scaled, scale * probes))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_lda_hyperplane_rescaling_preserves_predictions(seed):
    rng = np.random.default_rng(seed)
    w, b = rng.normal(size=(1, 4)), rng.normal(size=1)
    probes = rng.normal(size=(20, 4))
    model, rescaled = (BaggingEnsemble(s * w, s * b, 0.5, 1, 0) for s in (1.0, 3.0))
    assert np.array_equal(bagging_predict_rows(model, probes),
                          bagging_predict_rows(rescaled, probes))
