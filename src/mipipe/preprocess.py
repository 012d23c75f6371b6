"""Temporal filtering, spatial referencing, epoch cropping and baseline removal.

All filters are Butterworth, applied forward-backward for zero phase with
Gustafsson's initial conditions, so interior samples are free of edge
transients. The design is a numpy port of scipy's `signal.butter`, with its
bits; the filter takes `signal.filtfilt(method="gust")`'s steps, each pass
in scipy's own compiled loop, `signal._sigtools._linear_filter`, loaded by
`_scipy_module` without scipy.signal's package import. Gustafsson's
least-squares matrix depends only on the design and the trial length, so it
is factored once, and each row comes out bitwise as it would alone.
"""

from __future__ import annotations

import functools
import importlib.machinery as machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data_model import Trial
from .errors import ConfigError, failure

BANDPASS_ORDER = 4  # transfer-function order; doubled by forward-backward pass
LOWPASS_ORDER = 4
# values (trials x channels x samples) that `preprocess_trials` puts through a
# chain at once: a chain's temporaries come to about six blocks (some 25 MB)
BLOCK_VALUES = 1 << 19


def _scipy_module(name: str):
    """scipy's compiled module `name` (e.g. "scipy.signal._sigtools"): the
    one in sys.modules, else loaded from its file and registered under its
    name, without running the `__init__` of scipy or of its subpackage
    (scipy.signal's costs a process about a second)."""
    if name not in sys.modules:
        root = machinery.PathFinder.find_spec("scipy").submodule_search_locations[0]
        folder = os.path.join(root, *name.split(".")[1:-1])
        loaders = (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)
        spec = machinery.FileFinder(folder, loaders).find_spec(name)
        if spec is None:
            from importlib.metadata import version
            raise ImportError(f"no compiled module {name} in scipy {version('scipy')}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def _settle_samples(a: np.ndarray, tol: float = 1e-13) -> int:
    """Samples until the slowest pole's transient decays below tol."""
    poles = np.roots(a)
    r_max = float(np.max(np.abs(poles))) if len(poles) else 0.0
    if r_max <= 0 or r_max >= 1:
        return 3 * len(a)
    return int(np.ceil(np.log(tol) / np.log(r_max)))


class FilterDesign(NamedTuple):
    """Butterworth coefficients, read-only, and the settle length of the
    slowest pole (`_settle_samples`)."""

    b: np.ndarray
    a: np.ndarray
    settle: int


def _poly(roots: np.ndarray) -> np.ndarray:
    """scipy.signal's `poly`: the monic polynomial with these roots, one
    convolution per root, made real when the roots pair up as conjugates."""
    coeffs = np.ones((1,), dtype=roots.dtype)
    one = np.ones_like(roots[0])
    for root in roots:
        coeffs = np.convolve(coeffs, np.stack((one, -root)), mode="full")
    if np.iscomplexobj(coeffs):
        roots = np.asarray(roots, dtype=np.complex128)
        if np.all(np.sort(np.imag(roots)) == np.sort(np.imag(np.conj(roots)))):
            coeffs = np.asarray(np.real(coeffs), copy=True)
    return coeffs


def _butter_ba(order: int, wn, btype: str) -> tuple[np.ndarray, np.ndarray]:
    """`signal.butter(order, wn, btype)` for "lowpass" and "bandpass", in
    scipy's operation order: the analog prototype (`buttap`), the
    frequency transform (`lp2lp_zpk` or `lp2bp_zpk`), `bilinear_zpk`, then
    `zpk2tf`."""
    wn = np.asarray(wn, dtype=np.float64)
    z = np.asarray([], dtype=np.float64)
    p = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2, dtype=np.float64)
                / (2 * order))
    k = 1.0
    fs = 2.0
    warped = 2 * fs * np.tan(np.pi * wn / fs)
    if btype == "lowpass":
        wo = float(warped)
        degree = len(p) - len(z)
        z, p, k = wo * z, wo * p, k * wo**degree
    else:  # bandpass
        bw = float(warped[1] - warped[0])
        wo = float(np.sqrt(warped[0] * warped[1]))
        degree = len(p) - len(z)
        z_lp = (z * bw / 2).astype(np.complex128)
        p_lp = (p * bw / 2).astype(np.complex128)
        z = np.concatenate((z_lp + np.sqrt(z_lp**2 - wo**2),
                            z_lp - np.sqrt(z_lp**2 - wo**2), np.zeros(degree)))
        p = np.concatenate((p_lp + np.sqrt(p_lp**2 - wo**2),
                            p_lp - np.sqrt(p_lp**2 - wo**2)))
        k = k * bw**degree
    degree = len(p) - len(z)
    fs2 = 2.0 * fs
    k = k * np.real(np.prod(fs2 - z) / np.prod(fs2 - p))
    z = np.concatenate(((fs2 + z) / (fs2 - z), -np.ones(degree)))
    p = (fs2 + p) / (fs2 - p)
    k = np.atleast_1d(np.asarray(k, dtype=np.result_type(np.real(z), np.real(p), k)))
    return np.multiply(k, _poly(z)), np.atleast_1d(_poly(p))


@functools.lru_cache(maxsize=256)
def _butter(btype: str, order: int, fs_hz: float, edges_hz: tuple[float, ...]) -> FilterDesign:
    """One memoised design: every trial of a chain, and every search
    candidate of a band, uses the same few filters. The arrays are shared
    by all callers, so they are made read-only."""
    nyq = fs_hz / 2.0
    wn = [e / nyq for e in edges_hz] if len(edges_hz) > 1 else edges_hz[0] / nyq
    b, a = _butter_ba(order, wn, btype)
    b.flags.writeable = False
    a.flags.writeable = False
    return FilterDesign(b, a, _settle_samples(a))


def _lfilter(b: np.ndarray, a: np.ndarray, x: np.ndarray, zi=None) -> np.ndarray:
    """`signal.lfilter(b, a, x, zi=zi)[0]` of a (rows, samples) array: scipy's
    direct form II transposed loop, which filters each row on its own, so
    batching rows changes no bit. `zi` is (rows, order)."""
    kernel = _scipy_module("scipy.signal._sigtools")._linear_filter
    return kernel(b, a, x, -1) if zi is None else kernel(b, a, x, -1, zi)[0]


@functools.lru_cache(maxsize=64)
def _gust_matrices(b: tuple, a: tuple, m: int, whole: bool):
    """Gustafsson's M and W (`signal._filtfilt_gust`) for m edge samples,
    over the whole signal when `whole`, with M's thin SVD U, 1/s and Vᵀ;
    read-only, shared by all callers. Singular values <= eps * s_max are
    dropped, the cut-off of scipy's `lstsq`."""
    order = len(a) - 1
    # Obs propagates an initial state to the output under zero input
    obs = np.zeros((m, order))
    obs[:, 0] = _lfilter(b, a, np.zeros((1, m)), np.eye(1, order))[0]
    for k in range(1, order):
        obs[k:, k] = obs[:-k, 0]
    obs_r = obs[::-1]
    s = _lfilter(b, a, obs_r.T).T
    s_r = s[::-1]
    if whole:
        big_m = np.hstack((s_r - obs, obs_r - s))
        w = np.hstack((s_r, obs_r))
    else:
        big_m = np.zeros((2 * m, 2 * order))
        big_m[:m, :order] = s_r - obs
        big_m[m:, order:] = obs_r - s
        w = np.zeros((2 * m, 2 * order))
        w[:m, :order] = s_r
        w[m:, order:] = obs_r
    if not np.isfinite(big_m).all():
        raise failure(3)  # array must not contain infs or NaNs
    u, sv, vt = np.linalg.svd(big_m, full_matrices=False)
    kept = sv > np.finfo(np.float64).eps * sv[0]
    matrices = big_m, w, u[:, kept], 1.0 / sv[kept], vt[kept]
    for matrix in matrices:
        matrix.flags.writeable = False
    return matrices


def _gust_block(design: FilterDesign, rows: np.ndarray, m: int) -> np.ndarray:
    """Gustafsson's forward-backward filter of each row of (rows, samples)."""
    b, a, _ = design
    r, n = rows.shape
    # before the passes: a first call's cached arrays then sit below the
    # block's temporaries on the heap, which can shrink once they are freed
    _, w, u, inv_s, vt = _gust_matrices(tuple(b), tuple(a), m, m == n)
    # forward passes of x and of x reversed as one call, then the second
    # passes of both: the top half is y_fb reversed, the bottom half y_bf
    buf = _lfilter(b, a, np.concatenate((rows, rows[:, ::-1])))
    buf = _lfilter(b, a, buf[:, ::-1])
    y_fb, y_bf = buf[:r, ::-1].copy(), buf[r:]
    if m == n:
        delta = y_bf - y_fb
    else:
        delta = np.concatenate((y_bf[:, :m] - y_fb[:, :m], y_bf[:, -m:] - y_fb[:, -m:]),
                               axis=-1)
    if not np.isfinite(delta).all():
        raise failure(3)  # array must not contain infs or NaNs
    # each row's least-squares initial conditions, M⁺ delta through the
    # cached factors, and their W product, into delta's buffer: a stacked
    # product per row, so a row's bits do not depend on the rows beside it
    rhs = delta[:, None]
    np.matmul(((rhs @ u) * inv_s) @ vt, w.T, out=rhs)
    if m == n:
        y_fb += delta
    else:
        y_fb[:, :m] += delta[:, :m]
        y_fb[:, -m:] += delta[:, m:]
    return y_fb


def _zero_phase(design: FilterDesign, x: np.ndarray) -> np.ndarray:
    """Gustafsson's zero-phase filter (`signal.filtfilt(b, a, row,
    method="gust", irlen=...)`'s steps) of every row of `x` along its last
    axis, as a C-contiguous array. Each row comes out bitwise as it would
    alone. All of `x` is filtered at once: `preprocess_trials` sizes the
    blocks.
    """
    b, a, settle = design
    n = x.shape[-1]
    min_len = 3 * max(len(a), len(b))
    if n <= min_len:
        raise ValueError(
            f"trial too short for zero-phase filtering: {n} samples, "
            f"need > {min_len}"
        )
    # Gustafsson edge handling: forward-backward equals backward-forward,
    # which keeps interior samples transient-free on short epochs
    irlen = min(settle, n - 1)
    m = n if n <= 2 * irlen else irlen
    return _gust_block(design, x.reshape(-1, n), m).reshape(x.shape)


def bandpass_ba(fs_hz: float, low_hz: float, high_hz: float) -> FilterDesign:
    """The (memoised) band-pass design for a band in Hz."""
    nyq = fs_hz / 2.0
    if not 0 < low_hz < high_hz < nyq:
        raise ValueError(
            f"invalid band ({low_hz}, {high_hz}) Hz for fs={fs_hz} Hz"
        )
    return _butter("bandpass", BANDPASS_ORDER // 2, fs_hz, (low_hz, high_hz))


def lowpass_ba(fs_hz: float, cutoff_hz: float) -> FilterDesign:
    """The (memoised) low-pass design for a cut-off in Hz."""
    if not 0 < cutoff_hz < fs_hz / 2.0:
        raise ValueError(f"invalid cutoff {cutoff_hz} Hz for fs={fs_hz} Hz")
    return _butter("lowpass", LOWPASS_ORDER, fs_hz, (cutoff_hz,))


def bandpass_array(x: np.ndarray, fs_hz: float, low_hz: float, high_hz: float) -> np.ndarray:
    """Zero-phase band-pass of an array along its last axis.

    Any leading shape is accepted, e.g. a batch of trials; each 2-D slab
    (one trial) comes out as it would alone.
    """
    design, x = bandpass_ba(fs_hz, low_hz, high_hz), np.asarray(x, float)
    # the band-pass has zero DC gain; removing the mean up front avoids
    # edge transients from large offsets
    return _zero_phase(design, x - x.mean(axis=-1, keepdims=True))


def lowpass_array(x: np.ndarray, fs_hz: float, cutoff_hz: float) -> np.ndarray:
    """Zero-phase low-pass of an array along its last axis."""
    return _zero_phase(lowpass_ba(fs_hz, cutoff_hz), np.asarray(x, float))


def bandpass_zero_phase(trial: Trial, fs_hz: float, low_hz: float, high_hz: float) -> Trial:
    return trial.with_data(bandpass_array(trial.data, fs_hz, low_hz, high_hz))


def _car(x: np.ndarray) -> np.ndarray:
    if x.shape[-2] < 2:
        raise ValueError("common average reference needs >= 2 channels")
    return x - x.mean(axis=-2, keepdims=True)


def _window_indices(n_samples: int, fs_hz: float, start_s: float, end_s: float):
    duration = n_samples / fs_hz
    if not (0 <= start_s < end_s <= duration + 0.5 / fs_hz):
        raise ValueError(
            f"window [{start_s}, {end_s}) s outside trial of {duration} s"
        )
    i0 = round(start_s * fs_hz)
    count = round((end_s - start_s) * fs_hz)
    if count < 1 or i0 + count > n_samples:
        raise ValueError(
            f"window [{start_s}, {end_s}) s maps to no valid samples"
        )
    return i0, i0 + count


def _crop(x: np.ndarray, fs_hz: float, window_s: tuple[float, float]) -> np.ndarray:
    i0, i1 = _window_indices(x.shape[-1], fs_hz, *window_s)
    return x[..., i0:i1]


def _baseline(x: np.ndarray, fs_hz: float, window_s: tuple[float, float]) -> np.ndarray:
    return x - _crop(x, fs_hz, window_s).mean(axis=-1, keepdims=True)


@dataclass(frozen=True)
class Chain:
    """One method's preprocessing, as data. `preprocess` runs the steps in
    this order and skips those left as None or False."""

    channels: tuple[int, ...] | None = None
    car: bool = False
    band_hz: tuple[float, float] | None = None
    lowpass_hz: float | None = None
    baseline_s: tuple[float, float] | None = None
    window_s: tuple[float, float] | None = None


def preprocess(x: np.ndarray, fs_hz: float, chain: Chain) -> np.ndarray:
    """Run `chain` over a (..., channels, samples) array: one trial, or a
    block of trials, each of which comes out as it would alone.

    The result is C-contiguous, as a TrialSet's rows are, so every later
    reduction sees the memory layout of a stored trial.
    """
    if chain.channels is not None:
        x = x[..., list(chain.channels), :]
    if chain.car:
        x = _car(x)
    if chain.band_hz is not None:
        x = bandpass_array(x, fs_hz, *chain.band_hz)
    if chain.lowpass_hz is not None:
        x = lowpass_array(x, fs_hz, chain.lowpass_hz)
    if chain.baseline_s is not None:
        x = _baseline(x, fs_hz, chain.baseline_s)
    if chain.window_s is not None:
        x = _crop(x, fs_hz, chain.window_s)
    return np.ascontiguousarray(x)


def preprocess_trials(trials: np.ndarray, fs_hz: float, chain: Chain,
                      reduce=None) -> np.ndarray:
    """Each trial of a (n_trials, n_channels, n_samples) array through the
    chain, written into one preallocated array with one entry per trial.
    Trials go through the chain in blocks of about BLOCK_VALUES values, so
    only one block's temporaries are alive at once. `reduce`, when given,
    maps each preprocessed block to one entry per trial of it."""
    n = len(trials)
    if not n:
        raise ValueError("no trials to preprocess")
    step = max(1, BLOCK_VALUES // trials[0].size)
    out = None
    for i0 in range(0, n, step):
        block = preprocess(trials[i0:i0 + step], fs_hz, chain)
        if reduce is not None:
            block = reduce(block)
        if out is None:
            out = np.empty((n,) + block.shape[1:])
        out[i0:i0 + len(block)] = block
    return out


@dataclass(frozen=True)
class PreprocessConfig:
    """The CSP chain's band and window; the AR chain crops to the same
    window."""

    band_hz: tuple[float, float] | None = None
    window_s: tuple[float, float] | None = None

    def __post_init__(self):
        for name in ("band_hz", "window_s"):
            pair = getattr(self, name)
            if pair is not None and not pair[0] < pair[1]:
                raise ConfigError(f"preprocess.{name} must be increasing, got {pair}")

