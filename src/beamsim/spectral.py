"""Spectral and correlation estimators for field-trace ensembles.

The frequency grid is always the DFT grid of the trace (spacing
2 pi / duration); no windowing or tapering is applied, so the finite-record
periodogram ordinate at detuning w is

    u~(w) = (1/sqrt(T)) sum_j dt exp(i w t_j) alpha_j

and satisfies the discrete Parseval identity
sum_l |u~(w_l)|^2 dw/(2 pi) = (1/T) sum_j |alpha_j|^2 dt exactly.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import closing
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError
from .fieldgen import Ensemble, FieldTrace, _mode_grid, _whole_steps, lorentzian


# ---------------------------------------------------------------------------
# result containers

@dataclass(frozen=True)
class SpectrumEstimate:
    """Frequency-indexed photon flux per unit frequency (dimensionless)."""

    grid: np.ndarray         # detunings, rad/s, strictly increasing
    values: np.ndarray       # >= 0
    std_errors: np.ndarray   # >= 0
    ensemble_size: int

    def __post_init__(self):
        if np.any(np.diff(self.grid) <= 0):
            raise DomainError("grid must be strictly increasing")
        if np.any(self.values < 0) or np.any(self.std_errors < 0):
            raise DomainError("values and std_errors must be non-negative")


@dataclass(frozen=True)
class CorrelationEstimate:
    """Cross-mode correlations E[u~(k) u~*(k')] for a list of detuning pairs."""

    pairs: list          # [(k_detuning, kprime_detuning), ...]
    values: np.ndarray   # complex
    std_errors: np.ndarray   # complex: of the real and of the imaginary part
    ensemble_size: int


@dataclass(frozen=True)
class TestReport:
    """A test statistic and its p-value."""

    statistic: float
    p_value: float
    ensemble_size: int


@dataclass(frozen=True)
class StationarityReport:
    """Windowed-intensity stationarity diagnostic (two permutation tests).

    p_position tests homogeneity of the windowed mean intensity across window
    positions; p_independence tests whether window intensities within a trace
    behave like independent draws from the per-position ensembles (a pulsed /
    record-length-dependent field fails this even when its ensemble is
    position-homogeneous).
    """

    position_statistic: float
    p_position: float
    independence_statistic: float
    p_independence: float
    n_traces: int
    n_windows: int

    @property
    def p_value(self) -> float:
        return min(self.p_position, self.p_independence)


# ---------------------------------------------------------------------------
# helpers

def _fft_bin(dt: float, n: int, detuning: float) -> int:
    """Unshifted DFT bin index for an on-grid detuning."""
    if not math.isfinite(detuning):
        raise DomainError(f"detuning must be finite, got {detuning!r}")
    l = _whole_steps(detuning, math.tau / (n * dt), f"detuning {detuning:g} is not on the trace grid")
    if not (-(n // 2) <= l <= (n - 1) // 2):   # in float, before the cast to int
        raise DomainError(f"detuning {detuning:g} beyond the Nyquist band")
    return int(l) % n


def _amplitude_transform(samples: np.ndarray, dt: float, bins=slice(None)) -> np.ndarray:
    """u~(w_l) of each trace (the last axis) at DFT bins `bins` (all by
    default) in numpy fft ordering; |u~|^2 is the periodogram."""
    u = np.fft.ifft(samples, axis=-1)[..., bins]
    u *= math.sqrt(samples.shape[-1] * dt)   # in place: one n-sample temporary fewer
    return u


def _power(samples: np.ndarray, dt: float) -> np.ndarray:
    """Single-shot periodogram |u~|^2 of each trace at every DFT bin, in
    numpy fft ordering."""
    u = _amplitude_transform(samples, dt)
    return u.real**2 + u.imag**2


def _check_same_grid(trace: FieldTrace, dt: float, n: int) -> None:
    if trace.n_samples != n or abs(trace.dt - dt) > 1e-12 * dt:
        raise DomainError("ensemble traces must share one time grid")


# Rows are computed on one shared thread pool of one worker per usable core:
# the normal draws, lfilter, the FFTs and large ufuncs release the GIL.
# Results are consumed in trace order, so no output depends on the count.
# Without sched_getaffinity (macOS, Windows) every core counts as usable.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# A block of traces holds at most this many bytes of complex128 samples.
# Blocks of 6 to 13 traces of 5000 samples reduced about equally fast on 2
# cores.  Smaller blocks add less to the peak memory: glibc raises its mmap
# and trim thresholds to the largest mapped block freed, and then keeps up
# to twice that much freed memory in the process.
_BLOCK_BYTES = 512 << 10


def _chunking(n: int) -> tuple[int, int]:
    """The one chunk rule for a generated ensemble of traces of n samples:
    (traces per block, blocks in flight).

    A block holds as many traces as fit in _BLOCK_BYTES, at least one; its
    size never depends on the worker count, and no output depends on it.
    Two blocks per worker are in flight, within 16 blocks' bytes (8 MiB).
    Fewer than two blocks in 8 MiB (traces over 8 blocks' bytes, such as
    10^6-sample traces) mean a serial scan: one in flight.
    """
    per_block = max(1, _BLOCK_BYTES // (16 * n))
    in_flight = min(2 * _WORKERS, 16 * _BLOCK_BYTES // (16 * n * per_block))
    return per_block, in_flight if in_flight >= 2 else 1


@functools.cache
def _executor(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="beamsim-scan")


def _ordered_map(fn: Callable, items: Iterable, window: int | None = None) -> Iterator:
    """fn(item) for each item, in order, with up to `window` calls in flight
    on the shared pool, one per worker by default (serially for a window
    below 2).

    Items are pulled ahead of the results: pulling one must not fail but
    for want of memory.  An exception raised by fn surfaces where the serial
    loop would raise it.  Once the generator finishes or is closed, no call
    it submitted is still running.
    """
    if window is None:
        window = _WORKERS
    if window < 2:
        yield from map(fn, items)
        return
    pool = _executor(_WORKERS)
    pending: deque[Future] = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


def _scan(traces: Iterable[FieldTrace], row: Callable[[np.ndarray, float], np.ndarray],
          least: int = 1, fold: bool = False) -> tuple[float, int, np.ndarray]:
    """One pass over an ensemble: the reduction core of every estimator.

    The first trace fixes the time grid (dt, n); every later trace must share
    it.  `row(block, dt)` turns a (k, n) block of traces into a (k, width)
    block of rows of numbers, working out its grid constants from dt and n.
    It runs on the first trace in the calling thread, so a grid error (an
    off-grid or too long lag, say) raises there, before any block is
    submitted to the pool.  Rows are stacked into a (traces, width) matrix,
    or with `fold` summed into a (3, width) matrix, so that wide rows (a
    whole periodogram) are never kept per trace: sums, and sums and sums of
    squares of differences from the first row (a variance without
    cancellation).  Returns (dt, number of traces, matrix).

    Later traces go through `row` in one of two ways.  An `Ensemble` is
    generated on the shared pool in blocks of consecutive traces, one task
    per block, sized and kept in flight by `_chunking`.  Traces from any
    other iterable are pulled (made or read), checked and reduced one by one
    in the calling thread, so an error at a trace stops the pull there.
    Rows are stacked or folded here, one by one in trace order, so every
    output is bit-identical for any worker count or block size, and an
    error surfaces at the trace where a serial scan raises it.
    """
    traces = iter(traces)
    first = next(traces, None)
    if first is None:
        raise DomainError("empty ensemble")
    dt, n = first.dt, first.n_samples
    first_rows = row(first.samples[np.newaxis], dt)
    del first   # a trace can be large: do not hold it through the scan
    if isinstance(traces, Ensemble):
        per_block, window = _chunking(n)
        rest, make_block = traces.take_rest(), traces.make_block
        items = (rest[i:i + per_block] for i in range(0, len(rest), per_block))
        def fn(indices: range) -> np.ndarray:
            return row(make_block(indices), dt)
    else:
        def fn(trace: FieldTrace) -> np.ndarray:
            _check_same_grid(trace, dt, n)
            return row(trace.samples[np.newaxis], dt)   # a one-trace block is a view
        items, window = traces, 1
    rows: list | np.ndarray = []
    count = 0
    with closing(_ordered_map(fn, items, window)) as later:
        for block_rows in chain([first_rows], later):
            if not fold:
                rows.append(block_rows)
            else:
                if count == 0:
                    rows, shift = np.zeros((3, block_rows.shape[1])), block_rows[0].copy()
                with np.errstate(over="ignore", invalid="ignore"):   # an overflow gives inf or NaN
                    for values in block_rows:
                        rows[0] += values
                        d = values - shift
                        rows[1] += d
                        rows[2] += d * d
            count += len(block_rows)
    if count < least:
        raise DomainError(f"need at least {least} traces")
    return dt, count, rows if fold else np.concatenate(rows)


def spectrum(traces: Iterable[FieldTrace]) -> SpectrumEstimate:
    """Ensemble-averaged periodogram with per-bin Monte Carlo standard errors."""
    dt, count, (total, shifted, shifted_sq) = _scan(traces, _power, least=2, fold=True)
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow gives inf or NaN
        var = np.maximum(shifted_sq - shifted**2 / count, 0.0) / (count - 1)
    grid = _mode_grid(dt, total.size)
    order = np.argsort(grid)   # the bins come in numpy fft ordering
    return SpectrumEstimate(grid=grid[order], values=(total / count)[order],
                            std_errors=np.sqrt(var / count)[order], ensemble_size=count)


def _pair_products(pairs: Sequence[tuple[float, float]]):
    """Row of u~(k) u~*(k') of each trace for each detuning pair: the one
    rule that turns DFT bins into per-trace numbers.  A diagonal pair (d, d)
    holds the bin's power |u~(d)|^2 in its real part, bit for bit
    (re re - im (-im) is re^2 + im^2), and an exact zero imaginary part."""
    def row(block, dt):
        bins = [_fft_bin(dt, block.shape[1], k) for pair in pairs for k in pair]
        u = _amplitude_transform(block, dt, bins)
        a, b = u[:, 0::2], np.conj(u[:, 1::2])
        # in real arithmetic, rounded as the product of two complex
        # scalars is: numpy's complex array product may fuse multiply-adds
        products = np.empty(a.shape, np.complex128)
        products.real = a.real * b.real - a.imag * b.imag
        products.imag = a.real * b.imag + a.imag * b.real
        return products
    return row


def periodogram_bin_values(traces: Iterable[FieldTrace], detuning: float) -> np.ndarray:
    """Single-shot periodogram value at one detuning bin, per trace."""
    return _scan(traces, _pair_products([(detuning, detuning)]))[2][:, 0].real.copy()


def _check_law_traces(count: int) -> None:
    """The periodogram-law test takes one value per trace, of 1000 at least."""
    if count < 1000:
        raise DomainError(f"need >= 1000 traces, got {count}")


def periodogram_distribution_test(values) -> TestReport:
    """Kolmogorov-Smirnov test of single-shot periodogram values in one bin
    (see periodogram_bin_values) against an exponential law with mean equal
    to the ensemble average."""
    from scipy import stats

    values = np.asarray(values, dtype=float)
    _check_law_traces(values.size)
    if not (np.all(np.isfinite(values)) and np.all(values >= 0)):
        raise DomainError("periodogram values must be finite and >= 0")
    mean = float(values.mean())
    if mean <= 0:
        raise DomainError("degenerate (zero-power) bin")
    result = stats.kstest(values, "expon", args=(0.0, mean))
    return TestReport(float(result.statistic), float(result.pvalue), values.size)


def cross_mode_correlation(traces: Iterable[FieldTrace],
                           pairs: Sequence[tuple[float, float]]) -> CorrelationEstimate:
    """Ensemble mean of u~(k) u~*(k') for each detuning pair, with complex
    standard errors: sigma_re / sqrt(N) + i sigma_im / sqrt(N)."""
    if not pairs:
        raise DomainError("need at least one detuning pair")
    _, count, products = _scan(traces, _pair_products(pairs), least=2)
    root = math.sqrt(count)
    values = np.array([np.mean(p) for p in products.T])
    std_errors = np.array([complex(np.std(p.real, ddof=1) / root, np.std(p.imag, ddof=1) / root)
                           for p in products.T])
    return CorrelationEstimate(pairs=list(pairs), values=values,
                               std_errors=std_errors, ensemble_size=count)


def predicted_cross_mode_correlation(nu: float, gamma: float, duration: float,
                                     k_detuning: float, kprime_detuning: float) -> complex:
    """Leading-order finite-record prediction for E[u~(k) u~*(k')] of a
    non-periodic thermal or phase-diffusing laser field:

        delta_{k,k'} nu f(k) - nu (2/(T Gamma)) f(k) f(k') [1 - k' k (2/Gamma)^2]

    with detunings measured from the carrier and f the unit-peak Lorentzian.
    """
    f = lorentzian(k_detuning, gamma)
    fp = lorentzian(kprime_detuning, gamma)
    diag = nu * f if k_detuning == kprime_detuning else 0.0
    correction = nu * (2.0 / (duration * gamma)) * f * fp * (
        1.0 - kprime_detuning * k_detuning * (2.0 / gamma) ** 2
    )
    return complex(diag - correction)


def _window_means(n_windows: int):
    if n_windows < 4:
        raise DomainError("need n_windows >= 4")

    def row(block, dt):
        if block.shape[1] < n_windows:
            raise DomainError("trace shorter than n_windows samples")
        w = block.shape[1] // n_windows
        intensity = block.real**2 + block.imag**2
        return intensity[:, :w * n_windows].reshape(len(block), n_windows, w).mean(axis=2)
    return row


def windowed_mean_intensities(traces: Iterable[FieldTrace], n_windows: int) -> np.ndarray:
    """Matrix W[r, w]: mean photon flux of trace r in window w (equal windows,
    trailing remainder dropped)."""
    return _scan(traces, _window_means(n_windows))[2]


def windowed_means_and_carrier_powers(traces: Iterable[FieldTrace],
                                      n_windows: int) -> tuple[np.ndarray, np.ndarray]:
    """windowed_mean_intensities(traces, n_windows) and
    periodogram_bin_values(traces, 0.0) from a single pass over the ensemble."""
    windows, carrier = _window_means(n_windows), _pair_products([(0.0, 0.0)])
    rows = _scan(traces, lambda block, dt: np.concatenate(
        [windows(block, dt), carrier(block, dt).real], axis=1))[2]
    return np.ascontiguousarray(rows[:, :-1]), rows[:, -1].copy()


# W whose spread is at most this fraction of its largest entry is constant
# up to rounding: a laser's window means differ only in their last bits
_ROUNDING_SPREAD = 1e-12


def _anova_f(W: np.ndarray) -> float:
    """One-way F statistic with window positions as groups, traces as replicates."""
    r, k = W.shape
    col_means = W.mean(axis=0)
    grand = W.mean()
    ss_between = r * np.sum((col_means - grand) ** 2)
    ss_within = np.sum((W - col_means) ** 2)
    if ss_within <= 0:   # every trace the same: a deterministic shape, if not flat
        return math.inf if ss_between > 0 else 0.0
    return (ss_between / (k - 1)) / (ss_within / (k * (r - 1)))


def stationarity_test(W, n_permutations: int = 4999,
                      permutation_seed: int = 20210607) -> StationarityReport:
    """Windowed-intensity stationarity diagnostic on the (traces, windows)
    matrix W of windowed_mean_intensities.

    Part 1 (position homogeneity): one-way ANOVA F across window positions,
    null distribution by permuting window labels within each trace.
    Part 2 (window independence): variance across traces of the per-trace mean
    intensity, null distribution by shuffling each window column across traces
    (two-sided).  A mixture of pulses has a deterministic per-trace total flux
    and lands in the far left tail of part 2.
    A W constant up to rounding has p = 1 in both parts without permuting;
    column sums whose squares overflow, or underflow to 0, are a DomainError.
    """
    if n_permutations < 1:
        raise DomainError(f"need n_permutations >= 1, got {n_permutations!r}")
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] < 4:
        raise DomainError("W must be a (traces, windows) matrix with >= 4 windows")
    if not np.all(np.isfinite(W)):
        raise DomainError("W must be finite")
    r, k = W.shape
    if r < 8:
        raise DomainError("need at least 8 traces")

    if np.ptp(W) <= _ROUNDING_SPREAD * np.max(np.abs(W)):
        # constant intensity everywhere (ideal laser): no evidence against stationarity
        return StationarityReport(0.0, 1.0, 0.0, 1.0, r, k)

    # Within-row permutations keep the grand mean and the total sum of
    # squares, so F rises monotonically with the sum of squared column sums;
    # F = 0 (no spread within or between positions) counts every permutation.
    col_sums = W.sum(axis=0)
    with np.errstate(over="ignore"):   # an overflow is rejected below
        s_obs = col_sums @ col_sums
        # no permutation's squared column sums exceed the squared total
        s_top = col_sums.sum() ** 2
    if not (0.0 < s_obs < math.inf and s_top < math.inf):
        raise DomainError(f"window intensities up to {np.max(W):g} leave the float range "
                          f"when squared: the squared column sums are {s_obs:g}")
    rng = np.random.default_rng(permutation_seed)

    f_obs = _anova_f(W)
    d_obs = float(np.var(W.mean(axis=1), ddof=1))

    # Shuffling a row of W.T is the same draw as shuffling a column of W.
    WT = np.ascontiguousarray(W.T)
    perm_rows = np.empty_like(W)
    perm_cols = np.empty_like(WT)
    f_ge = n_permutations if f_obs == 0.0 else 0
    d_ge = 0
    d_le = 0
    for _ in range(n_permutations):
        # permute window labels within each trace
        rng.permuted(W, axis=1, out=perm_rows)
        if f_obs != 0.0:
            col_sums = perm_rows.sum(axis=0)
            if col_sums @ col_sums >= s_obs:
                f_ge += 1
        # shuffle each window column across traces
        rng.permuted(WT, axis=1, out=perm_cols)
        d_star = float(np.var(perm_cols.mean(axis=0), ddof=1))
        if d_star >= d_obs:
            d_ge += 1
        if d_star <= d_obs:
            d_le += 1
    p_position = (1 + f_ge) / (n_permutations + 1)
    p_independence = min(1.0, 2.0 * min((1 + d_ge), (1 + d_le)) / (n_permutations + 1))
    return StationarityReport(f_obs, p_position, d_obs, p_independence, r, k)


def estimate_fwhm(est: SpectrumEstimate, smooth_bins: int = 1) -> float:
    """Full width at half maximum of a single-peaked spectrum estimate,
    with linear interpolation of the half-max crossings.

    smooth_bins > 1 applies a centered boxcar of that (odd) width first;
    for noisy ensemble estimates this suppresses the upward bias of the
    raw peak maximum at the cost of a slight smoothing broadening, so keep
    the boxcar much narrower than the line.
    """
    if smooth_bins < 1 or smooth_bins % 2 == 0:
        raise DomainError("smooth_bins must be a positive odd integer")
    v = est.values
    g = est.grid
    if smooth_bins > 1:
        if smooth_bins >= v.size:
            raise DomainError("smooth_bins must be smaller than the grid")
        kernel = np.full(smooth_bins, 1.0 / smooth_bins)
        v = np.convolve(v, kernel, mode="same")
    ipk = int(np.argmax(v))
    half = v[ipk] / 2.0
    # the nearest below-half samples on each side of the peak
    below = np.flatnonzero(v < half)
    left, right = below[below < ipk], below[below > ipk]
    if left.size == 0 or right.size == 0:
        raise DomainError("half-max crossings not found; spectrum not single-peaked")

    def crossing(i: int) -> float:
        """Where the line through samples i and i + 1 crosses half."""
        return g[i] + (half - v[i]) / (v[i + 1] - v[i]) * (g[i + 1] - g[i])
    return float(crossing(right[0] - 1) - crossing(left[-1]))
