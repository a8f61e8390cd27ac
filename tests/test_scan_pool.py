"""The pooled ensemble scan: the same numbers for any worker count and any
block size, errors where the serial scan raises them, and no task left
behind."""

import math
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from beamsim import fieldgen, photonics, spectral
from beamsim.errors import DomainError
from beamsim.fieldgen import (
    FAMILIES,
    BeamModelSpec,
    Ensemble,
    generate_ensemble,
    generate_trace,
)
from beamsim.photonics import FilterSpec, apply_filter, filtered_laser_sweep, g2, intensity_samples
from beamsim.spectral import (
    cross_mode_correlation,
    spectrum,
    windowed_mean_intensities,
    windowed_means_and_carrier_powers,
)
from beamsim.traceio import read_trace, write_trace

THERMAL = BeamModelSpec(family="thermal", nu=100.0, gamma=1.0)
JITTERED = BeamModelSpec(family="jittered_laser", nu=100.0, gamma=1.0,
                         jitter_band=5.0, jitter_corr_time=1.5)
DT, N, TRACES, SEED = 0.01, 2000, 12, 7
STEP = 2.0 * math.pi / (N * DT)   # DFT grid spacing


def estimates(traces_of):
    """Every pooled estimator's output; `traces_of()` makes a fresh ensemble."""
    sweep = filtered_laser_sweep(JITTERED, [100.0, 1.0], DT, 2 * N, SEED, TRACES)
    spec = spectrum(traces_of())
    corr = cross_mode_correlation(traces_of(), [(0.0, 0.0), (STEP, STEP), (0.0, STEP)])
    g = g2(traces_of(), [0.0, 0.1, 0.5], burn_in=1.0)
    windows, carrier = windowed_means_and_carrier_powers(traces_of(), 8)
    return [spec.values, spec.std_errors, corr.values, corr.std_errors,
            g.values, g.std_errors, windows, carrier,
            [(r.g2_zero, r.std_error) for r in sweep]]


def assert_bitwise_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(np.asarray(x), np.asarray(y), strict=True)


def block_bytes(traces, n=N):
    """A block size of `traces` traces of n samples."""
    return traces * 16 * n


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    """Split the small ensembles of these tests into several blocks."""
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", block_bytes(3))


@pytest.fixture
def fast_switching():
    """Switch threads often, so that an unordered fold would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture(scope="module")
def serial():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_BLOCK_BYTES", 0)   # serial scans, one trace per block
        mp.setattr(spectral, "_WORKERS", 1)       # serial sweep filters
        return estimates(lambda: generate_ensemble(THERMAL, DT, N, SEED, TRACES))


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("source", ["ensemble", "list"])
def test_bit_identical_for_any_worker_count(serial, monkeypatch, fast_switching,
                                             workers, source):
    monkeypatch.setattr(spectral, "_WORKERS", workers)
    if source == "ensemble":
        pooled = estimates(lambda: generate_ensemble(THERMAL, DT, N, SEED, TRACES))
    else:
        traces = list(generate_ensemble(THERMAL, DT, N, SEED, TRACES))
        pooled = estimates(lambda: iter(traces))
    assert_bitwise_equal(pooled, serial)


@pytest.mark.parametrize("block_traces", [1, 5, 13])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_bit_identical_for_any_block_size(serial, monkeypatch, fast_switching,
                                          workers, block_traces):
    monkeypatch.setattr(spectral, "_WORKERS", workers)
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", block_bytes(block_traces))
    pooled = estimates(lambda: generate_ensemble(THERMAL, DT, N, SEED, TRACES))
    assert_bitwise_equal(pooled, serial)


def family_estimates(family, n, start_index):
    """Every block-row estimator on 17 traces of `family`, from trace start_index on."""
    jitter = {"jitter_band": 5.0, "jitter_corr_time": 1.5} if family == "jittered_laser" else {}
    model = BeamModelSpec(family=family, nu=100.0, gamma=1.0, **jitter)

    def traces():
        return Ensemble(model, DT, n, SEED, range(start_index, start_index + 17))

    step = 2.0 * math.pi / (n * DT)
    spec = spectrum(traces())
    corr = cross_mode_correlation(traces(), [(0.0, 0.0), (step, step), (-step, 2 * step)])
    g = g2(traces(), [0.0, 0.1, 0.5], burn_in=1.0)
    windows, carrier = windowed_means_and_carrier_powers(traces(), 8)
    samples = intensity_samples(traces(), spacing=0.3, burn_in=1.0)
    return [spec.values, spec.std_errors, corr.values, corr.std_errors,
            g.values, g.std_errors, windows, carrier, samples]


@pytest.mark.parametrize("family, n", [(f, N + 1 if f in ("kspace_product", "periodic_thermal")
                                         else N) for f in FAMILIES])
def test_every_family_bit_identical_in_blocks(monkeypatch, family, n):
    """Blocks of 1, 3 and 13 traces (the 16 after the first trace fill
    neither 3 nor 13 evenly) at 1, 2 and 4 workers give the one-trace serial
    scan's numbers bit for bit."""
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", 0)
    expected = family_estimates(family, n, 5)
    for workers in (1, 2, 4):
        for block_traces in (1, 3, 13):
            monkeypatch.setattr(spectral, "_WORKERS", workers)
            monkeypatch.setattr(spectral, "_BLOCK_BYTES", block_bytes(block_traces, n))
            assert_bitwise_equal(family_estimates(family, n, 5), expected)


def no_pool(workers):
    raise AssertionError("the pool was used")


def test_traces_too_large_for_two_blocks_in_flight_run_serially(monkeypatch):
    monkeypatch.setattr(spectral, "_executor", no_pool)
    monkeypatch.setattr(spectral, "_WORKERS", 1)
    # a block of one trace, and 16 blocks' bytes hold just under two
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", (2 * 16 * N - 1) // 16)
    est = spectrum(generate_ensemble(THERMAL, DT, N, SEED, TRACES))
    assert est.ensemble_size == TRACES


@pytest.mark.parametrize("estimate, message", [
    (lambda traces: g2(traces, [N * DT]), "tau exceeds the analysable trace length"),
    (lambda traces: g2(traces, [0.0], burn_in=N * DT), "burn_in leaves no samples"),
    (lambda traces: windowed_mean_intensities(traces, N + 1), "trace shorter than n_windows"),
    (lambda traces: cross_mode_correlation(traces, [(STEP / 2, STEP / 2)]), "not on the trace grid"),
    (lambda traces: intensity_samples(traces, 1e-12), "below one dt step"),
], ids=["g2 tau", "g2 burn-in", "windows", "detuning", "spacing"])
def test_grid_errors_raise_at_the_first_trace_in_the_calling_thread(monkeypatch, estimate,
                                                                    message):
    """The first trace's row raises a grid error before any block is made or
    submitted to the pool."""
    made = []
    draw = fieldgen.trace_rng
    monkeypatch.setattr(fieldgen, "trace_rng", lambda *args: made.append(args[1]) or draw(*args))
    monkeypatch.setattr(spectral, "_WORKERS", 2)
    monkeypatch.setattr(spectral, "_executor", no_pool)
    with pytest.raises(DomainError, match=message):
        estimate(generate_ensemble(THERMAL, DT, N, SEED, TRACES))
    assert made == [0]


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_small_traces_pool_in_blocks_sized_by_bytes(monkeypatch, workers):
    """At the default block size, 99 traces after the first make blocks of
    16 traces of 2000 samples and one of 3, whatever the worker count."""
    monkeypatch.undo()
    pool = RecordingExecutor()
    monkeypatch.setattr(spectral, "_WORKERS", workers)
    monkeypatch.setattr(spectral, "_executor", lambda w: pool)
    try:
        est = spectrum(generate_ensemble(THERMAL, DT, N, SEED, 100))
        sizes = [f.result().shape[0] for f in pool.futures]
    finally:
        pool.shutdown()
    assert est.ensemble_size == 100
    assert sizes == [16] * 6 + [3]


@pytest.mark.parametrize("n", [N, 8192])
@pytest.mark.parametrize("source", ["list iterator", "generator", "read from files"])
def test_pulled_traces_never_reach_the_pool(monkeypatch, tmp_path, source, n):
    """Traces pulled from any iterable but an Ensemble, made or read from
    files (as `--in` reads them), are scanned in the calling thread, at any
    size, and give the numbers of the same traces generated in blocks."""
    traces = list(generate_ensemble(THERMAL, DT, n, SEED, 20))
    monkeypatch.setattr(spectral, "_WORKERS", 2)
    expected = spectrum(generate_ensemble(THERMAL, DT, n, SEED, 20))
    monkeypatch.setattr(spectral, "_executor", no_pool)
    if source == "list iterator":
        pulled = iter(traces)
    elif source == "generator":
        pulled = (generate_trace(THERMAL, DT, n, SEED, i) for i in range(20))
    else:
        paths = [tmp_path / f"trace_{t.trace_index:05d}.ftrc" for t in traces]
        for trace, path in zip(traces, paths):
            write_trace(trace, path)
        pulled = (read_trace(path) for path in paths)
    est = spectrum(pulled)
    assert est.ensemble_size == 20
    assert_bitwise_equal([est.values, est.std_errors], [expected.values, expected.std_errors])


@pytest.mark.parametrize("k", [1, 5])
def test_mismatched_grid_stops_the_pull_at_that_trace(monkeypatch, k):
    """No trace after a mismatched trace k is made."""
    made = []

    def traces():
        for i in range(TRACES):
            made.append(i)
            yield generate_trace(THERMAL, DT, N + (i == k), SEED, i)

    monkeypatch.setattr(spectral, "_WORKERS", 2)
    with pytest.raises(DomainError, match="ensemble traces must share one time grid"):
        spectrum(traces())
    assert made == list(range(k + 1))


class RecordingExecutor(ThreadPoolExecutor):
    def __init__(self, threads=2):
        super().__init__(max_workers=threads)
        self.futures = []
        self.submitters = []

    def submit(self, fn, *args):
        self.submitters.append(threading.current_thread())
        future = super().submit(fn, *args)
        self.futures.append(future)
        return future


def pooled_error(monkeypatch, make_traces):
    """The exception of spectrum(make_traces()) on a recording pool, the
    serial scan's, the number of tasks it submitted, and whether every one
    had finished when it surfaced."""
    pool = RecordingExecutor()
    monkeypatch.setattr(spectral, "_WORKERS", 2)
    monkeypatch.setattr(spectral, "_executor", lambda workers: pool)
    try:
        with pytest.raises(DomainError) as pooled:
            spectrum(make_traces())
        settled = [f.done() for f in pool.futures]
    finally:
        pool.shutdown()
    with monkeypatch.context() as mp, pytest.raises(DomainError) as serial:
        mp.setattr(spectral, "_BLOCK_BYTES", 0)
        spectrum(make_traces())
    return str(pooled.value), str(serial.value), len(pool.futures), all(settled)


@pytest.mark.parametrize("k", [1, 5, TRACES - 1])
def test_mismatched_grid_raises_like_the_serial_scan(monkeypatch, k):
    def traces():
        for i in range(TRACES):
            yield generate_trace(THERMAL, DT, N + (i == k), SEED, i)

    pooled, serial, tasks, _ = pooled_error(monkeypatch, traces)
    assert pooled == serial == "ensemble traces must share one time grid"
    assert tasks == 0


class FailingEnsemble(Ensemble):
    """TRACES thermal traces whose blocks are generated in the pool's tasks
    and fail there: a block holding a trace i in `failing` raises "trace i
    failed" (its first such i), after 50 ms if i is in `slow`."""

    def __init__(self, failing, slow=()):
        super().__init__(THERMAL, DT, N, SEED, range(TRACES))
        self.failing, self.slow = failing, slow

    def make_block(self, indices):
        for i in indices:
            if i in self.failing:
                time.sleep(0.05 if i in self.slow else 0.0)
                raise DomainError(f"trace {i} failed")
        return super().make_block(indices)


def test_earliest_error_wins(monkeypatch):
    """A failed block of traces 4-6 wins over a failed block of traces 7-9
    that fails first; and a generation error at trace 6 comes after a grid
    mismatch at trace 5 when the scan pulls the traces."""
    pooled, serial, tasks, settled = pooled_error(monkeypatch,
                                                  lambda: FailingEnsemble({5, 8}, slow={5}))
    assert pooled == serial == "trace 5 failed"
    assert tasks > 2 and settled

    def make(i):
        if i == 6:
            raise DomainError("generation failed")
        return generate_trace(THERMAL, DT, N + (i == 5), SEED, i)

    pooled, serial, tasks, _ = pooled_error(monkeypatch,
                                            lambda: (make(i) for i in range(TRACES)))
    assert pooled == serial == "ensemble traces must share one time grid"
    assert tasks == 0


def test_generation_error_raises_like_the_serial_scan(monkeypatch):
    pooled, serial, tasks, settled = pooled_error(monkeypatch, lambda: FailingEnsemble({7}))
    assert pooled == serial == "trace 7 failed"
    assert tasks > 2 and settled


def test_generate_ensemble_is_an_iterator():
    assert [t.trace_index for t in generate_ensemble(THERMAL, DT, N, SEED, 3)] == [0, 1, 2]
    traces = Ensemble(THERMAL, DT, N, SEED, range(4, 7))
    first = next(traces)
    assert first.trace_index == 4
    np.testing.assert_array_equal(first.samples,
                                  generate_trace(THERMAL, DT, N, SEED, 4).samples)
    assert [t.trace_index for t in traces] == [5, 6]
    assert list(traces) == []


def test_partly_consumed_ensemble_scans_the_rest():
    traces = generate_ensemble(THERMAL, DT, N, SEED, TRACES)
    next(traces)
    rest = spectrum(traces)
    expected = spectrum(Ensemble(THERMAL, DT, N, SEED, range(1, TRACES)))
    assert rest.ensemble_size == TRACES - 1
    np.testing.assert_array_equal(rest.values, expected.values)


def test_coarse_jitter_warning_once_per_ensemble_at_the_caller():
    """Each way of building an ensemble warns once, naming the line that built it."""
    model = BeamModelSpec(family="jittered_laser", nu=100.0, gamma=1.0,
                          jitter_band=20.0, jitter_corr_time=1.5)
    for make in (lambda: generate_trace(model, DT, N, SEED),
                 lambda: list(generate_ensemble(model, DT, N, SEED, TRACES)),
                 lambda: spectrum(generate_ensemble(model, DT, N, SEED, TRACES)),
                 lambda: spectrum(Ensemble(model, DT, N, SEED, range(TRACES)))):
        with pytest.warns(UserWarning, match="jitter phase steps are coarse") as record:
            make()
        assert len(record) == 1
        assert (record[0].filename, record[0].lineno) == (__file__, make.__code__.co_firstlineno)


SWEEP_N = 2 * N
SWEEP_FWHMS = [100.0, 30.0, 10.0, 3.0, 1.0]


def test_chunking_table(monkeypatch):
    monkeypatch.undo()   # the default 512 KiB blocks
    monkeypatch.setattr(spectral, "_WORKERS", 2)
    # (n, traces per block, whether the scan pools)
    for n, per_block, pooled in [
            (2000, 16, True), (4000, 8, True), (32768, 1, True),
            (262144, 1, True), (262145, 1, False), (10**6, 1, False)]:
        traces, blocks = spectral._chunking(n)
        assert (traces, blocks >= 2) == (per_block, pooled)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sweep_filters_on_the_pool_are_bit_identical(monkeypatch, fast_switching, workers):
    def sweep():
        rows = filtered_laser_sweep(JITTERED, SWEEP_FWHMS, DT, SWEEP_N, SEED, TRACES)
        return [[r.g2_zero for r in rows], [r.std_error for r in rows]]

    with monkeypatch.context() as mp:
        mp.setattr(spectral, "_WORKERS", 1)
        expected = sweep()
    calls = []
    executor = spectral._executor
    monkeypatch.setattr(spectral, "_executor", lambda w: calls.append(w) or executor(w))
    monkeypatch.setattr(spectral, "_WORKERS", workers)
    assert_bitwise_equal(sweep(), expected)
    # traces of any size: the sweep maps each trace's filters over the pool
    assert calls == ([workers] * TRACES if workers > 1 else [])


def test_every_task_is_submitted_from_the_calling_thread(monkeypatch):
    """No row submits work to the pool from a worker, where it would wait on
    tasks queued behind it on its own pool."""
    pool = RecordingExecutor(threads=8)   # enough that such a wait would not hang here
    monkeypatch.setattr(spectral, "_WORKERS", 2)
    monkeypatch.setattr(spectral, "_executor", lambda w: pool)
    try:
        estimates(lambda: generate_ensemble(THERMAL, DT, N, SEED, TRACES))
    finally:
        pool.shutdown()
    assert len(pool.submitters) > 2 * TRACES   # the sweep's filters and the scans' blocks
    assert set(pool.submitters) == {threading.current_thread()}


def test_sweep_holds_no_trace_when_it_makes_the_next(monkeypatch):
    """The sweep frees each trace and its modes before it asks for the next
    trace: one 10^6-sample trace and its modes take 32 MB."""
    made = []   # weak references to every trace, its samples and its modes
    ifft = np.fft.ifft

    def recording_ifft(a, *args, **kwargs):
        modes = ifft(a, *args, **kwargs)
        made.append(weakref.ref(modes))
        return modes

    def traces(model, dt, n, master_seed, n_traces):
        for i in range(n_traces):
            assert all(ref() is None for ref in made)
            trace = generate_trace(model, dt, n, master_seed, i)
            made.extend([weakref.ref(trace), weakref.ref(trace.samples)])
            yield trace
            del trace

    monkeypatch.setattr(spectral, "_WORKERS", 2)
    monkeypatch.setattr(photonics, "generate_ensemble", traces)
    monkeypatch.setattr(np.fft, "ifft", recording_ifft)
    rows = filtered_laser_sweep(JITTERED, SWEEP_FWHMS, DT, SWEEP_N, SEED, TRACES)
    assert rows[0].ensemble_size == TRACES
    assert len(made) == 3 * TRACES


@pytest.mark.parametrize("family", FAMILIES)
def test_filtered_g2_in_blocks_matches_apply_filter(monkeypatch, fast_switching, family):
    """A filtered ensemble filters its traces, one at a time or in blocks on
    the pool, as apply_filter filters one trace: bit for bit, at any worker
    count and block size."""
    model = (JITTERED if family == "jittered_laser"
             else BeamModelSpec(family=family, nu=100.0, gamma=1.0))
    filt = FilterSpec(0.7, 10.0)
    first = next(generate_ensemble(model, DT, N, SEED, TRACES, filt=filt))
    np.testing.assert_array_equal(
        first.samples, apply_filter(generate_trace(model, DT, N, SEED), filt).samples, strict=True)
    taus, burn_in = [0.0, 0.1, 0.5], filt.suggested_burn_in()
    with monkeypatch.context() as mp:
        mp.setattr(spectral, "_BLOCK_BYTES", 0)   # a serial scan
        one_by_one = g2((apply_filter(t, filt)
                         for t in generate_ensemble(model, DT, N, SEED, TRACES)),
                        taus, burn_in=burn_in)
    for workers in (1, 2, 4):
        for block_traces in (1, 3, 5, 13):
            monkeypatch.setattr(spectral, "_WORKERS", workers)
            monkeypatch.setattr(spectral, "_BLOCK_BYTES", block_bytes(block_traces))
            blocked = g2(generate_ensemble(model, DT, N, SEED, TRACES, filt=filt), taus,
                         burn_in=burn_in)
            assert_bitwise_equal([blocked.values, blocked.std_errors],
                                 [one_by_one.values, one_by_one.std_errors])


def test_cli_g2_filters_on_the_pool(monkeypatch, capsys):
    """`g2 --filter-fwhm` filters generated traces in blocks on the pool's
    workers: one inverse FFT per block."""
    from beamsim import cli

    monkeypatch.setattr(spectral, "_WORKERS", 2)
    calls = []
    ifft = np.fft.ifft

    def recording_ifft(a, *args, **kwargs):
        calls.append((threading.current_thread().name, a.shape[0]))
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", recording_ifft)   # thermal traces are made without it
    assert cli.main(["g2", "--family", "thermal", "--nu", "100", "--gamma", "1",
                     "--dt", str(DT), "--duration", str(N * DT), "--traces", str(TRACES),
                     "--seed", str(SEED), "--filter-fwhm", "10"]) == 0
    assert "ensemble_size=12" in capsys.readouterr().out
    # the first trace fixes the grid in the calling thread; the other 11
    # are generated and filtered on the workers, three to a block
    assert calls[0] == (threading.current_thread().name, 1)
    assert sorted(rows for _, rows in calls[1:]) == [2, 3, 3, 3]
    assert all(name.startswith("beamsim-scan") for name, _ in calls[1:])
