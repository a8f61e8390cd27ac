"""Span tracing of beamsim's layers from outside the package.

`Tracer.install()` replaces the public entry points of each ``beamsim``
module -- and numpy/scipy FFTs and ``lfilter`` wherever a beamsim module
binds them -- with wrappers that record one in-memory span per call:
(run id, span id, parent span id, name, category, start ns, end ns, work).
`uninstall()` puts the originals back, so untraced operations run the
unmodified code.

Every span has a category, and the categories partition the traced wall time:
a span's self time (its duration minus the time its child spans cover) is
charged to its category, and the root span of each operation is charged to
``unattributed``.  FFT spans are charged to ``<enclosing layer>.fft``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

UNATTRIBUTED = "unattributed"
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# Public entry points per module: (module, attribute, category).  The layer of
# a span is the part of its category before the first dot.
ENTRY_POINTS = (
    ("cli", "main", "cli"),
    ("spectral", "spectrum", "spectral"),
    ("spectral", "periodogram", "spectral"),
    ("spectral", "periodogram_bin_values", "spectral"),
    ("spectral", "periodogram_distribution_test", "spectral"),
    ("spectral", "cross_mode_correlation", "spectral"),
    ("spectral", "windowed_mean_intensities", "spectral"),
    ("spectral", "stationarity_test", "spectral"),
    ("spectral", "estimate_fwhm", "spectral"),
    ("photonics", "apply_filter", "photonics"),
    ("photonics", "g2", "photonics"),
    ("photonics", "photon_counts", "photonics"),
    ("photonics", "intensity_samples", "photonics"),
    ("photonics", "filtered_laser_sweep", "photonics"),
    ("fieldgen", "trace_rng", "fieldgen.seed"),
)

# Per-layer metrics: unit, which way is better, and the end-to-end metric and
# workloads each one should move.  BENCHMARK.json's per_layer list carries the
# first two; the rest is printed in the per-layer table.
LAYER_METRICS = {
    "fieldgen.busy_s": ("s", "lower", "wall_s: spectrum-40k, qslb-5k most; sweep-1m least"),
    "fieldgen.traces": ("count", "lower", "msamples_per_s: qslb-5k (generates each ensemble twice)"),
    "fieldgen.samples": ("count", "lower", "msamples_per_s: qslb-5k"),
    "fieldgen.trace_ms_p50": ("ms", "lower", "wall_s: spectrum-40k, qslb-5k"),
    "fieldgen.trace_ms_p99": ("ms", "lower", "wall_s: spectrum-40k, qslb-5k"),
    "fieldgen.self_s": ("s", "lower", "wall_s: spectrum-40k (normal draws, assembly)"),
    "fieldgen.seed_s": ("s", "lower", "wall_s: qslb-5k"),
    "fieldgen.recursion_s": ("s", "lower", "wall_s: spectrum-40k"),
    "fieldgen.check_s": ("s", "lower", "wall_s: qslb-5k, store-reload"),
    "fieldgen.fft_s": ("s", "lower", "wall_s: qslb-5k (kspace_product)"),
    "fieldgen.fft_calls": ("count", "lower", "wall_s: qslb-5k (kspace_product)"),
    "spectral.self_s": ("s", "lower", "wall_s: spectrum-40k, store-reload"),
    "spectral.fft_s": ("s", "lower", "wall_s: spectrum-40k"),
    "spectral.fft_calls": ("count", "lower", "wall_s: spectrum-40k, qslb-5k"),
    "spectral.stationarity_s": ("s", "lower", "wall_s: qslb-5k only"),
    "photonics.self_s": ("s", "lower", "wall_s: sweep-1m, store-reload (g2)"),
    "photonics.fft_s": ("s", "lower", "wall_s: sweep-1m"),
    "photonics.fft_calls": ("count", "lower", "wall_s: sweep-1m"),
    "photonics.fft_gflop_computed": ("GFLOP", "lower", "wall_s: sweep-1m (5 N log2 N per transform)"),
    "traceio.write_s": ("s", "lower", "wall_s: store-reload only"),
    "traceio.read_s": ("s", "lower", "wall_s: store-reload only"),
    "traceio.files": ("count", "lower", "wall_s: store-reload only"),
    "traceio.bytes": ("B", "lower", "wall_s: store-reload only"),
    "traceio.write_mb_per_s": ("MB/s", "higher", "wall_s: store-reload only"),
    "traceio.read_mb_per_s": ("MB/s", "higher", "wall_s: store-reload only"),
    "cli.self_s": ("s", "lower", "wall_s: all (argparse, config, output formatting)"),
    "cli.out_bytes": ("B", "lower", "wall_s: spectrum-40k, store-reload (JSON output)"),
    "trace.wall_s": ("s", "lower", "traced wall time of one operation"),
    "trace.unattributed_frac": ("1", "lower", "share of traced wall outside every layer span"),
    "trace.overhead_frac": ("1", "lower", "(traced - untraced wall) / untraced wall"),
}


def fft_flops(args, kwargs, one_d: bool, two_d: bool) -> float:
    """Computed (not measured) flops, 5 N log2 N per transform of length N."""
    a = np.asarray(args[0])
    if a.ndim == 0:
        return 0.0
    if one_d:
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        length = n if n is not None else a.shape[axis]
        batch = a.size // max(a.shape[axis], 1)
    else:
        shape = kwargs.get("s", args[1] if len(args) > 1 else None)
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        if axes is None:
            axes = (-2, -1) if two_d else tuple(range(a.ndim))
        length = math.prod(shape if shape is not None else [a.shape[ax] for ax in axes])
        batch = a.size // max(math.prod(a.shape[ax] for ax in axes), 1)
    return 5.0 * length * math.log2(max(length, 2)) * batch


class Tracer:
    """In-memory span recorder and the patches that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = ""
        self._stack: list[list] = []      # [span id, category, parent id, start ns]
        self._next_id = 0
        self._patches: list[tuple] = []   # (owner, attribute, original)

    # -- span recording ----------------------------------------------------

    def _open(self, category: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        if category == "fft":
            layer = self._stack[-1][1].split(".")[0] if self._stack else UNATTRIBUTED
            category = f"{layer}.fft"
        frame = [self._next_id, category, parent, time.perf_counter_ns()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, work: float = 0.0, end: int | None = None) -> None:
        end = time.perf_counter_ns() if end is None else end
        self._stack.pop()
        sid, category, parent, start = frame
        self.spans.append((self.run_id, sid, parent, name, category, start, end, work))

    @contextlib.contextmanager
    def span(self, name: str, category: str):
        """A span of the harness's own (the operation root)."""
        frame = self._open(category)
        try:
            yield
        finally:
            self._close(frame, name)

    def _wrap(self, fn, name: str, category: str, work=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(category)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, name)
                raise
            end = time.perf_counter_ns()
            tracer._close(frame, name, work(args, kwargs) if work else 0.0, end)
            return result

        return wrapper

    def _wrap_ensemble(self, fn):
        """generate_ensemble returns a generator: one span per pull."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def pulls():
                while True:
                    frame = tracer._open("fieldgen")
                    try:
                        trace = next(inner)
                    except StopIteration:
                        tracer._close(frame, "fieldgen.pull_end")
                        return
                    except BaseException:
                        tracer._close(frame, "fieldgen.pull")
                        raise
                    tracer._close(frame, "fieldgen.pull", trace.n_samples)
                    yield trace

            return pulls()

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, original, replacement, owners) -> None:
        """Replace `original` on every owner module that binds it."""
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, replacement)

    def install(self) -> None:
        import numpy.fft
        import scipy.fft
        import scipy.signal

        from beamsim import cli, fieldgen, photonics, spectral, traceio

        modules = {"cli": cli, "fieldgen": fieldgen, "photonics": photonics,
                   "spectral": spectral, "traceio": traceio}
        beamsim_modules = list(modules.values())
        for mod_name, attr, category in ENTRY_POINTS:
            original = getattr(modules[mod_name], attr, None)
            if original is None:   # removed by a later refactor: nothing to time
                continue
            self._patch_everywhere(original, self._wrap(original, f"{mod_name}.{attr}", category),
                                   beamsim_modules)

        ensemble = fieldgen.generate_ensemble
        self._patch_everywhere(ensemble, self._wrap_ensemble(ensemble), beamsim_modules)

        lfilter = scipy.signal.lfilter
        self._patch_everywhere(lfilter, self._wrap(lfilter, "lfilter", "fieldgen.recursion"),
                               [scipy.signal, *beamsim_modules])

        def file_bytes(args, kwargs):
            return Path(args[1] if len(args) > 1 else kwargs["path"]).stat().st_size

        def read_bytes(args, kwargs):
            return Path(args[0] if args else kwargs["path"]).stat().st_size

        for attr, name, work in (("write_trace", "traceio.write", file_bytes),
                                 ("read_trace", "traceio.read", read_bytes)):
            original = getattr(traceio, attr)
            self._patch_everywhere(original, self._wrap(original, name, "traceio", work),
                                   beamsim_modules)

        for fft_module in (numpy.fft, scipy.fft):
            for name in FFT_NAMES:
                original = getattr(fft_module, name, None)
                if original is None:
                    continue
                one_d = name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
                two_d = name.endswith("2")

                def work(args, kwargs, one_d=one_d, two_d=two_d):
                    return fft_flops(args, kwargs, one_d, two_d)

                self._patch_everywhere(
                    original, self._wrap(original, f"{fft_module.__name__}.{name}", "fft", work),
                    [fft_module, *beamsim_modules])

        cls = fieldgen.FieldTrace
        original_check = cls.__post_init__
        self._patches.append((cls, "__post_init__", original_check))
        cls.__post_init__ = self._wrap(original_check, "FieldTrace.__post_init__",
                                       "fieldgen.check")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def write_spans(spans: list[tuple], path: Path) -> None:
    """One JSON array per span, after a header line naming the fields."""
    with open(path, "w") as fh:
        fh.write(json.dumps(["run", "span", "parent", "name", "category",
                             "start_ns", "end_ns", "work"]) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


NAME, CATEGORY = 3, 4   # span tuple fields that self times can be keyed by


def self_times(spans: list[tuple], key: int = CATEGORY) -> dict[str, float]:
    """Seconds of self time per category (or span name).  Over categories
    they sum to the duration of the root spans."""
    child_ns: dict[int, int] = defaultdict(int)
    for _, _, parent, _, _, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span[key]] += (span[6] - span[5] - child_ns[span[1]]) * 1e-9
    return dict(out)


def layer_metrics(spans: list[tuple], out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation (whose root is `unattributed`)."""
    selfs = self_times(spans)
    # seconds, calls and work per span name; FFT spans per category instead
    secs: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, float] = defaultdict(float)
    for _, _, _, name, category, start, end, amount in spans:
        key = category if category.endswith(".fft") else name
        secs[key] += (end - start) * 1e-9
        calls[key] += 1
        work[key] += amount
    wall = secs["op"]
    write_s, read_s = secs["traceio.write"], secs["traceio.read"]
    m = {
        "fieldgen.busy_s": secs["fieldgen.pull"],
        "fieldgen.traces": calls["fieldgen.pull"],
        "fieldgen.samples": work["fieldgen.pull"],
        "spectral.stationarity_s": self_times(spans, NAME).get("spectral.stationarity_test", 0.0),
        "photonics.fft_gflop_computed": work["photonics.fft"] * 1e-9,
        "traceio.write_s": write_s,
        "traceio.read_s": read_s,
        "traceio.files": calls["traceio.write"] + calls["traceio.read"],
        "traceio.bytes": work["traceio.write"] + work["traceio.read"],
        "traceio.write_mb_per_s": work["traceio.write"] / write_s / 1e6 if write_s else 0.0,
        "traceio.read_mb_per_s": work["traceio.read"] / read_s / 1e6 if read_s else 0.0,
        "cli.out_bytes": out_bytes,
        "trace.wall_s": wall,
        "trace.unattributed_frac": selfs.get(UNATTRIBUTED, 0.0) / wall if wall else 0.0,
    }
    for category in ("cli", "fieldgen", "fieldgen.seed", "fieldgen.recursion",
                     "fieldgen.check", "spectral", "photonics"):
        suffix = "_s" if "." in category else ".self_s"
        m[category + suffix] = selfs.get(category, 0.0)
    for layer in ("fieldgen", "spectral", "photonics"):
        m[f"{layer}.fft_s"] = selfs.get(f"{layer}.fft", 0.0)
        m[f"{layer}.fft_calls"] = calls[f"{layer}.fft"]
    return m


def pull_ms(spans: list[tuple]) -> list[float]:
    return [(s[6] - s[5]) * 1e-6 for s in spans if s[3] == "fieldgen.pull"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))]


def summarize(per_op: list[dict], pulls: list[float], traced_walls: list[float],
              untraced_walls: list[float]) -> dict[str, float]:
    """Median of each metric over traced operations, plus pooled percentiles."""
    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    out["fieldgen.trace_ms_p50"] = percentile(pulls, 50)
    out["fieldgen.trace_ms_p99"] = percentile(pulls, 99)
    untraced = statistics.median(untraced_walls)
    out["trace.overhead_frac"] = (statistics.median(traced_walls) - untraced) / untraced
    return out


def partition_table(spans: list[tuple]) -> list[tuple[str, float]]:
    """(category, self seconds) rows; they sum to the traced wall time."""
    return sorted(self_times(spans).items(), key=lambda kv: -kv[1])
