"""beamsim benchmark harness.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload spectrum-40k --seed 1 --seconds 13 --trace 0

It imports ``beamsim`` from the checkout's ``src/`` (and fails without
printing a result if that is missing), then drives ``beamsim.cli.main``
in this one process.  A run:

1. with ``--trace 0``, times three fresh interpreters from spawn until the
   workload is ready to time (imports, parser, argument parsing, lazy
   imports): ``setup_s`` is their median;
2. runs one warm-up operation at the reference seed and compares its numbers
   with ``reference.json``;
3. repeats the operation at ``--seed`` until ``--seconds`` seconds have
   passed (at least ``MIN_REPS`` times), checking every output; ``wall_s``
   is the median;
4. with ``--trace 1``, alternates untraced and traced operations instead and
   reports per-layer metrics from the traced ones (see ``tracing.py``).

With ``--trace 0`` the calibration kernel of ``calibration.py`` runs between
set-up probes and between operations, and ``wall_s``, ``msamples_per_s`` and
``setup_s`` are scaled to the machine speed at which it takes
``calibration.REFERENCE_S``; the unscaled medians are printed beside them.
Per-layer metrics are not scaled.

Human-readable lines (machine, every metric with its unit, the per-layer
table) go to stdout, followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Result files, spans and
the per-layer table are written under ``.bench_run/`` in the checkout.

``--capture-reference`` re-runs every workload at the reference seed and
rewrites ``reference.json``; do that only for an intended change of output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_PROBES = 3
MIN_REPS = 2
MIN_TRACE_PAIRS = 2
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "msamples_per_s": "Msamples/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Run in a fresh interpreter: argv = [src, workload argv lists, lazy imports,
# benchmark dir].  Once ready it times the calibration kernel (after one
# warm-up call) in the same process, for scaling the set-up time.
PROBE = """\
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
from beamsim import cli
parser = cli.build_parser()
for argv in json.loads(sys.argv[2]):
    parser.parse_args(argv)
for name in json.loads(sys.argv[3]):
    importlib.import_module(name)
print("ready", flush=True)
sys.path.insert(0, sys.argv[4])
import calibration
calibration.kernel()
print(calibration.kernel(), flush=True)
"""

sys.path.insert(0, str(BENCH_DIR))
import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def import_beamsim():
    """Import beamsim from this checkout's src/, never from elsewhere."""
    if not (SRC / "beamsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no beamsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import beamsim
    import beamsim.cli

    if Path(beamsim.__file__).resolve().parent != SRC / "beamsim":
        raise SystemExit(f"error: imported beamsim from {beamsim.__file__}, not {SRC}")
    return beamsim.cli


# ---------------------------------------------------------------------------
# machine description

def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine_info(workload: wl.Workload) -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(f"{index}/size")
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    l2 = _parse_size(caches.get("L2", ""))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "ram_gb": round(mem_kb / 2**20, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "trace_array_bytes": workload.trace_bytes,
        "trace_array_fits_l2": bool(l2) and workload.trace_bytes <= l2,
    }


def _parse_size(text: str) -> int:
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    if not text:
        return 0
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


# ---------------------------------------------------------------------------
# one operation

@dataclass
class Op:
    """Result of one pass over a workload's CLI invocations."""

    wall: float
    problems: list[str]
    out_bytes: int = 0
    fingerprint: list | None = None   # per output, see workloads.fingerprint


def run_op(cli, workload: wl.Workload, seed: int, workdir: Path, strict: bool,
           tracer: tracing.Tracer | None = None) -> Op:
    """Run the invocations, time them, then check the outputs."""
    shutil.rmtree(workdir, ignore_errors=True)   # the previous operation's outputs
    workdir.mkdir(parents=True)
    calls = workload.calls(seed, workdir)
    stdout, stderr = io.StringIO(), io.StringIO()
    codes = []
    root = tracer.span("op", tracing.UNATTRIBUTED) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), root:
            for call in calls:
                codes.append(cli.main(call.argv))
    except Exception as exc:  # an exception escaping main is a failed operation
        return Op(time.perf_counter() - start, [f"exception: {exc!r}"])
    wall = time.perf_counter() - start
    problems = [f"{c.argv[0]} exited {code}: {stderr.getvalue().strip()}"
                for c, code in zip(calls, codes) if code != 0]
    if problems:
        return Op(wall, problems)
    try:
        payloads = wl.read_payloads(calls)
        problems = workload.gate(workload, payloads, strict)
        fingerprint = [wl.fingerprint(p) for p in payloads]
    except (OSError, ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
        return Op(wall, [f"unreadable output: {exc!r}"])
    out_bytes = len(stdout.getvalue().encode()) + sum(c.out.stat().st_size for c in calls)
    return Op(wall, problems, out_bytes, fingerprint)


def reference_problems(workload: wl.Workload, op: Op) -> list[str]:
    """Differences between the warm-up outputs and reference.json."""
    ref = wl.load_reference().get(workload.name)
    if ref is None:
        # only the smoke test's resized workloads have no reference
        return [f"no reference for {workload.name}"] if workload.name in wl.WORKLOADS else []
    if (ref["n"], ref["traces"]) != (workload.n, workload.traces):
        return [f"reference captured at n={ref['n']}, traces={ref['traces']}"]
    if op.fingerprint is None:
        return []
    problems = []
    for i, (want, got) in enumerate(zip(ref["payloads"], op.fingerprint)):
        problems += [f"output {i} {p}" for p in wl.compare(want, got)]
    return problems


# ---------------------------------------------------------------------------
# set-up probes

def setup_seconds(workload: wl.Workload, workdir: Path, probes: int) -> tuple[list, list]:
    """Raw and speed-scaled seconds of `probes` fresh interpreters, each
    scaled by the calibration kernel time the interpreter measured itself."""
    argvs = [c.argv for c in workload.calls(wl.REFERENCE_SEED, workdir)]
    cmd = [sys.executable, "-c", PROBE, str(SRC), json.dumps(argvs),
           json.dumps(list(workload.lazy_imports)), str(BENCH_DIR)]
    times, scaled = [], []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        times.append(elapsed)
        scaled.append(calibration.scale(elapsed, float(out)))
    return times, scaled


# ---------------------------------------------------------------------------
# a run

def measure(workload: wl.Workload, seed: int, seconds: float, trace: bool,
            probes: int = SETUP_PROBES, min_reps: int | None = None) -> dict:
    """One benchmark run; returns its result record."""
    min_reps = min_reps or (MIN_TRACE_PAIRS if trace else MIN_REPS)
    cli = import_beamsim()
    workdir = RUN_DIR / f"work-{workload.name}-{os.getpid()}"
    setup, setup_scaled = ([], []) if trace else setup_seconds(workload, workdir, probes)
    failures: list[str] = []
    counts = {"attempted": 0, "failed": 0}
    first_fingerprint = None

    def record(op: Op, label: str, reference: bool = False) -> Op:
        """Count an operation; it fails on any gate, reference or repeat mismatch."""
        nonlocal first_fingerprint
        problems = list(op.problems)
        if reference:
            problems += reference_problems(workload, op)
        elif op.fingerprint is not None:
            first_fingerprint = first_fingerprint or op.fingerprint
            if op.fingerprint != first_fingerprint:
                problems.append("output differs from the first repetition")
        counts["attempted"] += 1
        counts["failed"] += bool(problems)
        failures.extend(f"{label}: {p}" for p in problems)
        return op

    walls, traced_walls, per_op, pulls = [], [], [], []
    kernels = []   # calibration kernel times around the untraced operations
    tracer = tracing.Tracer()
    try:
        record(run_op(cli, workload, wl.REFERENCE_SEED, workdir, strict=True),
               f"warm-up seed {wl.REFERENCE_SEED}", reference=True)
        if not trace:
            calibration.kernel()   # warm-up
            kernels.append(calibration.kernel())
        start = time.perf_counter()
        # a repetition that starts inside the window runs to its end, so a
        # workload with long operations still gets several per run
        while len(walls) < min_reps or time.perf_counter() - start < seconds:
            walls.append(record(run_op(cli, workload, seed, workdir, strict=False),
                                f"seed {seed}").wall)
            if not trace:
                kernels.append(calibration.kernel())
            else:
                tracer.run_id = f"{workload.name}/{seed}/{len(traced_walls)}"
                first_span = len(tracer.spans)
                try:
                    tracer.install()
                    op = run_op(cli, workload, seed, workdir, strict=False, tracer=tracer)
                finally:
                    tracer.uninstall()
                record(op, f"seed {seed} traced")
                spans = tracer.spans[first_span:]
                traced_walls.append(op.wall)
                per_op.append(tracing.layer_metrics(spans, op.out_bytes))
                pulls += tracing.pull_ms(spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "machine": machine_info(workload),
        "walls_s": walls,
        **counts,
        "failed_frac": counts["failed"] / counts["attempted"],
        "failures": failures,
    }
    if trace:
        result["traced_walls_s"] = traced_walls
        result["metrics"] = tracing.summarize(per_op, pulls, traced_walls, walls)
        result["pull_samples"] = len(pulls)
        result["spans"] = tracer.spans
    else:
        scaled = [calibration.scale(w, (k0 + k1) / 2)
                  for w, k0, k1 in zip(walls, kernels, kernels[1:])]
        wall = statistics.median(scaled)
        result["kernels_s"] = kernels
        result["scaled_walls_s"] = scaled
        result["raw_wall_s"] = statistics.median(walls)
        result["setup_samples_s"] = setup
        result["scaled_setup_samples_s"] = setup_scaled
        result["raw_setup_s"] = statistics.median(setup)
        result["metrics"] = {
            "wall_s": wall,
            "msamples_per_s": workload.nominal_samples / wall / 1e6,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return result


def units(trace: bool) -> dict[str, str]:
    if trace:
        return {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
    return dict(END_TO_END)


def report(result: dict) -> None:
    """Write result files and print the human-readable lines."""
    RUN_DIR.mkdir(exist_ok=True)
    stem = RUN_DIR / f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    spans = result.pop("spans", None)
    machine = result["machine"]
    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu']!r} caches={machine['caches']} "
          f"ram={machine['ram_gb']} GB python={machine['python']} numpy={machine['numpy']} "
          f"scipy={machine['scipy']} thread_env={machine['thread_env']}")
    print(f"workload {result['workload']}: one trace array is {machine['trace_array_bytes']} B, "
          f"{'fits' if machine['trace_array_fits_l2'] else 'does not fit'} in L2")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    for failure in result["failures"]:
        print(f"  FAIL {failure}")
    for name, unit in units(result["trace"]).items():
        print(f"{name} = {result['metrics'][name]:.6g} {unit}")
    print(f"failed_frac = {result['failed_frac']:.6g} 1")
    if not result["trace"]:
        print(f"unscaled: wall_s = {result['raw_wall_s']:.6g} s, "
              f"setup_s = {result['raw_setup_s']:.6g} s; calibration kernel median "
              f"{statistics.median(result['kernels_s']):.6g} s "
              f"(reference {calibration.REFERENCE_S:g} s)")
    if spans is not None:
        trace_path = stem.with_suffix(".spans.jsonl")
        tracing.write_spans(spans, trace_path)
        lines = layer_table(spans, result)
        stem.with_suffix(".layers.txt").write_text("\n".join(lines) + "\n")
        print("\n".join(lines))
        print(f"spans: {trace_path}")
    stem.with_suffix(".result.json").write_text(json.dumps(result, indent=1) + "\n")


def layer_table(spans: list[tuple], result: dict) -> list[str]:
    """Self time per category over all traced operations, and targets."""
    rows = tracing.partition_table(spans)
    total = sum(seconds for _, seconds in rows)
    lines = [f"per-layer self time over {len(result['traced_walls_s'])} traced operation(s), "
             f"total {total:.4f} s (= traced wall {sum(result['traced_walls_s']):.4f} s)"]
    lines += [f"  {category:<22} {seconds:10.4f} s  {seconds / total:7.2%}"
              for category, seconds in rows]
    lines.append(f"per-layer metrics ({result['pull_samples']} trace pulls) and what they move:")
    lines += [f"  {name:<30} {result['metrics'][name]:12.6g} {unit:<6} -> {target}"
              for name, (unit, _, target) in tracing.LAYER_METRICS.items()]
    return lines


def summary(result: dict) -> dict:
    """The last line of a run's output."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units(result["trace"]).items()},
    }


def capture_reference() -> None:
    cli = import_beamsim()
    out = {}
    for name, workload in wl.WORKLOADS.items():
        workdir = RUN_DIR / f"work-{name}-{os.getpid()}"
        op = run_op(cli, workload, wl.REFERENCE_SEED, workdir, strict=True)
        shutil.rmtree(workdir, ignore_errors=True)
        if op.problems:
            raise SystemExit(f"error: {name} fails its gates at the reference seed: {op.problems}")
        out[name] = {"seed": wl.REFERENCE_SEED, "n": workload.n, "traces": workload.traces,
                     "payloads": op.fingerprint}
        print(f"captured {name} ({op.wall:.2f} s)", file=sys.stderr)
    wl.REFERENCE_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=13.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.capture_reference:
        capture_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    report(result)
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
