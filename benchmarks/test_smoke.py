"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the trace counts equal their closed forms, and that the per-layer self times
plus the unattributed remainder sum to the traced wall time.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# Workloads at tiny sizes.  sweep-1m keeps n (the narrowest filter's burn-in
# needs half of 250 s) and qslb-5k keeps 1000 traces (the KS test's minimum).
TINY = {
    "spectrum-40k": dict(n=4000, traces=4),
    "sweep-1m": dict(traces=1),
    "qslb-5k": dict(n=1001),
    "store-reload": dict(n=2000, traces=4),
}

# Closed forms per operation, as functions of the traces per ensemble.
EXPECTED_COUNTS = {
    "spectrum-40k": {"fieldgen.traces": 2, "fieldgen.fft_calls": 0,
                     "spectral.fft_calls": 2, "photonics.fft_calls": 0, "traceio.files": 0},
    "sweep-1m": {"fieldgen.traces": 1, "fieldgen.fft_calls": 0,
                 "spectral.fft_calls": 0, "photonics.fft_calls": 5, "traceio.files": 0},
    # qslb-demo generates each of its three ensembles twice
    "qslb-5k": {"fieldgen.traces": 6, "fieldgen.fft_calls": 2,
                "spectral.fft_calls": 3, "photonics.fft_calls": 0, "traceio.files": 0},
    # written once, read by spectrum --in and by g2 --in
    "store-reload": {"fieldgen.traces": 1, "fieldgen.fft_calls": 0,
                     "spectral.fft_calls": 1, "photonics.fft_calls": 0, "traceio.files": 3},
}


def tiny(name: str) -> wl.Workload:
    return dataclasses.replace(wl.WORKLOADS[name], name=f"tiny-{name}", **TINY[name])


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in wl.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.units(trace=False)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == \
        {name: spec[:2] for name, spec in tracing.LAYER_METRICS.items()}


def test_end_to_end_metrics_emitted_with_units():
    result = run.measure(tiny("spectrum-40k"), seed=1, seconds=0, trace=False,
                         probes=1, min_reps=1)
    line = run.summary(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] == 2
    for metric in SPEC["end_to_end"]:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0
    # each operation is scaled by the calibration kernel times on either side
    wall, = result["walls_s"]
    before, after = result["kernels_s"]
    assert result["metrics"]["wall_s"] == pytest.approx(
        wall * calibration.REFERENCE_S / ((before + after) / 2), rel=1e-12)


@pytest.mark.parametrize("name", list(TINY))
def test_traced_counts_and_partition(name):
    workload = tiny(name)
    result = run.measure(workload, seed=3, seconds=0, trace=True, min_reps=1)
    line = run.summary(result)
    for metric in SPEC["per_layer"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]

    metrics = result["metrics"]
    for metric, per_trace in EXPECTED_COUNTS[name].items():
        assert metrics[metric] == per_trace * workload.traces, metric
    assert metrics["fieldgen.samples"] == metrics["fieldgen.traces"] * workload.n

    # self times of every layer plus the unattributed remainder make up the
    # traced wall time, which the harness also timed from outside the spans
    spans = result["spans"]
    total = sum(seconds for _, seconds in tracing.partition_table(spans))
    roots = sum((s[6] - s[5]) * 1e-9 for s in spans if s[4] == tracing.UNATTRIBUTED)
    assert total == pytest.approx(roots, rel=1e-9)
    assert roots == pytest.approx(sum(result["traced_walls_s"]), abs=1e-3)
    assert 0 <= metrics["trace.unattributed_frac"] < 0.05
