"""The benchmark's workloads: CLI invocations, nominal work and output checks.

Each workload is a fixed list of ``beamsim`` CLI invocations.  Family, n, dt
and filters are fixed per workload; the trace counts are sized so one
operation (one pass over the invocations) takes about one to eight seconds
on a 2-core Xeon, long enough that run-to-run noise averages out and short
enough to repeat inside one run.

Correctness is checked in two ways:

* every operation passes physics gates whose per-seed false-fail rate is
  below about 1e-5 (5 sigma for Monte Carlo estimates, robust orderings and
  internal consistency for the statistical verdicts), so the benchmark does
  not fail by chance on an arbitrary seed;
* the warm-up operation runs at ``REFERENCE_SEED`` and its numbers must match
  ``reference.json``, captured at the commit that introduced the benchmark,
  to a relative tolerance of 1e-9.  That operation also passes the stricter
  gates of the acceptance suite (3 sigma peaks, the laser and
  kspace_product verdicts).

Numbers are compared, not bytes: ``config`` and ``tool_version`` are metadata
and keys that appear only in newer outputs are ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_SEED = 20151015
REFERENCE_PATH = Path(__file__).with_name("reference.json")
REL_TOL = 1e-9
ABS_TOL = 1e-12
METADATA_KEYS = ("config", "tool_version")

NU, GAMMA = 100.0, 1.0
ROBUST_SIGMAS = 5.0   # per-seed false-fail ~6e-7 per Gaussian gate
STRICT_SIGMAS = 3.0   # acceptance-suite gate, applied at REFERENCE_SEED only


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the JSON file it writes."""

    argv: list[str]
    out: Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str                      # one line, copied into BENCHMARK.json
    n: int                        # samples per trace
    dt: float                     # sample spacing, s
    traces: int                   # requested traces per ensemble
    ensembles: int                # ensembles the outputs report
    lazy_imports: tuple[str, ...]  # modules the first operation imports lazily
    make_calls: Callable[["Workload", int, Path], list[Call]]
    gate: Callable[["Workload", list[dict], bool], list[str]]

    @property
    def nominal_samples(self) -> int:
        """Requested traces x n summed over reported ensembles.  Fixed per
        workload, so removing redundant generation shows as a gain."""
        return self.ensembles * self.traces * self.n

    @property
    def duration(self) -> float:
        return self.n * self.dt

    @property
    def trace_bytes(self) -> int:
        """Size of one complex128 trace array."""
        return 16 * self.n

    def calls(self, seed: int, workdir: Path) -> list[Call]:
        return self.make_calls(self, seed, workdir)


def _model_args(w: Workload, seed: int) -> list[str]:
    return ["--nu", repr(NU), "--gamma", repr(GAMMA), "--dt", repr(w.dt),
            "--duration", repr(w.duration), "--traces", str(w.traces),
            "--seed", str(seed)]


# ---------------------------------------------------------------------------
# gates (each returns a list of problems; empty means the output is correct)

def _z_gate(label: str, value: float, expected: float, sigma: float,
            sigmas: float) -> list[str]:
    if not (math.isfinite(value) and math.isfinite(sigma) and sigma > 0):
        return [f"{label}: non-finite value {value!r} or error {sigma!r}"]
    z = (value - expected) / sigma
    if abs(z) > sigmas:
        return [f"{label}: {value:.6g} vs {expected:.6g} is {z:+.2f} sigma "
                f"(gate {sigmas:g})"]
    return []


def _spectrum_gate(label: str, spec: dict, traces: int, n: int, duration: float,
                   sigmas: float) -> list[str]:
    problems = []
    grid = np.asarray(spec["grid"])
    values = np.asarray(spec["values"])
    errors = np.asarray(spec["std_errors"])
    if spec["ensemble_size"] != traces:
        problems.append(f"{label}: ensemble_size {spec['ensemble_size']} != {traces}")
    if not (grid.size == values.size == errors.size == n):
        return problems + [f"{label}: expected {n} bins"]
    if not (np.all(np.isfinite(values)) and np.all(values >= 0)):
        problems.append(f"{label}: negative or non-finite spectrum values")
    # peak: nu f(0) less the finite-record deficit 2 nu / (T Gamma)
    i0 = int(np.argmin(np.abs(grid)))
    expected = NU * (1.0 - 2.0 / (duration * GAMMA))
    return problems + _z_gate(f"{label} peak", float(values[i0]), expected,
                              float(errors[i0]), sigmas)


def _gate_spectrum_40k(w: Workload, payloads: list[dict], strict: bool) -> list[str]:
    sigmas = STRICT_SIGMAS if strict else ROBUST_SIGMAS
    problems = []
    for family, payload in zip(("thermal", "laser"), payloads):
        problems += _spectrum_gate(family, payload["spectrum"], w.traces, w.n,
                                   w.duration, sigmas)
    return problems


def _gate_sweep_1m(w: Workload, payloads: list[dict], strict: bool) -> list[str]:
    rows = payloads[0]["sweep"]
    if len(rows) != 4:
        return [f"sweep: {len(rows)} rows, expected 4"]
    problems = [f"sweep row {i}: ensemble_size {r['ensemble_size']} != {w.traces}"
                for i, r in enumerate(rows) if r["ensemble_size"] != w.traces]
    v = [r["value"] for r in rows]
    if not all(math.isfinite(x) for x in v):
        return problems + [f"sweep: non-finite g2 values {v}"]
    # regime ordering of acceptance criterion 4: shot noise, above shot
    # noise, enormous fluctuations (the thermal-like row needs ~100 traces
    # to settle near 2, so it is only required to be finite here)
    if abs(v[0] - 1.0) > 0.1:
        problems.append(f"sweep: wide-filter g2(0) {v[0]:.4g} not near 1")
    if not v[0] < v[1] < v[2]:
        problems.append(f"sweep: g2(0) not increasing into the peak regime: {v[:3]}")
    if v[2] <= 2.0:
        problems.append(f"sweep: peak-regime g2(0) {v[2]:.4g} not above 2")
    return problems


def _gate_qslb_5k(w: Workload, payloads: list[dict], strict: bool) -> list[str]:
    rows = payloads[0]["results"]
    families = [r["family"] for r in rows]
    if families != ["thermal", "laser", "kspace_product"]:
        return [f"qslb: families {families}"]
    significance = payloads[0]["config"]["significance"]
    problems = []
    for r in rows:
        for test in ("stationarity", "periodogram"):
            p = r[f"{test}_p"]
            if not 0.0 <= p <= 1.0:
                problems.append(f"qslb {r['family']}: {test}_p {p!r} outside [0, 1]")
            if r[f"{test}_passed"] != (p > significance):
                problems.append(f"qslb {r['family']}: {test}_passed inconsistent with p")
        both = r["stationarity_passed"] and r["periodogram_passed"]
        if r["verdict"] != ("stationary" if both else "rejected"):
            problems.append(f"qslb {r['family']}: verdict inconsistent with the tests")
    # the frequency-mode product has a deterministic total flux and a
    # non-exponential periodogram; both p-values sit at their floor
    if rows[2]["verdict"] != "rejected":
        problems.append("qslb: kspace_product not rejected")
    # thermal and laser periodograms follow the exponential law (KS with a
    # fitted mean is conservative, so this fails < 1e-6 of seeds)
    for r in rows[:2]:
        if r["periodogram_p"] <= 1e-6:
            problems.append(f"qslb: {r['family']} periodogram_p {r['periodogram_p']:.3g}")
    # The laser verdict still fails ~1e-3 of seeds by chance, so it is
    # required at REFERENCE_SEED only.  The thermal verdict is not gated:
    # adjacent windows of an OU field are correlated, so at n=5000 the
    # independence permutation test gives p ~ 4e-4..1e-2 for a stationary
    # thermal beam and its verdict depends on the seed (a program defect;
    # the reference comparison pins its numbers all the same).
    if strict and rows[1]["verdict"] != "stationary":
        problems.append(f"qslb: laser verdict {rows[1]['verdict']}")
    return problems


def _gate_store_reload(w: Workload, payloads: list[dict], strict: bool) -> list[str]:
    sigmas = STRICT_SIGMAS if strict else ROBUST_SIGMAS
    manifest, spec, g2 = payloads
    problems = []
    if len(manifest["files"]) != w.traces:
        problems.append(f"simulate: {len(manifest['files'])} files, expected {w.traces}")
    # relative error of an ensemble-mean OU flux: sqrt(2 / (Gamma T N))
    rel_sigma = math.sqrt(2.0 / (GAMMA * w.duration * w.traces))
    problems += _z_gate("simulate mean flux", manifest["mean_flux"] / manifest["expected_flux"],
                        1.0, rel_sigma, sigmas)
    problems += _spectrum_gate("spectrum --in", spec["spectrum"], w.traces, w.n,
                               w.duration, sigmas)
    est = g2["g2"]
    if est["ensemble_size"] != w.traces or est["tau"] != [0.0, 0.5, 1.0, 2.0]:
        problems.append(f"g2 --in: ensemble_size {est['ensemble_size']} / tau {est['tau']}")
    for tau, value, err in zip(est["tau"], est["values"], est["std_errors"]):
        problems += _z_gate(f"g2({tau:g})", value, 1.0 + math.exp(-GAMMA * tau), err, sigmas)
    return problems


# ---------------------------------------------------------------------------
# invocations

def _calls_spectrum_40k(w: Workload, seed: int, wd: Path) -> list[Call]:
    common = _model_args(w, seed) + ["--format", "json"]
    return [Call(["spectrum", "--family", fam, *common, "--out", str(wd / f"{fam}.json")],
                 wd / f"{fam}.json") for fam in ("thermal", "laser")]


def _calls_sweep_1m(w: Workload, seed: int, wd: Path) -> list[Call]:
    out = wd / "sweep.json"
    return [Call(["sweep", *_model_args(w, seed),
                  "--fwhms", "1e4,100,10,0.1", "--format", "json", "--out", str(out)], out)]


def _calls_qslb_5k(w: Workload, seed: int, wd: Path) -> list[Call]:
    out = wd / "qslb.json"
    return [Call(["qslb-demo", *_model_args(w, seed),
                  "--format", "json", "--out", str(out)], out)]


def _calls_store_reload(w: Workload, seed: int, wd: Path) -> list[Call]:
    store = wd / "traces"
    return [
        Call(["simulate", "--family", "thermal", *_model_args(w, seed),
              "--out", str(store)], store / "run.json"),
        Call(["spectrum", "--in", str(store), "--format", "json",
              "--out", str(wd / "spectrum.json")], wd / "spectrum.json"),
        Call(["g2", "--in", str(store), "--taus", "0,0.5,1,2", "--format", "json",
              "--out", str(wd / "g2.json")], wd / "g2.json"),
    ]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="spectrum-40k",
        why="thermal+laser spectrum at n=40000 (criterion-2 shape), 640 KB traces fit L2: "
            "fieldgen ~57%, spectral FFT ~20%, JSON output ~16%; no traceio, no photonics",
        n=40000, dt=0.005, traces=300, ensembles=2, lazy_imports=(),
        make_calls=_calls_spectrum_40k, gate=_gate_spectrum_40k),
    Workload(
        name="sweep-1m",
        why="jittered-laser sweep at n=1e6, 4 filters, 16 MB arrays well past L2: photonics "
            "filter+FFT ~77%, fieldgen ~22% (its gains barely move it); no traceio",
        n=1_000_000, dt=2.5e-4, traces=4, ensembles=1, lazy_imports=(),
        make_calls=_calls_sweep_1m, gate=_gate_sweep_1m),
    Workload(
        name="qslb-5k",
        why="qslb-demo at n=5000, 3x1000 traces each generated twice: stationarity permutations "
            "~55%, fieldgen ~40%; the only kspace_product FFT and KS path; no traceio",
        # 1000 traces is the least the periodogram-law KS test accepts
        n=5000, dt=0.01, traces=1000, ensembles=3, lazy_imports=("scipy.stats",),
        make_calls=_calls_qslb_5k, gate=_gate_qslb_5k),
    Workload(
        name="store-reload",
        why="simulate thermal .ftrc files, then spectrum --in and g2 --in: the only traceio "
            "path (~30%); readers skip fieldgen and g2 has no FFT; no photonics FFT",
        n=20000, dt=0.01, traces=240, ensembles=3, lazy_imports=(),
        make_calls=_calls_store_reload, gate=_gate_store_reload),
)}


# ---------------------------------------------------------------------------
# output parsing, fingerprints and the reference comparison

def read_payloads(calls: list[Call]) -> list[dict]:
    return [json.loads(c.out.read_text()) for c in calls]


def fingerprint(obj, path: str = "") -> dict:
    """Flatten a payload into comparable leaves.  Numeric arrays are reduced
    to their length, sums, extremes and 33 evenly spaced entries."""
    out: dict = {}
    if isinstance(obj, dict):
        for key in sorted(obj):
            if path == "" and key in METADATA_KEYS:
                continue
            out.update(fingerprint(obj[key], f"{path}/{key}"))
    elif isinstance(obj, list) and obj and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj):
        a = np.asarray(obj, dtype=float)
        out[f"{path}#len"] = a.size
        out[f"{path}#sum"] = math.fsum(a)
        out[f"{path}#sumsq"] = math.fsum(a * a)
        out[f"{path}#min"] = float(a.min())
        out[f"{path}#max"] = float(a.max())
        for i in np.unique(np.linspace(0, a.size - 1, 33).astype(int)):
            out[f"{path}[{i}]"] = float(a[i])
    elif isinstance(obj, list) and obj and all(isinstance(x, str) for x in obj):
        out[f"{path}#len"] = len(obj)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            out.update(fingerprint(item, f"{path}[{i}]"))
    else:
        out[path] = obj
    return out


def compare(reference: dict, actual: dict) -> list[str]:
    """Leaves of `reference` that `actual` lacks or does not match."""
    problems = []
    for key, want in reference.items():
        if key not in actual:
            problems.append(f"{key}: missing")
            continue
        got = actual[key]
        if isinstance(want, bool) or isinstance(want, str) or isinstance(got, (bool, str)):
            same = got == want
        else:
            same = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        if not same:
            problems.append(f"{key}: {got!r} != reference {want!r}")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
