"""Command-line driver: scenario configuration, deterministic batch runs,
and result serialization.

Subcommands
-----------
blackbody   closed-form source/beam radiometry report
simulate    generate and serialize an ensemble of field traces
spectrum    ensemble-averaged periodogram of a generated or stored ensemble
g2          normalized intensity autocorrelation (optionally after filtering)
sweep       g2(0) of a filtered jittered laser versus filter width
qslb-demo   stationarity + periodogram-law verdict table contrasting the
            frequency-mode product construction with genuine stationary beams

Exit codes: 0 success, 2 usage error, 3 numerical/configuration error or a
grid too large for memory, 4 I/O error.  stdout holds the result (CSV or
JSON) alone, or nothing with --out; every other line goes to stderr.  Every
output file embeds the tool version, the fully resolved configuration, and
the master seed; re-running a command with the embedded configuration
reproduces the file byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError
from . import radiometry
from .fieldgen import FAMILIES, BeamModelSpec, FilterSpec, _whole_steps, generate_ensemble
from .photonics import apply_filter, filtered_laser_sweep, g2
from .spectral import (
    _check_law_traces,
    periodogram_distribution_test,
    spectrum,
    stationarity_test,
    windowed_means_and_carrier_powers,
)
from .traceio import read_trace, write_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# configuration plumbing

def _parse_config_file(path: str) -> dict[str, str]:
    """key=value lines; blank lines and #-comments ignored."""
    out: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _config_as_defaults(args: argparse.Namespace) -> None:
    """Make the config file's values, converted and checked as their flags'
    would be, the subcommand's defaults, which its flags then override."""
    cfg = _parse_config_file(args.config)
    # config keys are the subcommand's long flags without the leading "--"
    actions = {opt[2:]: a for a in args.parser._actions
               for opt in a.option_strings if opt.startswith("--")}
    for key, raw in cfg.items():
        action = actions.get(key)
        if action is None or key == "config" or action.dest not in vars(args):
            raise DomainError(f"config key {key!r} unknown for this command")
        conv = action.type or str
        try:
            value = conv(raw)
        except ValueError as exc:
            raise DomainError(f"config key {key!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise DomainError(f"config key {key!r}: invalid choice {raw!r} "
                              f"(choose from {', '.join(map(str, action.choices))})")
        args.parser.set_defaults(**{action.dest: value})


def _resolved_config(args: argparse.Namespace) -> dict:
    skip = {"func", "parser", "config", "out", "command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _numbers(flag: str, text: str) -> list[float]:
    """The one parse rule of a comma-separated list of numbers (--taus, --fwhms)."""
    values = []
    for entry in text.split(","):
        try:
            values.append(float(entry))
        except ValueError:
            raise DomainError(f"{flag}: {entry!r} is not a number") from None
    return values


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        args.parser.error(f"missing required option(s): {flags}")


_NOT_FINITE = "the output would hold a NaN or an infinity; nothing was written"


def _write_json(out, body: dict) -> None:
    """`body` as sorted, indented JSON to the path `out`, or to stdout; a NaN
    or an infinity, which JSON has no token for, writes nothing."""
    try:
        text = json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:   # allow_nan=False's one error
        raise DomainError(_NOT_FINITE) from None
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cell(value) -> str:
    """The one CSV cell rule: a float (Python or numpy) as repr(float(x)),
    which reads back exactly, and anything else as str(x); a NaN or an
    infinity is a DomainError."""
    if not isinstance(value, (float, np.floating)):
        return str(value)
    if not math.isfinite(value):
        raise DomainError(_NOT_FINITE)
    return repr(float(value))


def _write_csv(out, metadata: dict, columns, rows) -> None:
    """The one CSV layout, to the path `out` or to stdout: sorted
    `# key=value` metadata lines, a header row, then one line per row, every
    value a cell; all lines are formatted before the file is opened."""
    lines = [f"# {key}={_cell(metadata[key])}\n" for key in sorted(metadata)]
    lines.append(",".join(columns) + "\n")
    lines += [",".join(map(_cell, row)) + "\n" for row in rows]
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(lines)


def _emit(args: argparse.Namespace, payload: dict, columns, rows, **metadata) -> None:
    """Write a result to --out (or stdout) in the requested format: the JSON
    `payload`, or a CSV table of `columns` and raw `rows` with `metadata`
    among its metadata lines; either way under the tool version and the
    resolved config."""
    config = _resolved_config(args)
    if args.format == "json":
        _write_json(args.out, {"tool_version": __version__, "config": config, **payload})
    else:
        _write_csv(args.out, {"tool_version": __version__, **config, **metadata}, columns, rows)


def _model_from_args(args: argparse.Namespace) -> BeamModelSpec:
    _require(args, "family", "nu", "gamma")
    return BeamModelSpec(
        family=args.family,
        nu=args.nu,
        gamma=args.gamma,
        jitter_band=args.jitter_band or 0.0,
        jitter_corr_time=args.jitter_corr_time,
    )


def _run_from_args(args: argparse.Namespace) -> tuple[float, int, int, int]:
    """The one way into a generated run: (dt, n, seed, traces), with the
    grid and the seed checked."""
    _require(args, "dt", "duration", "seed", "traces")
    for name in ("dt", "duration"):
        value = getattr(args, name)
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    ratio = args.duration / args.dt
    if not math.isfinite(ratio):
        raise DomainError(f"duration / dt = {ratio} is not a finite sample count")
    if round(ratio) < 2:
        raise DomainError("duration must cover at least 2 samples")
    n = int(_whole_steps(args.duration, args.dt,
                         f"--duration {args.duration!r} not a multiple of --dt {args.dt!r}"))
    if args.seed < 0:
        raise DomainError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.dt, n, args.seed, args.traces


def _stored_traces(in_dir: str):
    """The traces `<in_dir>/run.json` lists under "files", in its order, read
    as they are pulled; no other file in the directory is read."""
    manifest = Path(in_dir) / "run.json"
    try:
        files = json.loads(manifest.read_text())["files"]
    except FileNotFoundError:
        raise DomainError(f"no {manifest}: --in reads the traces it lists") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise DomainError(f"{manifest} malformed: {exc!r}") from exc
    if not (isinstance(files, list) and files and all(
            isinstance(name, str) and name not in ("", ".", "..") and Path(name).name == name
            for name in files) and len(set(files)) == len(files)):
        raise DomainError(f'{manifest}: "files" must be a non-empty list of distinct '
                          'file names')
    return (read_trace(manifest.parent / name) for name in files)


def _ensemble_from_args(args: argparse.Namespace, filt: FilterSpec | None = None):
    """Traces from --in (see _stored_traces), given no generation flag, or generated inline,
    filtered by `filt` if given; the inline size, grid, seed and filter are checked first."""
    if getattr(args, "in_dir", None):
        given = ["--" + k.replace("_", "-") for k in ("family", "nu", "gamma", "dt", "duration",
                 "seed", "traces", "jitter_corr_time", "jitter_band")
                 if getattr(args, k) != (0.0 if k == "jitter_band" else None)]
        if given:
            raise DomainError(f"--in reads stored traces; drop {', '.join(given)}")
        traces = _stored_traces(args.in_dir)
        return traces if filt is None else (apply_filter(t, filt) for t in traces)
    model = _model_from_args(args)
    return generate_ensemble(model, *_run_from_args(args), filt=filt)


# ---------------------------------------------------------------------------
# subcommands

def cmd_blackbody(args: argparse.Namespace) -> int:
    P, A, Gamma, lam0 = args.power, args.area, args.bandwidth, args.wavelength
    coll = radiometry.collimation_efficiency(P, A)
    filt = radiometry.filtering_efficiency(P, A, Gamma, lam0)
    area_peak = radiometry.filament_area(P, lam0)
    rows = [
        ("T_prime_K", coll.temperature, "sqrt(12 hbar P / pi) / k_B"),
        ("lambda_prime_max_m", coll.lambda_max, "2 pi hbar c / (x k_B T_prime)"),
        ("collimation_efficiency_approx", coll.approximate, "lambda_prime_max^2 / A"),
        ("collimation_efficiency_exact", coll.exact, "P_collimated(T_prime) / (sigma A T_prime^4)"),
        ("T_doubleprime_K", filt.temperature, "4 P / (k_B Gamma)"),
        ("lambda_doubleprime_max_m", radiometry.wien_peak(filt.temperature),
         "2 pi hbar c / (x k_B T_doubleprime)"),
        ("nu", filt.nu, "4 P / (hbar omega0 Gamma)"),
        ("filtering_efficiency_total", filt.total,
         "(lambda_doubleprime_max^2 / A) * (Gamma / omega_doubleprime_max)"),
        ("filtering_efficiency_log10_total", filt.log10_total, "log10 of the above"),
        ("filtering_factor_geometric", filt.geometric, "lambda0^2 / A"),
        ("filtering_factor_spectral", filt.spectral, "Gamma / omega0"),
        ("filtering_factor_brightness", filt.brightness, "nu^-3"),
        ("filtering_efficiency_product", filt.product, "geometric * spectral * brightness"),
        ("filtering_efficiency_log10_product", filt.log10_product, "log10 of the above"),
        ("filament_area_for_peak_m2", area_peak, "2.37 P lambda_max^4 / (c^2 hbar)"),
    ]
    payload = {"report": {name: value for name, value, _ in rows},
               "formulas": {name: formula for name, _, formula in rows}}
    _emit(args, payload, ["quantity", "value", "formula"], rows)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    run = _run_from_args(args)
    _require(args, "out")
    # checks the trace count and the grid: nothing is written for a bad run
    traces = generate_ensemble(model, *run)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = max(5, len(str(args.traces - 1)))
    flux_sum = 0.0
    files = []
    for trace in traces:
        path = out_dir / f"trace_{trace.trace_index:0{width}d}.ftrc"
        write_trace(trace, path)
        files.append(path.name)
        flux_sum += float(trace.intensity().mean())
    mean_flux = flux_sum / args.traces
    manifest = {
        "tool_version": __version__,
        "config": _resolved_config(args),
        "files": files,
        "mean_flux": mean_flux,
        "expected_flux": model.mean_flux,
        "degenerate": model.nu == 0.0,
    }
    # the manifest comes last and whole: a run cut short leaves none
    partial = out_dir / "run.json.partial"
    _write_json(partial, manifest)
    os.replace(partial, out_dir / "run.json")
    tag = " (degenerate: nu = 0, zero field)" if model.nu == 0.0 else ""
    print(f"wrote {args.traces} traces to {out_dir}{tag}", file=sys.stderr)
    print(f"mean flux {mean_flux:.6g}  expected nu*Gamma/4 = {model.mean_flux:.6g}", file=sys.stderr)
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    est = spectrum(_ensemble_from_args(args))
    payload = {"spectrum": {"grid": est.grid.tolist(), "values": est.values.tolist(),
                            "std_errors": est.std_errors.tolist(),
                            "ensemble_size": est.ensemble_size}}
    _emit(args, payload, ["detuning", "value", "std_error"],
          zip(est.grid, est.values, est.std_errors), ensemble_size=est.ensemble_size)
    return EXIT_OK


def cmd_g2(args: argparse.Namespace) -> int:
    if args.filter_fwhm is None and args.filter_center != 0.0:
        raise DomainError("--filter-center needs --filter-fwhm: there is no filter to center")
    filt = (None if args.filter_fwhm is None
            else FilterSpec(center_detuning=args.filter_center, fwhm=args.filter_fwhm))
    traces = _ensemble_from_args(args, filt)
    burn_in = args.burn_in
    if burn_in is None:
        burn_in = 0.0 if filt is None else filt.suggested_burn_in()
    est = g2(traces, _numbers("--taus", args.taus), burn_in=burn_in)
    payload = {"g2": {"tau": est.tau.tolist(), "values": est.values.tolist(),
                      "std_errors": est.std_errors.tolist(),
                      "ensemble_size": est.ensemble_size}}
    _emit(args, payload, ["tau", "g2", "std_error"],
          zip(est.tau, est.values, est.std_errors), ensemble_size=est.ensemble_size)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, "nu", "gamma")
    run = _run_from_args(args)
    # the plain spec checks gamma before the jitter defaults divide by it
    model = BeamModelSpec(family="jittered_laser", nu=args.nu, gamma=args.gamma)
    model = dataclasses.replace(
        model,
        jitter_band=args.jitter_band if args.jitter_band is not None else 100.0 * model.gamma,
        jitter_corr_time=(args.jitter_corr_time if args.jitter_corr_time is not None
                          else 1.5 / model.gamma))
    fwhms = [f * args.gamma for f in _numbers("--fwhms", args.fwhms)]
    rows = filtered_laser_sweep(model, fwhms, *run, center_detuning=args.filter_center)
    payload = {"sweep": [{"fwhm": r.fwhm, "value": r.g2_zero, "std_error": r.std_error,
                          "ensemble_size": r.ensemble_size} for r in rows]}
    _emit(args, payload, ["fwhm", "value", "std_error", "ensemble_size"],
          [(r.fwhm, r.g2_zero, r.std_error, r.ensemble_size) for r in rows])
    return EXIT_OK


def cmd_qslb_demo(args: argparse.Namespace) -> int:
    _require(args, "nu", "gamma")
    run = _run_from_args(args)
    if not 0.0 < args.significance < 1.0:   # NaN fails too; before any ensemble is generated
        raise DomainError(f"significance must lie in (0, 1), got {args.significance!r}")
    families = ("thermal", "laser", "kspace_product")
    # every family's grid is checked before any ensemble is generated
    ensembles = [generate_ensemble(BeamModelSpec(family=f, nu=args.nu, gamma=args.gamma), *run)
                 for f in families]
    _check_law_traces(args.traces)   # so is the periodogram-law test's trace count
    results = []
    for family, traces in zip(families, ensembles):
        W, carrier = windowed_means_and_carrier_powers(traces, args.windows)
        p_values = {"stationarity": stationarity_test(W).p_value,
                    "periodogram": periodogram_distribution_test(carrier).p_value}
        # the one verdict rule: a test passes when its p-value exceeds --significance
        passed = {test: p > args.significance for test, p in p_values.items()}
        results.append({"family": family,
                        **{f"{test}_p": p for test, p in p_values.items()},
                        **{f"{test}_passed": ok for test, ok in passed.items()},
                        "verdict": "stationary" if all(passed.values()) else "rejected"})
    payload = {"results": results}
    columns = ["family", "stationarity_p", "stationarity_passed",
               "periodogram_p", "periodogram_passed", "verdict"]
    _emit(args, payload, columns, [[r[c] for c in columns] for r in results])
    for r in results:
        print(f"{r['family']:<16} {r['verdict']}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser construction

def _add_common(sub: argparse.ArgumentParser, *, model: bool = True, family: bool = False,
                formats: tuple[str, ...] = ("csv", "json")) -> None:
    sub.add_argument("--config", type=str, default=None,
                     help="key=value config file; explicit flags override")
    sub.add_argument("--out", type=str, default=None, help="output file path")
    sub.add_argument("--format", choices=formats, default="csv")
    if model:
        sub.add_argument("--seed", type=int, default=None, help="master RNG seed")
        sub.add_argument("--traces", type=int, default=None, help="ensemble size")
        sub.add_argument("--dt", type=float, default=None, help="sample spacing, s")
        sub.add_argument("--duration", type=float, default=None, help="trace length, s")
        sub.add_argument("--nu", type=float, default=None,
                         help="photons per coherence time (dimensionless)")
        sub.add_argument("--gamma", type=float, default=None, help="linewidth, 1/s")
    if family:
        sub.add_argument("--family", choices=FAMILIES, default=None)
        sub.add_argument("--jitter-band", type=float, default=0.0, help="Delta omega, rad/s")
        sub.add_argument("--jitter-corr-time", type=float, default=None, help="s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamsim",
        description="Stochastic-optics beam simulation and analysis toolkit.")
    parser.add_argument("--version", action="version", version=f"beamsim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("blackbody", help="closed-form radiometry report")
    _add_common(p, model=False)
    p.add_argument("--power", type=float, default=0.1, help="beam power, W")
    p.add_argument("--area", type=float, default=15e-6, help="filament area, m^2")
    p.add_argument("--bandwidth", type=float, default=1e7, help="filter linewidth Gamma, 1/s")
    p.add_argument("--wavelength", type=float, default=1e-6, help="carrier wavelength, m")
    p.set_defaults(func=cmd_blackbody, parser=p)

    p = subs.add_parser("simulate", help="generate and store an ensemble of traces")
    _add_common(p, family=True, formats=("csv",))   # .ftrc traces and run.json; nothing to choose
    p.set_defaults(func=cmd_simulate, parser=p)

    p = subs.add_parser("spectrum", help="ensemble-averaged periodogram")
    _add_common(p, family=True)
    p.add_argument("--in", dest="in_dir", type=str, default=None,
                   help="directory of stored .ftrc traces (instead of inline generation)")
    p.set_defaults(func=cmd_spectrum, parser=p)

    p = subs.add_parser("g2", help="normalized intensity autocorrelation")
    _add_common(p, family=True)
    p.add_argument("--in", dest="in_dir", type=str, default=None)
    p.add_argument("--taus", type=str, default="0.0",
                   help="comma-separated lag values, s (multiples of dt)")
    p.add_argument("--filter-fwhm", type=float, default=None,
                   help="apply a Lorentzian filter of this FWHM before g2")
    p.add_argument("--filter-center", type=float, default=0.0,
                   help="filter center detuning, rad/s")
    p.add_argument("--burn-in", type=float, default=None,
                   help="leading margin excluded from analysis, s")
    p.set_defaults(func=cmd_g2, parser=p)

    p = subs.add_parser("sweep", help="filtered jittered-laser g2(0) vs filter width")
    _add_common(p)
    p.add_argument("--jitter-band", type=float, default=None,
                   help="Delta omega, rad/s (default 100*gamma)")
    p.add_argument("--jitter-corr-time", type=float, default=None,
                   help="s (default 1.5/gamma)")
    p.add_argument("--fwhms", type=str, default="1e4,100,10,0.1",
                   help="comma-separated filter FWHMs in units of gamma")
    p.add_argument("--filter-center", type=float, default=0.0)
    p.set_defaults(func=cmd_sweep, parser=p)

    p = subs.add_parser("qslb-demo",
                        help="stationarity + periodogram-law verdicts for "
                             "thermal, laser, and frequency-mode-product ensembles")
    _add_common(p)
    p.add_argument("--windows", type=int, default=8, help="windows per trace")
    p.add_argument("--significance", type=float, default=1e-3)
    p.set_defaults(func=cmd_qslb_demo, parser=p)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, args = build_parser(), None
    try:
        args = parser.parse_args(argv)
        if args.config:   # argparse alone decides which flags were given
            _config_as_defaults(args)
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors / --help
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except ValueError as exc:  # DomainError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError:
        grid = " ".join(f"--{k} {getattr(args, k)}" for k in ("dt", "duration", "traces")
                        if getattr(args, k, None) is not None)
        print(f"error: out of memory for the grid {grid or 'of the --in traces'}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
