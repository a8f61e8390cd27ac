"""Golden outputs of every subcommand and of the estimate CSV writers.

Each case runs at a tiny size and its text is compared with a fixture under
``tests/golden/``: everything outside numbers must match exactly and every
number to a relative 1e-12.  The fixtures pin the CSV (stdout and ``--out``)
and JSON bytes across refactors of the reduction and output code.

``traces`` pins the first and last four samples of one trace of every
generator family at a fixed seed and trace index.

``qslb-demo`` runs with 199 permutations instead of 4999 to stay fast; the
output path is the same.

Regenerate the fixtures only for an intended output change:
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import re
import sys
from pathlib import Path

import pytest

from beamsim import cli
from beamsim.fieldgen import FAMILIES, BeamModelSpec, generate_ensemble, generate_trace
from beamsim.photonics import g2
from beamsim.spectral import cross_mode_correlation, stationarity_test

GOLDEN = Path(__file__).with_name("golden")
N_PERMUTATIONS = 199
THERMAL = BeamModelSpec(family="thermal", nu=100.0, gamma=1.0)

_MODEL = ("--nu", "100", "--gamma", "1", "--seed", "5")
COMMANDS = {
    "blackbody": ("blackbody",),
    "spectrum": ("spectrum", "--family", "thermal", *_MODEL, "--dt", "0.01",
                 "--duration", "0.64", "--traces", "3"),
    "spectrum-in": ("spectrum", "--in", "{store}"),
    "g2": ("g2", "--family", "thermal", *_MODEL, "--dt", "0.01", "--duration", "1",
           "--traces", "4", "--taus", "0,0.05,0.1"),
    "g2-filtered": ("g2", "--family", "laser", *_MODEL, "--dt", "0.01", "--duration", "2",
                    "--traces", "3", "--taus", "0,0.01", "--filter-fwhm", "20"),
    "sweep": ("sweep", *_MODEL, "--dt", "0.001", "--duration", "20", "--traces", "2",
              "--fwhms", "100,10"),
    "qslb-demo": ("qslb-demo", *_MODEL, "--dt", "0.01", "--duration", "10.24",
                  "--traces", "1000", "--windows", "4"),
}
FORMATS = {
    "csv-stdout": (),
    "csv-out": ("--out", "{out}"),
    "json": ("--format", "json", "--out", "{out}"),
}
SIMULATE = ("simulate", "--family", "thermal", *_MODEL, "--dt", "0.01",
            "--duration", "0.32", "--traces", "3", "--out", "{store}")

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def _run(argv, tmp: Path) -> str:
    """Run the CLI in-process; return its stdout."""
    argv = [a.format(store=tmp / "store", out=tmp / "out") for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    return stdout.getvalue()


def _mask(text: str, tmp: Path) -> str:
    return text.replace(str(tmp), "<tmp>")


def render(case: str, tmp: Path, monkeypatch) -> str:
    """The text a case produces: stdout, or the --out file when there is one."""
    monkeypatch.setattr(cli, "stationarity_test",
                        functools.partial(stationarity_test, n_permutations=N_PERMUTATIONS))
    if case == "simulate":
        text = _run(SIMULATE, tmp) + (tmp / "store" / "run.json").read_text()
        return _mask(text, tmp)
    if case == "correlation-to-csv":
        est = cross_mode_correlation(generate_ensemble(THERMAL, 0.01, 64, 5, 3),
                                     [(0.0, 0.0), (0.0, 2.0 * math.pi / 0.64)])
        est.to_csv(tmp / "out", {"seed": 5})
        return (tmp / "out").read_text()
    if case == "traces":
        lines = ["family,sample,re,im"]
        for family in FAMILIES:
            jitter = ({"jitter_band": 20.0, "jitter_corr_time": 10.0}
                      if family == "jittered_laser" else {})
            model = BeamModelSpec(family=family, nu=100.0, gamma=1.0, **jitter)
            samples = generate_trace(model, 0.005, 4000, 5, trace_index=3).samples
            lines += [f"{family},{j},{float(samples[j].real)!r},{float(samples[j].imag)!r}"
                      for j in (0, 1, 2, 3, 3996, 3997, 3998, 3999)]
        return "\n".join(lines) + "\n"
    if case == "g2-to-csv":
        g2(generate_ensemble(THERMAL, 0.01, 200, 5, 3), [0.0, 0.02]).to_csv(tmp / "out")
        return (tmp / "out").read_text()
    command, fmt = case.rsplit(".", 1)
    if command == "spectrum-in":
        _run(SIMULATE, tmp)
    text = _run(COMMANDS[command] + FORMATS[fmt], tmp)
    if fmt != "csv-stdout":
        text = text + (tmp / "out").read_text()
    return _mask(text, tmp)


CASES = ["simulate", "correlation-to-csv", "g2-to-csv", "traces"] + [
    f"{command}.{fmt}" for command in COMMANDS for fmt in FORMATS]


def assert_same_text(actual: str, expected: str) -> None:
    assert NUMBER.sub("#", actual) == NUMBER.sub("#", expected)
    for got, want in zip(NUMBER.findall(actual), NUMBER.findall(expected)):
        assert float(got) == pytest.approx(float(want), rel=1e-12, nan_ok=True), (got, want)


@pytest.mark.parametrize("case", CASES)
def test_golden_output(case, tmp_path, monkeypatch):
    expected = (GOLDEN / f"{case}.txt").read_text()
    assert_same_text(render(case, tmp_path, monkeypatch), expected)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            (GOLDEN / f"{case}.txt").write_text(render(case, Path(tmp), mp))
        print(f"wrote {case}", file=sys.stderr)
