"""Golden outputs of every subcommand.

Each case runs at a tiny size and its text is compared with a fixture under
``tests/golden/``: everything outside numbers must match exactly and every
number to a relative 1e-12.  The fixtures pin the CSV and JSON bytes across
refactors of the reduction and output code; a result on stdout must give the
text of the same result with ``--out``, so it has no fixture of its own.

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
import json
import re
import sys
from pathlib import Path

import pytest

from beamsim import cli
from beamsim.fieldgen import FAMILIES, BeamModelSpec, generate_trace
from beamsim.spectral import stationarity_test

GOLDEN = Path(__file__).with_name("golden")
N_PERMUTATIONS = 199

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
    "csv-stdout": (),                       # must give the csv-out fixture's text
    "csv-out": ("--out", "{out}"),
    "json": ("--format", "json", "--out", "{out}"),
    "json-stdout": ("--format", "json"),   # must give the json fixture's text
}
SIMULATE = ("simulate", "--family", "thermal", *_MODEL, "--dt", "0.01",
            "--duration", "0.32", "--traces", "3", "--out", "{store}")

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def _run(argv, tmp: Path) -> tuple[str, str]:
    """Run the CLI in-process; return its stdout and its stderr."""
    argv = [a.format(store=tmp / "store", out=tmp / "out") for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert cli.main(argv) == 0
    return stdout.getvalue(), stderr.getvalue()


def _mask(text: str, tmp: Path) -> str:
    return text.replace(str(tmp), "<tmp>")


def render(case: str, tmp: Path, monkeypatch) -> str:
    """The text a case produces: stderr, stdout, then the --out file when
    there is one."""
    monkeypatch.setattr(cli, "stationarity_test",
                        functools.partial(stationarity_test, n_permutations=N_PERMUTATIONS))
    if case == "simulate":
        out, err = _run(SIMULATE, tmp)
        return _mask(err + out + (tmp / "store" / "run.json").read_text(), tmp)
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
    command, fmt = case.rsplit(".", 1)
    if command == "spectrum-in":
        _run(SIMULATE, tmp)
    out, err = _run(COMMANDS[command] + FORMATS[fmt], tmp)
    if fmt == "json-stdout":
        json.loads(out)   # stdout holds the JSON document alone
    text = err + out
    if "--out" in FORMATS[fmt]:
        text = text + (tmp / "out").read_text()
    return _mask(text, tmp)


CASES = ["simulate", "traces"] + [
    f"{command}.{fmt}" for command in COMMANDS for fmt in FORMATS]


def assert_same_text(actual: str, expected: str) -> None:
    assert NUMBER.sub("#", actual) == NUMBER.sub("#", expected)
    for got, want in zip(NUMBER.findall(actual), NUMBER.findall(expected)):
        assert float(got) == pytest.approx(float(want), rel=1e-12, nan_ok=True), (got, want)


def fixture(case: str) -> Path:
    """A result on stdout has the fixture of its --out twin."""
    twin = case.replace(".csv-stdout", ".csv-out").replace(".json-stdout", ".json")
    return GOLDEN / f"{twin}.txt"


@pytest.mark.parametrize("case", CASES)
def test_golden_output(case, tmp_path, monkeypatch):
    assert_same_text(render(case, tmp_path, monkeypatch), fixture(case).read_text())


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case in (c for c in CASES if fixture(c).name == f"{c}.txt"):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            (GOLDEN / f"{case}.txt").write_text(render(case, Path(tmp), mp))
        print(f"wrote {case}", file=sys.stderr)
