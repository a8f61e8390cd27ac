"""Unit tests for the command-line interface."""

import contextlib
import functools
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsim import cli, fieldgen
from beamsim.cli import main
from beamsim.fieldgen import BeamModelSpec, generate_ensemble
from beamsim.photonics import filtered_laser_sweep
from beamsim.spectral import spectrum, stationarity_test
from beamsim.traceio import read_trace


SRC = Path(cli.__file__).parents[1]


def run(*argv):
    return main(list(argv))


def csv_values(path):
    """Parse a quantity,value CSV report into a dict (metadata lines skipped)."""
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("quantity,"):
            continue
        name, value, _formula = line.split(",", 2)
        out[name] = float(value)
    return out


class TestBlackbody:
    def test_report_contains_paper_scenario_numbers(self, tmp_path):
        path = tmp_path / "report.csv"
        assert run("blackbody", "--out", str(path)) == 0
        values = csv_values(path)
        assert values["T_prime_K"] == pytest.approx(4.6e5, rel=0.02)
        assert values["T_doubleprime_K"] == pytest.approx(2.9e15, rel=0.02)
        assert values["collimation_efficiency_approx"] == pytest.approx(2.6e-12, rel=0.05)
        assert -52.5 <= values["filtering_efficiency_log10_total"] <= -49.5

    def test_json_format(self, tmp_path):
        path = tmp_path / "report.json"
        assert run("blackbody", "--format", "json", "--out", str(path)) == 0
        body = json.loads(path.read_text())
        assert body["report"]["T_prime_K"] == pytest.approx(4.6e5, rel=0.02)
        assert body["config"]["power"] == 0.1
        assert "tool_version" in body

    def test_filament_area_for_60W_bulb(self, tmp_path):
        path = tmp_path / "report.csv"
        assert run("blackbody", "--power", "60", "--out", str(path)) == 0
        assert csv_values(path)["filament_area_for_peak_m2"] == pytest.approx(15e-6, rel=0.05)

    def test_stdout_when_no_out(self, capsys):
        assert run("blackbody") == 0
        assert "T_prime_K" in capsys.readouterr().out

    def test_io_error_exit_code(self, tmp_path):
        missing = tmp_path / "no_such_dir" / "report.csv"
        assert run("blackbody", "--out", str(missing)) == 4

    def test_bad_value_exit_code(self):
        assert run("blackbody", "--power", "-1") == 3

    @pytest.mark.parametrize("flag, value, quantity", [
        ("--wavelength", "1e-300", "nu, photons per coherence time,"),
        ("--wavelength", "1e300", "nu, photons per coherence time,"),
        ("--bandwidth", "1e300", "total filtering efficiency"),
        ("--power", "1e300", "approximate collimation efficiency"),
        ("--area", "1e300", "approximate collimation efficiency"),
    ])
    def test_a_result_past_the_float_range_is_named(self, capsys, tmp_path, flag, value,
                                                     quantity):
        """Finite, positive inputs whose report leaves the float range exit 3
        naming the quantity, with nothing written: no traceback (exit 1), no
        bare "math domain error"."""
        out = tmp_path / "report.csv"
        for argv in (("blackbody", flag, value), ("blackbody", flag, value, "--out", str(out))):
            assert run(*argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {quantity} leaves the float range\n"
        assert not out.exists()


class TestUsageErrors:
    def test_missing_required_flags(self):
        assert run("simulate") == 2

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 2

    def test_help_exits_zero(self):
        assert run("--help") == 0


class TestDomainAndGridErrors:
    MODEL = ("--nu", "100", "--gamma", "1", "--traces", "2", "--seed", "3")

    def test_jitter_options_on_a_plain_laser(self, capsys):
        assert run("spectrum", "--family", "laser", *self.MODEL, "--dt", "0.01",
                   "--duration", "20", "--jitter-band", "5", "--jitter-corr-time", "3") == 3
        err = capsys.readouterr().err
        assert "only to jittered_laser" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("grid", [("--dt", "0"), ("--dt", "-0.01"), ("--dt", "nan"),
                                      ("--duration", "inf"), ("--duration", "0")])
    @pytest.mark.parametrize("command", ["spectrum", "sweep"])
    def test_bad_grid(self, capsys, command, grid):
        args = {"--dt": "0.01", "--duration": "20", grid[0]: grid[1]}
        family = ("--family", "thermal") if command == "spectrum" else ()
        assert run(command, *family, *self.MODEL, *(x for kv in args.items() for x in kv)) == 3
        err = capsys.readouterr().err
        assert f"{grid[0][2:]} must be finite and > 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "spectrum", "g2", "sweep", "qslb-demo"])
    def test_duration_not_a_multiple_of_dt(self, tmp_path, capsys, command):
        """20.005 s at dt = 0.01 s would be analysed as 20.0 s: exit 3, naming both."""
        family = ("--family", "thermal") if command in ("simulate", "spectrum", "g2") else ()
        out = tmp_path / "out"
        assert run(command, *family, *self.MODEL, "--dt", "0.01", "--duration", "20.005",
                   "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "--duration 20.005 not a multiple of --dt 0.01" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_duration_under_two_samples(self, capsys):
        assert run("spectrum", "--family", "thermal", *self.MODEL, "--dt", "0.01",
                   "--duration", "0.01") == 3
        assert "duration must cover at least 2 samples" in capsys.readouterr().err

    def test_sample_count_overflow(self, capsys):
        assert run("spectrum", "--family", "thermal", *self.MODEL, "--dt", "1e-300",
                   "--duration", "1e300") == 3
        assert "not a finite sample count" in capsys.readouterr().err

    @pytest.mark.parametrize("burn_in", ["-1", "nan"])
    def test_bad_burn_in(self, capsys, burn_in):
        assert run("g2", "--family", "thermal", *self.MODEL, "--dt", "0.01",
                   "--duration", "20", "--burn-in", burn_in) == 3
        assert "burn_in must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("significance", ["nan", "0", "1", "-1", "2"])
    def test_meaningless_significance(self, capsys, significance):
        assert run("qslb-demo", *self.MODEL, "--dt", "0.01", "--duration", "20",
                   "--significance", significance) == 3
        captured = capsys.readouterr()
        assert "significance must lie in (0, 1)" in captured.err
        assert "Traceback" not in captured.err
        assert "rejected" not in captured.out

    @pytest.mark.parametrize("command", ["g2", "sweep"])
    def test_zero_flux_g2(self, capsys, command):
        args = (("--family", "laser", "--dt", "0.01", "--duration", "20") if command == "g2"
                else ("--dt", "0.001", "--duration", "20", "--fwhms", "100,10"))
        assert run(command, "--nu", "0", "--gamma", "1", "--traces", "2", "--seed", "3",
                   *args) == 3
        captured = capsys.readouterr()
        assert "zero mean flux" in captured.err
        assert "Traceback" not in captured.err
        assert "nan" not in captured.out

    @pytest.mark.parametrize("command", ["g2", "sweep"])
    def test_a_flux_too_dim_to_square_exit_code(self, command):
        """A mean flux below the square root of the smallest normal float has
        no normal square: one error line, and no numpy warning to raise."""
        args = (("--family", "thermal", "--dt", "0.01", "--duration", "20") if command == "g2"
                else ("--dt", "0.001", "--duration", "20", "--fwhms", "100,10"))
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "beamsim.cli", command,
             "--nu", "1e-160", "--gamma", "1", "--traces", "2", "--seed", "3", *args],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr == ("error: zero mean flux (nu = 0?), or one below 1.49e-154: "
                                 "g2 is undefined\n")

    @pytest.mark.parametrize("gamma", ["0", "-1", "nan"])
    def test_sweep_checks_gamma_before_its_jitter_defaults(self, capsys, gamma):
        """The default --jitter-corr-time is 1.5/gamma: gamma = 0 used to
        end in a ZeroDivisionError."""
        assert run("sweep", "--nu", "100", "--gamma", gamma, "--seed", "1", "--traces", "2",
                   "--dt", "0.001", "--duration", "20") == 3
        err = capsys.readouterr().err
        assert "gamma must be finite and > 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("family", ["kspace_product", "periodic_thermal"])
    def test_mode_families_obey_the_dt_bound(self, capsys, family):
        assert run("spectrum", "--family", family, *self.MODEL, "--dt", "0.02",
                   "--duration", "400") == 3
        err = capsys.readouterr().err
        assert "dt=0.02 too coarse for gamma=1; require dt <= 0.01/gamma" in err
        assert "Traceback" not in err

    def test_qslb_demo_checks_every_grid_before_generating(self, capsys, monkeypatch):
        """kspace_product's duration bound fails before the thermal and laser
        ensembles are generated."""
        def no_generation(*args):
            raise AssertionError("a trace was generated")

        monkeypatch.setattr(fieldgen, "_GENERATORS",
                            dict.fromkeys(fieldgen.FAMILIES, no_generation))
        assert run("qslb-demo", *self.MODEL, "--dt", "0.01", "--duration", "5") == 3
        captured = capsys.readouterr()
        assert "duration 5 too short; require duration > 10/gamma" in captured.err
        assert captured.out == ""

    def test_qslb_demo_checks_the_trace_count_before_generating(self, capsys, monkeypatch):
        def no_generation(*args):
            raise AssertionError("a trace was generated")

        monkeypatch.setattr(fieldgen, "_GENERATORS",
                            dict.fromkeys(fieldgen.FAMILIES, no_generation))
        assert run("qslb-demo", "--nu", "100", "--gamma", "1", "--traces", "999",
                   "--seed", "3", "--dt", "0.01", "--duration", "20") == 3
        captured = capsys.readouterr()
        assert "need >= 1000 traces, got 999" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["spectrum", "g2", "sweep", "qslb-demo"])
    def test_grid_too_large_for_memory(self, capsys, monkeypatch, command):
        """numpy raises MemoryError (its _ArrayMemoryError) for an array
        larger than the machine can hold: exit 3, naming the grid."""
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(fieldgen, "_GENERATORS",
                            dict.fromkeys(fieldgen.FAMILIES, out_of_memory))
        extra = {"sweep": ("--fwhms", "10"), "qslb-demo": ()}.get(command,
                                                                  ("--family", "thermal"))
        # the sweep's default jitter band, 100*gamma, is coarse at this dt
        with (pytest.warns(UserWarning, match="jitter phase steps are coarse")
              if command == "sweep" else contextlib.nullcontext()):
            assert run(command, *extra, "--nu", "100", "--gamma", "1", "--traces", "1000",
                       "--seed", "1", "--dt", "0.01", "--duration", "20") == 3
        err = capsys.readouterr().err
        assert "out of memory for the grid --dt 0.01 --duration 20.0 --traces 1000" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "spectrum", "g2", "sweep", "qslb-demo"])
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, command):
        family = () if command in ("sweep", "qslb-demo") else ("--family", "thermal")
        out = tmp_path / "out"
        assert run(command, *family, "--nu", "100", "--gamma", "1", "--traces", "2",
                   "--seed", "-1", "--dt", "0.01", "--duration", "20", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "--seed must be a non-negative integer, got -1" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, entry", [
        ("g2", "--taus", "0,x", "'x'"),
        ("g2", "--taus", "", "''"),
        ("sweep", "--fwhms", "1,,2", "''"),
    ])
    def test_a_bad_list_entry_names_the_flag(self, tmp_path, capsys, command, flag, value, entry):
        family = ("--family", "thermal") if command == "g2" else ()
        out = tmp_path / "out"
        assert run(command, *family, "--nu", "100", "--gamma", "1", "--traces", "2",
                   "--seed", "1", "--dt", "0.01", "--duration", "20", flag, value,
                   "--out", str(out)) == 3
        assert capsys.readouterr().err == f"error: {flag}: {entry} is not a number\n"
        assert not out.exists()


class TestSimulate:
    ARGS = ("simulate", "--family", "laser", "--nu", "100", "--gamma", "1",
            "--dt", "0.01", "--duration", "50", "--traces", "3", "--seed", "42")

    def test_writes_traces_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(*self.ARGS, "--out", str(out)) == 0
        files = sorted(out.glob("*.ftrc"))
        assert len(files) == 3
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["config"]["seed"] == 42
        assert manifest["expected_flux"] == 25.0
        assert "expected nu*Gamma/4 = 25" in capsys.readouterr().err
        trace = read_trace(files[0])
        assert trace.model.family == "laser"
        assert trace.n_samples == 5000

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*self.ARGS, "--out", str(a)) == 0
        assert run(*self.ARGS, "--out", str(b)) == 0
        for fa in sorted(a.iterdir()):
            assert fa.read_bytes() == (b / fa.name).read_bytes()

    def test_degenerate_zero_brightness(self, tmp_path, capsys):
        out = tmp_path / "zero"
        assert run("simulate", "--family", "thermal", "--nu", "0", "--gamma", "1",
                   "--dt", "0.01", "--duration", "50", "--traces", "2",
                   "--seed", "1", "--out", str(out)) == 0
        assert "degenerate" in capsys.readouterr().err
        assert json.loads((out / "run.json").read_text())["degenerate"] is True

    def test_json_format_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(*self.ARGS, "--format", "json", "--out", str(out)) == 2
        assert not out.exists()
        assert "invalid choice" in capsys.readouterr().err

    def test_json_format_in_config_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=json\n")
        out = tmp_path / "run"
        assert run(*self.ARGS, "--config", str(cfg), "--out", str(out)) == 3
        assert not out.exists()
        assert "invalid choice" in capsys.readouterr().err

    def test_numerical_error_exit_code(self, tmp_path):
        out = tmp_path / "x"
        assert run("simulate", "--family", "thermal", "--nu", "100", "--gamma", "1",
                   "--dt", "5", "--duration", "500", "--traces", "1",
                   "--seed", "1", "--out", str(out)) == 3
        assert not out.exists()

    @pytest.mark.parametrize("bad", [("--traces", "0"), ("--seed", "-1")])
    def test_rejected_run_leaves_no_directory(self, tmp_path, capsys, bad):
        out = tmp_path / "run"
        args = list(self.ARGS)
        args[args.index(bad[0]) + 1] = bad[1]
        assert run(*args, "--out", str(out)) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_failed_write_leaves_no_manifest(self, tmp_path, monkeypatch, capsys):
        from beamsim import cli

        write = cli.write_trace

        def failing_write(trace, path):
            if trace.trace_index == 2:
                raise OSError("disk full")
            write(trace, path)

        monkeypatch.setattr(cli, "write_trace", failing_write)
        out = tmp_path / "run"
        assert run(*self.ARGS, "--out", str(out)) == 4
        assert "disk full" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["trace_00000.ftrc", "trace_00001.ftrc"]


class TestSpectrum:
    def test_inline_matches_library(self, tmp_path):
        path = tmp_path / "spec.json"
        assert run("spectrum", "--family", "thermal", "--nu", "100", "--gamma", "1",
                   "--dt", "0.01", "--duration", "20", "--traces", "4",
                   "--seed", "9", "--format", "json", "--out", str(path)) == 0
        body = json.loads(path.read_text())
        model = BeamModelSpec(family="thermal", nu=100.0, gamma=1.0)
        expected = spectrum(generate_ensemble(model, 0.01, 2000, 9, 4))
        assert np.allclose(body["spectrum"]["values"], expected.values)

    def test_from_stored_traces(self, tmp_path):
        run_dir = tmp_path / "run"
        assert run(*TestSimulate.ARGS, "--out", str(run_dir)) == 0
        path = tmp_path / "spec.csv"
        assert run("spectrum", "--in", str(run_dir), "--out", str(path)) == 0
        assert "# ensemble_size=3" in path.read_text()

    def test_empty_input_dir(self, tmp_path):
        assert run("spectrum", "--in", str(tmp_path)) == 3

    def test_reads_only_the_files_run_json_lists(self, tmp_path):
        run_dir, other = tmp_path / "run", tmp_path / "other"
        assert run(*TestSimulate.ARGS, "--out", str(run_dir)) == 0
        assert run(*TestSimulate.ARGS[:-4], "--traces", "5", "--seed", "43",
                   "--out", str(other)) == 0
        stray = other / "trace_00004.ftrc"   # a file of another run, copied in
        (run_dir / stray.name).write_bytes(stray.read_bytes())
        path = tmp_path / "spec.csv"
        assert run("spectrum", "--in", str(run_dir), "--out", str(path)) == 0
        assert "# ensemble_size=3" in path.read_text()

    @pytest.mark.parametrize("manifest", [
        pytest.param(None, id="missing"),
        pytest.param("{", id="not-json"),
        pytest.param("[]", id="not-an-object"),
        pytest.param('{"config": {}}', id="no-files"),
        pytest.param('{"files": "trace_00000.ftrc"}', id="files-not-a-list"),
        pytest.param('{"files": []}', id="empty"),
        pytest.param('{"files": ["trace_00000.ftrc", 5]}', id="not-a-string"),
        pytest.param('{"files": ["../run/trace_00000.ftrc"]}', id="parent-path"),
        pytest.param('{"files": ["sub/trace_00000.ftrc"]}', id="subdirectory"),
        pytest.param('{"files": [""]}', id="empty-name"),
        pytest.param('{"files": [".."]}', id="dot-dot"),
        pytest.param('{"files": ["trace_00000.ftrc", "trace_00000.ftrc"]}', id="duplicate"),
    ])
    def test_missing_or_malformed_run_json(self, tmp_path, capsys, manifest):
        run_dir = tmp_path / "run"
        assert run(*TestSimulate.ARGS, "--out", str(run_dir)) == 0
        if manifest is None:   # as a simulate run cut short leaves it
            (run_dir / "run.json").unlink()
        else:
            (run_dir / "run.json").write_text(manifest)
        assert run("g2", "--in", str(run_dir)) == 3
        err = capsys.readouterr().err
        assert "run.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("record", [b"FTRC\x01", b"FTRC\x01\x00\x00\x00\x01\x00\x00\x00\xff"])
    def test_corrupt_trace_file(self, tmp_path, capsys, record):
        (tmp_path / "bad.ftrc").write_bytes(record)
        (tmp_path / "run.json").write_text('{"files": ["bad.ftrc"]}')
        assert run("spectrum", "--in", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "bad.ftrc: trace" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cut", [1, 3])
    def test_trace_file_cut_inside_a_sample(self, tmp_path, capsys, cut):
        run_dir = tmp_path / "run"
        assert run(*TestSimulate.ARGS, "--out", str(run_dir)) == 0
        path = sorted(run_dir.glob("*.ftrc"))[1]
        path.write_bytes(path.read_bytes()[:-cut])
        assert run("spectrum", "--in", str(run_dir)) == 3
        err = capsys.readouterr().err
        assert f"{path.name}: payload" in err
        assert "Traceback" not in err

    # every generation flag, in the order the error names them; --seed 0 is a real seed
    GENERATION = {"family": "laser", "nu": "100", "gamma": "1", "dt": "0.5", "duration": "50",
                  "seed": "0", "traces": "7", "jitter-corr-time": "1", "jitter-band": "20"}

    @pytest.mark.parametrize("form", ["flags", "config"])
    @pytest.mark.parametrize("command", ["spectrum", "g2"])
    def test_in_rejects_generation_flags(self, tmp_path, capsys, command, form):
        """--in analyses stored traces: a generation flag given with it would
        be recorded in the output for a run it did not make."""
        run_dir, out = tmp_path / "run", tmp_path / "result"
        assert run(*TestSimulate.ARGS, "--out", str(run_dir)) == 0
        capsys.readouterr()
        if form == "flags":
            extra = [arg for key, value in self.GENERATION.items() for arg in (f"--{key}", value)]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{key}={value}\n" for key, value in self.GENERATION.items()))
            extra = ["--config", str(cfg)]
        assert run(command, "--in", str(run_dir), *extra, "--out", str(out)) == 3
        flags = ", ".join(f"--{key}" for key in self.GENERATION)
        assert capsys.readouterr() == ("", f"error: --in reads stored traces; drop {flags}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "g2"])
    def test_in_takes_analysis_flags_and_a_zero_jitter_band(self, tmp_path, command):
        run_dir, out = tmp_path / "run", tmp_path / "result.json"
        assert run(*TestSimulate.ARGS, "--out", str(run_dir)) == 0
        analysis = ("--taus", "0,0.01", "--filter-fwhm", "20", "--filter-center", "0",
                    "--burn-in", "0.5") if command == "g2" else ()
        assert run(command, "--in", str(run_dir), "--jitter-band", "0", *analysis,
                   "--format", "json", "--out", str(out)) == 0
        assert json.loads(out.read_text())["config"]["seed"] is None

    def test_byte_identical_reruns(self, tmp_path):
        args = ("spectrum", "--family", "laser", "--nu", "100", "--gamma", "1",
                "--dt", "0.01", "--duration", "20", "--traces", "3", "--seed", "5")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestG2Command:
    def test_ideal_laser_column_of_ones(self, tmp_path):
        path = tmp_path / "g2.csv"
        assert run("g2", "--family", "laser", "--nu", "100", "--gamma", "1",
                   "--dt", "0.01", "--duration", "20", "--traces", "5",
                   "--seed", "3", "--taus", "0.0,0.5,1.0", "--out", str(path)) == 0
        rows = [line for line in path.read_text().splitlines()
                if not line.startswith("#") and not line.startswith("tau,")]
        for row in rows:
            assert float(row.split(",")[1]) == 1.0

    def test_filtered_g2_runs(self, tmp_path):
        path = tmp_path / "g2f.json"
        assert run("g2", "--family", "thermal", "--nu", "100", "--gamma", "1",
                   "--dt", "0.01", "--duration", "100", "--traces", "10",
                   "--seed", "3", "--taus", "0.0", "--filter-fwhm", "1.0",
                   "--format", "json", "--out", str(path)) == 0
        body = json.loads(path.read_text())
        assert 1.0 < body["g2"]["values"][0] < 4.0

    def test_stored_traces_take_the_filter_as_generated_ones(self, tmp_path):
        """g2 --in filters stored traces as a generated run filters its own:
        the same g2 payload at the same seed and grid."""
        run_dir, stored, generated = tmp_path / "run", tmp_path / "in.json", tmp_path / "gen.json"
        analysis = ("--taus", "0,0.01", "--filter-fwhm", "20", "--burn-in", "0.5",
                    "--format", "json")
        assert run(*TestSimulate.ARGS, "--out", str(run_dir)) == 0
        assert run("g2", "--in", str(run_dir), *analysis, "--out", str(stored)) == 0
        assert run("g2", *TestSimulate.ARGS[1:], *analysis, "--out", str(generated)) == 0
        body = json.loads(stored.read_text())["g2"]
        assert body == json.loads(generated.read_text())["g2"]
        assert body["ensemble_size"] == 3 and body["values"][0] > 1.0   # a filtered laser

    @pytest.mark.parametrize("source", ["generated", "stored"])
    def test_unresolvable_filter_exit_code(self, tmp_path, capsys, source):
        if source == "stored":
            assert run(*TestSimulate.ARGS, "--out", str(tmp_path / "run")) == 0
            argv = ("--in", str(tmp_path / "run"))
        else:
            argv = TestSimulate.ARGS[1:]
        capsys.readouterr()
        assert run("g2", *argv, "--filter-fwhm", "1000") == 3
        assert capsys.readouterr() == ("", "error: filter fwhm 1000 not resolvable on a grid "
                                           "with dt=0.01 (need fwhm < pi/dt = 314.159)\n")

    def test_filter_center_needs_a_filter(self, capsys):
        assert run("g2", "--family", "thermal", "--nu", "100", "--gamma", "1",
                   "--dt", "0.01", "--duration", "20", "--traces", "2",
                   "--seed", "3", "--filter-center", "5") == 3
        err = capsys.readouterr().err
        assert "--filter-center needs --filter-fwhm" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fwhm", ["5e-324", "1e-320"])
    def test_subnormal_filter_fwhm_exit_code(self, capsys, fwhm):
        assert run("g2", "--family", "laser", "--nu", "100", "--gamma", "1",
                   "--dt", "0.01", "--duration", "20", "--traces", "2", "--seed", "1",
                   "--filter-fwhm", fwhm, "--burn-in", "0") == 3
        captured = capsys.readouterr()
        assert "fwhm must be finite and > 0 with 2/fwhm finite" in captured.err
        assert "nan" not in captured.out

    @pytest.mark.parametrize("taus", ["0,-0.01", "0,nan"])
    def test_negative_or_nan_tau_exit_code(self, capsys, taus):
        assert run("g2", "--family", "thermal", "--nu", "100", "--gamma", "1",
                   "--dt", "0.01", "--duration", "20", "--traces", "2",
                   "--seed", "3", "--taus", taus) == 3
        assert "finite and >= 0" in capsys.readouterr().err

    def test_huge_tau_exit_code_without_a_numpy_warning(self):
        """The lags are checked against the trace in float, before the cast
        to int, so numpy has nothing to warn about."""
        result = subprocess.run(
            [sys.executable, "-m", "beamsim.cli", "g2", "--family", "thermal", "--nu", "100",
             "--gamma", "1", "--dt", "0.01", "--duration", "20", "--traces", "2",
             "--seed", "3", "--taus", "0,1e300"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert result.returncode == 3
        assert result.stderr == "error: tau exceeds the analysable trace length\n"


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=laser\nnu=100\ngamma=1\ndt=0.01\n"
                       "duration=20\ntraces=4\nseed=9\n")
        path = tmp_path / "spec.csv"
        assert run("spectrum", "--config", str(cfg), "--traces", "6",
                   "--out", str(path)) == 0
        text = path.read_text()
        assert "# traces=6" in text       # flag wins
        assert "# seed=9" in text         # config fills the rest

    @pytest.mark.parametrize("flag", ["--trace 5", "--trace=5", "--tra 5"])
    def test_abbreviated_flags_override(self, tmp_path, flag):
        """argparse takes a unique prefix of a flag: it overrides the config
        as the whole flag does."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=laser\nnu=100\ngamma=1\ndt=0.01\n"
                       "duration=20\ntraces=3\nseed=9\n")
        path = tmp_path / "spec.csv"
        assert run("spectrum", "--config", str(cfg), *flag.split(), "--out", str(path)) == 0
        text = path.read_text()
        assert "# traces=5" in text
        assert "# ensemble_size=5" in text

    def test_bad_value_fails_even_under_a_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=laser\nnu=100\ngamma=1\ndt=0.01\n"
                       "duration=20\ntraces=three\nseed=9\n")
        assert run("spectrum", "--config", str(cfg), "--traces", "5") == 3
        assert "config key 'traces'" in capsys.readouterr().err

    def test_in_key_is_the_flag_name(self, tmp_path):
        run_dir = tmp_path / "run"
        assert run(*TestSimulate.ARGS, "--out", str(run_dir)) == 0
        cfg = tmp_path / "in.cfg"
        cfg.write_text(f"in={run_dir}\n")
        path = tmp_path / "spec.csv"
        assert run("spectrum", "--config", str(cfg), "--out", str(path)) == 0
        assert "# ensemble_size=3" in path.read_text()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnication_level=11\n")
        assert run("spectrum", "--config", str(cfg)) == 3

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value pair\n")
        assert run("spectrum", "--config", str(cfg)) == 3

    @pytest.mark.parametrize("line", ["format=xml", "family=bogus"])
    def test_value_outside_choices(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("family=laser\nnu=100\ngamma=1\ndt=0.01\n"
                       f"duration=20\ntraces=4\nseed=9\n{line}\n")
        path = tmp_path / "spec.csv"
        assert run("spectrum", "--config", str(cfg), "--out", str(path)) == 3
        assert not path.exists()
        out, err = capsys.readouterr()
        assert out == ""
        assert "invalid choice" in err


# spectrum's flags and two values of each, on a tiny grid: 32 to 50 samples
CONFIG_FLAGS = {"family": ("thermal", "laser"), "nu": ("100", "50"), "gamma": ("1", "2"),
                "dt": ("0.005", "0.004"), "duration": ("0.2", "0.16"),
                "traces": ("2", "3"), "seed": ("9", "4"), "format": ("csv", "json")}


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(ways=st.fixed_dictionaries({flag: st.sampled_from(["flag", "config", "both"])
                                   for flag in CONFIG_FLAGS}),
       picks=st.fixed_dictionaries({flag: st.integers(0, 1) for flag in CONFIG_FLAGS}))
def test_config_file_gives_the_bytes_of_its_flags(ways, picks):
    """Flags written to a --config file give the output bytes of the same
    flags on the command line; a flag given both ways takes the command
    line's value, whatever the file holds."""
    explicit, flags, lines = [], [], []
    for flag, values in CONFIG_FLAGS.items():
        value, other = values[picks[flag]], values[1 - picks[flag]]
        explicit += [f"--{flag}", value]
        if ways[flag] != "config":
            flags += [f"--{flag}", value]
        if ways[flag] != "flag":
            lines.append(f"{flag}={other if ways[flag] == 'both' else value}")
    with tempfile.TemporaryDirectory() as tmp:
        cfg, direct, configured = (Path(tmp) / name for name in ("run.cfg", "direct", "configured"))
        cfg.write_text("\n".join(lines) + "\n")
        assert run("spectrum", *explicit, "--out", str(direct)) == 0
        assert run("spectrum", "--config", str(cfg), *flags, "--out", str(configured)) == 0
        assert configured.read_bytes() == direct.read_bytes()


def test_importing_the_cli_leaves_scipy_signal_unloaded():
    """scipy.signal, most of a second of import time, loads on the first
    trace that needs lfilter."""
    code = "import sys, beamsim.cli; print('scipy.signal' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.stdout == "False\n"


def test_runs_without_sched_getaffinity(capsys):
    """Where os.sched_getaffinity does not exist (macOS), the pool has one
    worker per core of os.cpu_count(), and a spectrum gives the same bytes."""
    argv = ["spectrum", "--family", "thermal", "--nu", "100", "--gamma", "1", "--dt", "0.01",
            "--duration", "0.64", "--traces", "3", "--seed", "5"]
    code = ("import os, sys; del os.sched_getaffinity\n"
            "from beamsim import cli, spectral\n"
            "assert spectral._WORKERS == (os.cpu_count() or 1)\n"
            "raise SystemExit(cli.main(sys.argv[1:]))")
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (result.returncode, result.stderr) == (0, "")
    assert run(*argv) == 0
    assert result.stdout == capsys.readouterr().out


class TestSweepCommand:
    def test_small_sweep_table(self, tmp_path):
        path = tmp_path / "sweep.csv"
        assert run("sweep", "--nu", "100", "--gamma", "1", "--dt", "0.001",
                   "--duration", "250", "--traces", "3", "--seed", "5",
                   "--fwhms", "100,0.1", "--out", str(path)) == 0
        rows = [line for line in path.read_text().splitlines()
                if not line.startswith("#") and not line.startswith("fwhm,")]
        assert len(rows) == 2
        fwhm, value, _err, size = rows[0].split(",")
        assert float(fwhm) == 100.0
        assert float(value) > 0.9
        assert int(size) == 3

    def test_filter_center_is_the_librarys(self, capsys):
        assert run("sweep", "--nu", "100", "--gamma", "1", "--dt", "0.001", "--duration", "20",
                   "--traces", "2", "--seed", "5", "--fwhms", "100,10", "--filter-center", "3",
                   "--format", "json") == 0
        model = BeamModelSpec(family="jittered_laser", nu=100.0, gamma=1.0,
                              jitter_band=100.0, jitter_corr_time=1.5)
        rows = filtered_laser_sweep(model, [100.0, 10.0], 0.001, 20000, 5, 2,
                                    center_detuning=3.0)
        assert json.loads(capsys.readouterr().out)["sweep"] == [
            {"fwhm": r.fwhm, "value": r.g2_zero, "std_error": r.std_error,
             "ensemble_size": r.ensemble_size} for r in rows]


class TestQslbVerdict:
    """qslb-demo's one verdict rule: a test passes when its p-value exceeds
    --significance (strictly), and a beam is "stationary" when both pass."""

    @pytest.mark.parametrize("p_stationarity, p_periodogram, passed, verdict", [
        (1e-3, 0.5, (False, True), "rejected"),          # equal to the significance fails
        (0.5, 1e-3, (True, False), "rejected"),
        (1e-4, 1e-4, (False, False), "rejected"),
        (1.0000001e-3, 0.5, (True, True), "stationary"),  # just above it passes
    ])
    def test_p_values_to_verdicts(self, capsys, monkeypatch, p_stationarity, p_periodogram,
                                  passed, verdict):
        monkeypatch.setattr(cli, "windowed_means_and_carrier_powers",
                            lambda traces, windows: (None, None))   # no trace is made
        monkeypatch.setattr(cli, "stationarity_test",
                            lambda W: types.SimpleNamespace(p_value=p_stationarity))
        monkeypatch.setattr(cli, "periodogram_distribution_test",
                            lambda values: types.SimpleNamespace(p_value=p_periodogram))
        assert run("qslb-demo", "--nu", "100", "--gamma", "1", "--seed", "5", "--dt", "0.01",
                   "--duration", "10.24", "--traces", "1000", "--significance", "1e-3",
                   "--format", "json") == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert [r["family"] for r in results] == ["thermal", "laser", "kspace_product"]
        for r in results:
            assert (r["stationarity_p"], r["periodogram_p"]) == (p_stationarity, p_periodogram)
            assert (r["stationarity_passed"], r["periodogram_passed"]) == passed
            assert r["verdict"] == verdict

    QSLB = ("qslb-demo", "--gamma", "1", "--dt", "0.01", "--duration", "20", "--seed", "1",
            "--traces", "1000", "--format", "json")

    def test_a_laser_constant_up_to_rounding_is_stationary(self, capsys):
        """At nu = 123.456 the laser's window means differ in their last bits;
        permuting them would test rounding noise."""
        assert run(*self.QSLB, "--nu", "123.456") == 0
        laser = json.loads(capsys.readouterr().out)["results"][1]
        assert (laser["family"], laser["stationarity_p"]) == ("laser", 1.0)

    def results(self, capsys, monkeypatch, nu):
        monkeypatch.setattr(cli, "stationarity_test",
                            functools.partial(stationarity_test, n_permutations=199))
        assert run(*self.QSLB, "--nu", nu) == 0
        return json.loads(capsys.readouterr().out)["results"]

    # ids: --nu and the squared column sums of its W, unscaled
    @pytest.mark.parametrize("nu", [pytest.param("1e160", id="1e160-inf"),
                                    pytest.param("1e-300", id="1e-300-0")])
    def test_window_intensities_past_the_float_range(self, capsys, monkeypatch, nu):
        """W is tested rescaled by a power of two, so squared sums that would
        overflow (a verdict from inf) or underflow to 0 (thermal stationary
        at p = 1) give the stationarity p-values and verdicts of --nu 100.
        The beam is not 4^k times that one, so the periodogram p-values
        agree to rounding only."""
        results = self.results(capsys, monkeypatch, nu)
        expected = self.results(capsys, monkeypatch, "100")
        for got, want in zip(results, expected, strict=True):
            assert got["periodogram_p"] == pytest.approx(want["periodogram_p"], rel=1e-12)
            assert {**got, "periodogram_p": None} == {**want, "periodogram_p": None}

    @pytest.mark.parametrize("k", [266, -500])
    def test_a_beam_4_to_the_k_as_bright_gives_the_same_results(self, capsys, monkeypatch, k):
        """Every sample is 2^k times as large, so both tests see the same bits."""
        assert (self.results(capsys, monkeypatch, repr(100.0 * 4.0**k))
                == self.results(capsys, monkeypatch, "100"))


class TestNonFiniteOutput:
    """No command writes a NaN or an infinity: JSON has no token for them and
    the CSV would not read back.  Each case exits 3 with nothing on stdout and
    no --out file; numpy's overflow warnings are errors here (pyproject.toml),
    so the overflow itself must not warn."""

    CASES = {
        # the squared differences of the periodograms overflow
        "spectrum": ("spectrum", "--family", "thermal", "--nu", "1e300", "--gamma", "1",
                     "--dt", "0.01", "--duration", "1", "--seed", "1", "--traces", "4"),
        # I^2 overflows in the rows, the pool workers' among them
        "g2-rows": ("g2", "--family", "thermal", "--nu", "1e160", "--gamma", "1", "--dt", "0.01",
                    "--duration", "10", "--seed", "1", "--traces", "4", "--taus", "0"),
        # I^2 overflows in the sweep's filter moments, on the pool workers
        "sweep": ("sweep", "--nu", "1e160", "--gamma", "1", "--dt", "0.001", "--duration", "20",
                  "--seed", "1", "--traces", "2", "--fwhms", "100,1"),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_nothing_is_written(self, capsys, tmp_path, case, fmt):
        out = tmp_path / "out"
        argv = (*self.CASES[case], "--format", fmt)
        for extra in ((), ("--out", str(out))):
            assert run(*argv, *extra) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: the output would hold a NaN or an infinity; "
                                    "nothing was written\n")
        assert not out.exists()

    @pytest.mark.parametrize("band", ["0", "100"])
    @pytest.mark.parametrize("corr_time", ["inf", "nan", "-5"])
    def test_a_bad_correlation_time_writes_no_trace(self, capsys, tmp_path, band, corr_time):
        """The model rejects it before any draw, so no .ftrc header holds a NaN."""
        out = tmp_path / "traces"
        assert run("simulate", "--family", "jittered_laser", "--jitter-band", band,
                   "--jitter-corr-time", corr_time, "--nu", "1", "--gamma", "1", "--dt", "0.001",
                   "--duration", "2", "--seed", "1", "--traces", "2", "--out", str(out)) == 3
        assert capsys.readouterr().err == ("error: jittered_laser requires a finite "
                                           "jitter_corr_time > 1/gamma\n")
        assert not out.exists()


class TestOutputFormats:
    """The --out CSV table and the --format json payload of one run agree, and
    stdout holds the result alone, or nothing with --out."""

    MODEL = ("--nu", "100", "--gamma", "1", "--seed", "5")
    QSLB_COLUMNS = ("family", "stationarity_p", "stationarity_passed",
                    "periodogram_p", "periodogram_passed", "verdict")
    # command: (arguments, the JSON values of the CSV rows, where ensemble_size is in the CSV)
    CASES = {
        "spectrum": (("spectrum", "--family", "thermal", *MODEL, "--dt", "0.01",
                      "--duration", "0.64", "--traces", "3"),
                     lambda body: zip(*(body["spectrum"][k]
                                        for k in ("grid", "values", "std_errors"))),
                     "metadata"),
        "g2": (("g2", "--family", "thermal", *MODEL, "--dt", "0.01", "--duration", "1",
                "--traces", "4", "--taus", "0,0.05,0.1"),
               lambda body: zip(*(body["g2"][k] for k in ("tau", "values", "std_errors"))),
               "metadata"),
        "sweep": (("sweep", *MODEL, "--dt", "0.001", "--duration", "20", "--traces", "2",
                   "--fwhms", "100,10"),
                  lambda body: ([r[k] for k in ("fwhm", "value", "std_error", "ensemble_size")]
                                for r in body["sweep"]),
                  "column"),
        "qslb-demo": (("qslb-demo", *MODEL, "--dt", "0.01", "--duration", "10.24",
                       "--traces", "1000", "--windows", "4"),
                      lambda body: ([r[k] for k in TestOutputFormats.QSLB_COLUMNS]
                                    for r in body["results"]),
                      None),
    }

    @pytest.fixture(autouse=True)
    def _fewer_permutations(self, monkeypatch):
        monkeypatch.setattr(cli, "stationarity_test",
                            functools.partial(stationarity_test, n_permutations=199))

    # every command with a CSV or JSON result, and its arguments
    ARGV = {"blackbody": ("blackbody",), **{command: case[0] for command, case in CASES.items()}}

    @pytest.mark.parametrize("command", list(CASES))
    def test_csv_numbers_equal_json_values(self, command, tmp_path):
        argv, json_rows, ensemble_size_in = self.CASES[command]
        csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
        assert run(*argv, "--out", str(csv_path)) == 0
        assert run(*argv, "--format", "json", "--out", str(json_path)) == 0
        body = json.loads(json_path.read_text())
        lines = csv_path.read_text().splitlines()
        meta = [line[2:].split("=", 1) for line in lines if line.startswith("# ")]
        header, *rows = [line.split(",") for line in lines[len(meta):]]

        keys = [key for key, _ in meta]
        assert keys == sorted(keys)
        meta = dict(meta)
        assert meta.pop("tool_version") == body["tool_version"]
        assert meta.pop("format") == "csv"
        if ensemble_size_in == "metadata":
            assert int(meta.pop("ensemble_size")) == body[command]["ensemble_size"]
        assert meta == {key: str(value) for key, value in body["config"].items()
                        if key != "format"}
        assert ("ensemble_size" in header) == (ensemble_size_in == "column")

        expected = [list(row) for row in json_rows(body)]
        assert len(rows) == len(expected) > 0
        for cells, values in zip(rows, expected):
            assert len(cells) == len(values) == len(header)
            for cell, value in zip(cells, values):
                if isinstance(value, (bool, str)):
                    assert cell == str(value)
                else:   # the number reads back exactly
                    assert type(value)(cell) == value, (cell, value)

    @pytest.mark.parametrize("command, fmt", [(command, fmt) for command in ARGV
                                              for fmt in ("csv", "json")] + [("simulate", "csv")])
    def test_stdout_holds_the_result_alone(self, command, fmt, tmp_path, capsys):
        """Without --out, stdout is the --out file's text and nothing else;
        with --out it is empty.  simulate writes only to --out."""
        if command == "simulate":
            assert run(*TestSimulate.ARGS, "--out", str(tmp_path / "run")) == 0
            assert capsys.readouterr().out == ""
            return
        argv = (*self.ARGV[command], "--format", fmt)
        path = tmp_path / "out"
        assert run(*argv, "--out", str(path)) == 0
        assert capsys.readouterr().out == ""
        assert run(*argv) == 0
        out = capsys.readouterr().out
        assert out == path.read_text()
        if fmt == "json":
            json.loads(out)

    @pytest.mark.parametrize("command", ["blackbody", *CASES])
    def test_csv_on_stdout_is_one_table(self, command, capsys):
        """Every line of a CSV on stdout, past its # metadata, has the
        header's field count."""
        assert run(*self.ARGV[command]) == 0
        lines = capsys.readouterr().out.splitlines()
        header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
        assert rows and [len(row) for row in rows] == [len(header)] * len(rows)
