"""Unit tests for trace serialization."""

import json
import struct

import numpy as np
import pytest

from beamsim import ConfigurationError
from beamsim.fieldgen import BeamModelSpec, generate_trace
from beamsim.traceio import (
    read_trace,
    trace_from_bytes,
    trace_to_bytes,
    write_trace,
    write_trace_csv,
)


def make_trace(family="thermal", **kwargs):
    model = BeamModelSpec(family=family, nu=100.0, gamma=1.0, **kwargs)
    return generate_trace(model, 0.01, 2000, 42, trace_index=5)


def without_header_key(data: bytes, *path: str) -> bytes:
    """Re-encode a record with the header entry at `path` deleted."""
    (hlen,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12:12 + hlen])
    parent = header
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    raw = json.dumps(header).encode("utf-8")
    return data[:8] + struct.pack("<I", len(raw)) + raw + data[12 + hlen:]


class TestRoundTrip:
    @pytest.mark.parametrize("family", ["thermal", "laser", "kspace_product",
                                        "periodic_thermal"])
    def test_bytes_round_trip(self, family):
        trace = make_trace(family)
        back = trace_from_bytes(trace_to_bytes(trace))
        assert np.array_equal(back.samples, trace.samples)
        assert back.model == trace.model
        assert back.dt == trace.dt
        assert back.master_seed == trace.master_seed
        assert back.trace_index == trace.trace_index

    def test_jitter_parameters_survive(self):
        model = BeamModelSpec(family="jittered_laser", nu=100.0, gamma=1.0,
                              jitter_band=100.0, jitter_corr_time=10.0)
        trace = generate_trace(model, 0.001, 20000, 7)
        back = trace_from_bytes(trace_to_bytes(trace))
        assert back.model.jitter_band == 100.0
        assert back.model.jitter_corr_time == 10.0

    def test_file_round_trip(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "trace.ftrc"
        write_trace(trace, path)
        back = read_trace(path)
        assert np.array_equal(back.samples, trace.samples)

    def test_serialization_is_deterministic(self):
        assert trace_to_bytes(make_trace()) == trace_to_bytes(make_trace())


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(ConfigurationError):
            trace_from_bytes(b"NOPE" + trace_to_bytes(make_trace())[4:])

    def test_unsupported_version(self):
        data = bytearray(trace_to_bytes(make_trace()))
        data[4] = 99
        with pytest.raises(ConfigurationError):
            trace_from_bytes(bytes(data))

    def test_truncated_payload(self):
        data = trace_to_bytes(make_trace())
        with pytest.raises(ConfigurationError):
            trace_from_bytes(data[:-16])

    def test_record_shorter_than_preamble(self):
        with pytest.raises(ConfigurationError, match="12-byte preamble"):
            trace_from_bytes(b"FTRC\x01")

    def test_truncated_header(self):
        with pytest.raises(ConfigurationError, match="header truncated"):
            trace_from_bytes(trace_to_bytes(make_trace())[:20])

    def test_header_not_utf8_json(self):
        data = bytearray(trace_to_bytes(make_trace()))
        data[12] = 0xFF
        with pytest.raises(ConfigurationError, match="not UTF-8 JSON"):
            trace_from_bytes(bytes(data))

    @pytest.mark.parametrize("key", ["dt", "n_samples", "model"])
    def test_header_missing_key(self, key):
        data = without_header_key(trace_to_bytes(make_trace()), key)
        with pytest.raises(ConfigurationError, match=f"lacks a required key: '{key}'"):
            trace_from_bytes(data)

    def test_model_lacks_a_field(self):
        data = without_header_key(trace_to_bytes(make_trace()), "model", "family")
        with pytest.raises(ConfigurationError, match="malformed"):
            trace_from_bytes(data)

    def test_read_trace_names_the_file(self, tmp_path):
        path = tmp_path / "bad.ftrc"
        path.write_bytes(b"FTRC\x01")
        with pytest.raises(ConfigurationError, match="bad.ftrc"):
            read_trace(path)


class TestCsv:
    def test_header_and_rows(self, tmp_path):
        trace = make_trace("laser")
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,re,im"
        assert len(lines) == trace.n_samples + 1
        t, re, im = (float(x) for x in lines[1].split(","))
        assert t == 0.0
        assert re == trace.samples[0].real
        assert im == trace.samples[0].imag
