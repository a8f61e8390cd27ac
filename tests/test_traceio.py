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
)


def make_trace(family="thermal", **kwargs):
    model = BeamModelSpec(family=family, nu=100.0, gamma=1.0, **kwargs)
    return generate_trace(model, 0.01, 2000, 42, trace_index=5)


def reencoded(data: bytes, edit) -> bytes:
    """Re-encode a record after `edit(header)` has changed its header dict."""
    (hlen,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12:12 + hlen])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    return data[:8] + struct.pack("<I", len(raw)) + raw + data[12 + hlen:]


def without_header_key(data: bytes, *path: str) -> bytes:
    """Re-encode a record with the header entry at `path` deleted."""
    def edit(header):
        for key in path[:-1]:
            header = header[key]
        del header[path[-1]]
    return reencoded(data, edit)


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

    def test_payload_is_interleaved_re_im(self):
        trace = make_trace()
        reference = np.empty(2 * trace.n_samples, dtype="<f8")
        reference[0::2] = trace.samples.real
        reference[1::2] = trace.samples.imag
        data = trace_to_bytes(trace)
        (hlen,) = struct.unpack("<I", data[8:12])
        assert data[12 + hlen:] == reference.tobytes()

    def test_read_samples_are_writable(self):
        back = trace_from_bytes(trace_to_bytes(make_trace()))
        back.samples[0] = 0.0
        assert back.samples[0] == 0.0


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

    @pytest.mark.parametrize("cut", [1, 3])
    def test_payload_cut_inside_a_sample(self, cut):
        data = trace_to_bytes(make_trace())
        with pytest.raises(ConfigurationError, match="payload"):
            trace_from_bytes(data[:-cut])

    # 2000.5 samples with 8 bytes appended: the payload does hold 16 * n bytes
    @pytest.mark.parametrize("n, pad", [(None, 0), (2000.5, 8)])
    def test_sample_count_not_an_integer(self, n, pad):
        data = reencoded(trace_to_bytes(make_trace()), lambda h: h.update(n_samples=n))
        with pytest.raises(ConfigurationError, match="payload"):
            trace_from_bytes(data + bytes(pad))

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

    @pytest.mark.parametrize("cut", [1, 3])
    def test_read_trace_names_the_file_of_a_cut_payload(self, tmp_path, cut):
        path = tmp_path / "cut.ftrc"
        path.write_bytes(trace_to_bytes(make_trace())[:-cut])
        with pytest.raises(ConfigurationError, match="cut.ftrc: payload"):
            read_trace(path)

