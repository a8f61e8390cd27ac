"""Serialization of field traces as binary records.

Binary layout (little-endian):
    magic  b"FTRC"
    uint32 format version (1)
    uint32 header length in bytes
    header UTF-8 JSON (model params, dt, n_samples, master_seed, trace_index)
    payload n_samples * 2 float64, interleaved re/im
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ConfigurationError
from .fieldgen import BeamModelSpec, FieldTrace

MAGIC = b"FTRC"
VERSION = 1

PathLike = Union[str, Path]


def _header_dict(trace: FieldTrace) -> dict:
    m = trace.model
    return {
        "model": {
            "family": m.family,
            "nu": m.nu,
            "gamma": m.gamma,
            "jitter_band": m.jitter_band,
            "jitter_corr_time": m.jitter_corr_time,
        },
        "dt": trace.dt,
        "n_samples": trace.n_samples,
        "master_seed": trace.master_seed,
        "trace_index": trace.trace_index,
    }


def trace_to_bytes(trace: FieldTrace) -> bytes:
    header = json.dumps(_header_dict(trace), sort_keys=True).encode("utf-8")
    payload = trace.samples.astype("<c16").tobytes()   # re, im interleaved
    return MAGIC + struct.pack("<II", VERSION, len(header)) + header + payload


def trace_from_bytes(data: bytes) -> FieldTrace:
    if len(data) < 12:
        raise ConfigurationError(f"trace record of {len(data)} bytes is shorter than "
                                 "its 12-byte preamble")
    if data[:4] != MAGIC:
        raise ConfigurationError("not a trace record (bad magic)")
    version, hlen = struct.unpack("<II", data[4:12])
    if version != VERSION:
        raise ConfigurationError(f"unsupported trace format version {version}")
    if len(data) < 12 + hlen:
        raise ConfigurationError(f"trace header truncated: {len(data) - 12} of {hlen} bytes")
    try:
        header = json.loads(data[12:12 + hlen].decode("utf-8"))
        n = header["n_samples"]
        model = BeamModelSpec(**header["model"])
        dt, seed, index = header["dt"], header["master_seed"], header["trace_index"]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"trace header is not UTF-8 JSON: {exc}") from exc
    except KeyError as exc:
        raise ConfigurationError(f"trace header lacks a required key: {exc}") from exc
    except TypeError as exc:  # header or its model is not a mapping of the expected keys
        raise ConfigurationError(f"trace header malformed: {exc}") from exc
    size = len(data) - 12 - hlen
    if not isinstance(n, int) or size != 16 * n:
        raise ConfigurationError(f"payload of {size} bytes != 16 * {n!r} samples")
    # one copy: a view of the record would be read-only
    samples = np.frombuffer(data, "<c16", offset=12 + hlen).astype(np.complex128)
    return FieldTrace(samples=samples, dt=dt, model=model, master_seed=seed, trace_index=index)


def write_trace(trace: FieldTrace, path: PathLike) -> None:
    Path(path).write_bytes(trace_to_bytes(trace))


def read_trace(path: PathLike) -> FieldTrace:
    try:
        return trace_from_bytes(Path(path).read_bytes())
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc

