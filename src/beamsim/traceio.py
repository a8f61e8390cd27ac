"""Serialization of field traces as binary records.

Binary layout (little-endian):
    magic  b"FTRC"
    uint32 format version (1)
    uint32 header length in bytes
    header UTF-8 JSON (the model's fields, dt, n_samples, master_seed, trace_index)
    payload n_samples * 2 float64, interleaved re/im
"""

from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .errors import DomainError
from .fieldgen import BeamModelSpec, FieldTrace

MAGIC = b"FTRC"
VERSION = 1

PathLike = Union[str, Path]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def trace_to_bytes(trace: FieldTrace) -> bytes:
    fields = {"model": dataclasses.asdict(trace.model), "dt": trace.dt,
              "n_samples": trace.n_samples, "master_seed": trace.master_seed,
              "trace_index": trace.trace_index}
    header = json.dumps(fields, sort_keys=True).encode("utf-8")
    payload = trace.samples.astype("<c16").tobytes()   # re, im interleaved
    return MAGIC + struct.pack("<II", VERSION, len(header)) + header + payload


def trace_from_bytes(data: bytes) -> FieldTrace:
    if len(data) < 12:
        raise DomainError(f"trace record of {len(data)} bytes is shorter than "
                          "its 12-byte preamble")
    if data[:4] != MAGIC:
        raise DomainError("not a trace record (bad magic)")
    version, hlen = struct.unpack("<II", data[4:12])
    if version != VERSION:
        raise DomainError(f"unsupported trace format version {version}")
    if len(data) < 12 + hlen:
        raise DomainError(f"trace header truncated: {len(data) - 12} of {hlen} bytes")
    try:
        header = json.loads(data[12:12 + hlen].decode("utf-8"))
        n = header["n_samples"]
        model = BeamModelSpec(**header["model"])
        dt, seed, index = header["dt"], header["master_seed"], header["trace_index"]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DomainError(f"trace header is not UTF-8 JSON: {exc}") from exc
    except KeyError as exc:
        raise DomainError(f"trace header lacks a required key: {exc}") from exc
    except TypeError as exc:  # header or its model is not a mapping of the expected keys
        raise DomainError(f"trace header malformed: {exc}") from exc
    except DomainError as exc:
        raise DomainError(f"trace header model invalid: {exc}") from exc
    real_dt = isinstance(dt, (int, float)) and not isinstance(dt, bool)
    if not (real_dt and _is_int(seed) and _is_int(index)):
        raise DomainError(f"trace header needs a real dt and integer master_seed and "
                          f"trace_index, got {dt!r}, {seed!r} and {index!r}")
    size = len(data) - 12 - hlen
    if not _is_int(n) or size != 16 * n:
        raise DomainError(f"payload of {size} bytes != 16 * {n!r} samples")
    # one copy: a view of the record would be read-only
    samples = np.frombuffer(data, "<c16", offset=12 + hlen).astype(np.complex128)
    try:
        return FieldTrace(samples=samples, dt=dt, model=model, master_seed=seed, trace_index=index)
    except DomainError as exc:  # non-finite or non-positive dt, non-finite samples
        raise DomainError(f"trace record invalid: {exc}") from exc


def write_trace(trace: FieldTrace, path: PathLike) -> None:
    Path(path).write_bytes(trace_to_bytes(trace))


def read_trace(path: PathLike) -> FieldTrace:
    try:
        return trace_from_bytes(Path(path).read_bytes())
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc

