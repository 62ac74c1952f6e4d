"""Named-tensor container files.

Layout: the 8-byte magic ``LITCKPT1``, then one record per tensor until
end of file. Each record is a u64 little-endian name length, the UTF-8
name, a u64 rank, the extents as u64 little-endian, and the data as
float32 little-endian in row-major order. Round-trips are bit-exact for
float32 data; an integer counter survives one only below 2**24.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigError, ValidationError

MAGIC = b"LITCKPT1"
COUNTER_LIMIT = 2 ** 24  # float32 holds every integer below this one exactly
_U64 = struct.Struct("<Q")


def save_tensors(path: str | Path, tensors: Mapping[str, np.ndarray]) -> None:
    """Write named arrays (cast to float32) in insertion order.

    The container is written to a temporary file in the same directory
    and renamed over ``path`` only when complete, so a failed save
    leaves any previous file at ``path`` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    seen: set[str] = set()
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            for name, arr in tensors.items():
                if name in seen:
                    raise ValidationError(f"duplicate tensor name {name!r}")
                seen.add(name)
                raw = name.encode("utf-8")
                data = np.asarray(arr, dtype="<f4")
                if not data.flags.c_contiguous:  # ascontiguousarray would promote 0-d to 1-d
                    data = np.ascontiguousarray(data)
                fh.write(_U64.pack(len(raw)))
                fh.write(raw)
                fh.write(_U64.pack(data.ndim))
                for extent in data.shape:
                    fh.write(_U64.pack(extent))
                fh.write(data.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a container written by :func:`save_tensors`."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[: len(MAGIC)] != MAGIC:
        raise ValidationError(f"{path} is not a LITCKPT1 container")
    out: dict[str, np.ndarray] = {}
    pos = len(MAGIC)

    def read_u64() -> int:
        nonlocal pos
        if pos + 8 > len(blob):
            raise ValidationError(f"{path}: truncated container")
        (value,) = _U64.unpack_from(blob, pos)
        pos += 8
        return value

    while pos < len(blob):
        name_len = read_u64()
        if pos + name_len > len(blob):
            raise ValidationError(f"{path}: truncated tensor name")
        try:
            name = blob[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: the tensor name at byte {pos} "
                                  "is not valid UTF-8") from None
        pos += name_len
        rank = read_u64()
        shape = tuple(read_u64() for _ in range(rank))
        count = math.prod(shape)
        if pos + 4 * count > len(blob):
            raise ValidationError(f"{path}: truncated data for tensor {name!r} of shape {shape}")
        try:
            arr = np.frombuffer(blob, dtype="<f4", count=count, offset=pos).reshape(shape)
        except ValueError:  # e.g. more than 64 axes, or a huge extent beside a zero one
            raise ValidationError(f"{path}: tensor {name!r} has shape {shape}, "
                                  "which numpy cannot hold") from None
        pos += 4 * count
        if name in out:
            raise ValidationError(f"{path}: duplicate tensor name {name!r}")
        out[name] = arr.copy()
    return out


def read_counter(state: Mapping[str, np.ndarray], key: str) -> int:
    """The integer counter in record ``key`` of a training checkpoint.
    Anything but one finite integer in 0..COUNTER_LIMIT-1 raises ConfigError
    naming the record."""
    value = np.asarray(state[key], dtype=np.float64)
    if value.shape != (1,):
        raise ConfigError(f"checkpoint record {key} must hold one value, got shape {value.shape}")
    if not (value[0].is_integer() and 0 <= value[0] < COUNTER_LIMIT):
        raise ConfigError(f"checkpoint record {key} must be an integer in "
                          f"0-{COUNTER_LIMIT - 1}, got {float(value[0])}")
    return int(value[0])
