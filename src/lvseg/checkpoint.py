"""Binary checkpoint format.

Layout (all integers little-endian unsigned 32-bit):

  magic "MFPU" | version | tag_len | tag utf-8 | N | B | d | param_count |
  per parameter: name_len | name utf-8 | rank | extents... | raw float32
  little-endian values

Write -> read -> write is byte-identical; reads validate the magic,
version, architecture tag, and every parameter name/shape against a
freshly built model, and refuse NaN or infinite values.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ContractViolation, FormatError
from .models import Model

MAGIC = b"MFPU"
VERSION = 1


def checkpoint_write(model: Model, path: str | Path) -> None:
    params = model.parameters()
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    tag = model.arch.encode("utf-8")
    chunks.append(struct.pack("<I", len(tag)))
    chunks.append(tag)
    chunks.append(struct.pack("<III", model.n, model.base_width, model.dilation))
    chunks.append(struct.pack("<I", len(params)))
    for name, tensor in params.items():
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", tensor.data.ndim))
        chunks.append(struct.pack(f"<{tensor.data.ndim}I", *tensor.data.shape))
        chunks.append(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class _Reader:
    def __init__(self, buf: bytes, path: str):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(
                f"{self.path}: truncated while reading {what}: expected {self.pos + n} "
                f"bytes, file has {len(self.buf)}")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def checkpoint_read(path: str | Path, expect_arch: str | None = None) -> Model:
    """Rebuild the model recorded in ``path`` and load its parameters."""
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf, str(path))
    if r.take(4, "magic") != MAGIC:
        raise FormatError(f"{path}: bad magic, not a checkpoint file")
    version = r.u32("version")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version} (want {VERSION})")
    tag = r.take(r.u32("tag length"), "architecture tag").decode("utf-8")
    if expect_arch is not None and tag != expect_arch:
        raise FormatError(
            f"{path}: architecture tag mismatch: checkpoint holds {tag!r}, expected {expect_arch!r}")
    n = r.u32("input extent")
    base_width = r.u32("base width")
    dilation = r.u32("dilation")
    count = r.u32("parameter count")

    try:
        model = Model(tag, n, base_width, dilation, dtype=np.float32, seed=0)
    except ContractViolation as exc:
        raise FormatError(f"{path}: header describes no valid model: {exc}") from exc
    params = model.parameters()
    if count != len(params):
        raise FormatError(
            f"{path}: parameter count {count} does not match architecture ({len(params)})")
    for expected_name, tensor in params.items():
        name = r.take(r.u32("name length"), "parameter name").decode("utf-8")
        if name != expected_name:
            raise FormatError(
                f"{path}: parameter order mismatch: found {name!r}, expected {expected_name!r}")
        rank = r.u32("rank")
        shape = tuple(r.u32("extent") for _ in range(rank))
        if shape != tensor.data.shape:
            raise FormatError(
                f"{path}: shape mismatch for {name!r}: file has {shape}, model has "
                f"{tensor.data.shape}")
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = r.take(4 * size, f"values of {name!r}")
        tensor.data = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)
        bad = np.count_nonzero(~np.isfinite(tensor.data))
        if bad:
            raise FormatError(f"{path}: parameter {name!r} holds {bad} non-finite value(s)")
    if r.pos != len(buf):
        raise FormatError(f"{path}: {len(buf) - r.pos} trailing bytes after parameters")
    return model
