"""Binary checkpoint format.

Layout (all integers little-endian unsigned 32-bit):

  magic "MFPU" | version | tag_len | tag utf-8 | N | B | d | param_count |
  per parameter: name_len | name utf-8 | rank | extents... | raw float32
  little-endian values

Write -> read -> write is byte-identical. A read validates the magic,
version and architecture tag, and checks the header's spec, parameter
count and file size against the parameter shapes the spec implies
(``models.parameter_shapes``) before it allocates any parameter, so an
absurd header is a ``FormatError``, not a failed allocation. It then
checks every parameter's name and shape in turn, refuses NaN or infinite
values and trailing bytes, and loads the values into a model built
without drawing an initialisation (``Model(..., seed=None)``), copying
each parameter straight from the file's bytes into the model's array.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ContractViolation, FormatError
from .models import Model, parameter_shapes

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

    def skip(self, n: int, what: str) -> int:
        """Step over the next n bytes; returns the offset they start at."""
        if self.pos + n > len(self.buf):
            raise FormatError(
                f"{self.path}: truncated while reading {what}: expected {self.pos + n} "
                f"bytes, file has {len(self.buf)}")
        self.pos += n
        return self.pos - n

    def take(self, n: int, what: str) -> bytes:
        start = self.skip(n, what)
        return self.buf[start:self.pos]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def text(self, what: str) -> str:
        """A length-prefixed UTF-8 string."""
        raw = self.take(self.u32(f"{what} length"), what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.path}: {what} is not UTF-8: {raw[:32]!r}") from None


def checkpoint_read(path: str | Path, expect_arch: str | None = None) -> Model:
    """Rebuild the model recorded in ``path`` and load its parameters.

    Raises ``FormatError`` naming ``path`` for any file that is not a
    checkpoint of a valid model, before allocating the model when the
    header alone gives it away. The model is built undrawn
    (``seed=None``) and every parameter is then overwritten in place by the
    file's values."""
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf, str(path))
    if r.take(4, "magic") != MAGIC:
        raise FormatError(f"{path}: bad magic, not a checkpoint file")
    version = r.u32("version")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version} (want {VERSION})")
    tag = r.text("architecture tag")
    if expect_arch is not None and tag != expect_arch:
        raise FormatError(
            f"{path}: architecture tag mismatch: checkpoint holds {tag!r}, expected {expect_arch!r}")
    n = r.u32("input extent")
    base_width = r.u32("base width")
    dilation = r.u32("dilation")
    count = r.u32("parameter count")

    try:
        shapes = parameter_shapes(tag, n, base_width, dilation)
    except ContractViolation as exc:
        raise FormatError(f"{path}: header describes no valid model: {exc}") from exc
    if count != len(shapes):
        raise FormatError(
            f"{path}: parameter count {count} does not match architecture ({len(shapes)})")
    # name length, name, rank, extents and values of each parameter
    need = sum(8 + len(name.encode("utf-8")) + 4 * len(shape) + 4 * math.prod(shape)
               for name, shape in shapes.items())
    if r.pos + need > len(buf):
        raise FormatError(
            f"{path}: truncated: the header's {count} parameters take {need} bytes: expected "
            f"{r.pos + need} bytes, file has {len(buf)}")

    model = Model(tag, n, base_width, dilation, dtype=np.float32, seed=None)
    for expected_name, tensor in model.parameters().items():
        name = r.text("parameter name")
        if name != expected_name:
            raise FormatError(
                f"{path}: parameter order mismatch: found {name!r}, expected {expected_name!r}")
        rank = r.u32("rank")
        shape = tuple(r.u32("extent") for _ in range(rank))
        if shape != tensor.data.shape:
            raise FormatError(
                f"{path}: shape mismatch for {name!r}: file has {shape}, model has "
                f"{tensor.data.shape}")
        size = math.prod(shape)
        start = r.skip(4 * size, f"values of {name!r}")
        tensor.data[...] = np.frombuffer(buf, "<f4", size, start).reshape(shape)
        bad = np.count_nonzero(~np.isfinite(tensor.data))
        if bad:
            raise FormatError(f"{path}: parameter {name!r} holds {bad} non-finite value(s)")
    if r.pos != len(buf):
        raise FormatError(f"{path}: {len(buf) - r.pos} trailing bytes after parameters")
    return model
