"""Binary checkpoint format.

Layout (all integers little-endian unsigned 32-bit):

  magic "MFPU" | version | tag_len | tag utf-8 | N | B | d | param_count |
  per parameter: name_len | name utf-8 | rank | extents... | raw float32
  little-endian values

``_head_format`` defines the fixed header (magic to parameter count) and
``_param_header`` a parameter's bytes before its values; the writer and
the reader both use them. Write -> read -> write is byte-identical.

A read parses only the fixed header, behind one bounds check. It
validates the magic, version and architecture tag, checks the header's d
against the tag's dilation (``models.ARCH_DILATION``), and checks the spec
and parameter count against the parameter shapes the spec implies
(``models.parameter_shapes``). From those shapes it builds the expected
layout, so one exact-size check finds a truncated file or trailing bytes
before any parameter is allocated: an absurd header is a ``FormatError``,
not a failed allocation. It then builds the model without drawing an
initialisation (``Model(..., seed=None)``) and, per parameter, compares
the file's name, rank and extents bytes with the expected ones (a
mismatch names the parameter expected there) instead of parsing them,
copies the values straight from the file's bytes into the model's array
and refuses NaN or infinite values.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ContractViolation, FormatError
from .models import ARCH_DILATION, Model, parameter_shapes

MAGIC = b"MFPU"
VERSION = 1


def _head_format(tag_len: int) -> str:
    """The fixed header: magic, version, tag length, tag, N, B, d, parameter count."""
    return f"<4sII{tag_len}s4I"


def _param_header(name: str, shape: tuple[int, ...]) -> bytes:
    """The bytes before a parameter's values: name length, name, rank, extents."""
    nb = name.encode("utf-8")
    return struct.pack(f"<I{len(nb)}sI{len(shape)}I", len(nb), nb, len(shape), *shape)


def checkpoint_write(model: Model, path: str | Path) -> None:
    params = model.parameters()
    tag = model.arch.encode("utf-8")
    chunks = [struct.pack(_head_format(len(tag)), MAGIC, VERSION, len(tag), tag,
                          model.n, model.base_width, model.dilation, len(params))]
    for name, tensor in params.items():
        chunks.append(_param_header(name, tensor.data.shape))
        chunks.append(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def checkpoint_read(path: str | Path, expect_arch: str | None = None) -> Model:
    """Rebuild the model recorded in ``path`` and load its parameters.

    Raises ``FormatError`` naming ``path`` for any file that is not a
    checkpoint of a valid model, before allocating the model when the
    header and the file's size alone give it away. The model is built
    undrawn (``seed=None``) and every parameter is then overwritten in
    place by the file's values."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic, not a checkpoint file")
    # a file too short for the tag length reads a shorter one, whose header still ends past it
    head_format = _head_format(int.from_bytes(buf[8:12], "little"))
    head = struct.calcsize(head_format)
    if len(buf) < head:
        raise FormatError(f"{path}: truncated header: expected {head} bytes, file has {len(buf)}")
    _, version, _, tag, n, base_width, dilation, count = struct.unpack_from(head_format, buf)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version} (want {VERSION})")
    try:
        tag = tag.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: architecture tag is not UTF-8: {tag[:32]!r}") from None
    if expect_arch is not None and tag != expect_arch:
        raise FormatError(
            f"{path}: architecture tag mismatch: checkpoint holds {tag!r}, expected {expect_arch!r}")
    try:
        shapes = parameter_shapes(tag, n, base_width)
        if dilation != ARCH_DILATION[tag]:
            raise ContractViolation(f"{tag} uses dilation {ARCH_DILATION[tag]}, got {dilation}")
    except ContractViolation as exc:
        raise FormatError(f"{path}: header describes no valid model: {exc}") from exc
    if count != len(shapes):
        raise FormatError(
            f"{path}: parameter count {count} does not match architecture ({len(shapes)})")

    layout = [(name, _param_header(name, shape), math.prod(shape))
              for name, shape in shapes.items()]
    size = head + sum(len(header) + 4 * values for _, header, values in layout)
    if len(buf) != size:
        what = ("truncated" if len(buf) < size
                else f"{len(buf) - size} trailing bytes after parameters")
        raise FormatError(f"{path}: {what}: the header's {count} parameters take {size - head} "
                          f"bytes: expected {size} bytes, file has {len(buf)}")

    model = Model(tag, n, base_width, dtype=np.float32, seed=None)
    at = head
    for (name, header, values), tensor in zip(layout, model.parameters().values()):
        found = buf[at:at + len(header)]
        if found != header:
            raw = found[4:4 + len(name.encode("utf-8"))]
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"{path}: parameter name is not UTF-8: {raw[:32]!r}") from None
            raise FormatError(f"{path}: parameter {name!r} expected at byte {at}: name, rank "
                              f"and extents {header!r}, file has {found!r}")
        at += len(header)
        tensor.data[...] = np.frombuffer(buf, "<f4", values, at).reshape(tensor.data.shape)
        at += 4 * values
        bad = np.count_nonzero(~np.isfinite(tensor.data))
        if bad:
            raise FormatError(f"{path}: parameter {name!r} holds {bad} non-finite value(s)")
    return model
