"""Binary PGM (P5, maxval 255) reading and writing.

PGM is the interchange format for images and masks: trivially parseable,
byte-exact, no compression ambiguity. Masks are stored with values
{0, 255}. The header is ``P5``, then width, height and maxval, each one
token of ASCII digits after a non-empty run of whitespace and ``#``
comments (each to the end of its line); one whitespace byte separates it from the
raster. Format errors name the byte offset at which parsing failed.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import FormatError

_FIELD = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")  # whitespace and comments, then a token


def pgm_read(path: str | os.PathLike) -> np.ndarray:
    """Read a binary P5 PGM with maxval 255 into a (H, W) uint8 array."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] != b"P5":
        magic = buf[:2].decode("latin-1", errors="replace")
        raise FormatError(f"{path}: unsupported magic {magic!r} (want P5) at byte 0")
    if buf[2:3] not in (b"", b"#") and not buf[2:3].isspace():
        raise FormatError(f"{path}: missing separator after magic at byte 2")
    pos, fields = 2, []
    for what in ("width", "height", "maxval"):
        match = _FIELD.match(buf, pos)
        token, pos = match[1], match.end()
        if not token:
            raise FormatError(f"{path}: unexpected end of header at byte {pos}")
        try:
            if not token.isdigit():  # int() also reads signs and underscores
                raise ValueError
            fields.append(int(token))
        except ValueError:  # or a run past int()'s digit limit
            raise FormatError(f"{path}: invalid {what} {token!r} at byte {pos}") from None
        if what == "height" and min(fields) <= 0:
            raise FormatError(
                f"{path}: non-positive dimensions {fields[0]}x{fields[1]} at byte {pos}")
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval} (want 255) at byte {pos}")
    if not buf[pos:pos + 1].isspace():
        raise FormatError(f"{path}: missing raster separator at byte {pos}")
    pos += 1
    need = width * height
    data = buf[pos:pos + need]
    if len(data) < need:
        raise FormatError(
            f"{path}: truncated raster, expected {need} bytes at byte {pos}, found {len(data)}")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width)


def pgm_write(path: str | os.PathLike, array: np.ndarray) -> None:
    """Write a (H, W) uint8 array as binary P5; write-then-read is identity."""
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise FormatError(f"{path}: PGM payload must be 2-D, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        if arr.min() < 0 or arr.max() > 255:
            raise FormatError(f"{path}: values outside [0, 255] cannot round-trip")
        arr = arr.astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5 {w} {h} 255\n".encode("ascii"))
        fh.write(arr.tobytes())
