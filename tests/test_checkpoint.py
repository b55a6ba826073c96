import struct

import numpy as np
import pytest

from lvseg.checkpoint import MAGIC, checkpoint_read, checkpoint_write
from lvseg.cli import main
from lvseg.errors import FormatError
from lvseg.models import build_dilated_unet, build_mfp_unet, build_unet


def test_round_trip_bit_identical(tmp_path):
    model = build_mfp_unet(32, 2, seed=3)
    path = tmp_path / "ck.bin"
    checkpoint_write(model, path)
    loaded = checkpoint_read(path)
    assert loaded.arch == "mfp-unet"
    assert (loaded.n, loaded.base_width, loaded.dilation) == (32, 2, 2)
    for (na, ta), (nb, tb) in zip(model.parameters().items(),
                                  loaded.parameters().items()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)


def test_write_read_write_byte_identical(tmp_path):
    model = build_dilated_unet(32, 2, seed=9)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    checkpoint_write(model, p1)
    checkpoint_write(checkpoint_read(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_names_byte_counts(tmp_path):
    model = build_unet(32, 2)
    path = tmp_path / "ck.bin"
    checkpoint_write(model, path)
    raw = path.read_bytes()
    short = tmp_path / "short.bin"
    short.write_bytes(raw[: len(raw) - 100])
    with pytest.raises(FormatError, match=r"expected \d+ bytes, file has \d+"):
        checkpoint_read(short)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(FormatError, match="magic"):
        checkpoint_read(path)


def test_version_mismatch_rejected(tmp_path):
    model = build_unet(32, 2)
    path = tmp_path / "ck.bin"
    checkpoint_write(model, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    bad = tmp_path / "v99.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version 99"):
        checkpoint_read(bad)


def test_architecture_tag_mismatch(tmp_path):
    model = build_unet(32, 2)
    path = tmp_path / "unet.bin"
    checkpoint_write(model, path)
    with pytest.raises(FormatError, match="architecture tag mismatch"):
        checkpoint_read(path, expect_arch="mfp-unet")
    # the right expectation loads fine
    assert checkpoint_read(path, expect_arch="unet").arch == "unet"


def test_trailing_bytes_rejected(tmp_path):
    model = build_unet(32, 2)
    path = tmp_path / "ck.bin"
    checkpoint_write(model, path)
    bloated = tmp_path / "extra.bin"
    bloated.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        checkpoint_read(bloated)


def test_header_the_model_rejects_is_a_format_error(tmp_path, capsys):
    model = build_unet(32, 2)
    path = tmp_path / "ck.bin"
    checkpoint_write(model, path)
    raw = bytearray(path.read_bytes())
    n_at = 12 + len(b"unet")  # magic, version, tag length, tag
    assert struct.unpack("<I", raw[n_at:n_at + 4])[0] == 32
    raw[n_at:n_at + 4] = struct.pack("<I", 60)
    bad = tmp_path / "n60.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="n60.bin.*multiple of 16, got 60"):
        checkpoint_read(bad)
    assert main(["eval", "--checkpoint", str(bad), "--data", "synthetic:2",
                 "--out", str(tmp_path / "x")]) == 3
    assert "n60.bin" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_is_a_format_error(tmp_path, capsys, value):
    model = build_unet(32, 2)
    name, tensor = list(model.parameters().items())[3]
    tensor.data[(0,) * tensor.data.ndim] = value
    path = tmp_path / "bad_weight.bin"
    checkpoint_write(model, path)
    with pytest.raises(FormatError, match=f"bad_weight.bin: parameter '{name}'.*non-finite"):
        checkpoint_read(path)
    assert main(["eval", "--checkpoint", str(path), "--data", "synthetic:2",
                 "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "bad_weight.bin" in err and name in err


def test_magic_constant():
    assert MAGIC == b"MFPU"
