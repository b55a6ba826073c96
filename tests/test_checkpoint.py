import struct

import numpy as np
import pytest

from lvseg.checkpoint import MAGIC, checkpoint_read, checkpoint_write
from lvseg.cli import main
from lvseg.errors import FormatError
from lvseg.models import Model, build_mfp_unet


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
    model = Model("dilated-unet", 32, 2, seed=9)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    checkpoint_write(model, p1)
    checkpoint_write(checkpoint_read(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("arch,dilation", [("unet", 2), ("dilated-unet", 1), ("mfp-unet", 3)])
def test_a_header_dilation_other_than_the_tags_is_a_format_error(tmp_path, capsys, arch,
                                                                 dilation):
    path = tmp_path / "ck.bin"
    checkpoint_write(Model(arch, 16, 2, seed=0), path)
    raw = bytearray(path.read_bytes())
    at = 12 + len(arch) + 8  # magic, version, tag length, tag, N, B
    raw[at:at + 4] = struct.pack("<I", dilation)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"ck.bin: header describes no valid model: "
                                          f"{arch} uses dilation [12], got {dilation}"):
        checkpoint_read(path)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path), "--data", "synthetic:1",
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_truncated_file_names_byte_counts(tmp_path):
    model = Model("unet", 32, 2)
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
    model = Model("unet", 32, 2)
    path = tmp_path / "ck.bin"
    checkpoint_write(model, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    bad = tmp_path / "v99.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version 99"):
        checkpoint_read(bad)


def test_architecture_tag_mismatch(tmp_path):
    model = Model("unet", 32, 2)
    path = tmp_path / "unet.bin"
    checkpoint_write(model, path)
    with pytest.raises(FormatError, match="architecture tag mismatch"):
        checkpoint_read(path, expect_arch="mfp-unet")
    # the right expectation loads fine
    assert checkpoint_read(path, expect_arch="unet").arch == "unet"


def test_trailing_bytes_rejected(tmp_path):
    model = Model("unet", 32, 2)
    path = tmp_path / "ck.bin"
    checkpoint_write(model, path)
    bloated = tmp_path / "extra.bin"
    bloated.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        checkpoint_read(bloated)


def test_header_the_model_rejects_is_a_format_error(tmp_path, capsys):
    model = Model("unet", 32, 2)
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
    model = Model("unet", 32, 2)
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


def test_read_draws_no_initialisation(tmp_path, monkeypatch):
    import lvseg.models

    model = build_mfp_unet(32, 2, seed=11)
    path = tmp_path / "ck.bin"
    checkpoint_write(model, path)

    def no_draw(*args, **kwargs):
        raise AssertionError("checkpoint_read drew an initialisation")
    # the binding Model draws its weights through
    monkeypatch.setattr(lvseg.models, "he_uniform", no_draw)
    loaded = checkpoint_read(path)
    written = model.parameters()
    for name, tensor in loaded.parameters().items():
        assert tensor.data.dtype == np.float32
        assert tensor.data.tobytes() == written[name].data.tobytes(), name


def test_header_too_large_for_the_file_is_a_format_error(tmp_path, capsys):
    import tracemalloc

    # unet, n 32, base width 65536, dilation 1, 46 parameters: 118 TiB of float32 weights
    path = tmp_path / "huge.bin"
    path.write_bytes(MAGIC + struct.pack("<II", 1, 4) + b"unet"
                     + struct.pack("<IIII", 32, 65536, 1, 46) + bytes(12))
    assert path.stat().st_size == 44
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"huge.bin: truncated.*file has 44"):
            checkpoint_read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert main(["eval", "--checkpoint", str(path), "--data", "synthetic:2",
                 "--out", str(tmp_path / "x")]) == 3
    assert "huge.bin" in capsys.readouterr().err


def test_header_check_counts_every_byte_a_parameter_takes(tmp_path):
    model = Model("unet", 32, 2)
    path = tmp_path / "ck.bin"
    checkpoint_write(model, path)
    raw = path.read_bytes()
    short = tmp_path / "short.bin"
    short.write_bytes(raw[:-1])
    with pytest.raises(FormatError, match=f"expected {len(raw)} bytes, file has {len(raw) - 1}"):
        checkpoint_read(short)


@pytest.mark.parametrize("field", ["tag", "name"])
def test_text_that_is_not_utf8_is_a_format_error(tmp_path, capsys, field):
    model = Model("unet", 32, 2)
    path = tmp_path / "ck.bin"
    checkpoint_write(model, path)
    raw = bytearray(path.read_bytes())
    at = 12 if field == "tag" else raw.index(b"enc1.conv1.weight")
    raw[at] = 0xFF
    bad = tmp_path / f"bad_{field}.bin"
    bad.write_bytes(bytes(raw))
    what = "architecture tag" if field == "tag" else "parameter name"
    with pytest.raises(FormatError, match=f"bad_{field}.bin: {what} is not UTF-8"):
        checkpoint_read(bad)
    assert main(["eval", "--checkpoint", str(bad), "--data", "synthetic:2",
                 "--out", str(tmp_path / "x")]) == 3
    assert f"bad_{field}.bin" in capsys.readouterr().err


def _packed_from_the_layout(model) -> tuple[bytes, list[tuple[int, int]]]:
    """``model``'s checkpoint packed field by field from the layout in the
    module docstring, and the byte span of each parameter's name length,
    name, rank and extents."""
    params = model.parameters()
    tag = model.arch.encode("utf-8")
    raw = b"MFPU" + struct.pack("<I", 1) + struct.pack("<I", len(tag)) + tag
    raw += struct.pack("<I", model.n) + struct.pack("<I", model.base_width)
    raw += struct.pack("<I", model.dilation) + struct.pack("<I", len(params))
    spans = []
    for name, tensor in params.items():
        start = len(raw)
        raw += struct.pack("<I", len(name.encode("utf-8"))) + name.encode("utf-8")
        raw += struct.pack("<I", tensor.data.ndim)
        for extent in tensor.data.shape:
            raw += struct.pack("<I", extent)
        spans.append((start, len(raw)))
        raw += struct.pack(f"<{tensor.data.size}f", *tensor.data.ravel().tolist())
    return raw, spans


def test_write_and_read_follow_the_documented_layout(tmp_path):
    model = Model("unet", 16, 2, seed=4)
    packed, _ = _packed_from_the_layout(model)
    path = tmp_path / "ck.bin"
    checkpoint_write(model, path)
    assert path.read_bytes() == packed
    by_hand = tmp_path / "by_hand.bin"
    by_hand.write_bytes(packed)
    loaded = checkpoint_read(by_hand)
    written = model.parameters()
    assert list(loaded.parameters()) == list(written)
    for name, tensor in loaded.parameters().items():
        assert tensor.data.tobytes() == written[name].data.tobytes(), name


def test_every_flipped_parameter_header_byte_is_a_format_error(tmp_path):
    packed, spans = _packed_from_the_layout(Model("unet", 16, 2, seed=4))
    assert len(spans) == 46
    path = tmp_path / "flipped.bin"
    for start, end in spans:
        for at in range(start, end):
            raw = bytearray(packed)
            raw[at] ^= 0xFF
            path.write_bytes(bytes(raw))
            with pytest.raises(FormatError, match="flipped.bin: "):
                checkpoint_read(path)
