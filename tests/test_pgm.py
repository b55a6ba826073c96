import numpy as np
import pytest

from lvseg.errors import FormatError
from lvseg.pgm import pgm_read, pgm_write


def test_single_pixel_round_trip(tmp_path):
    p = tmp_path / "one.pgm"
    pgm_write(p, np.zeros((1, 1), dtype=np.uint8))
    out = pgm_read(p)
    assert out.shape == (1, 1) and out[0, 0] == 0


def test_ramp_round_trip_byte_exact(tmp_path):
    p = tmp_path / "ramp.pgm"
    arr = np.array([[0, 85], [170, 255]], dtype=np.uint8)
    pgm_write(p, arr)
    assert np.array_equal(pgm_read(p), arr)
    raw1 = p.read_bytes()
    pgm_write(p, pgm_read(p))
    assert p.read_bytes() == raw1


def test_random_round_trip(tmp_path):
    p = tmp_path / "rand.pgm"
    arr = np.random.default_rng(2).integers(0, 256, (37, 53)).astype(np.uint8)
    pgm_write(p, arr)
    assert np.array_equal(pgm_read(p), arr)


def test_ascii_variant_rejected(tmp_path):
    p = tmp_path / "ascii.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 85 170 255\n")
    with pytest.raises(FormatError, match="P2"):
        pgm_read(p)


def test_bad_maxval_rejected(tmp_path):
    p = tmp_path / "deep.pgm"
    p.write_bytes(b"P5 2 2 65535\n" + bytes(8))
    with pytest.raises(FormatError, match="maxval"):
        pgm_read(p)


def test_truncated_raster_names_offsets(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5 4 4 255\n" + bytes(7))
    with pytest.raises(FormatError, match="expected 16 bytes .* found 7"):
        pgm_read(p)


def test_comment_in_header_tolerated(tmp_path):
    p = tmp_path / "comment.pgm"
    p.write_bytes(b"P5\n# made by hand\n2 1 255\n\x07\x09")
    out = pgm_read(p)
    assert out.tolist() == [[7, 9]]


def test_write_rejects_bad_payload(tmp_path):
    with pytest.raises(FormatError):
        pgm_write(tmp_path / "bad.pgm", np.zeros((2, 2, 2), dtype=np.uint8))
    with pytest.raises(FormatError):
        pgm_write(tmp_path / "bad2.pgm", np.array([[300, 0]]))


@pytest.mark.parametrize("header, message", [
    (b"P5", "unexpected end of header at byte 2"),
    (b"P5 x 2 255\n", "invalid width b'x' at byte 4"),
    (b"P5 2 2 25x\n", "invalid maxval b'25x' at byte 10"),
    (b"P5 0 2 255\n", "non-positive dimensions 0x2 at byte 6"),
    (b"P5 2 2 255", "missing raster separator at byte 10"),
    (b"P5 1_6 1 255\n" + bytes(16), "invalid width b'1_6' at byte 6"),
    (b"P5 16 1 +255\n" + bytes(16), "invalid maxval b'+255' at byte 12"),
    (b"P5 +16 1 255\n" + bytes(16), "invalid width b'+16' at byte 6"),
    (b"P5 16 +1 255\n" + bytes(16), "invalid height b'+1' at byte 8"),
    (b"P516 1 255\n" + bytes(16), "missing separator after magic at byte 2"),
])
def test_header_errors_name_the_byte(tmp_path, header, message):
    p = tmp_path / "bad.pgm"
    p.write_bytes(header)
    with pytest.raises(FormatError) as exc:
        pgm_read(p)
    assert str(exc.value) == f"{p}: {message}"
