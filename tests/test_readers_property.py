"""Property tests of every reader of outside bytes: given any bytes, each
returns a valid object or raises an error that ``cli.main`` maps to exit 2
or 3 (an ``lvseg.errors`` class, or ``OSError`` for a file that cannot be
opened), never another exception.

Each input is a valid file of its kind, built from drawn values, with up
to four byte edits. Hypothesis runs derandomized with a bounded example
count, so every run tries the same inputs; ``--hypothesis-show-statistics``
shows how often a reader returned and which errors it raised."""

import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lvseg.checkpoint import checkpoint_read, checkpoint_write
from lvseg.config import RunConfig
from lvseg.dataset import META_HEADER, ImageSample, load_dataset, save_dataset
from lvseg.errors import (ContractViolation, FormatError, MeasurementError, NonFiniteLogits,
                          TrainingDiverged, TrainingHelperError)
from lvseg.models import Model
from lvseg.phantom import generate_phantom_set
from lvseg.pgm import pgm_read, pgm_write
from lvseg.report import (MEASUREMENT_HEADER, METRICS_HEADER, MeasurementRow, MetricsRow,
                          read_measurements_csv, read_metrics_csv)

NAMED = (ContractViolation, FormatError, MeasurementError, NonFiniteLogits, TrainingDiverged,
         TrainingHelperError, OSError)


def _settings(examples: int):
    return settings(max_examples=examples, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _read(reader, path, data: bytes):
    """``reader(path)`` on ``data``: its result, or None for a named error."""
    path.write_bytes(data)
    try:
        out = reader(path)
    except NAMED as exc:
        event(type(exc).__name__)
        return None
    event("read")
    return out


def _mostly(common, rare):
    """Values of ``common`` most of the time, else of ``rare``. Hypothesis
    favours the first and last of a list, so ``rare`` sits in the middle."""
    return st.sampled_from([common] * 4 + [rare] + [common] * 4).flatmap(lambda s: s)


@st.composite
def _mutated(draw, valid: bytes, head: int) -> bytes:
    """``valid`` with up to four byte edits, most of them in its first ``head`` bytes."""
    data = bytearray(valid)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3, 4, 0]))):
        end = min(len(data), draw(st.sampled_from([head, head, len(data)])))
        at = draw(st.integers(0, max(end - 1, 0)))
        kind = draw(st.sampled_from(["byte", "word", "insert", "delete", "truncate"]))
        if kind == "byte" and data:
            data[at] = draw(st.integers(0, 255))
        elif kind == "word":  # a little-endian u32 field or float32 value
            word = draw(st.sampled_from([0, 1, 2, 16, 0x7FC00000, 0x7F800000, 2**32 - 1])
                        | st.integers(0, 2**32 - 1))
            data[at:at + 4] = struct.pack("<I", word)
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        else:
            del data[at:]
    return bytes(data)


def _text_file(text: str):
    return _mutated(text.encode("utf-8"), len(text))


# -- PGM -------------------------------------------------------------------------------

_BLANK = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
# a comment runs to the end of its line
_COMMENT = st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
# a run between two header fields: it starts blank, or a # would join the token before it
_RUN = st.tuples(_BLANK, st.lists(_BLANK | _COMMENT, max_size=3)).map(
    lambda t: t[0] + b"".join(t[1]))
_IMAGES = arrays(np.uint8, st.tuples(st.integers(1, 6), st.integers(1, 6)))


@st.composite
def _pgm_files(draw) -> bytes:
    a = draw(_IMAGES)
    h, w = a.shape
    fields = [b"P5", b"%d" % w, b"%d" % h, b"255"]
    header = b"".join(f + draw(_RUN) for f in fields[:3]) + fields[3] + draw(_BLANK)
    return draw(_mutated(header + a.tobytes(), len(header)))


@_settings(300)
@given(data=_pgm_files())
def test_pgm_read_returns_an_image_or_a_named_error(tmp_path_factory, data):
    out = _read(pgm_read, tmp_path_factory.getbasetemp() / "fuzz.pgm", data)
    assert out is None or (out.dtype == np.uint8 and out.ndim == 2 and out.size > 0)


@_settings(100)
@given(a=_IMAGES, runs=st.tuples(_RUN, _RUN, _RUN), last=_BLANK)
def test_pgm_round_trip_with_any_blanks_and_comments_in_the_header(tmp_path_factory, a,
                                                                      runs, last):
    path = tmp_path_factory.getbasetemp() / "round.pgm"
    pgm_write(path, a)
    header, raster = path.read_bytes().split(b"\n", 1)
    magic, width, height, maxval = header.split(b" ")
    path.write_bytes(magic + runs[0] + width + runs[1] + height + runs[2] + maxval + last
                     + raster)
    assert np.array_equal(pgm_read(path), a)


# -- checkpoint ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("checkpoint") / "valid.bin"
    checkpoint_write(Model("unet", 16, 2, seed=0), path)
    return path.read_bytes()


@_settings(150)
@given(data=st.data())
def test_checkpoint_read_returns_a_finite_model_or_a_named_error(tmp_path_factory,
                                                                 checkpoint_bytes, data):
    # 96 bytes: the header and the first parameter's name, rank and extents
    mutant = data.draw(_mutated(checkpoint_bytes, 96))
    model = _read(checkpoint_read, tmp_path_factory.getbasetemp() / "fuzz.bin", mutant)
    if model is not None:
        assert all(np.isfinite(t.data).all() for t in model.parameters().values())


# -- CSVs ------------------------------------------------------------------------------

_JUNK = st.sampled_from(['"', '""', ",", "\n", "\r", " ", "\x00", "é", "abc"]) | st.text(max_size=4)
_NUMBERS = _mostly(st.sampled_from(["", "0", "-2e3", "nan", "inf", "1e999", " 7 ", "1_0"])
                   | st.floats().map(repr), _JUNK)
_ID_CELLS = st.sampled_from(["subj000_ED", "subj000_ES", "subj001_ED", "subj001_ES", "subj000",
                             "mean", "missing", "", ".", "..", "a/b", "a\\b", "x\x00", "x" * 300])
_PHASES = _mostly(st.sampled_from(["ED", "ES", "other", "EF", "-"]), _JUNK)


@st.composite
def _csv_files(draw, header: list[str], cells: dict) -> bytes:
    """``header``, or one with a field missing, added or out of place, then
    up to four rows with a cell of ``cells[name]`` (``_NUMBERS`` by default)
    for each field, give or take a cell, then up to four byte edits."""
    names = draw(_mostly(st.just(header), st.sampled_from(
        [header[:-1], header + ["extra"], header[::-1]])))
    rows = [names]
    for _ in range(draw(st.integers(0, 4))):
        row = [draw(cells.get(name, _NUMBERS)) for name in names]
        rows.append(draw(_mostly(st.just(row), st.sampled_from([row[:-1], row + ["1"]]))))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return draw(_text_file(end.join(",".join(r) for r in rows) + end))


_MEASUREMENT_CELLS = {"id": _ID_CELLS, "phase": _PHASES,
                      "flag": _mostly(st.sampled_from(["ok", "length_error"]), _JUNK)}
# a field past csv's size limit raised csv.Error
_OVERSIZED = ",".join(MEASUREMENT_HEADER).encode() + b"\n" + b"1" * 200_000 + b",ED,,,,,ok\n"


@_settings(200)
@given(data=_csv_files(MEASUREMENT_HEADER, _MEASUREMENT_CELLS))
@example(data=_OVERSIZED)
def test_read_measurements_csv_returns_rows_or_a_named_error(tmp_path_factory, data):
    rows = _read(read_measurements_csv, tmp_path_factory.getbasetemp() / "m.csv", data)
    assert rows is None or all(isinstance(r, MeasurementRow) for r in rows)


@_settings(200)
@given(data=_csv_files(METRICS_HEADER, {"id": _ID_CELLS, "phase": _PHASES}))
def test_read_metrics_csv_returns_rows_or_a_named_error(tmp_path_factory, data):
    rows = _read(read_metrics_csv, tmp_path_factory.getbasetemp() / "metrics.csv", data)
    assert rows is None or all(isinstance(r, MetricsRow) for r in rows)


# -- dataset ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """Two phantom subjects' PGMs; each example writes its own meta.csv beside them."""
    directory = tmp_path_factory.mktemp("dataset")
    save_dataset(generate_phantom_set(2, 32, 0), directory)
    return directory


_META_CELLS = {"id": _mostly(st.sampled_from(["subj000_ED", "subj000_ES", "subj001_ED",
                                              "subj001_ES"]), _ID_CELLS),
               "subject": _mostly(st.sampled_from(["subj000", "subj001"]), _JUNK),
               "phase": _mostly(st.sampled_from(["ED", "ES", "other"]), _PHASES),
               "calibration_mm_per_px": _mostly(st.sampled_from(["0.3", "1", "2.5e-1"]),
                                                _NUMBERS)}


@_settings(150)
@given(data=_csv_files(META_HEADER, _META_CELLS))
def test_load_dataset_returns_samples_or_a_named_error(dataset_dir, data):
    samples = _read(lambda path: load_dataset(path.parent), dataset_dir / "meta.csv", data)
    assert samples is None or (samples and all(isinstance(s, ImageSample) for s in samples))


# -- run config ------------------------------------------------------------------------

_ANY_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats()
                         | st.text(max_size=6),
                         lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                         max_leaves=4)
# JSON values of each field type; json writes NaN and Infinity for those floats
_TYPED = {"int": st.sampled_from([0, 1, 2, 3, 16, 32, -1, 10**400]) | st.integers(),
          "float": st.floats() | st.integers(0, 3) | st.just(10**400),
          "str": st.sampled_from(["unet", "dilated-unet", "mfp-unet", "synthetic:2", "out"])
          | st.text(max_size=6)}
_FIELDS = {f.name: _mostly(_TYPED[f.type], _ANY_JSON) for f in dataclasses.fields(RunConfig)}


@st.composite
def _config_files(draw) -> bytes:
    names = draw(st.lists(st.sampled_from([*_FIELDS, *_FIELDS, "typo"]), max_size=5,
                          unique=True))
    raw = {name: draw(_FIELDS.get(name, _ANY_JSON)) for name in names}
    return draw(_text_file(json.dumps(raw)))


@_settings(300)
@given(data=_config_files())
@example(data=b'{"learning_rate": ' + b"1" * 400 + b"}")  # an int past any float: OverflowError
@example(data=b'{"seed": ' + b"1" * 5000 + b"}")  # past int()'s 4300 digits: ValueError
@example(data=b"[" * 100_000)  # nested past the recursion limit: RecursionError
def test_run_config_from_json_returns_a_config_or_a_named_error(tmp_path_factory, data):
    cfg = _read(RunConfig.from_json, tmp_path_factory.getbasetemp() / "cfg.json", data)
    if cfg is not None:
        assert all(math.isfinite(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)
                   if f.type == "float")
