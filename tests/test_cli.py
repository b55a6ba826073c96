import hashlib
import json
import os
import platform
import re
import resource
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lvseg import cli, errors, training
from lvseg.checkpoint import checkpoint_read, checkpoint_write
from lvseg.cli import main
from lvseg.models import MAX_BASE_WIDTH, Model
from lvseg.pgm import pgm_read, pgm_write
from lvseg.report import (MeasurementRow, agreement_reports, anova_text_table, method_anova,
                          read_measurements_csv, read_metrics_csv, write_measurements_csv)
from lvseg.stats import AnovaTable
from lvseg.units import MAX_EXTENT_PX


def test_synth_writes_dataset(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--count", "5", "--n", "64", "--seed", "3",
                 "--out", str(out)]) == 0
    meta = (out / "meta.csv").read_text().strip().splitlines()
    assert len(meta) == 1 + 10
    img = pgm_read(out / "images" / "subj000_ED.pgm")
    assert img.shape == (64, 64)


def test_measure_then_identical_report(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--count", "5", "--n", "64", "--seed", "1", "--out", str(data)])
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "auto")]) == 0
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "man")]) == 0
    assert main(["report", "--auto", str(tmp_path / "auto" / "measurements.csv"),
                 "--manual", str(tmp_path / "man" / "measurements.csv"),
                 "--out", str(tmp_path / "rep")]) == 0
    report = (tmp_path / "rep" / "agreement.csv").read_text().splitlines()
    header = report[0].split(",")
    for line in report[1:]:
        row = dict(zip(header, line.split(",")))
        assert float(row["slope"]) == pytest.approx(1.0)
        assert float(row["r"]) == pytest.approx(1.0)
        assert float(row["bias"]) == 0.0
        assert float(row["rpc"]) == 0.0


def test_report_invariant_under_row_reordering(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--count", "4", "--n", "64", "--seed", "2", "--out", str(data)])
    main(["measure", "--data", str(data), "--out", str(tmp_path / "auto")])
    main(["measure", "--data", str(data), "--out", str(tmp_path / "man")])
    auto_csv = tmp_path / "auto" / "measurements.csv"
    lines = auto_csv.read_text().strip().splitlines()
    shuffled = [lines[0]] + lines[:0:-1]
    (tmp_path / "shuffled.csv").write_text("\n".join(shuffled) + "\n")

    manual = read_measurements_csv(tmp_path / "man" / "measurements.csv")
    rep_a = agreement_reports(read_measurements_csv(auto_csv), manual)
    rep_b = agreement_reports(read_measurements_csv(tmp_path / "shuffled.csv"), manual)
    for a, b in zip(rep_a, rep_b):
        assert a == b


def test_report_lists_offending_ids(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--count", "4", "--n", "64", "--seed", "5", "--out", str(data)])
    main(["measure", "--data", str(data), "--out", str(tmp_path / "auto")])
    main(["measure", "--data", str(data), "--out", str(tmp_path / "man")])
    rows = read_measurements_csv(tmp_path / "auto" / "measurements.csv")
    rows[0].sample_id = "stranger_ED"
    from lvseg.report import write_measurements_csv
    write_measurements_csv(rows, tmp_path / "broken.csv")
    code = main(["report", "--auto", str(tmp_path / "broken.csv"),
                 "--manual", str(tmp_path / "man" / "measurements.csv"),
                 "--out", str(tmp_path / "rep")])
    assert code == 2  # contract violation listing the mismatched ids


def _set_cell(lines, line, column, value):
    cells = lines[line - 1].split(",")
    cells[lines[0].split(",").index(column)] = value
    return lines[:line - 1] + [",".join(cells)] + lines[line:]


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda lines: _set_cell(lines, 2, "D_cm", "abc"),
                 "line 2: field D_cm: not a number: 'abc'", id="non-numeric length"),
    pytest.param(lambda lines: _set_cell(lines, 3, "EF_pct", "1,5"),
                 "line 3: 1 field(s) past the header's last, flag", id="long row"),
    pytest.param(lambda lines: lines[:3] + [",".join(lines[3].split(",")[:4])] + lines[4:],
                 "line 4: row ends before field V_ml", id="short row"),
    # the later of two rows of one id silently replaced the earlier
    pytest.param(lambda lines: lines + [lines[1]], "line 8: field id: duplicate image row "
                 "id 'subj000_ED' (first on line 2)", id="repeated image id"),
    pytest.param(lambda lines: lines + [lines[5]], "line 8: field id: duplicate EF row "
                 "id 'subj000' (first on line 6)", id="repeated EF id"),
])
def test_report_rejects_a_malformed_measurement_csv(tmp_path, capsys, edit, message):
    data = tmp_path / "data"
    main(["synth", "--count", "2", "--n", "64", "--seed", "1", "--out", str(data)])
    main(["measure", "--data", str(data), "--out", str(tmp_path / "man")])
    manual = tmp_path / "man" / "measurements.csv"
    auto = tmp_path / "auto.csv"
    auto.write_text("\n".join(edit(manual.read_text().splitlines())) + "\n")
    read_measurements_csv(manual)  # the unedited file still reads
    capsys.readouterr()
    assert main(["report", "--auto", str(auto), "--manual", str(manual),
                 "--out", str(tmp_path / "rep")]) == 3
    err = capsys.readouterr().err
    assert f"{auto}: {message}" in err
    assert not (tmp_path / "rep").exists()


def _report_on_edited_rows(tmp_path, edit, manual_too=False):
    """Exit code of ``report`` on a 2-subject measurement CSV whose lines pass
    through ``edit`` as the automatic file, and also as the manual reference
    when ``manual_too``."""
    data = tmp_path / "data"
    main(["synth", "--count", "2", "--n", "64", "--seed", "1", "--out", str(data)])
    main(["measure", "--data", str(data), "--out", str(tmp_path / "man")])
    manual = tmp_path / "man" / "measurements.csv"
    auto = tmp_path / "auto.csv"
    edited = "\n".join(edit(manual.read_text().splitlines())) + "\n"
    auto.write_text(edited)
    if manual_too:
        manual.write_text(edited)
    return main(["report", "--auto", str(auto), "--manual", str(manual),
                 "--out", str(tmp_path / "rep")])


@pytest.mark.parametrize("line,sample_id,column,value", [
    (2, "subj000_ED", "D_cm", "nan"), (3, "subj000_ES", "S_cm2", "inf"),
    (4, "subj001_ED", "V_ml", "-inf"), (5, "subj001_ES", "D_cm", ""),
    (6, "subj000", "EF_pct", "inf"), (7, "subj001", "EF_pct", "-inf")])
def test_report_rejects_a_non_finite_number(tmp_path, capsys, line, sample_id, column, value):
    capsys.readouterr()
    assert _report_on_edited_rows(
        tmp_path, lambda lines: _set_cell(lines, line, column, value)) == 2
    err = capsys.readouterr().err
    assert f"auto row {sample_id!r}: field {column}: not a finite number" in err
    assert not (tmp_path / "rep").exists()


def test_report_allows_a_blank_ef_on_an_unmatched_row(tmp_path):
    def edit(lines):
        return _set_cell(_set_cell(lines, 6, "EF_pct", ""), 6, "flag", "unmatched")

    assert _report_on_edited_rows(tmp_path, edit, manual_too=True) == 0
    params = [row.split(",")[0] for row in
              (tmp_path / "rep" / "agreement.csv").read_text().splitlines()[1:]]
    assert params == ["volume", "area", "length"]


def test_report_with_no_paired_parameter_writes_nothing(tmp_path, capsys):
    capsys.readouterr()
    assert _report_on_edited_rows(tmp_path, lambda lines: lines[:2] + lines[5:6],
                                  manual_too=True) == 2
    assert "has two ids paired on both sides" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_eval_command_and_arch_mismatch(tmp_path):
    cfg = dict(arch="unet", n=32, base_width=2, learning_rate=0.05, batch_size=1, epochs=1,
               augment_factor=1, folds=2, seed=1, data_dir="synthetic:2",
               out_dir=str(tmp_path / "run"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 0
    ck = tmp_path / "run" / "fold0" / "checkpoint.bin"
    assert main(["eval", "--checkpoint", str(ck), "--data", "synthetic:2",
                 "--out", str(tmp_path / "eval")]) == 0
    rows = read_metrics_csv(tmp_path / "eval" / "metrics.csv")
    assert rows[-2].sample_id == "mean"
    # wrong architecture expectation is an I/O format error
    assert main(["eval", "--checkpoint", str(ck), "--data", "synthetic:2",
                 "--arch", "mfp-unet", "--out", str(tmp_path / "eval2")]) == 3


def test_eval_prints_its_peak_rss(tmp_path, capsys):
    ck = tmp_path / "checkpoint.bin"
    checkpoint_write(Model("unet", 32, 2), ck)
    assert main(["eval", "--checkpoint", str(ck), "--data", "synthetic:2",
                 "--out", str(tmp_path / "eval")]) == 0
    found = re.search(r"evaluated \d+ images in .* s/image, peak RSS (\d+) MB\)",
                      capsys.readouterr().out)
    assert found
    # the figure is this process's ru_maxrss (KiB on Linux), in MB
    now_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert 0 < int(found.group(1)) <= round(now_mb)


def test_eval_of_a_blown_up_checkpoint_names_the_image_and_the_checkpoint(tmp_path, capsys):
    # finite weights whose logits overflow float32: eval used to print DM 0.000
    # and HD nan and exit 0
    model = Model("unet", 32, 2, seed=0)
    for t in model.parameters().values():
        t.data *= np.float32(1e8)
    ck = tmp_path / "checkpoint.bin"
    checkpoint_write(model, ck)
    with np.errstate(all="ignore"):
        code = main(["eval", "--checkpoint", str(ck), "--data", "synthetic:2",
                     "--out", str(tmp_path / "eval")])
    assert code == 2
    assert capsys.readouterr().err == (f"error: non-finite logits on image 'subj000_ED' "
                                       f"(checkpoint {ck})\n")
    assert not (tmp_path / "eval" / "metrics.csv").exists()


def test_exit_codes_for_bad_inputs(tmp_path):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"arch": "unet", "typo_key": 1}')
    assert main(["train", "--config", str(bad_cfg)]) == 2
    assert main(["eval", "--checkpoint", str(tmp_path / "missing.bin"),
                 "--data", "synthetic:2", "--out", str(tmp_path / "x")]) == 3
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["train", "--config", str(garbled)]) == 3


def _digests(out_dir: Path) -> dict[str, str]:
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def test_train_flags_override_the_config_file(tmp_path, capsys):
    base = {"arch": "mfp-unet", "n": 32, "base_width": 2, "batch_size": 2, "epochs": 0,
            "folds": 2, "seed": 0, "data_dir": "synthetic:2",
            "out_dir": str(tmp_path / "from_config")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base))
    assert main(["train", "--config", str(cfg), "--arch", "unet", "--seed", "3",
                 "--data", "synthetic:4", "--out", str(tmp_path / "flags")]) == 0
    assert capsys.readouterr().out.splitlines()[-2] == (
        f"checkpoints and logs under {tmp_path / 'flags'}")
    assert not (tmp_path / "from_config").exists()
    assert checkpoint_read(tmp_path / "flags" / "fold0" / "checkpoint.bin").arch == "unet"
    folds = json.loads((tmp_path / "flags" / "folds.json").read_text())
    split = [(f["train_subjects"], f["val_subjects"]) for f in folds]
    assert sorted(split[0][0] + split[0][1]) == [f"subj{k:03d}" for k in range(4)]
    # the same outputs as a config file that holds the flags' values
    written = tmp_path / "written.json"
    written.write_text(json.dumps({**base, "arch": "unet", "seed": 3, "data_dir": "synthetic:4",
                                   "out_dir": str(tmp_path / "written")}))
    assert main(["train", "--config", str(written)]) == 0
    assert _digests(tmp_path / "flags") == _digests(tmp_path / "written")
    # and not those of the config file alone: another split at seed 0
    assert main(["train", "--config", str(cfg), "--data", "synthetic:4"]) == 0
    folds0 = json.loads((tmp_path / "from_config" / "folds.json").read_text())
    assert [(f["train_subjects"], f["val_subjects"]) for f in folds0] != split


@pytest.mark.parametrize("data,code", [("nodata", 3), ("synthetic:2", 2)])
def test_train_that_fails_before_its_first_fold_leaves_no_output_directory(
        tmp_path, capsys, monkeypatch, data, code):
    # no such directory; two subjects for five folds
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--data", data, "--out", "runout"]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "runout").exists()


def test_train_unet_config_with_another_dilation_exits_2(tmp_path, capsys):
    # each architecture fixes its own dilation, so no config names one
    cfg = tmp_path / "unet3.json"
    cfg.write_text('{"arch": "unet", "dilation": 3}')
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: unknown config keys: ['dilation']\n"
    assert not (tmp_path / "out").exists()


def test_train_config_that_is_not_utf8_is_a_format_error(tmp_path, capsys):
    cfg = tmp_path / "latin.json"
    cfg.write_bytes(b'{"arch": "unet\xff"}')
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 3
    assert f"{cfg}: not UTF-8 text" in capsys.readouterr().err


def test_measure_rejects_a_meta_csv_id_with_a_nul_byte(tmp_path, capsys):
    data = _synth_with_meta(tmp_path, lambda lines: lines[:2] + ["subj000\x00" + lines[2][7:]]
                            + lines[3:])
    capsys.readouterr()
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "m")]) == 3
    err = capsys.readouterr().err
    assert "meta.csv: line 3: field id: not a plain file-name stem: 'subj000\\x00_ES'" in err
    assert not (tmp_path / "m" / "measurements.csv").exists()


@pytest.mark.parametrize("work, argv, message", [
    ("synth", ["synth", "--out", "d"],
     "Unable to allocate 149. GiB for an array with shape (2, 100000, 100000)"),
    ("measure_samples", ["measure", "--data", "synthetic:1", "--out", "m"], ""),
])
def test_out_of_memory_is_a_named_error(tmp_path, capsys, monkeypatch, work, argv, message):
    # the verb's work is replaced by a raise, so nothing large is allocated
    def exhausted(*args, **kwargs):
        raise MemoryError(message)
    monkeypatch.setattr(cli, work, exhausted)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    expected = f"error: {argv[0]} ran out of memory" + (f": {message}" if message else "")
    assert capsys.readouterr().err == expected + "\n"


def test_non_integer_synthetic_count_is_a_contract_violation(tmp_path, capsys):
    assert main(["measure", "--data", "synthetic:abc", "--out", str(tmp_path / "m")]) == 2
    assert "'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-5"])
def test_measure_rejects_a_non_positive_extent(tmp_path, capsys, n):
    assert main(["measure", "--data", "synthetic:2", "--n", n,
                 "--out", str(tmp_path / "m")]) == 2
    assert f"extent n must be >= 1, got {n}" in capsys.readouterr().err


@pytest.mark.parametrize("calibration", ["inf", "nan"])
def test_measure_rejects_a_non_finite_calibration(tmp_path, capsys, calibration):
    data = tmp_path / "data"
    main(["synth", "--count", "1", "--n", "64", "--seed", "1", "--out", str(data)])
    meta = data / "meta.csv"
    lines = meta.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:3] + [calibration])
    meta.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "m")]) == 2
    assert f"calibration must be positive and finite, got {calibration}" in \
        capsys.readouterr().err
    assert not (tmp_path / "m" / "measurements.csv").exists()


def _child_env() -> dict:
    """This environment with the imported lvseg's source directory first on PYTHONPATH."""
    import lvseg
    src_dir = str(Path(lvseg.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}


def _synth_with_meta(tmp_path, edit):
    """A 2-subject dataset whose meta.csv lines pass through ``edit``."""
    data = tmp_path / "data"
    assert main(["synth", "--count", "2", "--n", "64", "--seed", "1", "--out", str(data)]) == 0
    meta = data / "meta.csv"
    meta.write_text("\n".join(edit(meta.read_text().splitlines())) + "\n")
    return data


@pytest.mark.parametrize("edit,message", [
    pytest.param(
        lambda lines: lines[:2] + [",".join(lines[2].split(",")[:3] + ["abc"])] + lines[3:],
        "line 3: field calibration_mm_per_px: not a number: 'abc'", id="non-numeric calibration"),
    pytest.param(
        lambda lines: lines[:3] + [",".join(lines[3].split(",")[:2])] + lines[4:],
        "line 4: row ends before field phase", id="short row"),
    pytest.param(
        lambda lines: lines[:2] + [lines[2] + ",9.9,x"] + lines[3:],
        "line 3: 2 field(s) past the header's last, calibration_mm_per_px", id="long row"),
    pytest.param(lambda lines: lines[:1], "line 1: no sample rows follow the header",
                 id="header only"),
    pytest.param(lambda lines: lines + [lines[1]],
                 "line 6: field id: duplicate sample id 'subj000_ED' (first on line 2)",
                 id="duplicate id"),
])
def test_measure_rejects_a_malformed_meta_csv(tmp_path, capsys, edit, message):
    data = _synth_with_meta(tmp_path, edit)
    capsys.readouterr()
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "m")]) == 3
    err = capsys.readouterr().err
    assert "meta.csv" in err and message in err
    assert not (tmp_path / "m" / "measurements.csv").exists()


def test_measure_rejects_a_mask_whose_values_all_read_as_background(tmp_path, capsys):
    data = _synth_with_meta(tmp_path, lambda lines: lines)
    masks = sorted((data / "masks").glob("*.pgm"))
    for path in masks:
        pgm_write(path, pgm_read(path) // 255)  # {0, 255} rewritten as {0, 1}
    capsys.readouterr()
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "m")]) == 3
    err = capsys.readouterr().err
    assert f"{masks[0]}: largest mask value is 1" in err
    assert not (tmp_path / "m" / "measurements.csv").exists()
    for path in masks:  # an empty mask still reads, as an empty mask
        pgm_write(path, np.zeros_like(pgm_read(path)))
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "m2")]) == 0


def test_meta_csv_may_hold_more_columns_but_not_fewer(tmp_path, capsys):
    data = _synth_with_meta(tmp_path, lambda lines: [line + ",x" for line in lines])
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "m")]) == 0
    data = _synth_with_meta(tmp_path, lambda lines: [line.rsplit(",", 1)[0] for line in lines])
    capsys.readouterr()
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "m2")]) == 3
    assert ("meta.csv: header must contain ['calibration_mm_per_px', 'id', 'phase', "
            "'subject']") in capsys.readouterr().err


def test_measurement_csv_header_must_match_exactly(tmp_path, capsys):
    data = _synth_with_meta(tmp_path, lambda lines: lines)
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "m")]) == 0
    csv_path = tmp_path / "m" / "measurements.csv"
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join([lines[0] + ",note"] + [line + "," for line in lines[1:]]))
    capsys.readouterr()
    assert main(["report", "--auto", str(csv_path), "--manual", str(csv_path),
                 "--out", str(tmp_path / "r")]) == 3
    assert ("measurements.csv: measurement header must be ['id', 'phase', 'D_cm', 'S_cm2', "
            "'V_ml', 'EF_pct', 'flag'], got ['id', 'phase', 'D_cm', 'S_cm2', 'V_ml', "
            "'EF_pct', 'flag', 'note']") in capsys.readouterr().err


def test_csv_bytes_that_are_not_utf8_are_a_format_error(tmp_path, capsys):
    data = _synth_with_meta(tmp_path, lambda lines: lines)
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "m")]) == 0
    for path in (data / "meta.csv", tmp_path / "m" / "measurements.csv"):
        path.write_bytes(path.read_bytes().replace(b"subj001", b"subj\xe91"))
    capsys.readouterr()
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "m2")]) == 3
    assert "meta.csv: not UTF-8 text" in capsys.readouterr().err
    auto = str(tmp_path / "m" / "measurements.csv")
    assert main(["report", "--auto", auto, "--manual", auto, "--out", str(tmp_path / "r")]) == 3
    assert "measurements.csv: not UTF-8 text" in capsys.readouterr().err


def test_load_dataset_names_the_sample_whose_image_and_mask_differ(tmp_path, capsys):
    from lvseg.pgm import pgm_write

    data = _synth_with_meta(tmp_path, lambda lines: lines)
    pgm_write(data / "images" / "subj000_ES.pgm", np.zeros((4, 4), dtype=np.uint8))
    capsys.readouterr()
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert "meta.csv: line 3: sample 'subj000_ES': image (4, 4) and mask (64, 64)" in err
    assert not (tmp_path / "m" / "measurements.csv").exists()


def test_synth_rejects_a_zero_count(tmp_path, capsys):
    assert main(["synth", "--count", "0", "--out", str(tmp_path / "d")]) == 2
    assert "subject count must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


# keys a config held until each took its one value: the optimiser's and the
# augmentation's are their callee's defaults, the dilation the architecture's;
# a config that holds one is refused before its value is read
REMOVED_CONFIG_KEYS = ("dilation", "momentum", "weight_decay", "lr_decay", "elastic_alpha",
                       "elastic_sigma")


def _config_error(field: str, message: str) -> str:
    """The error a config holding ``field`` with a bad value ends in:
    ``message``, or the unknown key for a removed one."""
    return f"unknown config keys: [{field!r}]" if field in REMOVED_CONFIG_KEYS else message


@pytest.mark.parametrize("field,value", [
    ("epochs", "3"), ("folds", "x"), ("seed", None), ("batch_size", True), ("n", 64.0),
    ("learning_rate", True), ("momentum", "0.9"), ("arch", 1), ("data_dir", None)])
def test_train_config_fields_must_have_their_type(tmp_path, capsys, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value, "out_dir": str(tmp_path / "run")}))
    assert main(["train", "--config", str(cfg)]) == 2
    assert _config_error(field, f"config field {field} must be") in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", ["learning_rate", "momentum", "weight_decay", "lr_decay",
                                   "elastic_alpha", "elastic_sigma"])
def test_train_config_floats_must_be_finite(tmp_path, capsys, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{field}": {value}, "out_dir": {json.dumps(str(tmp_path / "run"))}}}')
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {_config_error(field, f'{field} must be finite')}")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_train_whose_weights_blow_up_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"arch": "unet", "n": 32, "base_width": 2, "folds": 2,
                               "epochs": 1, "batch_size": 4, "augment_factor": 2,
                               "data_dir": "synthetic:2", "learning_rate": 1e30,
                               "out_dir": str(tmp_path / "run")}))
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(cfg)]) == 2
    assert ("error: non-finite validation logits on sample 'subj000_ED' "
            "(fold 0, epoch 0, lr 1e+30)") in capsys.readouterr().err
    assert not (tmp_path / "run" / "folds.json").exists()


@pytest.mark.parametrize("verb", ["eval", "train"])
def test_a_blown_up_eval_or_train_prints_only_its_error_line(tmp_path, verb):
    # numpy's overflow and invalid-value warnings used to come first, from
    # the helper too; the finite checks already name the failure
    model = Model("unet", 32, 2, seed=0)
    for t in model.parameters().values():
        t.data *= np.float32(1e8)
    ck = tmp_path / "big.bin"
    checkpoint_write(model, ck)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"arch": "unet", "n": 32, "base_width": 2, "folds": 2,
                               "epochs": 1, "batch_size": 4, "augment_factor": 2,
                               "data_dir": "synthetic:2", "learning_rate": 1e30,
                               "out_dir": str(tmp_path / "run")}))
    argv, message = {
        "eval": (["eval", "--checkpoint", str(ck), "--data", "synthetic:2",
                  "--out", str(tmp_path / "eval")],
                 f"non-finite logits on image 'subj000_ED' (checkpoint {ck})"),
        "train": (["train", "--config", str(cfg)],
                  "non-finite validation logits on sample 'subj000_ED' (fold 0, epoch 0, "
                  "lr 1e+30)")}[verb]
    out = subprocess.run([sys.executable, "-m", "lvseg", *argv], capture_output=True,
                         text=True, env=_child_env(), timeout=120)
    assert out.returncode == 2
    assert out.stderr == f"error: {message}\n"


def test_train_prints_its_sample_steps_and_peak_rss(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"arch": "unet", "n": 32, "base_width": 2, "batch_size": 2,
                               "epochs": 2, "augment_factor": 2, "folds": 2,
                               "data_dir": "synthetic:2", "out_dir": str(tmp_path / "run")}))
    assert main(["train", "--config", str(cfg)]) == 0
    found = re.search(r"trained (\d+) sample-steps in .* ms/step, peak RSS (\d+) MB\)",
                      capsys.readouterr().out)
    assert found
    # 2 folds, each training on 1 subject's 2 frames, augmented x2, for 2 epochs
    assert int(found.group(1)) == 2 * 2 * 2 * 2
    now_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert 0 < int(found.group(2)) <= round(now_mb)


_FAULTS_PER_STEP = """
import resource
from lvseg import training
from lvseg.cli import _keep_freed_memory
from lvseg.config import RunConfig
from lvseg.phantom import generate_phantom_set
if KEEP:
    _keep_freed_memory()
if not HELPER:
    training.usable_cpus = lambda: 1
samples = generate_phantom_set(4, 96, 1)
cfg = RunConfig(n=96, base_width=8, batch_size=4, epochs=2, augment_factor=2, seed=3)
training.train_fold(cfg, samples[:6], samples[6:], 0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
result = training.train_fold(cfg, samples[:6], samples[6:], 1)
# per sample-step this process ran: beside the helper it runs every other one
own_steps = result.sample_steps / result.processes
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / own_steps)
"""


def _faults_per_step(keep: bool, helper: bool) -> float:
    script = _FAULTS_PER_STEP.replace("KEEP", str(keep)).replace("HELPER", str(helper))
    env = _child_env()
    if not keep:
        # glibc's static defaults: setting either threshold turns off the
        # dynamic mmap threshold, which can grow over the tape by chance and
        # keep it (under 200 faults per step in 4 of 80 runs; pinned, at
        # least 14,915 in every run)
        env["GLIBC_TUNABLES"] = ("glibc.malloc.mmap_threshold=131072:"
                                 "glibc.malloc.trim_threshold=131072")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    return float(out.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_train_keeps_freed_tape_memory_in_the_process():
    # in a child process, since the setting holds for the whole process; at
    # n=96, since below it glibc's dynamic thresholds can already keep the
    # tape (2-core Xeon, one BLAS thread: without the helper ~21 faults per
    # sample-step at n=32; at n=64 ~1,470 while first gradients were
    # copied, 0-216 since they are stored as made; ~630 at n=96). In one
    # process: beside the helper this process runs positions 0 and 2 of each
    # batch, and position 0 re-faults least, so the count without the
    # setting fell below 200 in 8 of 77 runs, against 4 of 77 in one process.
    faults = {keep: _faults_per_step(keep, helper=False) for keep in (False, True)}
    assert faults[True] < 200 < faults[False]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
@pytest.mark.skipif(training.usable_cpus() < 2, reason="the helper needs two CPUs")
def test_train_beside_the_helper_keeps_freed_tape_memory():
    # 0-3 faults per sample-step this process ran, over 8 runs on 2 Xeon CPUs
    assert _faults_per_step(keep=True, helper=True) < 200


def test_multi_method_report_emits_anova(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--count", "5", "--n", "64", "--seed", "8", "--out", str(data)])
    main(["measure", "--data", str(data), "--out", str(tmp_path / "man")])
    manual = read_measurements_csv(tmp_path / "man" / "measurements.csv")

    rng = np.random.default_rng(0)
    methods = {}
    for name, noise in (("m1", 0.05), ("m2", 0.3)):
        rows = read_measurements_csv(tmp_path / "man" / "measurements.csv")
        for r in rows:
            for col in ("d_cm", "s_cm2", "v_ml", "ef_pct"):
                v = getattr(r, col)
                if v == v:  # not NaN
                    setattr(r, col, v + rng.normal(0, noise))
        methods[name] = rows
    tables = method_anova(methods, manual)
    assert set(tables) <= {"volume", "area", "length", "EF"}
    for t in tables.values():
        assert t.df_between == 1


def test_report_of_two_methods_writes_anova_and_leaves_out_a_flagged_row(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--count", "5", "--n", "64", "--seed", "8", "--out", str(data)]) == 0
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "man")]) == 0
    measured = tmp_path / "man" / "measurements.csv"

    def flagged(rows):  # the length procedure failed on subj002_ES
        return [MeasurementRow(r.sample_id, r.phase, flag="length_error", ef_pct=r.ef_pct)
                if r.sample_id == "subj002_ES" else r for r in rows]

    rng = np.random.default_rng(3)
    paths = {}
    for name, noise in (("m1", 0.05), ("m2", 0.3)):
        rows = read_measurements_csv(measured)
        for r in rows:
            for col in ("d_cm", "s_cm2", "v_ml", "ef_pct"):
                setattr(r, col, getattr(r, col) + rng.normal(0, noise))
        paths[name] = tmp_path / f"{name}.csv"
        write_measurements_csv(flagged(rows) if name == "m1" else rows, paths[name])
    write_measurements_csv(flagged(read_measurements_csv(measured)), tmp_path / "manual.csv")
    assert "length_error" in paths["m1"].read_text()
    assert main(["report", "--auto", str(paths["m1"]), "--auto", str(paths["m2"]),
                 "--manual", str(tmp_path / "manual.csv"), "--out", str(tmp_path / "rep")]) == 0

    lines = (tmp_path / "rep" / "agreement.csv").read_text().splitlines()
    n = {line.split(",")[0]: int(line.split(",")[1]) for line in lines[1:]}
    assert n == {"volume": 9, "area": 9, "length": 9, "EF": 5}  # 10 images, one flagged
    sections = (tmp_path / "rep" / "anova.txt").read_text().split("\n\n")
    assert len(sections) == 5 and sections[-1] == ""
    header = anova_text_table(AnovaTable(1.0, 1.0, 1, 2)).splitlines()[0]
    for section, param in zip(sections, ["volume", "area", "length", "EF"]):
        title, head, between, within, total = section.splitlines()
        assert (title, head) == (f"[{param}]", header)
        assert between.startswith("between-groups variation")
        assert total.split()[-1] == str(2 * n[param] - 1)  # two methods, n ids each


def _noisy_measurements(tmp_path, count, seed):
    """The manual reference of ``count`` synthetic subjects, and its rows
    with noise on every value, as an automatic method's."""
    data = tmp_path / "data"
    assert main(["synth", "--count", str(count), "--n", "64", "--seed", "8",
                 "--out", str(data)]) == 0
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "man")]) == 0
    manual = tmp_path / "man" / "measurements.csv"
    rows = read_measurements_csv(manual)
    rng = np.random.default_rng(seed)
    for r in rows:
        for col in ("d_cm", "s_cm2", "v_ml", "ef_pct"):
            setattr(r, col, getattr(r, col) + rng.normal(0, 0.2))
    return str(manual), rows


@pytest.mark.parametrize("edit", ["missing", "flagged"])
def test_a_two_method_report_does_not_depend_on_the_order_of_auto(tmp_path, capsys, edit):
    # the ids were checked for the first --auto only: with B short of one
    # id, "--auto A --auto B" left it out of the ANOVA and "--auto B --auto
    # A" exited 2; a flagged id in B exited 2 in the second order too
    manual, rows = _noisy_measurements(tmp_path, 6, 5)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_measurements_csv(rows, a)
    if edit == "missing":
        rows = [r for r in rows if r.sample_id != "subj001_ED"]
    else:
        rows = [MeasurementRow(r.sample_id, r.phase, flag="length_error")
                if r.sample_id == "subj001_ED" else r for r in rows]
    write_measurements_csv(rows, b)
    results = []
    for i, order in enumerate(([a, b], [b, a])):
        out = tmp_path / f"rep{i}"
        capsys.readouterr()
        code = main(["report", "--auto", order[0], "--auto", order[1], "--manual", manual,
                     "--out", str(out)])
        anova = (out / "anova.txt").read_text() if code == 0 else None
        results.append((code, capsys.readouterr().err, anova))
    assert results[0] == results[1]
    code, err, anova = results[0]
    if edit == "missing":
        assert (code, anova) == (2, None)
        assert err == f"error: {b}: volume: ids not present on both sides: ['subj001_ED']\n"
    else:
        assert code == 0
        # 12 ids of A and 11 of B: one flagged id leaves B's group only
        within = [line.split() for line in anova.splitlines() if line.startswith("within")]
        assert [w[3] for w in within] == ["21", "21", "21", "10"]


def test_report_says_which_auto_path_its_agreement_describes(tmp_path, capsys):
    manual, rows = _noisy_measurements(tmp_path, 4, 6)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_measurements_csv(rows, a)
    write_measurements_csv(rows[::-1], b)
    for autos in ([a], [b, a]):
        capsys.readouterr()
        assert main(["report", *(arg for p in autos for arg in ("--auto", p)),
                     "--manual", manual, "--out", str(tmp_path / "rep")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"agreement of {autos[0]} with {manual}:"
        assert [line.split(":")[0] for line in lines[1:-1]] == ["volume", "area", "length",
                                                                "EF"]


def test_a_single_auto_report_removes_an_earlier_reports_anova(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--count", "4", "--n", "64", "--seed", "8", "--out", str(data)]) == 0
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "man")]) == 0
    manual = str(tmp_path / "man" / "measurements.csv")
    rows = read_measurements_csv(manual)
    for r in rows:
        r.v_ml += 1.0
    (tmp_path / "b").mkdir()
    other = str(tmp_path / "b" / "measurements.csv")
    write_measurements_csv(rows, other)
    out = tmp_path / "rep"
    assert main(["report", "--auto", manual, "--auto", other, "--manual", manual,
                 "--out", str(out)]) == 0
    assert (out / "anova.txt").exists()
    assert main(["report", "--auto", other, "--manual", manual, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["agreement.csv", "boxplot.csv"]
    assert main(["report", "--auto", other, "--manual", manual,
                 "--out", str(tmp_path / "fresh")]) == 0
    for name in ("agreement.csv", "boxplot.csv"):
        assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_main_runs_verb_after_verb_in_one_process_as_fresh_processes_do(
        tmp_path, monkeypatch, capsys):
    # the parser is built once per process; no call may see an earlier one's arguments
    calls = [(["measure", "--data", "synthetic:x", "--out", "bad"], 2),
             (["synth", "--count", "3", "--n", "48", "--seed", "5", "--out", "data"], 0),
             (["measure", "--data", "data", "--out", "m1"], 0),
             (["report", "--auto", "m1/measurements.csv", "--manual", "m1/measurements.csv",
               "--out", "rep"], 0),
             (["measure", "--data", "synthetic:2", "--out", "m2"], 0),  # --n's default, 64
             (["report", "--auto", "m2/measurements.csv", "--manual", "m2/measurements.csv",
               "--out", "rep2"], 0)]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    for argv, code in calls:
        capsys.readouterr()
        assert main(argv) == code
        got = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "lvseg", *argv], cwd=fresh,
                              capture_output=True, text=True, env=_child_env(), timeout=120)
        assert (proc.returncode, proc.stdout) == (code, got.out)
        if code:
            assert proc.stderr == got.err
    files = sorted(p.relative_to(here) for p in here.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
    assert [f for f in files if (here / f).read_bytes() != (fresh / f).read_bytes()] == []
    assert {f.parts[0] for f in files} == {"data", "m1", "m2", "rep", "rep2"}


def test_anova_from_sums_matches_published_table():
    t = AnovaTable(ss_between=3.524, ss_within=2.198, df_between=3, df_within=12)
    assert round(t.f, 2) == 6.41
    assert round(t.p, 4) == 0.0077


def test_console_script_installed(tmp_path):
    exe = shutil.which("lvseg")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = subprocess.run([exe, "synth", "--count", "4", "--n", "64",
                          "--out", str(tmp_path / "d")],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "8 samples" in out.stdout


def test_python_dash_m_runs_the_cli(tmp_path):
    env = _child_env()
    out = subprocess.run([sys.executable, "-m", "lvseg", "synth", "--count", "4", "--n", "64",
                          "--out", str(tmp_path / "d")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "8 samples" in out.stdout
    out = subprocess.run([sys.executable, "-m", "lvseg", "measure", "--data", "synthetic:x",
                          "--out", str(tmp_path / "m")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 2


def test_reports_on_two_measurement_csvs_of_one_name_keep_both_methods(tmp_path, capsys):
    # every measure writes measurements.csv: keyed by file stem, the second
    # --auto replaced the first, and no anova.txt was written
    data = tmp_path / "data"
    assert main(["synth", "--count", "4", "--n", "64", "--seed", "8", "--out", str(data)]) == 0
    assert main(["measure", "--data", str(data), "--out", str(tmp_path / "man")]) == 0
    manual = str(tmp_path / "man" / "measurements.csv")
    rng = np.random.default_rng(4)
    autos = []
    for name, noise in (("a", 0.05), ("b", 0.3)):
        rows = read_measurements_csv(manual)
        for r in rows:
            for col in ("d_cm", "s_cm2", "v_ml", "ef_pct"):
                setattr(r, col, getattr(r, col) + rng.normal(0, noise))
        (tmp_path / name).mkdir()
        autos.append(str(tmp_path / name / "measurements.csv"))
        write_measurements_csv(rows, autos[-1])
    assert main(["report", "--auto", autos[0], "--auto", autos[1], "--manual", manual,
                 "--out", str(tmp_path / "both")]) == 0
    assert main(["report", "--auto", autos[0], "--manual", manual,
                 "--out", str(tmp_path / "first")]) == 0
    assert ((tmp_path / "both" / "agreement.csv").read_bytes()
            == (tmp_path / "first" / "agreement.csv").read_bytes())
    assert (tmp_path / "both" / "anova.txt").exists()
    # one file under another spelling read as a second method, identical to the first
    for again in (autos[0], os.path.join(tmp_path, "b", "..", "a", ".", "measurements.csv")):
        capsys.readouterr()
        assert main(["report", "--auto", autos[0], "--auto", autos[1], "--auto", again,
                     "--manual", manual, "--out", str(tmp_path / "twice")]) == 2
        assert capsys.readouterr().err == f"error: --auto {autos[0]} is given more than once\n"
        assert not (tmp_path / "twice").exists()


@pytest.mark.parametrize("argv, code", [
    (["measure", "--data", "synthetic:1", "--n", "99999999999999999999999"], 2),
    (["synth", "--n", "99999999999999999999999"], 2),
    (["eval", "--checkpoint", "big.bin", "--data", "synthetic:1"], 3),
    (["train", "--config", "big.json"], 2),
], ids=["measure", "synth", "eval", "train"])
def test_an_image_extent_past_the_bound_is_one_named_error(tmp_path, capsys, monkeypatch,
                                                           argv, code):
    # numpy used to refuse the extent with a ValueError traceback, exit 1
    model = Model("unet", 32, 2, seed=0)
    checkpoint_write(model, tmp_path / "big.bin")
    header = (tmp_path / "big.bin").read_bytes()
    (tmp_path / "big.bin").write_bytes(header.replace(struct.pack("<III", 32, 2, 1),
                                                      struct.pack("<III", 2**32 - 16, 2, 1), 1))
    (tmp_path / "big.json").write_text('{"n": 160000000000000000000000}')
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(argv + ["--out", "out"]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"extent must be <= {MAX_EXTENT_PX}, got " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,value,bound", [("base_width", 2**62, MAX_BASE_WIDTH)])
def test_a_config_value_past_its_bound_is_one_named_error(tmp_path, capsys, field, value,
                                                          bound):
    # this ended in a ValueError traceback (exit 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 32, "base_width": 2, "folds": 2, "epochs": 1,
                               "batch_size": 2, "augment_factor": 2, "data_dir": "synthetic:2",
                               "out_dir": str(tmp_path / "run"), field: value}))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    name = field.replace("_", " ")
    assert capsys.readouterr().err == f"error: {name} must be <= {bound}, got {value}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("width,dilation", [(MAX_BASE_WIDTH + 1, 2), (2, MAX_EXTENT_PX + 1)])
def test_a_checkpoint_header_past_a_bound_describes_no_valid_model(tmp_path, capsys, width,
                                                                    dilation):
    ck = tmp_path / "ck.bin"
    checkpoint_write(Model("dilated-unet", 32, 2, seed=0), ck)
    ck.write_bytes(ck.read_bytes().replace(struct.pack("<III", 32, 2, 2),
                                           struct.pack("<III", 32, width, dilation), 1))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ck), "--data", "synthetic:1",
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # the header's dilation is bound by its tag's
    rule = "must be <= " if dilation == 2 else f"dilated-unet uses dilation 2, got {dilation}"
    assert "header describes no valid model" in err and rule in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error", [value for value in vars(errors).values()
                                   if isinstance(value, type) and issubclass(value, Exception)
                                   and value.__module__ == errors.__name__],
                         ids=lambda error: error.__name__)
def test_every_named_error_exits_2_or_3_with_one_error_line(capsys, monkeypatch, error):
    def fail(args):
        raise error("what went wrong")
    monkeypatch.setattr(cli, "_cmd_report", fail)
    capsys.readouterr()
    assert main(["report", "--auto", "a.csv", "--manual", "m.csv", "--out", "r"]) in (2, 3)
    assert capsys.readouterr().err == "error: what went wrong\n"
