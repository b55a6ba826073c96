import dataclasses
import warnings

import numpy as np
import pytest

from lvseg import dataset
from lvseg.dataset import ImageSample, load_dataset, save_dataset
from lvseg.errors import ContractViolation, FormatError
from lvseg.phantom import generate_phantom_set

DTYPES = (np.bool_, np.uint8, np.int64, np.float32, np.float64)
VALUES = (0, 1, -0.0, 2, 255, -1, 0.5, np.nan)


def _cast(values, dtype):
    # casting -1, 255, 0.5 or NaN to a narrower dtype gives whatever numpy
    # gives; both rules then judge that same array
    with warnings.catch_warnings(), np.errstate(invalid="ignore", over="ignore"):
        warnings.simplefilter("ignore")
        return np.asarray(values, dtype=np.float64).astype(dtype)


def _unique_rule(mask):
    """The mask rule as a sort: binary when its distinct values all lie in {0, 1}."""
    vals = np.unique(mask)
    return bool(np.all(np.isin(vals, (0, 1)))), f"mask must be binary, found values {vals[:8]}"


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("value", VALUES)
def test_mask_rule_matches_unique_isin(dtype, value):
    for cells in ([value] * 4, [0, 1, value, 0], [1, 1, 1, value]):
        mask = _cast(cells, dtype).reshape(2, 2)
        binary, message = _unique_rule(mask)
        image = np.zeros((2, 2), dtype=np.uint8)
        if binary:
            assert np.array_equal(ImageSample(image, mask, 0.3).mask, mask)
        else:
            with pytest.raises(ContractViolation) as info:
                ImageSample(image, mask, 0.3)
            assert str(info.value) == message


def test_mask_rule_names_the_first_eight_distinct_values():
    mask = np.arange(12, dtype=np.int64).reshape(3, 4)
    with pytest.raises(ContractViolation, match=r"found values \[0 1 2 3 4 5 6 7\]$"):
        ImageSample(np.zeros((3, 4), dtype=np.uint8), mask, 0.3)


def _dataset_with_first_id(tmp_path, sid):
    """A 1-subject dataset whose meta.csv names its first sample ``sid``."""
    data = tmp_path / "data"
    save_dataset(generate_phantom_set(1, 32, 3), data)
    meta = data / "meta.csv"
    lines = meta.read_text(encoding="utf-8").splitlines()
    lines[1] = ",".join([sid] + lines[1].split(",")[1:])
    meta.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data


@pytest.mark.parametrize("sid", ["subj000\x00_ED", "../images/subj000_ED", "subj000\\ED",
                                 ".", "..", ""],
                         ids=["nul", "slash", "backslash", "dot", "dotdot", "empty"])
def test_load_dataset_rejects_an_id_that_is_not_a_file_name_stem(tmp_path, monkeypatch, sid):
    data = _dataset_with_first_id(tmp_path, sid)
    read = []
    monkeypatch.setattr(dataset, "pgm_read", lambda path: read.append(path))
    with pytest.raises(FormatError) as info:
        load_dataset(data)
    assert str(info.value) == (f"{data / 'meta.csv'}: line 2: field id: not a plain "
                               f"file-name stem: {sid!r}")
    assert read == []  # rejected before any image or mask is opened


def test_load_dataset_reads_the_ids_the_benchmark_writes(tmp_path):
    samples = generate_phantom_set(2, 32, 3)[:3]
    ids = ["subj00_ED", "wide00_ED", "warm00_ED"]
    save_dataset([dataclasses.replace(s, sample_id=i) for s, i in zip(samples, ids)],
                 tmp_path / "data")
    loaded = load_dataset(tmp_path / "data")
    assert [s.sample_id for s in loaded] == ids
    for s, t in zip(samples, loaded):
        assert np.array_equal(s.mask, t.mask)
