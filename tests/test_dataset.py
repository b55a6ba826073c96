import warnings

import numpy as np
import pytest

from lvseg.dataset import ImageSample
from lvseg.errors import ContractViolation

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
