"""Run configuration: a flat JSON file with snake_case keys.

Unknown keys are rejected outright so a typo cannot silently fall back to
a default. The stock defaults are desk-scale (small input extent, narrow
base width, small batches); the clinical-scale settings (batch 64, max
epoch 100, augmentation factor 10) are plain values of the same fields.

A run sets no value that has only one in use: the SGD momentum, weight
decay and learning-rate decay and the elastic deformation's alpha and
sigma are the defaults of ``layers.SGD`` and ``preprocess.elastic_deform``,
and the architecture tag fixes the network's convolution spacing
(``models.ARCH_DILATION``).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ContractViolation, FormatError
from .models import check_spec


# the JSON values each field type takes: bool is no number, and a float
# field takes an integer but an int field takes no float
_JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "str": ((str,), "a string")}


@dataclass
class RunConfig:
    arch: str = "mfp-unet"
    n: int = 64
    base_width: int = 8
    learning_rate: float = 0.001
    batch_size: int = 8
    epochs: int = 20
    augment_factor: int = 1
    folds: int = 5
    seed: int = 0
    data_dir: str = "synthetic:10"
    out_dir: str = "out"

    def __post_init__(self):
        check_spec(self.arch, self.n, self.base_width)
        # json reads NaN and Infinity, which pass the sign check below, and
        # integers past the largest float, on which math.isfinite overflows
        if not abs(self.learning_rate) <= sys.float_info.max:
            raise ContractViolation(f"learning_rate must be finite, got {self.learning_rate}")
        for name in ("learning_rate", "batch_size", "augment_factor", "folds"):
            if getattr(self, name) <= 0:
                raise ContractViolation(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ContractViolation(f"{name} must be >= 0, got {getattr(self, name)}")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        field_types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(raw) - set(field_types)
        if unknown:
            raise ContractViolation(f"unknown config keys: {sorted(unknown)}")
        for name, value in raw.items():
            accepted, what = _JSON_TYPES[field_types[name]]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ContractViolation(f"config field {name} must be {what}, got {value!r}")
        return cls(**raw)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError, an integer past int()'s digit limit, or nesting too deep
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise FormatError(f"{path}: config must be a JSON object")
        return cls.from_dict(raw)

    def to_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")
