"""Run configuration: a flat JSON file with snake_case keys.

Unknown keys are rejected outright so a typo cannot silently fall back to
a default. The stock defaults are desk-scale (small input extent, narrow
base width, small batches); the clinical-scale settings (batch 64, max
epoch 100, augmentation factor 10) are plain values of the same fields.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ContractViolation, FormatError
from .models import check_spec
from .units import MAX_EXTENT_PX


# the JSON values each field type takes: bool is no number, and a float
# field takes an integer but an int field takes no float
_JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "str": ((str,), "a string")}


@dataclass
class RunConfig:
    arch: str = "mfp-unet"
    n: int = 64
    base_width: int = 8
    dilation: int = 2
    learning_rate: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0005
    lr_decay: float = 1e-4
    batch_size: int = 8
    epochs: int = 20
    augment_factor: int = 1
    elastic_alpha: float = 2.0
    elastic_sigma: float = 6.0
    folds: int = 5
    seed: int = 0
    data_dir: str = "synthetic:10"
    out_dir: str = "out"

    def __post_init__(self):
        # the class attribute is the field's default, which unet ignores
        if self.arch == "unet" and self.dilation not in (1, RunConfig.dilation):
            raise ContractViolation(f"unet uses dilation 1, got {self.dilation}")
        check_spec(self.arch, self.n, self.base_width, self.model_dilation)
        # json reads NaN and Infinity, which pass the sign checks below, and
        # integers past the largest float, on which math.isfinite overflows
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not abs(value) <= sys.float_info.max:
                raise ContractViolation(f"{f.name} must be finite, got {value}")
        positive = ("learning_rate", "momentum", "batch_size", "augment_factor",
                    "elastic_sigma", "folds")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ContractViolation(f"{name} must be positive, got {getattr(self, name)}")
        non_negative = ("weight_decay", "lr_decay", "epochs", "elastic_alpha", "seed")
        for name in non_negative:
            if getattr(self, name) < 0:
                raise ContractViolation(f"{name} must be >= 0, got {getattr(self, name)}")
        # no image is wider than this; far past it scipy's Gaussian kernel
        # sizing fails (ValueError at 1e20, OverflowError at 1e308)
        if self.elastic_sigma > MAX_EXTENT_PX:
            raise ContractViolation(
                f"elastic_sigma must be <= {MAX_EXTENT_PX}, got {self.elastic_sigma}")

    @property
    def model_dilation(self) -> int:
        """The dilation the network is built with: 1 for unet, else ``dilation``.

        A unet config takes ``dilation`` 1 or the field's default, 2, and
        raises ``ContractViolation`` for any other value. The default cannot
        be told apart from an explicit 2, so a unet config that sets 2 is
        accepted too, and builds a dilation-1 net."""
        return 1 if self.arch == "unet" else self.dilation

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
