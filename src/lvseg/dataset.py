"""Dataset types, on-disk layout, and cross-validation fold assignment.

A dataset directory holds ``images/<id>.pgm``, ``masks/<id>.pgm`` and a
``meta.csv`` with columns id, subject, phase, calibration_mm_per_px.
Sample ids are ``<subject>_<phase>`` by convention but any unique string
works; masks use pixel values {0, 255}.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractViolation, FormatError
from .pgm import pgm_read, pgm_write

PHASES = ("ED", "ES", "other")


@dataclass
class ImageSample:
    """Grayscale image, binary ground-truth mask, and pixel calibration.

    A mask is binary when every element equals 0 or 1: one elementwise
    pass, which accepts and rejects the masks that
    ``np.isin(np.unique(mask), (0, 1))`` does (-0.0 and True count as 0
    and 1, NaN as neither). ``np.unique`` sorts the whole mask, so it runs
    only to list the offending values in the error."""

    image: np.ndarray           # (H, W) uint8
    mask: np.ndarray            # (H, W) {0, 1}
    calibration: float          # mm per pixel
    phase: str = "other"
    subject: str = ""
    sample_id: str = ""

    def __post_init__(self):
        self.image = np.asarray(self.image)
        self.mask = np.asarray(self.mask)
        if self.image.shape != self.mask.shape:
            raise ContractViolation(
                f"image {self.image.shape} and mask {self.mask.shape} shapes differ")
        if not ((self.mask == 0) | (self.mask == 1)).all():
            vals = np.unique(self.mask)
            raise ContractViolation(f"mask must be binary, found values {vals[:8]}")
        if not 0 < self.calibration < math.inf:
            raise ContractViolation(
                f"calibration must be positive and finite, got {self.calibration}")
        if self.phase not in PHASES:
            raise ContractViolation(f"phase must be one of {PHASES}, got {self.phase!r}")
        if not self.sample_id:
            self.sample_id = f"{self.subject}_{self.phase}" if self.subject else "sample"


@dataclass
class FoldAssignment:
    """Per-sample fold indices; all samples of one subject share a fold."""

    folds: list[int]
    n_folds: int
    subject_folds: dict[str, int] = field(default_factory=dict)

    def train_val_indices(self, held_out: int) -> tuple[list[int], list[int]]:
        train = [i for i, f in enumerate(self.folds) if f != held_out]
        val = [i for i, f in enumerate(self.folds) if f == held_out]
        return train, val


def make_folds(samples: list[ImageSample], n_folds: int = 5, seed: int = 0) -> FoldAssignment:
    """Subject-level shuffled round-robin assignment, stratified by each
    subject's phase-tag profile so every fold sees a similar phase mix."""
    subjects: dict[str, list[int]] = {}
    for i, s in enumerate(samples):
        subjects.setdefault(s.subject, []).append(i)
    if len(subjects) < n_folds:
        raise ContractViolation(
            f"need at least {n_folds} subjects for {n_folds} folds, have {len(subjects)}")

    strata: dict[tuple, list[str]] = {}
    for subj, idxs in subjects.items():
        profile = tuple(sorted(samples[i].phase for i in idxs))
        strata.setdefault(profile, []).append(subj)

    rng = np.random.default_rng(seed)
    folds = [0] * len(samples)
    subject_folds: dict[str, int] = {}
    counter = 0
    for profile in sorted(strata):
        members = sorted(strata[profile])
        rng.shuffle(members)
        for subj in members:
            f = counter % n_folds
            subject_folds[subj] = f
            for i in subjects[subj]:
                folds[i] = f
            counter += 1
    return FoldAssignment(folds=folds, n_folds=n_folds, subject_folds=subject_folds)


def save_dataset(samples: list[ImageSample], directory: str | Path) -> None:
    directory = Path(directory)
    (directory / "images").mkdir(parents=True, exist_ok=True)
    (directory / "masks").mkdir(parents=True, exist_ok=True)
    with open(directory / "meta.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "subject", "phase", "calibration_mm_per_px"])
        for s in samples:
            pgm_write(directory / "images" / f"{s.sample_id}.pgm", s.image)
            pgm_write(directory / "masks" / f"{s.sample_id}.pgm",
                      (s.mask * 255).astype(np.uint8))
            writer.writerow([s.sample_id, s.subject, s.phase, repr(s.calibration)])


def load_dataset(directory: str | Path) -> list[ImageSample]:
    directory = Path(directory)
    meta = directory / "meta.csv"
    if not meta.exists():
        raise FormatError(f"{meta}: dataset index not found")
    samples = []
    first_line: dict[str, int] = {}
    with open(meta, newline="") as fh:
        reader = csv.DictReader(fh)
        required = ("id", "subject", "phase", "calibration_mm_per_px")
        if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
            raise FormatError(f"{meta}: header must contain {sorted(required)}")
        for row in reader:
            line = reader.line_num
            missing = [name for name in required if row[name] is None]
            if missing:
                raise FormatError(f"{meta}: line {line}: row ends before field {missing[0]}")
            if None in row:  # csv's key for the cells past the header's last field
                raise FormatError(f"{meta}: line {line}: {len(row[None])} field(s) past "
                                  f"the header's last, {reader.fieldnames[-1]}")
            sid = row["id"]
            if sid in first_line:
                raise FormatError(f"{meta}: line {line}: field id: duplicate sample id "
                                  f"{sid!r} (first on line {first_line[sid]})")
            first_line[sid] = line
            try:
                calibration = float(row["calibration_mm_per_px"])
            except ValueError:
                raise FormatError(f"{meta}: line {line}: field calibration_mm_per_px: "
                                  f"not a number: {row['calibration_mm_per_px']!r}") from None
            image = pgm_read(directory / "images" / f"{sid}.pgm")
            mask_img = pgm_read(directory / "masks" / f"{sid}.pgm")
            mask = (mask_img > 127).astype(np.uint8)
            try:
                samples.append(ImageSample(
                    image=image, mask=mask, calibration=calibration,
                    phase=row["phase"], subject=row["subject"], sample_id=sid))
            except ContractViolation as exc:
                raise ContractViolation(f"{meta}: line {line}: sample {sid!r}: {exc}") from None
    if not samples:
        raise FormatError(f"{meta}: line 1: no sample rows follow the header")
    return samples
