"""Output parity of the working tree's ``lvseg`` against another revision.

    python3 tools/parity.py --parent REV [--keep DIR]

Run it from anywhere inside a checkout. It extracts REV's ``src/`` with
``git archive`` and runs one fixed sequence of verbs on fixed seeds twice,
once with REV's sources and once with the working tree's, each in a fresh
directory and a fresh process per verb (one BLAS thread, a fixed
``PYTHONHASHSEED``): ``synth``, four small cross-validated ``train`` runs
(mfp-unet beside the training helper and in one process, unet and
dilated-unet beside the helper), ``eval`` of the first run's first fold,
``measure`` of four datasets, and a one- and a two-method ``report``.
Then each side's sources ``eval`` the other side's first checkpoint into
``eval-cross``, so a checkpoint must read the same across the two
revisions. It prints the SHA-256 of every file the verbs wrote on both
sides and exits 1 if any file differs or exists on one side only, if a
verb's exit code differs, or if a side's ``eval-cross/metrics.csv`` is not
its ``eval/metrics.csv``; 0 otherwise. Printed timings are not compared,
since they change from run to run.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Train configs small enough to run in seconds. Batches of 2 train beside
# the helper process on a host with two CPUs; batches of 1 in one process.
# Each architecture runs at least once, so each one's dilation is checked.
_TRAIN = {"arch": "mfp-unet", "n": 32, "base_width": 2, "epochs": 2, "folds": 2,
          "augment_factor": 2, "learning_rate": 0.01, "seed": 7, "data_dir": "data"}
TRAIN_CONFIGS = {"train.json": {**_TRAIN, "batch_size": 2, "out_dir": "train"},
                 "train-1.json": {**_TRAIN, "batch_size": 1, "out_dir": "train-1"},
                 "train-unet.json": {**_TRAIN, "arch": "unet", "batch_size": 2,
                                     "out_dir": "train-unet"},
                 "train-dilated.json": {**_TRAIN, "arch": "dilated-unet", "batch_size": 2,
                                        "out_dir": "train-dilated"}}

VERBS = [
    ["synth", "--count", "4", "--n", "64", "--seed", "3", "--out", "data"],
    ["synth", "--count", "4", "--n", "64", "--seed", "4", "--out", "manual"],
    ["synth", "--count", "4", "--n", "64", "--seed", "5", "--out", "other"],
    *(["train", "--config", name] for name in TRAIN_CONFIGS),
    ["eval", "--checkpoint", "train/fold0/checkpoint.bin", "--data", "data", "--out", "eval"],
    ["measure", "--data", "data", "--out", "m-data"],
    ["measure", "--data", "manual", "--out", "m-manual"],
    ["measure", "--data", "other", "--out", "m-other"],
    ["measure", "--data", "synthetic:3", "--n", "256", "--seed", "2", "--out", "m-256"],
    ["report", "--auto", "m-data/measurements.csv", "--manual", "m-manual/measurements.csv",
     "--out", "report-1"],
    ["report", "--auto", "m-data/measurements.csv", "--auto", "m-other/measurements.csv",
     "--manual", "m-manual/measurements.csv", "--out", "report-2"],
]
# run once both sides have trained; {other} is the other side's directory
CROSS_EVAL = ["eval", "--checkpoint", "{other}/train/fold0/checkpoint.bin", "--data", "data",
              "--out", "eval-cross"]


def extract_sources(rev: str, dest: Path) -> Path:
    """REV's ``src/`` tree under ``dest``; returns the ``src`` directory."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=False)
    if tar.returncode != 0:
        sys.exit(f"parity: git archive {rev} failed: {tar.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def run_verbs(src: Path, work: Path, verbs: list[list[str]]) -> list[int]:
    """Exit code of each verb, run from ``work`` with ``src`` on the path."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    codes = []
    for argv in verbs:
        proc = subprocess.run([sys.executable, "-m", "lvseg", *argv], cwd=work, env=env,
                              capture_output=True, text=True)
        codes.append(proc.returncode)
        if proc.returncode != 0:
            print(f"{work.name}: lvseg {' '.join(argv)} exited with {proc.returncode}: "
                  f"{proc.stderr.strip()}", file=sys.stderr)
    return codes


def digests(work: Path) -> dict[str, str]:
    return {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.rglob("*")) if p.is_file()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--keep", help="write both sides' outputs here instead of a "
                                       "temporary directory that is then removed")
    args = parser.parse_args()
    base = Path(args.keep) if args.keep else Path(tempfile.mkdtemp(prefix="lvseg-parity-"))
    try:
        srcs = {"parent": extract_sources(args.parent, base / "parent-src"),
                "change": ROOT / "src"}
        codes = {}
        for side, src in srcs.items():
            work = base / side
            work.mkdir(parents=True)
            for name, config in TRAIN_CONFIGS.items():
                (work / name).write_text(json.dumps(config))
            codes[side] = run_verbs(src, work, VERBS)
        for side, other in (("parent", "change"), ("change", "parent")):
            cross = [arg.format(other=(base / other).resolve()) for arg in CROSS_EVAL]
            codes[side] += run_verbs(srcs[side], base / side, [cross])
        parent, change = (digests(base / side) for side in srcs)
    finally:
        if not args.keep:
            shutil.rmtree(base, ignore_errors=True)
    differ = 0
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name, "-" * 64), change.get(name, "-" * 64)
        differ += a != b
        print(f"{'same   ' if a == b else 'DIFFERS'} {a} {b} {name}")
    for argv, a, b in zip(VERBS + [CROSS_EVAL], codes["parent"], codes["change"]):
        if a != b:
            differ += 1
            print(f"DIFFERS exit code {a} -> {b}: lvseg {' '.join(argv)}")
    for side, files in (("parent", parent), ("change", change)):
        if files.get("eval-cross/metrics.csv", "-") != files.get("eval/metrics.csv"):
            differ += 1
            print(f"DIFFERS {side}: eval-cross/metrics.csv is not eval/metrics.csv")
    print(f"{len(parent.keys() | change.keys())} files, {differ} differences "
          f"against {args.parent}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
