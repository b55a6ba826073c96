"""Makes the inputs of one benchmark workload, in a process of its own.

    python3 perfbench/inputs.py --workload NAME --seed N --out DIR

Everything written is a function of the workload name and the seed, with
one exception: the non-square frames of measure-report256 are fixed, so
that the ops which fail on them (``resize_sample`` scales the calibration
by ``h / n`` only) are the same share of every run. Besides the program's
inputs (datasets, run configs, a checkpoint, a manual CSV) it writes
``manifest.json`` and ``truth.npz``, which the timed process and the
checks read.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

from lvseg.checkpoint import checkpoint_write
from lvseg.config import RunConfig
from lvseg.dataset import ImageSample, save_dataset
from lvseg.models import forward_segment
from lvseg.phantom import bullet_area, bullet_height, ellipse_mask, generate_phantom_set
from lvseg.preprocess import compose_input
from lvseg.training import train_fold

# Per workload: the fixed make-up of one round and the nominal seconds one
# round takes on the reference machine (2 cores, one BLAS thread). A run
# does round(seconds / round_s) whole rounds, so a run's amount of work
# depends on --seconds only, never on how fast the machine happens to be.
WORKLOADS = {
    "train-mfp64": dict(n=64, subjects=6, warm_subjects=3, folds=3, epochs=2,
                        augment_factor=2, batch_size=8, base_width=8, round_s=3.3),
    "eval-mfp128": dict(n=128, subjects=12, warm_subjects=2, base_width=8,
                        ckpt_subjects=4, ckpt_epochs=10, ckpt_lr=0.05, round_s=1.05),
    "measure-report256": dict(n=256, ed_hulls=[26, 29], warm_subjects=2, round_s=4.0,
                              nonsquare_shape=(240, 320), nonsquare_seed=0),
}

# The eval checkpoint is retrained from the next derived seed when a
# prediction on the eval images is empty (a short run from some seeds
# stays at all-background), so that HD and MAD run on every image.
CKPT_ATTEMPTS = 6
MAX_DRAWS = 5000


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


# -- train-mfp64 -------------------------------------------------------------

def make_train(spec: dict, seed: int, out: Path) -> dict:
    samples = generate_phantom_set(spec["subjects"], spec["n"], derived_seed(seed, 1))
    warm = generate_phantom_set(spec["warm_subjects"], spec["n"], derived_seed(seed, 2))
    save_dataset(samples, out / "data")
    save_dataset(warm, out / "warm")
    configs = {}
    for tag, data, epochs in (("round", "data", spec["epochs"]), ("warm", "warm", 1)):
        cfg = RunConfig(arch="mfp-unet", n=spec["n"], base_width=spec["base_width"],
                        batch_size=spec["batch_size"], epochs=epochs,
                        augment_factor=spec["augment_factor"], folds=spec["folds"],
                        seed=derived_seed(seed, 3), data_dir=str(out / data),
                        out_dir=str(out / f"{tag}-out"))
        cfg.to_json(out / f"{tag}.json")
        configs[tag] = dataclasses.asdict(cfg)
    return {"configs": configs, "subjects": sorted({s.subject for s in samples}),
            "samples": [sample_entry(s) for s in samples]}


# -- eval-mfp128 --------------------------------------------------------------

def make_eval(spec: dict, seed: int, out: Path) -> dict:
    n = spec["n"]
    samples = generate_phantom_set(spec["subjects"], n, derived_seed(seed, 1))
    warm = generate_phantom_set(spec["warm_subjects"], n, derived_seed(seed, 2))
    save_dataset(samples, out / "data")
    save_dataset(warm, out / "warm")
    np.savez(out / "truth.npz", **{f"mask/{s.sample_id}": s.mask for s in samples},
             **{f"image/{s.sample_id}": s.image for s in samples})

    for attempt in range(CKPT_ATTEMPTS):
        ckpt_seed = derived_seed(seed, 4, attempt)
        pool = generate_phantom_set(spec["ckpt_subjects"], n, ckpt_seed)
        cfg = RunConfig(arch="mfp-unet", n=n, base_width=spec["base_width"],
                        learning_rate=spec["ckpt_lr"], batch_size=1,
                        epochs=spec["ckpt_epochs"], augment_factor=1, seed=ckpt_seed)
        # the last subject validates, which selects the saved epoch
        result = train_fold(cfg, pool[:-2], pool[-2:], fold=0)
        preds = [forward_segment(result.model, compose_input(s)) for s in samples + warm]
        if all(p.any() for p in preds):
            break
    else:
        raise SystemExit(f"no checkpoint with foreground on every eval image after "
                         f"{CKPT_ATTEMPTS} attempts")
    checkpoint_write(result.model, out / "checkpoint.bin")
    dices = [2.0 * np.logical_and(p, s.mask).sum() / (p.sum() + s.mask.sum())
             for p, s in zip(preds, samples)]
    return {"checkpoint": {"attempt": attempt, "best_val_dice": result.best_val_dice,
                           "eval_mean_dice": float(np.mean(dices))},
            "samples": [sample_entry(s) for s in samples]}


# -- measure-report256 --------------------------------------------------------

def hull_vertices(mask: np.ndarray) -> int:
    rows, cols = np.nonzero(mask)
    return len(ConvexHull(np.stack([cols, rows], axis=1).astype(np.float64)).vertices)


def bullet_subject(rng: np.random.Generator, shape: tuple[int, int], subject: str,
                   ed_hull: int | None, es_hull: int | None) -> list[tuple[ImageSample, dict]]:
    """ED and ES bullet masks of one subject, with their analytic area and
    apex-to-base height. The shapes are drawn again until Qhull gives the
    pixel centres of the ED and ES masks ``ed_hull`` and ``es_hull``
    vertices (any count when None): the triangle search costs about the
    cube of the hull size, so fixing the hull sizes of a round fixes its
    work whatever the seed."""
    h, w = shape
    for _ in range(MAX_DRAWS):
        a = h * rng.uniform(0.26, 0.33)
        b = a * rng.uniform(0.45, 0.56)
        angle = rng.uniform(-0.12, 0.12)
        cut = rng.uniform(0.10, 0.30)
        center = (w * (0.5 + rng.uniform(-0.03, 0.03)), h * (0.5 + rng.uniform(-0.02, 0.04)))
        shrink = rng.uniform(0.60, 0.85)
        ed = ellipse_mask(shape, center, (a, b), angle, cut)
        if ed_hull is not None and hull_vertices(ed) != ed_hull:
            continue
        es = ellipse_mask(shape, center, (a * shrink, b * shrink), angle, cut)
        if es_hull is None or hull_vertices(es) == es_hull:
            break
    else:
        raise SystemExit(f"no bullets with {ed_hull}/{es_hull} hull vertices in {MAX_DRAWS} draws")
    calibration = float(rng.uniform(0.45, 0.55))
    out = []
    for phase, mask, k in (("ED", ed, 1.0), ("ES", es, shrink)):
        image = np.where(mask > 0, 40, 110).astype(np.uint8)
        sample = ImageSample(image=image, mask=mask, calibration=calibration, phase=phase,
                             subject=subject, sample_id=f"{subject}_{phase}")
        out.append((sample, {"area_px": bullet_area(a * k, b * k, cut),
                             "height_px": bullet_height(a * k, cut)}))
    return out


def measure_set(n: int, ed_hulls: list[int],
                rng: np.random.Generator) -> list[tuple[ImageSample, dict]]:
    """One subject of square frames per entry of ``ed_hulls``: its ED hull
    has that many vertices and its ES hull 6 fewer."""
    return [pair for i, hull in enumerate(ed_hulls)
            for pair in bullet_subject(rng, (n, n), f"subj{i:02d}", hull, hull - 6)]


def warm_set(n: int, subjects: int) -> list[tuple[ImageSample, dict]]:
    """Small centred bullets: the warm-up round runs the same verbs quickly."""
    out = []
    for i in range(subjects):
        subject = f"warm{i:02d}"
        for phase, k in (("ED", 1.0), ("ES", 0.8 - 0.1 * i)):
            a, b = 0.12 * n * k, 0.06 * n * k
            mask = ellipse_mask((n, n), (n / 2, n / 2), (a, b), 0.0, 0.2)
            out.append((ImageSample(image=np.where(mask > 0, 40, 110).astype(np.uint8),
                                    mask=mask, calibration=0.5, phase=phase,
                                    subject=subject, sample_id=f"{subject}_{phase}"),
                        {"area_px": bullet_area(a, b, 0.2), "height_px": bullet_height(a, 0.2)}))
    return out


def write_manual_csv(pairs: list[tuple[ImageSample, dict]], path: Path) -> None:
    """Manual reference from the analytic shapes: S and D of each bullet,
    V = 8 S^2 / (3 pi D), and EF from each subject's ED and ES volumes."""
    volumes: dict[str, dict[str, float]] = {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "phase", "D_cm", "S_cm2", "V_ml", "EF_pct", "flag"])
        for s, shape in pairs:
            c_cm = s.calibration / 10.0
            area = float(shape["area_px"]) * c_cm * c_cm
            length = float(shape["height_px"]) * c_cm
            volume = 8.0 * area * area / (3.0 * math.pi * length)
            volumes.setdefault(s.subject, {})[s.phase] = volume
            w.writerow([s.sample_id, s.phase, repr(length), repr(area), repr(volume), "",
                        "ok"])
        for subject in sorted(volumes):
            v = volumes[subject]
            ef = 100.0 * (v["ED"] - v["ES"]) / v["ED"]
            w.writerow([subject, "EF", "", "", "", repr(ef), "ok"])


def make_measure(spec: dict, seed: int, out: Path) -> dict:
    n = spec["n"]
    rng = np.random.default_rng(derived_seed(seed, 1))
    pairs = measure_set(n, spec["ed_hulls"], rng)
    fixed = np.random.default_rng(spec["nonsquare_seed"])
    pairs += bullet_subject(fixed, tuple(spec["nonsquare_shape"]), "wide00", None, None)
    warm = warm_set(n, spec["warm_subjects"])
    save_dataset([s for s, _ in pairs], out / "data")
    save_dataset([s for s, _ in warm], out / "warm")
    write_manual_csv(pairs, out / "manual.csv")
    write_manual_csv(warm, out / "warm-manual.csv")
    entries = []
    for s, shape in pairs:
        e = sample_entry(s)
        e.update(shape, nonsquare=s.mask.shape[0] != s.mask.shape[1],
                 census=int(s.mask.sum()))
        entries.append(e)
    return {"samples": entries}


def sample_entry(s: ImageSample) -> dict:
    return {"id": s.sample_id, "subject": s.subject, "phase": s.phase,
            "calibration": s.calibration, "shape": list(s.mask.shape)}


MAKERS = {"train-mfp64": make_train, "eval-mfp128": make_eval,
          "measure-report256": make_measure}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = WORKLOADS[args.workload]
    manifest = {"workload": args.workload, "seed": args.seed, "spec": spec}
    manifest.update(MAKERS[args.workload](spec, args.seed, out))
    write_json(out / "manifest.json", manifest)


if __name__ == "__main__":
    main()
