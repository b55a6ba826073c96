"""Training, evaluation, and measurement command logic.

Training runs subject-level cross-validation: for each fold the training
images are augmented by the configured factor (one original plus
factor - 1 elastic deformations), composed into 2-channel inputs,
shuffled by the run seed, and optimized with momentum SGD; the trained
epoch with the best validation Dice (the first on a tie) supplies the
saved checkpoint, or the last epoch when there are no validation samples.
The untrained initial weights are saved only when no epoch runs.
Everything is deterministic given (seed, config, data).

Frames keep their stored shape and calibration (``resolve_data``); only
the network's square input is resampled (``resize_sample``).
``evaluate_model`` maps each prediction back to its frame's grid, and
``measure_samples`` reads the masks as stored.

Each sample is backpropagated as soon as its forward ends
(``backprop_batch``), and backward frees the tape as it consumes it, so
training memory holds one sample's tape whatever the batch size; the
gradients are bit-identical to those of one summed-batch loss. Each
sample's 2-channel input is composed when its turn in the batch comes,
not once per fold for every augmented sample, so one input is alive at a
time. Each 3x3 conv applies its ReLU in place (``conv2d(..., relu=True)``),
so that tape keeps no pre-activation copy of any conv output; its
backward masks the gradient in place and drops the weight gradient's
whole-image column-tap matrix before the input-gradient pass. ``train``
drops each fold's model once its checkpoint is written, so one fold's
model is alive at a time. A ``train`` of 6 phantom subjects at n=64
(width-8 MFP-Unet, batch 8, augment 2, 3 folds, 2 epochs) peaks at
15.37 MB of heap (tracemalloc); with every input composed up front, an
out-of-place mask and that matrix kept to the end of backward it took
16.47 MB. Validation and ``evaluate_model`` draw each mask with
``models.forward_segment``, which records no tape, so there each
activation is freed as soon as its consumer has run (``Model._taps`` pops
each skip as its concatenation reads it). Every conv builds its
column-tap matrix and GEMM product one band of output rows at a time
(``layers._correlate``), in training too. A 128x128, width-8 MFP-Unet
forward peaks at 3.45 MB of heap; with whole-image matrices and
activations held to the end of their level it took 6.88 MB. The
``train`` verb has glibc keep the freed memory in the process
(``cli._keep_freed_memory``), so each sample's tape reuses the pages of
the one before instead of faulting in fresh ones; the functions here set
nothing process-wide.

The weights stay fixed from one ``opt.step()`` to the next, so
``backprop_batch``, ``_val_scores`` and ``evaluate_model`` each run
inside ``layers.fixed_weights()``: every conv lays out its kernel
matrices once per batch or pass, not once per sample, with bit-identical
results. The step itself runs outside that scope.

Training runs one loop per job, alone or beside a helper process:
``backprop_batch`` runs a batch, each sample through ``_sample_step``,
and ``_val_scores`` the validation samples. Batches of two or more
samples on two usable CPUs (``usable_cpus``) get the process's helper
(``helper.py``, one per Python process, started without forking this
heap). It runs the samples this process names through the same two
functions: the odd positions of every batch (``_train_fold``) and of the
validation samples (``mean_val_dice``), and ``backprop_batch`` takes its
loss and gradient at each odd position. ``helper.py`` describes the file
both processes map, which holds the weights and the gradient slot. Each
process runs on one BLAS thread while the fold lasts.

The outputs are the same bytes either way. A sample's loss and gradient
depend only on the weights and the sample, and both processes run the
same per-sample step with the same scale 1/B. ``backprop_batch`` adds
the gradient of each helper sample (``accumulate_grad``, as backward
would) at the sample's own position, after the sample before it and
before the backward of the one after it. So every parameter gradient is
the float32 left fold ((g_1 + g_2) + g_3) + ... of one process, the
batch loss is summed in the same order, and the Dice scores fill one array in sample order; a
non-finite loss or logit is reported for the first such sample in that
order. A fold that fails in any way kills the helper, so nothing of it
reaches the next fold.

The helper's memory is its own interpreter (numpy and scipy imported),
one sample's tape at a time as here, with glibc keeping its freed memory
(``cli._keep_freed_memory``), plus the shared file. For the n=64,
width-8 MFP-Unet of ``train``'s defaults the helper peaked at 81 MB RSS
beside this process's 87 MB.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np
from scipy import ndimage

from .autograd import Tensor, backward
from .checkpoint import checkpoint_write
from .config import RunConfig
from .dataset import ImageSample, load_dataset, make_folds, save_dataset
from .errors import ContractViolation, MeasurementError, NonFiniteLogits, TrainingDiverged
from .geometry import extract_contour
from .layers import SGD, fixed_weights, softmax_cross_entropy
from .measure import ejection_fraction, measure_mask
from .metrics import contour_distances, dice, jaccard
from .models import Model, forward_segment
from .phantom import generate_phantom_set
from .preprocess import compose_input, elastic_deform
from .report import MeasurementRow, MetricsRow, write_csv

SYNTH_PREFIX = "synthetic:"


def resolve_data(data_dir: str, n: int, seed: int) -> list[ImageSample]:
    """Load a dataset directory's frames as stored, or synthesize n x n
    phantoms for the sentinel ``synthetic:<count>``. Nothing is resampled
    here: ``resize_sample`` makes the network's input."""
    if n < 1:
        raise ContractViolation(f"image extent n must be >= 1, got {n}")
    if data_dir.startswith(SYNTH_PREFIX):
        text = data_dir[len(SYNTH_PREFIX):]
        try:
            count = int(text)
        except ValueError:
            raise ContractViolation(f"synthetic sample count must be an integer, "
                                    f"got {text!r}") from None
        if count < 1:
            raise ContractViolation(f"synthetic sample count must be >= 1, got {count}")
        return generate_phantom_set(count, n, seed)
    return load_dataset(data_dir)


def resize_sample(sample: ImageSample, n: int) -> ImageSample:
    """Resample a frame to the network's n x n input: bilinear for the
    image, nearest for the mask, and the calibration scaled by h / n. A
    sample already n x n is returned as it is.

    Both zooms extend the input by its edge values (``mode="nearest"``):
    where rounding puts the last output coordinate just past the input's
    edge (240 -> 160 among others), scipy's default ``mode="constant"``
    gives 0 for the whole last row or column."""
    h, w = sample.mask.shape
    if (h, w) == (n, n):
        return sample
    # calibration scales inversely with the resampling factor
    return replace(sample, image=_resize_image(sample.image, n),
                   mask=ndimage.zoom(sample.mask, (n / h, n / w), order=0, mode="nearest"),
                   calibration=sample.calibration * h / n)


def _resize_image(image: np.ndarray, n: int) -> np.ndarray:
    """``resize_sample``'s bilinear zoom of an image to n x n; an image
    already n x n is returned as it is."""
    if image.shape == (n, n):
        return image
    zoom = (n / image.shape[0], n / image.shape[1])
    return np.clip(np.rint(ndimage.zoom(image.astype(np.float64), zoom, order=1,
                                        mode="nearest")), 0, 255).astype(np.uint8)


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    val_dice: float
    learning_rate: float


@dataclass
class FoldResult:
    fold: int
    model: Model | None  # None once ``train`` has written its checkpoint
    log: list[EpochRecord]
    best_val_dice: float
    train_subjects: list[str]
    val_subjects: list[str]
    sample_steps: int  # forward-backward passes over augmented training samples
    processes: int = 1  # 2 when the helper trained beside this process
    helper_peak_rss_mb: float = math.nan  # the helper's own ru_maxrss at the fold's end


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def augment_samples(samples: list[ImageSample], factor: int, base_seed: int) -> list[ImageSample]:
    """One original plus factor - 1 deformations per sample, with
    ``elastic_deform``'s own alpha and sigma."""
    out = []
    for i, s in enumerate(samples):
        out.append(s)
        for k in range(1, factor):
            out.append(elastic_deform(s, seed=_derived_seed(base_seed, i, k)))
    return out


def _val_scores(model: Model, samples: list[ImageSample]) -> list[float]:
    """Dice of the model's mask (``forward_segment``) on each sample in
    order, NaN for a sample whose logits are not finite; no Dice is NaN
    otherwise. ``mean_val_dice`` and the helper both run this."""
    scores = []
    with fixed_weights():
        for s in samples:
            try:
                scores.append(dice(forward_segment(model, compose_input(s, dtype=model.dtype)),
                                   s.mask))
            except NonFiniteLogits:
                scores.append(math.nan)
    return scores


def mean_val_dice(model: Model, samples: list[ImageSample], helper=None) -> float:
    """Mean Dice of the model's masks (``forward_segment``) against the
    samples' masks, NaN with no samples. A non-finite logit raises
    TrainingDiverged naming the first such sample in order. With a
    ``helper`` (``helper.Helper``) this is the one place that splits the
    samples: the helper is told to score the odd positions while this
    process scores the even ones, and the mean is taken over the same
    scores in the same order."""
    if not samples:
        return math.nan
    scores = np.empty(len(samples))
    if helper is None:
        scores[:] = _val_scores(model, samples)
    else:
        helper.start_validation(range(1, len(samples), 2))
        scores[::2] = _val_scores(model, samples[::2])
        scores[1::2] = helper.scores()
    diverged = np.flatnonzero(np.isnan(scores))
    if diverged.size:
        raise TrainingDiverged(f"non-finite validation logits on sample "
                               f"{samples[diverged[0]].sample_id!r}")
    return float(np.mean(scores))


def _sample_step(model: Model, x: np.ndarray, target: np.ndarray, scale: float, total):
    """One sample of a batch: its forward and float32 loss, added to the
    running ``total`` (None before the first sample), then
    ``backward(loss * scale)`` unless the new total is not finite. Returns
    the new total. ``backprop_batch`` and the helper both run this."""
    sample_loss = softmax_cross_entropy(model.forward(Tensor(x)), target)
    total = sample_loss.data if total is None else total + sample_loss.data
    if np.isfinite(total):
        backward(sample_loss * scale)
    return total


def backprop_batch(model: Model, inputs: Iterable[np.ndarray], targets: list[np.ndarray],
                   helper=None) -> float:
    """Add the gradient of the batch's mean loss into the parameters and
    return that loss, running ``backward(loss_i * (1/B))`` as soon as each
    sample's forward ends so that one sample's tape is alive at a time.
    B is ``len(targets)``, and ``inputs`` is read one item at a time, so a
    generator that composes each input on demand keeps one input alive.

    Backward of one summed-batch graph visits its samples in the same
    order, so gradients and the float32 ``(loss_1 + ... + loss_B) * (1/B)``
    returned are bit-identical to that graph's. A sample that makes the
    sum non-finite is not backpropagated; the non-finite value is returned.

    With a ``helper`` (``helper.Helper``) already given the batch's odd
    positions (``start_batch``), ``inputs`` holds the even positions' only:
    at each odd position the helper's loss is added and its gradient
    accumulated, in the same order, so the result is the same bits.
    """
    scale = 1.0 / len(targets)
    inputs = iter(inputs)
    total = None
    with fixed_weights():
        for k, target in enumerate(targets):
            if helper is None or k % 2 == 0:
                total = _sample_step(model, next(inputs), target, scale, total)
            else:
                total = total + helper.loss()
                if np.isfinite(total):
                    helper.add_gradient()
            if not np.isfinite(total):
                break
    return float(total * total.dtype.type(scale))


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the OS does not say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


@np.errstate(over="ignore", invalid="ignore")
def train_fold(config: RunConfig, train_samples: list[ImageSample],
               val_samples: list[ImageSample], fold: int) -> FoldResult:
    """Train one fold. With batches of two or more samples and two usable
    CPUs, the process's helper (``helper.acquire``) runs the odd positions
    of every batch and of the validation samples; any failure kills it.
    numpy's overflow and invalid warnings are off, in the helper too (it gets
    ``np.geterr()``), since the finite checks name a blow-up."""
    if config.batch_size < 2 or usable_cpus() < 2:
        return _train_fold(config, train_samples, val_samples, fold, None)
    from . import helper as helpers  # imported here: eval and measure never need it
    helper = helpers.acquire()
    try:
        with helpers.one_blas_thread():
            return _train_fold(config, train_samples, val_samples, fold, helper)
    except BaseException:
        helpers.reset()
        raise


def _train_fold(config: RunConfig, train_samples: list[ImageSample],
                val_samples: list[ImageSample], fold: int, helper) -> FoldResult:
    model = Model(config.arch, config.n, config.base_width,
                  dtype=np.float32, seed=_derived_seed(config.seed, fold, 0))
    augmented = augment_samples(train_samples, config.augment_factor,
                                _derived_seed(config.seed, fold, 1))
    if helper is not None:
        helper.start_fold(model, augmented, val_samples)

    params = model.parameters()
    opt = SGD(params, learning_rate=config.learning_rate)
    shuffle_rng = np.random.default_rng(_derived_seed(config.seed, fold, 2))

    best, best_dice = None, math.nan
    log: list[EpochRecord] = []

    for epoch in range(config.epochs):
        opt.set_epoch(epoch)
        order = shuffle_rng.permutation(len(augmented))
        running = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = own = order[start:start + config.batch_size]
            if helper is not None:
                helper.start_batch(batch[1::2], len(batch))
                own = batch[::2]
            value = backprop_batch(model, (compose_input(augmented[i]) for i in own),
                                   [augmented[i].mask for i in batch], helper)
            if not math.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss (fold {fold}, epoch {epoch}, batch index "
                    f"{start // config.batch_size}, lr {opt.learning_rate:.6g})")
            running += value * len(batch)
            opt.step()
        try:
            val = mean_val_dice(model, val_samples, helper)
        except TrainingDiverged as exc:
            raise TrainingDiverged(f"{exc} (fold {fold}, epoch {epoch}, "
                                   f"lr {opt.learning_rate:.6g})") from None
        log.append(EpochRecord(epoch=epoch, loss=running / len(augmented), val_dice=val,
                               learning_rate=opt.learning_rate))
        if val_samples and (math.isnan(best_dice) or val > best_dice):
            best_dice = val
            best = {name: t.data.copy() for name, t in params.items()}

    if best is not None:  # with nothing to validate on, the last epoch's weights stand
        for name, t in params.items():
            t.data = best[name]
    helper_rss = math.nan if helper is None else helper.end_fold()
    return FoldResult(fold=fold, model=model, log=log, best_val_dice=best_dice,
                      train_subjects=sorted({s.subject for s in train_samples}),
                      val_subjects=sorted({s.subject for s in val_samples}),
                      sample_steps=len(augmented) * config.epochs,
                      processes=1 if helper is None else 2, helper_peak_rss_mb=helper_rss)


def train(config: RunConfig) -> list[FoldResult]:
    """Full cross-validated run; writes per-fold checkpoints, per-fold
    epoch logs, and a folds.json audit record under the output directory.
    Each fold's model is dropped once its checkpoint is written, so the
    results carry ``model=None`` and one fold's model is alive at a time."""
    if config.folds < 2:
        raise ContractViolation(f"training needs >= 2 folds, got {config.folds}")
    samples = [resize_sample(s, config.n)
               for s in resolve_data(config.data_dir, config.n, config.seed)]
    assignment = make_folds(samples, config.folds, config.seed)
    out_dir = Path(config.out_dir)  # made once the data are known to split
    out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    audit = []
    for fold in range(config.folds):
        train_idx, val_idx = assignment.train_val_indices(fold)
        result = train_fold(config,
                            [samples[i] for i in train_idx],
                            [samples[i] for i in val_idx], fold)
        fold_dir = out_dir / f"fold{fold}"
        fold_dir.mkdir(parents=True, exist_ok=True)
        checkpoint_write(result.model, fold_dir / "checkpoint.bin")
        write_csv(fold_dir / "log.csv", ["epoch", "loss", "val_dice", "learning_rate"],
                  ([rec.epoch, repr(rec.loss), repr(rec.val_dice), repr(rec.learning_rate)]
                   for rec in result.log))
        audit.append({"fold": fold, "train_subjects": result.train_subjects,
                      "val_subjects": result.val_subjects,
                      "best_val_dice": result.best_val_dice})
        result.model = None
        results.append(result)
    with open(out_dir / "folds.json", "w") as fh:
        json.dump(audit, fh, indent=2)
    audit_folds(audit)
    return results


def audit_folds(audit: list[dict]) -> None:
    """No fold may validate on a subject seen in its own training split."""
    for entry in audit:
        overlap = set(entry["train_subjects"]) & set(entry["val_subjects"])
        if overlap:
            raise ContractViolation(
                f"fold {entry['fold']} leaks subjects between splits: {sorted(overlap)}")


# -- evaluation ----------------------------------------------------------

def metrics_for_masks(pred: np.ndarray, truth: np.ndarray,
                      calibration: float | None) -> tuple[float, float, float, float]:
    """Dice/Jaccard on the masks; Hausdorff/MAD on their traced contours
    (NaN when either mask is empty and has no contour)."""
    dm = dice(pred, truth)
    jc = jaccard(pred, truth)
    if pred.any() and truth.any():
        # fragmented predictions are routine for weak models; the largest
        # component is scored without per-image warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cp = extract_contour(pred)
            ct = extract_contour(truth)
        hd, md = contour_distances(cp, ct, calibration)
    else:
        hd = md = math.nan
    return dm, jc, hd, md


def evaluate_model(model: Model, samples: list[ImageSample]) -> list[MetricsRow]:
    """Per-image rows, each scored on the frame's own grid and calibration
    (the prediction mapped back by nearest neighbour), followed by
    nan-aware mean and sample-SD summary rows. Only the image is resampled
    to the network's input. A non-finite logit raises NonFiniteLogits
    naming the first such image."""
    rows = []
    with fixed_weights():
        for s in samples:
            try:
                pred = forward_segment(model, compose_input(_resize_image(s.image, model.n),
                                                            dtype=model.dtype))
            except NonFiniteLogits as exc:
                raise NonFiniteLogits(f"{exc} on image {s.sample_id!r}") from None
            if pred.shape != s.mask.shape:
                pred = ndimage.zoom(pred, np.divide(s.mask.shape, pred.shape), order=0,
                                    mode="nearest")
            dm, jc, hd, md = metrics_for_masks(pred, s.mask, s.calibration)
            rows.append(MetricsRow(s.sample_id, s.phase, dm, jc, hd, md))
    return rows + summary_rows(rows)


def summary_rows(rows: list[MetricsRow]) -> list[MetricsRow]:
    cols = {name: np.array([getattr(r, name) for r in rows])
            for name in ("dice", "jaccard", "hd_mm", "mad_mm")}

    def agg(fn):
        return {name: float(fn(v)) if np.isfinite(v).any() else math.nan
                for name, v in cols.items()}

    mean = agg(np.nanmean)
    sd = agg(lambda v: np.nanstd(v, ddof=1) if np.isfinite(v).sum() > 1 else math.nan)
    return [MetricsRow("mean", "-", mean["dice"], mean["jaccard"], mean["hd_mm"],
                       mean["mad_mm"]),
            MetricsRow("sd", "-", sd["dice"], sd["jaccard"], sd["hd_mm"], sd["mad_mm"])]


def format_summary(rows: list[MetricsRow]) -> str:
    """Human-readable "mean +/- sd" line in the style of a results table."""
    by_id = {r.sample_id: r for r in rows}
    mean, sd = by_id.get("mean"), by_id.get("sd")
    if mean is None or sd is None:
        return "no summary available"
    parts = [f"{label} {getattr(mean, col):.3f} ± {getattr(sd, col):.3f}"
             for label, col in (("DM", "dice"), ("JC", "jaccard"),
                                ("HD", "hd_mm"), ("MAD", "mad_mm"))]
    return ", ".join(parts)


# -- measurement ---------------------------------------------------------

def measure_samples(samples: list[ImageSample]) -> list[MeasurementRow]:
    """Geometry measurements per mask plus one EF row per subject with a
    measured ED or ES volume. A mask whose length procedure fails is
    flagged ``length_error``. EF is omitted, and its row flagged, for a
    subject that lacks a measured ED or ES volume (``unmatched``) or has
    more than one of either (``ambiguous``: which pair is meant is unknown,
    and taking the last one seen made EF depend on the row order)."""
    rows: list[MeasurementRow] = []
    volumes: dict[str, dict[str, list[float]]] = {}
    for s in samples:
        try:
            m = measure_mask(s.mask, s.calibration, s.phase)
            rows.append(MeasurementRow(s.sample_id, s.phase, m.length_cm, m.area_cm2,
                                       m.volume_ml))
            if s.phase in ("ED", "ES"):
                volumes.setdefault(s.subject, {}).setdefault(s.phase, []).append(m.volume_ml)
        except MeasurementError:
            rows.append(MeasurementRow(s.sample_id, s.phase, flag="length_error"))

    for subject in sorted(volumes):
        ed, es = volumes[subject].get("ED", []), volumes[subject].get("ES", [])
        if len(ed) > 1 or len(es) > 1:
            rows.append(MeasurementRow(subject, "EF", flag="ambiguous"))
        elif ed and es:
            rows.append(MeasurementRow(subject, "EF", ef_pct=ejection_fraction(ed[0], es[0])))
        else:
            rows.append(MeasurementRow(subject, "EF", flag="unmatched"))
    return rows


def synth(count: int, n: int, seed: int, out_dir: str | Path) -> list[ImageSample]:
    if count < 1:
        raise ContractViolation(f"subject count must be >= 1, got {count}")
    samples = generate_phantom_set(count, n, seed)
    save_dataset(samples, out_dir)
    return samples
