import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import ndimage

import lvseg.training as training
from lvseg.autograd import Tensor, backward
from lvseg.checkpoint import checkpoint_read
from lvseg.cli import main
from lvseg.config import RunConfig
from lvseg.dataset import ImageSample, load_dataset, save_dataset
from lvseg.errors import ContractViolation, TrainingDiverged
from lvseg.layers import SGD, fixed_weights, softmax_cross_entropy
from lvseg.models import Model
from lvseg.phantom import bullet_height, ellipse_mask, generate_phantom_set
from lvseg.preprocess import compose_input
from lvseg.report import (MeasurementRow, MetricsRow, read_measurements_csv,
                          read_metrics_csv, write_measurements_csv, write_metrics_csv)
from lvseg.training import (_derived_seed, audit_folds, backprop_batch, evaluate_model,
                            format_summary, measure_samples, metrics_for_masks,
                            resize_sample, resolve_data, summary_rows, synth, train,
                            train_fold)


def _tiny_cfg(tmp_path, **overrides):
    base = dict(arch="mfp-unet", n=32, base_width=2, dilation=2, learning_rate=0.05,
                momentum=0.9, weight_decay=0.0005, lr_decay=1e-4, batch_size=1,
                epochs=1, augment_factor=1, folds=3, seed=4,
                data_dir="synthetic:3", out_dir=str(tmp_path / "run"))
    base.update(overrides)
    return RunConfig(**base)


# -- config -------------------------------------------------------------------

def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"arch": "unet", "learning_rte": 0.1}')
    with pytest.raises(ContractViolation, match="learning_rte"):
        RunConfig.from_json(path)


def test_config_json_round_trip(tmp_path):
    cfg = _tiny_cfg(tmp_path, epochs=7)
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    assert RunConfig.from_json(path) == cfg


def test_config_validation():
    with pytest.raises(ContractViolation):
        RunConfig(n=60)
    with pytest.raises(ContractViolation):
        RunConfig(arch="vgg")
    with pytest.raises(ContractViolation):
        RunConfig(batch_size=0)


# -- data resolution -------------------------------------------------------------

def test_synthetic_sentinel(tmp_path):
    samples = resolve_data("synthetic:3", 64, seed=1)
    assert len(samples) == 6
    assert all(s.image.shape == (64, 64) for s in samples)


def test_synth_writes_loadable_dataset(tmp_path):
    out = tmp_path / "data"
    synth(4, 64, 2, out)
    samples = load_dataset(out)
    assert len(samples) == 8
    again = resolve_data(str(out), 64, seed=0)
    assert all(np.array_equal(a.mask, b.mask) for a, b in zip(samples, again))


def test_resize_sample_halves_and_scales_calibration():
    s = generate_phantom_set(1, 64, 3)[0]
    small = resize_sample(s, 32)
    assert small.image.shape == (32, 32)
    assert small.calibration == pytest.approx(s.calibration * 2)
    assert set(np.unique(small.mask)) <= {0, 1}


def _mixed_size_dataset(directory):
    """One subject with 256 x 256 frames and one with 240 x 320 frames,
    each mask a bullet that keeps clear of the frame edge."""
    rng = np.random.default_rng(7)
    samples = []
    for subject, (h, w) in (("square", (256, 256)), ("wide", (240, 320))):
        for phase, scale in (("ED", 1.0), ("ES", 0.75)):
            mask = ellipse_mask((h, w), (w / 2, h / 2), (0.3 * h * scale, 0.15 * h * scale),
                                0.05, 0.2)
            image = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            samples.append(ImageSample(image, mask, 0.3, phase, subject))
    save_dataset(samples, directory)
    return str(directory)


def test_resolve_data_returns_the_frames_as_stored(tmp_path):
    data = _mixed_size_dataset(tmp_path / "data")
    stored = load_dataset(data)
    resolved = resolve_data(data, 64, seed=3)
    assert ([(s.sample_id, s.phase, s.subject, s.calibration) for s in resolved]
            == [(s.sample_id, s.phase, s.subject, s.calibration) for s in stored])
    for a, b in zip(resolved, stored):
        assert a.image.dtype == b.image.dtype and np.array_equal(a.image, b.image)
        assert a.mask.dtype == b.mask.dtype and np.array_equal(a.mask, b.mask)
    assert {s.mask.shape for s in resolved} == {(256, 256), (240, 320)}


@pytest.mark.parametrize("data,n", [("mixed", 64), ("mixed", 160), ("mixed", 256),
                                    ("synthetic:2", 64)])
def test_resolve_data_without_images_resamples_the_same_masks(tmp_path, data, n):
    """resolve_data no longer drops images: every frame comes back with its
    image, and resizing it to the network's n x n input resamples the same
    mask and calibration as resizing the frame as stored."""
    if data == "mixed":
        data = _mixed_size_dataset(tmp_path / "data")
        stored = load_dataset(data)
    else:
        stored = generate_phantom_set(2, n, 3)
    resolved = resolve_data(data, n, seed=3)
    assert ([(s.sample_id, s.phase, s.subject, s.calibration) for s in resolved]
            == [(s.sample_id, s.phase, s.subject, s.calibration) for s in stored])
    assert all(s.image is not None for s in resolved)
    for a, b in zip(resolved, stored):
        ra, rb = resize_sample(a, n), resize_sample(b, n)
        assert ra.mask.shape == (n, n) and ra.image.shape == (n, n)
        assert ra.mask.dtype == rb.mask.dtype and np.array_equal(ra.mask, rb.mask)
        assert ra.calibration == rb.calibration


def test_measure_zooms_no_image(tmp_path, monkeypatch):
    data = _mixed_size_dataset(tmp_path / "data")
    zoom, orders = ndimage.zoom, []

    def counting_zoom(input, factors, *args, order=3, **kwargs):
        orders.append(order)
        return zoom(input, factors, *args, order=order, **kwargs)
    monkeypatch.setattr(training.ndimage, "zoom", counting_zoom)
    assert main(["measure", "--data", data, "--n", "160", "--out", str(tmp_path / "m")]) == 0
    assert orders == []
    # control: train zooms every off-size image and its mask
    train(_tiny_cfg(tmp_path, n=160, folds=2, data_dir=data))
    assert sorted(orders) == [0, 0, 0, 0, 1, 1, 1, 1]
    orders.clear()
    evaluate_model(Model("unet", 160, 2, 1, seed=0), load_dataset(data))
    # eval zooms each off-size image, not its mask, and maps each prediction
    # back to its frame's grid
    assert sorted(orders) == [0] * 4 + [1] * 4


def test_measure_reads_every_frame_on_its_own_grid(tmp_path):
    data = _mixed_size_dataset(tmp_path / "data")
    out = tmp_path / "m"
    assert main(["measure", "--data", data, "--n", "64", "--out", str(out)]) == 0
    rows = {r.sample_id: r for r in read_measurements_csv(out / "measurements.csv")}
    for s in load_dataset(data):
        h = s.mask.shape[0]
        c_cm = s.calibration / 10.0
        scale = 1.0 if s.phase == "ED" else 0.75
        row = rows[s.sample_id]
        assert row.flag == "ok"
        assert row.s_cm2 == pytest.approx(int(s.mask.sum()) * c_cm * c_cm, rel=1e-12, abs=0)
        height = bullet_height(0.3 * h * scale, 0.2) * c_cm
        assert abs(row.d_cm - height) <= 0.12 * height, s.sample_id


def test_evaluate_model_scores_a_frame_on_its_own_grid(monkeypatch):
    h, w, n = 240, 320, 64
    mask = ellipse_mask((h, w), (w / 2, h / 2), (72.0, 36.0), 0.05, 0.2)
    image = np.where(mask > 0, 40, 110).astype(np.uint8)
    frame = ImageSample(image, mask, 0.3, "ED", "wide")
    inputs, scored = [], []

    def forward_segment(model, image_2ch):
        inputs.append(image_2ch.shape)
        return resize_sample(frame, n).mask
    metrics = training.metrics_for_masks

    def metrics_for_masks(pred, truth, calibration):
        scored.append((pred, truth, calibration))
        return metrics(pred, truth, calibration)
    monkeypatch.setattr(training, "forward_segment", forward_segment)
    monkeypatch.setattr(training, "metrics_for_masks", metrics_for_masks)
    rows = evaluate_model(Model("unet", n, 2, 1, seed=0), [frame])
    assert inputs == [(2, n, n)]
    [(pred, truth, calibration)] = scored
    assert pred.shape == (h, w) and truth is mask and calibration == 0.3
    assert rows[0].dice > 0.95


def _constant_mode_resize(image, mask, n):
    """``resize_sample``'s zooms as they were, with scipy's default
    ``mode="constant"``."""
    zoom = (n / image.shape[0], n / image.shape[1])
    image = np.clip(np.rint(ndimage.zoom(image.astype(np.float64), zoom, order=1)),
                    0, 255).astype(np.uint8)
    return image, ndimage.zoom(mask, zoom, order=0)


@pytest.mark.parametrize("shape,n", [((240, 320), 160), ((64, 64), 160), ((16, 16), 160),
                                     ((8, 15), 42), ((250, 200), 160)])
def test_resize_sample_keeps_a_constant_frame_constant(shape, n):
    image, mask = np.full(shape, 77, dtype=np.uint8), np.ones(shape, dtype=np.uint8)
    old_image, old_mask = _constant_mode_resize(image, mask, n)
    assert (old_image == 0).any() and (old_mask == 0).any()   # the zeroed last row or column
    small = resize_sample(ImageSample(image, mask, 0.3), n)
    assert small.image.shape == small.mask.shape == (n, n)
    assert (small.image == 77).all() and small.mask.all()


@pytest.mark.parametrize("shape,n", [((240, 320), 256), ((240, 320), 128), ((256, 256), 64),
                                     ((64, 64), 32), ((100, 37), 96)])
def test_resize_sample_equals_the_constant_mode_zoom_where_it_stays_inside(shape, n):
    rng = np.random.default_rng(n)
    image = rng.integers(0, 256, size=shape, dtype=np.uint8)
    mask = (rng.random(shape) < 0.5).astype(np.uint8)
    old_image, old_mask = _constant_mode_resize(image, mask, n)
    small = resize_sample(ImageSample(image, mask, 0.3), n)
    assert np.array_equal(small.image, old_image) and np.array_equal(small.mask, old_mask)


# -- training ---------------------------------------------------------------------

def test_zero_epochs_checkpoint_equals_initialization(tmp_path):
    samples = generate_phantom_set(3, 32, 5)
    cfg = _tiny_cfg(tmp_path, epochs=0)
    result = train_fold(cfg, samples[:4], samples[4:], fold=0)
    fresh = Model(cfg.arch, cfg.n, cfg.base_width, cfg.dilation,
                  dtype=np.float32, seed=_derived_seed(cfg.seed, 0, 0))
    for (name, t), (_, f) in zip(result.model.parameters().items(),
                                 fresh.parameters().items()):
        assert np.array_equal(t.data, f.data), name
    assert result.log == []


def test_no_validation_samples_keeps_last_epoch_weights(tmp_path):
    samples = generate_phantom_set(2, 32, 5)
    cfg = _tiny_cfg(tmp_path, epochs=2)
    result = train_fold(cfg, samples, [], fold=0)
    fresh = Model(cfg.arch, cfg.n, cfg.base_width, cfg.dilation,
                  dtype=np.float32, seed=_derived_seed(cfg.seed, 0, 0))
    moved = [not np.array_equal(t.data, f.data)
             for t, f in zip(result.model.parameters().values(),
                             fresh.parameters().values())]
    assert all(moved)
    assert [math.isnan(rec.val_dice) for rec in result.log] == [True, True]
    assert math.isnan(result.best_val_dice)


def test_training_deterministic_byte_identical_checkpoints(tmp_path):
    cfg_a = _tiny_cfg(tmp_path / "a", epochs=1, augment_factor=2)
    cfg_b = _tiny_cfg(tmp_path / "b", epochs=1, augment_factor=2)
    train(cfg_a)
    train(cfg_b)
    for fold in range(cfg_a.folds):
        a = (tmp_path / "a" / "run" / f"fold{fold}" / "checkpoint.bin").read_bytes()
        b = (tmp_path / "b" / "run" / f"fold{fold}" / "checkpoint.bin").read_bytes()
        assert a == b


def test_train_keeps_one_fold_model_alive_at_a_time(tmp_path, monkeypatch):
    refs = []
    fold_train = training.train_fold

    def tracked(config, train_samples, val_samples, fold):
        gc.collect()
        alive = [k for k, ref in enumerate(refs) if ref() is not None]
        assert not alive, f"fold {fold} starts with the models of folds {alive} alive"
        result = fold_train(config, train_samples, val_samples, fold)
        refs.append(weakref.ref(result.model))
        return result
    monkeypatch.setattr(training, "train_fold", tracked)
    results = train(_tiny_cfg(tmp_path))
    assert len(refs) == 3
    assert all(r.model is None for r in results)
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_training_writes_logs_and_audit(tmp_path):
    cfg = _tiny_cfg(tmp_path, epochs=2)
    results = train(cfg)
    out = tmp_path / "run"
    assert (out / "folds.json").exists()
    for fold in range(cfg.folds):
        log = (out / f"fold{fold}" / "log.csv").read_text().strip().splitlines()
        assert log[0] == "epoch,loss,val_dice,learning_rate"
        assert len(log) == 1 + cfg.epochs
        ck = checkpoint_read(out / f"fold{fold}" / "checkpoint.bin")
        assert ck.arch == cfg.arch
    # no subject leaks between train and validation splits
    for r in results:
        assert not set(r.train_subjects) & set(r.val_subjects)


def test_audit_detects_leak():
    with pytest.raises(ContractViolation, match="leaks"):
        audit_folds([{"fold": 0, "train_subjects": ["a", "b"], "val_subjects": ["b"]}])


def test_divergence_aborts_with_diagnostics(tmp_path):
    samples = generate_phantom_set(3, 32, 6)
    cfg = _tiny_cfg(tmp_path, learning_rate=1e9, epochs=10)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match=r"epoch \d+.*lr"):
        train_fold(cfg, samples[:4], samples[4:], fold=0)


class _ScaledModel:
    """A model whose logits are a real model's times ``scale``."""

    def __init__(self, model, scale):
        self.model, self.scale, self.dtype = model, scale, model.dtype

    def forward(self, x):
        out = self.model.forward(x)
        return Tensor(out.data * out.data.dtype.type(self.scale))


def test_mean_val_dice_equals_the_mean_dice_of_forward_segment():
    samples = generate_phantom_set(2, 32, 3)
    for arch in ("unet", "dilated-unet", "mfp-unet"):
        model = Model(arch, 32, 2, 1 if arch == "unet" else 2, dtype=np.float32, seed=5)
        ref = float(np.mean([training.dice(training.forward_segment(
            model, compose_input(s, dtype=model.dtype)), s.mask) for s in samples]))
        assert training.mean_val_dice(model, samples) == ref


@pytest.mark.parametrize("scale", [np.inf, np.nan])
def test_non_finite_validation_logits_name_the_sample(scale):
    samples = generate_phantom_set(2, 32, 3)
    model = _ScaledModel(Model("unet", 32, 2, 1, dtype=np.float32, seed=5), scale)
    with np.errstate(all="ignore"), pytest.raises(
            TrainingDiverged, match="non-finite validation logits on sample 'subj000_ED'"):
        training.mean_val_dice(model, samples)


def test_nan_input_pixel_aborts_training(tmp_path):
    # relu passes NaN on, so one NaN pixel reaches the loss and the
    # finite-loss check; when relu mapped NaN to 0 the fold trained on
    samples = generate_phantom_set(3, 32, 6)
    image = samples[0].image.astype(np.float64)
    image[10, 10] = np.nan
    samples[0] = dataclasses.replace(samples[0], image=image)
    with pytest.raises(TrainingDiverged, match="non-finite loss"):
        train_fold(_tiny_cfg(tmp_path), samples[:4], samples[4:], fold=0)


def _batch():
    samples = generate_phantom_set(2, 32, 8)[:3]
    return [compose_input(s) for s in samples], [s.mask for s in samples]


def _summed_batch_loss(model, inputs, targets):
    """Reference: one graph over the whole batch, (l_1 + ... + l_B) * (1/B),
    and one backward once every forward has run."""
    loss = None
    for x, target in zip(inputs, targets):
        sample_loss = softmax_cross_entropy(model.forward(Tensor(x)), target)
        loss = sample_loss if loss is None else loss + sample_loss
    loss = loss * (1.0 / len(inputs))
    value = loss.item()
    backward(loss)
    return value


@pytest.mark.parametrize("arch", ["unet", "dilated-unet", "mfp-unet"])
def test_per_sample_backprop_equals_summed_batch_loss(arch):
    inputs, targets = _batch()
    dilation = 1 if arch == "unet" else 2
    per_sample, summed = (Model(arch, 32, 4, dilation, dtype=np.float32, seed=2)
                          for _ in range(2))
    assert backprop_batch(per_sample, inputs, targets) == _summed_batch_loss(
        summed, inputs, targets)
    for (name, p), q in zip(per_sample.parameters().items(), summed.parameters().values()):
        assert p.grad.dtype == np.float32
        assert p.grad.tobytes() == q.grad.tobytes(), name  # bit for bit


def test_backprop_batch_reads_a_generator_like_a_list():
    inputs, targets = _batch()
    from_list, from_generator = (Model("mfp-unet", 32, 4, 2, dtype=np.float32, seed=2)
                                 for _ in range(2))
    loss = backprop_batch(from_list, inputs, targets)
    assert backprop_batch(from_generator, (x for x in inputs), targets) == loss
    for (name, p), q in zip(from_list.parameters().items(),
                            from_generator.parameters().values()):
        assert np.array_equal(p.grad, q.grad), name


def test_backprop_batch_heap_peak_at_n64():
    # Measured 7.45 MiB for the second batch, each input composed as its
    # turn comes. With the inputs composed up front it read 7.67 MiB, with
    # g masked out of place 7.70, with the weight gradient's Q kept through
    # the input-gradient pass 7.82, and with all three 8.29. The bound (the
    # measured value plus 2 %) fails for each of them.
    samples = generate_phantom_set(4, 64, 5)
    assert len(samples) == 8
    targets = [s.mask for s in samples]
    model = Model("mfp-unet", 64, 8, 2, dtype=np.float32, seed=1)
    with fixed_weights():
        backprop_batch(model, [compose_input(s) for s in samples], targets)  # warm batch
        tracemalloc.start()
        try:
            backprop_batch(model, (compose_input(s) for s in samples), targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 7.6 * 2**20, peak


def test_training_step_leaves_no_reference_cycles():
    inputs, targets = _batch()
    model = Model("mfp-unet", 32, 4, 2, dtype=np.float32, seed=2)
    opt = SGD(model.parameters(), learning_rate=0.01)
    gc.collect()
    gc.disable()
    try:
        backprop_batch(model, inputs, targets)
        opt.step()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_train_requires_two_folds(tmp_path):
    with pytest.raises(ContractViolation):
        train(_tiny_cfg(tmp_path, folds=1))


# -- evaluation ---------------------------------------------------------------------

def test_ground_truth_against_itself_is_perfect():
    for s in generate_phantom_set(2, 64, 7):
        dm, jc, hd, md = metrics_for_masks(s.mask, s.mask, s.calibration)
        assert dm == 1.0 and jc == 1.0
        assert hd == 0.0 and md == 0.0


def test_all_background_prediction_scores_zero():
    s = generate_phantom_set(1, 64, 8)[0]
    dm, jc, hd, md = metrics_for_masks(np.zeros_like(s.mask), s.mask, s.calibration)
    assert dm == 0.0 and jc == 0.0
    assert math.isnan(hd) and math.isnan(md)


def test_summary_rows_match_independent_recomputation():
    rows = [MetricsRow(f"s{i}", "ED", d, d / 2, 2.0 * d, d)
            for i, d in enumerate((0.5, 0.7, 0.9))]
    mean_row, sd_row = summary_rows(rows)
    col = np.array([0.5, 0.7, 0.9])
    assert mean_row.dice == pytest.approx(col.mean())
    assert sd_row.dice == pytest.approx(col.std(ddof=1))
    assert mean_row.hd_mm == pytest.approx(2.0 * col.mean())


def test_evaluate_model_emits_rows_and_summary(tmp_path):
    samples = generate_phantom_set(2, 32, 9)
    model = Model("unet", 32, 2, 1, seed=0)
    rows = evaluate_model(model, samples)
    assert len(rows) == len(samples) + 2
    assert rows[-2].sample_id == "mean" and rows[-1].sample_id == "sd"
    line = format_summary(rows)
    assert "DM" in line and "±" in line


# -- measurement rows ------------------------------------------------------------------

def test_measure_identical_phases_zero_ef():
    ed, es = generate_phantom_set(1, 64, 10)
    es.mask = ed.mask.copy()
    rows = measure_samples([ed, es])
    ef_rows = [r for r in rows if r.phase == "EF"]
    assert len(ef_rows) == 1
    assert ef_rows[0].ef_pct == pytest.approx(0.0)


def test_measure_linear_shrink_ef():
    # ES = ED shrunk 50% linearly: V ratio 0.25^2/0.5 -> EF 87.5%
    from lvseg.dataset import ImageSample
    from lvseg.phantom import ellipse_mask
    n = 192
    ed_mask = ellipse_mask((n, n), (n / 2, n / 2), (60, 30), base_cut=0.15)
    es_mask = ellipse_mask((n, n), (n / 2, n / 2), (30, 15), base_cut=0.15)
    img = np.full((n, n), 100, dtype=np.uint8)
    ed = ImageSample(img, ed_mask, 0.3, "ED", "p0", "p0_ED")
    es = ImageSample(img, es_mask, 0.3, "ES", "p0", "p0_ES")
    rows = measure_samples([ed, es])
    ef = [r for r in rows if r.phase == "EF"][0]
    assert abs(ef.ef_pct - 87.5) <= 3.0


def test_measure_unmatched_subject_flagged():
    ed, _ = generate_phantom_set(1, 64, 11)
    rows = measure_samples([ed])
    ef = [r for r in rows if r.phase == "EF"][0]
    assert ef.flag == "unmatched"
    assert math.isnan(ef.ef_pct)


def test_measure_flags_failed_geometry():
    from lvseg.dataset import ImageSample
    mask = np.zeros((64, 64), dtype=np.uint8)
    mask[10, 10] = 1  # single pixel: no hull, length undefined
    bad = ImageSample(np.zeros((64, 64), dtype=np.uint8), mask, 0.3, "ED", "x", "x_ED")
    rows = measure_samples([bad])
    assert rows[0].flag == "length_error"
    assert math.isnan(rows[0].v_ml)


# -- CSV round trips ----------------------------------------------------------------------

def test_metrics_csv_round_trip(tmp_path):
    rows = [MetricsRow("a_ED", "ED", 0.9, 0.8, 1.5, 0.7),
            MetricsRow("b_ES", "ES", 1.0, 1.0, 0.0, 0.0),
            MetricsRow("mean", "-", 0.95, 0.9, 0.75, 0.35),
            MetricsRow("nanrow", "ED", 0.0, 0.0, math.nan, math.nan)]
    path = tmp_path / "m.csv"
    write_metrics_csv(rows, path)
    back = read_metrics_csv(path)
    for r, b in zip(rows, back):
        assert (r.sample_id, r.phase) == (b.sample_id, b.phase)
        for col in ("dice", "jaccard", "hd_mm", "mad_mm"):
            x, y = getattr(r, col), getattr(b, col)
            assert (math.isnan(x) and math.isnan(y)) or x == y


def test_measurements_csv_round_trip(tmp_path):
    rows = [MeasurementRow("a_ED", "ED", 7.1, 21.0, 112.5, math.nan, "ok"),
            MeasurementRow("a", "EF", math.nan, math.nan, math.nan, 55.0, "ok"),
            MeasurementRow("b_ED", "ED", flag="length_error")]
    path = tmp_path / "meas.csv"
    write_measurements_csv(rows, path)
    back = read_measurements_csv(path)
    for r, b in zip(rows, back):
        assert (r.sample_id, r.phase, r.flag) == (b.sample_id, b.phase, b.flag)
        for col in ("d_cm", "s_cm2", "v_ml", "ef_pct"):
            x, y = getattr(r, col), getattr(b, col)
            assert (math.isnan(x) and math.isnan(y)) or x == y


def test_every_fold_checkpoint_comes_from_a_trained_epoch(tmp_path):
    # with these settings no epoch's validation Dice beats the untrained
    # model's, which once made every fold save its initial weights
    cfg = _tiny_cfg(tmp_path, base_width=4, batch_size=3, epochs=2)
    results = train(cfg)
    for r in results:
        fresh = Model(cfg.arch, cfg.n, cfg.base_width, cfg.model_dilation,
                      dtype=np.float32, seed=_derived_seed(cfg.seed, r.fold, 0))
        saved = checkpoint_read(tmp_path / "run" / f"fold{r.fold}" / "checkpoint.bin")
        assert not all(np.array_equal(t.data, f.data) for t, f in
                       zip(saved.parameters().values(), fresh.parameters().values()))
        assert r.best_val_dice == max(rec.val_dice for rec in r.log)
