"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them stream). Tolerances are pinned here and nowhere else."""

import math
import time

import numpy as np
import pytest

from lvseg.autograd import Tensor, grad_check
from lvseg.config import RunConfig
from lvseg.geometry import convex_hull, extract_contour, min_enclosing_triangle, signed_area
from lvseg.layers import (concat_channels, conv2d, max_pool2d, relu,
                          softmax_cross_entropy, transposed_conv2d, upsample_nearest)
from lvseg.measure import lv_area, lv_length, lv_volume, measure_mask
from lvseg.metrics import dice, hausdorff, jaccard, mad
from lvseg.models import Model, build_mfp_unet, forward_segment
from lvseg.phantom import bullet_area, bullet_height, ellipse_mask, generate_phantom_set
from lvseg.preprocess import compose_input
from lvseg.stats import AnovaTable, PairedSeries, bland_altman
from lvseg.training import mean_val_dice, train, train_fold
from lvseg.units import px_area_to_cm2, px_to_cm

from test_metrics import _brute_metrics
from test_geometry import _numeric_min_triangle_area


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# 1 ---------------------------------------------------------------------------

def test_anova_reproduction():
    t0 = time.perf_counter()
    table = AnovaTable(ss_between=3.524, ss_within=2.198, df_between=3, df_within=12)
    ok = (abs(table.ms_between - 1.1747) <= 0.005
          and abs(table.f - 6.41) <= 0.02
          and abs(table.p - 0.0077) <= 0.0005)
    elapsed = time.perf_counter() - t0
    _report("anova-reproduction", ok and elapsed < 1.0,
            f"MS_b={table.ms_between:.4f} F={table.f:.4f} p={table.p:.5f} "
            f"in {elapsed:.3f}s")


# 2 ---------------------------------------------------------------------------

def test_bland_altman_identities():
    t0 = time.perf_counter()
    rows = [("volume", -24.28, 19.35, 21.81),
            ("area", -4.02, 3.4, 3.71),
            ("length", -0.63, 0.66, 0.65),
            ("EF", -14.79, 13.01, 13.9)]
    ok = True
    details = []
    for name, lo, hi, reported in rows:
        bias, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        s = half / 1.96 / math.sqrt(2.0)
        man = np.array([50.0, 100.0])
        series = PairedSeries(auto=man + np.array([bias - s, bias + s]), man=man,
                              name=name)
        ba = bland_altman(series)
        half_width = (ba.loa_high - ba.loa_low) / 2.0
        row_ok = ba.rpc == half_width and abs(ba.rpc - reported) <= 0.01
        ok &= row_ok
        details.append(f"{name}={ba.rpc:.3f}")
    elapsed = time.perf_counter() - t0
    _report("bland-altman-identities", ok and elapsed < 1.0,
            ", ".join(details) + f" in {elapsed:.3f}s")


# 3 ---------------------------------------------------------------------------

def _primitive_checks(seed: int) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0

    x = Tensor(rng.normal(size=(2, 6, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)

    def conv_loss():
        out = conv2d(x, w, b, dilation=2)
        return (out * out).sum()

    for theta in (x, w, b):
        worst = max(worst, grad_check(conv_loss, theta))

    xr = Tensor(rng.normal(size=(2, 4, 4)) + 0.05, requires_grad=True)
    worst = max(worst, grad_check(lambda: (relu(xr) * relu(xr)).sum(), xr))

    xp = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
    worst = max(worst, grad_check(lambda: (max_pool2d(xp) * max_pool2d(xp)).sum(), xp))

    xt = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    wt = Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True)
    bt = Tensor(rng.normal(size=3), requires_grad=True)

    def tconv_loss():
        out = transposed_conv2d(xt, wt, bt)
        return (out * out).sum()

    for theta in (xt, wt, bt):
        worst = max(worst, grad_check(tconv_loss, theta))

    xu = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    worst = max(worst, grad_check(
        lambda: (upsample_nearest(xu, 2) * upsample_nearest(xu, 2)).sum(), xu))

    xa = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    xb = Tensor(rng.normal(size=(1, 3, 3)), requires_grad=True)
    for theta in (xa, xb):
        worst = max(worst, grad_check(
            lambda: (concat_channels([xa, xb]) * concat_channels([xa, xb])).sum(), theta))

    lg = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
    tgt = rng.integers(0, 2, size=(4, 4))
    worst = max(worst, grad_check(lambda: softmax_cross_entropy(lg, tgt), lg))
    return worst


def test_gradient_suite():
    t0 = time.perf_counter()
    worst_primitive = max(_primitive_checks(seed) for seed in range(20))

    archs = ["unet", "dilated-unet", "mfp-unet"]
    probe_names = ["enc1.conv1.weight", "bottleneck.conv1.bias", "up4.conv2.weight",
                   "up3.tconv.weight", "classifier.weight", "classifier.bias"]
    worst_arch = 0.0
    for seed in range(20):
        model = Model(archs[seed % 3], 16, 2, dtype=np.float64, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        x = Tensor(rng.uniform(0, 1, (2, 16, 16)))
        target = rng.integers(0, 2, (16, 16))
        params = model.parameters()
        theta = params[probe_names[seed % len(probe_names)]]
        err = grad_check(lambda: softmax_cross_entropy(model.forward(x), target), theta)
        worst_arch = max(worst_arch, err)

    elapsed = time.perf_counter() - t0
    ok = worst_primitive < 1e-6 and worst_arch < 1e-4 and elapsed < 120.0
    _report("gradient-suite", ok,
            f"primitives {worst_primitive:.2e} (<1e-6), architectures "
            f"{worst_arch:.2e} (<1e-4) in {elapsed:.1f}s")


# 4 ---------------------------------------------------------------------------

def test_metric_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    checked = 0
    identity_worst = 0.0
    while checked < 200:
        shape = (int(rng.integers(4, 33)), int(rng.integers(4, 33)))
        a = (rng.uniform(size=shape) < rng.uniform(0.05, 0.4)).astype(np.uint8)
        b = (rng.uniform(size=shape) < rng.uniform(0.05, 0.4)).astype(np.uint8)
        if not a.any() or not b.any():
            continue
        dm_o, jc_o, hd_o, md_o = _brute_metrics(a, b)
        a_pts = np.argwhere(a)[:, ::-1].astype(np.float64)
        b_pts = np.argwhere(b)[:, ::-1].astype(np.float64)
        dm, jc = dice(a, b), jaccard(a, b)
        assert dm == dm_o and jc == jc_o
        assert hausdorff(a_pts, b_pts) == hd_o
        assert mad(a_pts, b_pts) == md_o
        identity_worst = max(identity_worst, abs(dm - 2.0 * jc / (1.0 + jc)))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = identity_worst < 1e-12 and elapsed < 30.0
    _report("metric-oracle-equivalence", ok,
            f"200 pairs exact, identity {identity_worst:.1e} in {elapsed:.1f}s")


# 5 ---------------------------------------------------------------------------

def test_dilated_kernel_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 8, 8)))
        w = rng.normal(size=(3, 2, 3, 3))
        inflated = np.zeros((3, 2, 5, 5))
        inflated[:, :, ::2, ::2] = w
        zb = Tensor(np.zeros(3))
        a = conv2d(x, Tensor(w), zb, dilation=2)
        b = conv2d(x, Tensor(inflated), zb, dilation=1)
        worst = max(worst, float(np.abs(a.data - b.data).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 5.0
    _report("dilated-kernel-equivalence", ok,
            f"max |diff| {worst:.2e} over 50 instances in {elapsed:.2f}s")


# 6 ---------------------------------------------------------------------------

def test_architecture_contract():
    t0 = time.perf_counter()
    ok = True
    for n in (16, 64):
        model = build_mfp_unet(n, 2, dtype=np.float64, seed=n)
        x = Tensor(np.random.default_rng(n).uniform(0, 1, (2, n, n)))
        feats = model.features(x)
        out = model.forward(x)
        ok &= feats.data.shape == (64, n, n)
        ok &= out.data.shape == (2, n, n)
        ok &= model.classifier.weight.data.shape[1] == 64
    elapsed = time.perf_counter() - t0
    _report("architecture-contract", ok and elapsed < 10.0,
            f"64-channel concatenation and 2xNxN output for N in (16, 64) "
            f"in {elapsed:.1f}s")


# 7 + 9 ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("overfit")
    samples = generate_phantom_set(6, 64, 2024)
    train_s, val_s = samples[:8], samples[8:]
    cfg = RunConfig(arch="mfp-unet", n=64, base_width=4, learning_rate=0.05,
                    batch_size=1, epochs=60, augment_factor=1, folds=5, seed=17,
                    data_dir="synthetic:6", out_dir=str(tmp))
    untrained = Model(cfg.arch, cfg.n, cfg.base_width, dtype=np.float32, seed=999)
    baseline = mean_val_dice(untrained, val_s)
    t0 = time.perf_counter()
    result = train_fold(cfg, train_s, val_s, fold=0)
    elapsed = time.perf_counter() - t0
    train_dice = float(np.mean(
        [dice(forward_segment(result.model, compose_input(s)), s.mask)
         for s in train_s]))
    return dict(cfg=cfg, baseline=baseline, result=result, train_dice=train_dice,
                elapsed=elapsed)


def test_desk_scale_overfit(overfit_run):
    r = overfit_run
    margin = r["result"].best_val_dice - r["baseline"]
    ok = (r["train_dice"] > 0.95 and margin >= 0.3
          and r["cfg"].epochs <= 60 and r["elapsed"] < 1800.0)
    _report("desk-scale-overfit", ok,
            f"train Dice {r['train_dice']:.3f} (>0.95), val margin {margin:.3f} "
            f"(>=0.3) over untrained {r['baseline']:.3f}, {r['cfg'].epochs} epochs "
            f"in {r['elapsed']:.0f}s")


def test_training_determinism(tmp_path):
    t0 = time.perf_counter()
    cfgs = []
    for tag in ("a", "b"):
        cfgs.append(RunConfig(arch="mfp-unet", n=64, base_width=4, learning_rate=0.05,
                              batch_size=2, epochs=2, augment_factor=2, folds=2,
                              seed=5, data_dir="synthetic:3",
                              out_dir=str(tmp_path / tag)))
    for cfg in cfgs:
        train(cfg)
    ok = True
    for fold in range(2):
        a = (tmp_path / "a" / f"fold{fold}" / "checkpoint.bin").read_bytes()
        b = (tmp_path / "b" / f"fold{fold}" / "checkpoint.bin").read_bytes()
        ok &= a == b
    elapsed = time.perf_counter() - t0
    _report("training-determinism", ok,
            f"byte-identical checkpoints across two seeded runs in {elapsed:.0f}s")


# 8 ---------------------------------------------------------------------------

def test_geometry_suite():
    t0 = time.perf_counter()

    # minimum enclosing triangle of the unit square: area 2 (against the
    # independent numeric oracle as well)
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tri = min_enclosing_triangle(square)
    area = abs(signed_area(tri))
    square_ok = abs(area - 2.0) < 1e-6
    oracle = _numeric_min_triangle_area(square, restarts=20, seed=1)
    square_ok &= abs(oracle - 2.0) < 1e-4

    # rasterized ellipse: pipeline volume within 3% of the analytic
    # area-length value, with landmarks from the documented construction
    n, a, b, cal = 200, 70.0, 40.0, 0.25
    cx, cy = n / 2, n / 2
    mask = ellipse_mask((n, n), (cx, cy), (a, b))
    contour = extract_contour(mask)

    def nearest(p):
        d2 = (contour[:, 0] - p[0]) ** 2 + (contour[:, 1] - p[1]) ** 2
        return contour[int(np.argmin(d2))]

    t_ang = math.acos(0.98)
    landmarks = (nearest((cx - b * math.sin(t_ang), cy + a * 0.98)),
                 nearest((cx + b * math.sin(t_ang), cy + a * 0.98)),
                 nearest((cx, cy - a)))
    d_meas = lv_length(contour, landmarks, cal)
    s_meas = lv_area(mask, cal)
    v_meas = lv_volume(s_meas, d_meas)
    v_true = lv_volume(px_area_to_cm2(math.pi * a * b, cal), px_to_cm(2 * a, cal))
    ellipse_ok = abs(v_meas - v_true) / v_true < 0.03

    # the full pipeline on a half-ellipse phantom stays inside the band too
    cut = 0.0
    hmask = ellipse_mask((192, 192), (96, 96), (60, 30), base_cut=cut)
    m = measure_mask(hmask, 0.3)
    v_half_true = lv_volume(px_area_to_cm2(bullet_area(60, 30, cut), 0.3),
                            px_to_cm(bullet_height(60, cut), 0.3))
    half_ok = abs(m.volume_ml - v_half_true) / v_half_true < 0.03

    # EF of the 50%-linear-shrink pair
    big = ellipse_mask((192, 192), (96, 96), (60, 30), base_cut=0.15)
    small = ellipse_mask((192, 192), (96, 96), (30, 15), base_cut=0.15)
    v_ed = measure_mask(big, 0.3).volume_ml
    v_es = measure_mask(small, 0.3).volume_ml
    ef = 100.0 * (v_ed - v_es) / v_ed
    ef_ok = abs(ef - 87.5) <= 3.0

    elapsed = time.perf_counter() - t0
    ok = square_ok and ellipse_ok and half_ok and ef_ok and elapsed < 60.0
    _report("geometry-suite", ok,
            f"square area {area:.6f}, ellipse V err "
            f"{abs(v_meas - v_true) / v_true * 100:.2f}%, half-ellipse V err "
            f"{abs(m.volume_ml - v_half_true) / v_half_true * 100:.2f}%, "
            f"EF {ef:.2f}% in {elapsed:.1f}s")
