"""Output checks made apart from the program.

Each check compares the program's output with a value computed here, with
numpy and scipy, or tests a property the method must have. None calls the
program function it checks; the only program calls here are the forward
and backward passes whose gradients the central differences test. No
check compares against a stored copy. A check returns a list of problems
(empty when it passes); ``area_length`` also names the ops it fails.
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np
from scipy import ndimage, signal
from scipy.spatial import ConvexHull, cKDTree

# Length is measured from pixel centres with landmark heuristics and reads
# short of the analytic apex-to-base height: by 0.5 to 8.7 % on 720 bullets
# of 40 seeds at n=256. A relative tolerance of 12 % leaves room for that.
LENGTH_TOL = 0.12
# Frames the verb resamples (non-square ones) cannot keep the pixel census;
# with a calibration that follows the pixels the area stays within ~1 %.
RESAMPLED_AREA_TOL = 0.02
EXACT = 1e-12


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def num(s: str) -> float:
    return math.nan if s == "" else float(s)


def close(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# -- checkpoints ---------------------------------------------------------------

def parse_checkpoint(buf: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and parameters of a checkpoint, from its documented layout."""
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(buf):
            raise ValueError("checkpoint truncated")
        pos += n
        return buf[pos - n:pos]

    def u32():
        return struct.unpack("<I", take(4))[0]

    if take(4) != b"MFPU":
        raise ValueError("bad magic")
    header = {"version": u32()}
    header["arch"] = take(u32()).decode()
    header["n"], header["base_width"], header["dilation"] = u32(), u32(), u32()
    params = {}
    for _ in range(u32()):
        name = take(u32()).decode()
        shape = tuple(u32() for _ in range(u32()))
        size = int(np.prod(shape)) if shape else 1
        params[name] = np.frombuffer(take(4 * size), dtype="<f4").reshape(shape)
    if pos != len(buf):
        raise ValueError("trailing bytes")
    return header, params


def param_problems(tag: str, expect: dict, got: dict) -> list[str]:
    if list(expect) != list(got):
        return [f"{tag}: parameter names differ"]
    return [f"{tag}: {name} differs" for name in expect
            if expect[name].shape != got[name].shape
            or not np.array_equal(expect[name].astype(np.float32), got[name])]


def check_checkpoints(o: dict) -> list[str]:
    """Train: each fold's checkpoint holds exactly the trained parameters,
    reads back exactly, and writes back byte for byte."""
    problems = []
    for k, ck in enumerate(o["checkpoints"]):
        _, params = parse_checkpoint(ck["bytes"])
        problems += param_problems(f"fold {k} file vs trained", params, ck["trained"])
        problems += param_problems(f"fold {k} file vs read back", params, ck["read_back"])
        if ck["rewritten"] != ck["bytes"]:
            problems.append(f"fold {k}: checkpoint rewritten from its read-back differs")
    return problems


def check_checkpoint_read(o: dict) -> list[str]:
    """Eval: the model the verb evaluated holds the file's parameters."""
    _, params = parse_checkpoint(o["checkpoint_bytes"])
    return param_problems("checkpoint vs evaluated model", params, o["model_params"])


# -- training --------------------------------------------------------------------

def check_folds(o: dict) -> list[str]:
    """No subject in both splits of a fold; the validation splits
    partition the subjects."""
    problems = []
    everyone = set(o["subjects"])
    seen: list[str] = []
    if len(o["folds_json"]) != o["n_folds"]:
        problems.append(f"{len(o['folds_json'])} folds recorded, {o['n_folds']} configured")
    for entry in o["folds_json"]:
        train, val = set(entry["train_subjects"]), set(entry["val_subjects"])
        if train & val:
            problems.append(f"fold {entry['fold']}: {sorted(train & val)} in both splits")
        if train | val != everyone:
            problems.append(f"fold {entry['fold']}: splits do not cover the subjects")
        seen += entry["val_subjects"]
    if sorted(seen) != sorted(everyone):
        problems.append("validation splits do not partition the subjects")
    return problems


def check_logs(o: dict) -> list[str]:
    problems = []
    for k, rows in enumerate(o["logs"]):
        if len(rows) != o["epochs"]:
            problems.append(f"fold {k}: {len(rows)} log rows for {o['epochs']} epochs")
        for r in rows:
            if not math.isfinite(num(r["loss"])) or not 0.0 <= num(r["val_dice"]) <= 1.0:
                problems.append(f"fold {k} epoch {r['epoch']}: loss {r['loss']}, "
                                f"val Dice {r['val_dice']}")
    return problems


GRAD_PARAMS = ("enc1.conv1.weight", "enc4.conv2.weight", "bottleneck.conv1.weight",
               "up1.tconv.weight", "up4.conv2.bias", "pyramid2.conv.weight",
               "classifier.weight")
GRAD_TOL = 1e-6


def taped_and_numeric_gradients(seed: int = 11, eps: float = 1e-6) -> dict:
    """Taped gradients of a small float64 MFP-Unet's loss at two coordinates
    of each of ``GRAD_PARAMS``, and central differences at the same ones."""
    from lvseg.autograd import Tensor, backward
    from lvseg.layers import softmax_cross_entropy
    from lvseg.models import build_mfp_unet

    rng = np.random.default_rng(seed)
    model = build_mfp_unet(16, 2, dtype=np.float64, seed=seed)
    x = rng.uniform(0.0, 1.0, size=(2, 16, 16))
    target = (rng.uniform(size=(16, 16)) > 0.6).astype(np.int64)
    params = model.parameters()

    def loss():
        return softmax_cross_entropy(model.forward(Tensor(x)), target)

    model.zero_grad()
    backward(loss())
    coords, taped, numeric = [], [], []
    for name in GRAD_PARAMS:
        flat = params[name].data.reshape(-1)
        for i in rng.choice(flat.size, size=min(2, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + eps
            up = loss().item()
            flat[i] = keep - eps
            down = loss().item()
            flat[i] = keep
            coords.append([name, int(i)])
            taped.append(float(params[name].grad.reshape(-1)[i]))
            numeric.append((up - down) / (2.0 * eps))
    return {"coords": coords, "taped": taped, "numeric": numeric}


def check_gradients(o: dict) -> list[str]:
    g = o["gradients"]
    return [f"{name}[{i}]: taped {t:.9g}, central difference {n:.9g}"
            for (name, i), t, n in zip(g["coords"], g["taped"], g["numeric"])
            if abs(t - n) > GRAD_TOL * max(1.0, abs(t), abs(n))]


# -- evaluation ----------------------------------------------------------------

def reference_input(image: np.ndarray) -> np.ndarray:
    """Raw intensity and its global mean + 2 sigma threshold, both in [0, 1]."""
    img = image.astype(np.float64)
    return np.stack([img / 255.0, (img > img.mean() + 2.0 * img.std()).astype(np.float64)])


def _conv(x, w, b, dilation=1):
    """'Same' convolution (cross-correlation) through scipy.signal."""
    m = w.shape[-1]
    if dilation > 1:
        k = dilation * (m - 1) + 1
        wd = np.zeros(w.shape[:2] + (k, k))
        wd[:, :, ::dilation, ::dilation] = w
        w = wd
    pad = (w.shape[-1] - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    return np.stack([signal.correlate(xp, w[o], mode="valid")[0] + b[o]
                     for o in range(w.shape[0])])


def reference_forward(params: dict, dilation: int, x: np.ndarray) -> np.ndarray:
    """Float64 MFP-Unet logits: a 4-level U-net with dilated encoder and
    bottleneck convolutions, whose four decoder levels each feed a 3x3
    conv to 16 channels, upsampled to full size and concatenated
    (full-resolution tap first) before a 1x1 classifier."""
    p = {k: v.astype(np.float64) for k, v in params.items()}
    relu = lambda z: np.maximum(z, 0.0)  # noqa: E731

    def block(h, prefix, d):
        h = relu(_conv(h, p[f"{prefix}.conv1.weight"], p[f"{prefix}.conv1.bias"], d))
        return relu(_conv(h, p[f"{prefix}.conv2.weight"], p[f"{prefix}.conv2.bias"], d))

    skips, h = [], x
    for lvl in range(1, 5):
        h = block(h, f"enc{lvl}", dilation)
        skips.append(h)
        c, hh, ww = h.shape
        h = h.reshape(c, hh // 2, 2, ww // 2, 2).max(axis=(2, 4))
    h = block(h, "bottleneck", dilation)
    taps = []
    for stage in range(1, 5):
        w, b = p[f"up{stage}.tconv.weight"], p[f"up{stage}.tconv.bias"]
        o, _, m, _ = w.shape
        up = np.einsum("ocab,cij->oiajb", w, h).reshape(o, m * h.shape[1], m * h.shape[2])
        h = block(np.concatenate([up + b[:, None, None], skips[4 - stage]]), f"up{stage}", 1)
        tap = relu(_conv(h, p[f"pyramid{stage}.conv.weight"], p[f"pyramid{stage}.conv.bias"]))
        f = 2 ** (4 - stage)
        taps.append(tap.repeat(f, axis=1).repeat(f, axis=2))
    return _conv(np.concatenate(taps[::-1]), p["classifier.weight"], p["classifier.bias"])


FORWARD_TOL = 1e-4


def check_forward_reference(o: dict) -> list[str]:
    """Program logits (float32) against the float64 reference on a subset
    of images, and the evaluated prediction against their argmax."""
    header, params = parse_checkpoint(o["checkpoint_bytes"])
    ids = [s["id"] for s in o["samples"]]
    problems = []
    for sid, logits in o["logits"].items():
        ref = reference_forward(params, header["dilation"], reference_input(o["images"][sid]))
        err = float(np.max(np.abs(logits - ref)))
        info = o.setdefault("info", {})
        info["forward_max_abs_err"] = max(err, info.get("forward_max_abs_err", 0.0))
        if logits.shape != ref.shape or err > FORWARD_TOL * max(1.0, float(np.abs(ref).max())):
            problems.append(f"{sid}: logits differ from the reference by {err:.3g}")
        margin = np.abs(ref[1] - ref[0]) > 2 * err
        pred = o["preds"][ids.index(sid)]
        if np.any((pred != np.argmax(logits, axis=0))[margin]):
            problems.append(f"{sid}: prediction is not the argmax of the logits")
    return problems


def check_overlap(o: dict) -> list[str]:
    """Dice and Jaccard recomputed from the masks; DM = 2JC/(1+JC) on every
    image row; the mean and SD rows recomputed from the image rows."""
    problems = []
    samples, rows = o["samples"], o["rows"]
    if [r["id"] for r in rows] != [s["id"] for s in samples] + ["mean", "sd"]:
        return ["metrics rows do not match the images"]
    for s, pred, r in zip(samples, o["preds"], rows):
        a, b = pred > 0, o["truth"][s["id"]] > 0
        inter, total, union = int((a & b).sum()), int(a.sum() + b.sum()), int((a | b).sum())
        dm = 2.0 * inter / total if total else 1.0
        jc = inter / union if union else 1.0
        got_dm, got_jc = num(r["dice"]), num(r["jaccard"])
        if not (close(got_dm, dm, EXACT) and close(got_jc, jc, EXACT)):
            problems.append(f"{s['id']}: Dice/Jaccard {got_dm}/{got_jc}, expected {dm}/{jc}")
        if not close(got_dm, 2.0 * got_jc / (1.0 + got_jc), 1e-9):
            problems.append(f"{s['id']}: DM != 2JC/(1+JC)")
    for col in ("dice", "jaccard", "hd_mm", "mad_mm"):
        v = np.array([num(r[col]) for r in rows[:-2]])
        for row, expect in ((rows[-2], np.nanmean(v)), (rows[-1], np.nanstd(v, ddof=1))):
            if not close(num(row[col]), float(expect), 1e-9):
                problems.append(f"{row['id']} {col}: {row[col]}, expected {expect}")
    return problems


def largest_component(mask: np.ndarray) -> np.ndarray:
    labels, count = ndimage.label(mask > 0)   # 4-connectivity
    sizes = np.bincount(labels.ravel())[1:]
    return labels == 1 + int(np.argmax(sizes))


def contour_problems(poly: np.ndarray, mask: np.ndarray) -> list[str]:
    """A traced contour is a closed 8-connected chain of boundary pixels of
    the mask's largest component, as (x, y) = (column, row)."""
    comp = largest_component(mask)
    cols, rows = poly[:, 0].astype(int), poly[:, 1].astype(int)
    if np.any(poly != np.stack([cols, rows], axis=1)) or not comp[rows, cols].all():
        return ["contour leaves the largest component"]
    inner = ndimage.binary_erosion(comp, structure=np.ones((3, 3)), border_value=0)
    if inner[rows, cols].any():
        return ["contour holds interior pixels"]
    step = np.abs(np.diff(np.append(poly, poly[:1], axis=0), axis=0)).max(axis=1)
    if len(poly) > 1 and np.any(step != 1):
        return ["contour is not a closed 8-connected chain"]
    return []


def check_contours(o: dict) -> list[str]:
    """Every prediction has foreground; its contour and the truth's are
    valid traces; HD and MAD recomputed with scipy.spatial from them."""
    problems = []
    if len(o["contours"]) != 2 * len(o["samples"]):
        return [f"{len(o['contours'])} contours traced for {len(o['samples'])} images"]
    for i, (s, pred, r) in enumerate(zip(o["samples"], o["preds"], o["rows"])):
        cp, ct = o["contours"][2 * i], o["contours"][2 * i + 1]
        if not pred.any():
            problems.append(f"{s['id']}: empty prediction")
            continue
        for tag, poly, mask in (("prediction", cp, pred), ("truth", ct, o["truth"][s["id"]])):
            problems += [f"{s['id']} {tag}: {p}" for p in contour_problems(poly, mask)]
        d_pt = cKDTree(ct).query(cp)[0]
        d_tp = cKDTree(cp).query(ct)[0]
        hd = max(d_pt.max(), d_tp.max()) * s["calibration"]
        md = d_pt.mean() * s["calibration"]
        if not (close(num(r["hd_mm"]), hd, 1e-9) and close(num(r["mad_mm"]), md, 1e-9)):
            problems.append(f"{s['id']}: HD/MAD {r['hd_mm']}/{r['mad_mm']}, expected {hd}/{md}")
    return problems


# -- measurement -----------------------------------------------------------------

def check_area_length(o: dict) -> tuple[list[str], list[int]]:
    """Area is the pixel census of the native frame times the pixel area;
    length is within ``LENGTH_TOL`` of the analytic apex-to-base height.
    Returns the problems and the indices of the ops that fail."""
    rows = {r["id"]: r for r in o["rows"] if r["phase"] != "EF"}
    problems, failed = [], []
    for i, s in enumerate(o["samples"]):
        r = rows.get(s["id"])
        if r is None or r["flag"] != "ok":
            problems.append(f"{s['id']}: no measurement")
            failed.append(i)
            continue
        c_cm = s["calibration"] / 10.0
        area, length = s["census"] * c_cm * c_cm, s["height_px"] * c_cm
        tol = RESAMPLED_AREA_TOL if s["nonsquare"] else EXACT
        got_s, got_d = num(r["S_cm2"]), num(r["D_cm"])
        if not close(got_s, area, tol) or abs(got_d - length) > LENGTH_TOL * length:
            problems.append(f"{s['id']}: S {got_s:.4f} cm2 (census {area:.4f}), "
                            f"D {got_d:.4f} cm (height {length:.4f})")
            failed.append(i)
    return problems, failed


def check_volume_ef(o: dict) -> list[str]:
    """V = 8 S^2 / (3 pi D) on every row; EF recomputed from ED and ES."""
    problems, volumes = [], {}
    subject = {s["id"]: s["subject"] for s in o["samples"]}
    for r in o["rows"]:
        if r["phase"] == "EF":
            continue
        s, d, v = num(r["S_cm2"]), num(r["D_cm"]), num(r["V_ml"])
        if not close(v, 8.0 * s * s / (3.0 * math.pi * d), EXACT):
            problems.append(f"{r['id']}: V {v} != 8S^2/(3 pi D)")
        volumes.setdefault(subject[r["id"]], {})[r["phase"]] = v
    ef_rows = {r["id"]: num(r["EF_pct"]) for r in o["rows"] if r["phase"] == "EF"}
    if set(ef_rows) != set(volumes):
        problems.append("EF rows do not match the subjects")
    for subj, ef in ef_rows.items():
        v = volumes.get(subj, {})
        if "ED" in v and "ES" in v and not close(ef, 100.0 * (v["ED"] - v["ES"]) / v["ED"], EXACT):
            problems.append(f"{subj}: EF {ef} disagrees with its ED and ES volumes")
    return problems


def check_triangles(o: dict) -> list[str]:
    """Every enclosing triangle contains Qhull's hull of the mask's pixel
    centres, and its area lies between the hull's area and twice that."""
    problems = []
    o.setdefault("info", {})["qhull_vertices"] = []
    if len(o["triangles"]) != len(o["masks"]):
        return [f"{len(o['triangles'])} triangles for {len(o['masks'])} masks"]
    for s, (mask, _), tri in zip(o["samples"], o["masks"], o["triangles"]):
        rows, cols = np.nonzero(mask)
        hull = ConvexHull(np.stack([cols, rows], axis=1).astype(np.float64))
        pts = hull.points[hull.vertices]
        o["info"]["qhull_vertices"].append(len(pts))
        a, b, c = tri
        area = 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        tri = tri if area > 0 else tri[::-1]
        tol = 1e-6 * max(1.0, float(np.abs(pts).max()))
        for k in range(3):
            p, q = tri[k], tri[(k + 1) % 3]
            side = (q[0] - p[0]) * (pts[:, 1] - p[1]) - (q[1] - p[1]) * (pts[:, 0] - p[0])
            if side.min() < -tol * max(1.0, float(np.hypot(*(q - p)))):
                problems.append(f"{s['id']}: triangle misses hull vertices")
                break
        if not hull.volume - tol <= abs(area) <= 2.0 * hull.volume + tol:
            problems.append(f"{s['id']}: triangle area {abs(area):.2f} outside "
                            f"[{hull.volume:.2f}, {2 * hull.volume:.2f}]")
    return problems


def agreement_series(rows: list[dict]) -> dict[str, dict[str, float]]:
    out = {"volume": {}, "area": {}, "length": {}, "EF": {}}
    for r in rows:
        if r["phase"] == "EF":
            out["EF"][r["id"]] = num(r["EF_pct"])
        elif r["flag"] == "ok":
            out["volume"][r["id"]] = num(r["V_ml"])
            out["area"][r["id"]] = num(r["S_cm2"])
            out["length"][r["id"]] = num(r["D_cm"])
    return out


def check_agreement(o: dict) -> list[str]:
    """Bias and 1.96-SD limits of agreement recomputed from the two CSVs."""
    auto, manual = agreement_series(o["rows"]), agreement_series(o["manual"])
    problems = []
    if sorted(r["parameter"] for r in o["agreement"]) != sorted(auto):
        return ["agreement report lacks a parameter"]
    for r in o["agreement"]:
        a, m = auto[r["parameter"]], manual[r["parameter"]]
        keys = sorted(a)
        d = np.array([a[k] for k in keys]) - np.array([m[k] for k in keys])
        bias, sd = float(d.mean()), float(d.std(ddof=1))
        for col, expect in (("bias", bias), ("loa_low", bias - 1.96 * sd),
                            ("loa_high", bias + 1.96 * sd)):
            if not close(num(r[col]), expect, 1e-9):
                problems.append(f"{r['parameter']} {col}: {r[col]}, expected {expect}")
        if int(r["n"]) != len(keys):
            problems.append(f"{r['parameter']}: n {r['n']}, expected {len(keys)}")
    return problems


CHECKS = {
    "folds": check_folds, "logs": check_logs, "checkpoints": check_checkpoints,
    "gradients": check_gradients, "checkpoint_read": check_checkpoint_read,
    "forward_reference": check_forward_reference, "overlap": check_overlap,
    "contours": check_contours, "area_length": check_area_length,
    "volume_ef": check_volume_ef, "triangles": check_triangles,
    "agreement": check_agreement,
}


def run_checks(names, outputs: dict) -> dict:
    """Run the named checks. Ops that fail only through the named fault
    (non-square frames whose area is off: ``resize_sample`` scales the
    calibration by h / n only) are returned as failed ops; any other
    problem makes the run incorrect."""
    problems, failed_ops = [], []
    for name in names:
        result = CHECKS[name](outputs)
        if name == "area_length":
            found, failing = result
            known = [i for i in failing if outputs["samples"][i]["nonsquare"]]
            failed_ops = [outputs["samples"][i]["id"] for i in known]
            problems += [p for p, i in zip(found, failing) if i not in known]
        else:
            problems += [f"{name}: {p}" for p in result]
    return {"problems": problems, "failed_ops": failed_ops, "info": outputs.get("info", {})}
