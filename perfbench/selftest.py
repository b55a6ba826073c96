"""Self-test of the output checks.

    python3 perfbench/selftest.py [--seed N]

For each workload it makes the inputs, runs one round of the program's
verbs, and shows that every check accepts the real outputs and rejects
each deliberately corrupted copy of them. Exits non-zero if a check
rejects real output or accepts a corrupted one.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import copy  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402
from tracer import Patches  # noqa: E402


def bump(row: dict, col: str, rel: float = 1e-6) -> None:
    row[col] = repr(checks.num(row[col]) * (1.0 + rel))


def first_square(o):
    return next(i for i, s in enumerate(o["samples"]) if not s["nonsquare"])


def flip_pixel(o):
    """Clear the first foreground pixel of the first prediction."""
    pred = o["preds"][0]
    r, c = map(int, np.argwhere(pred)[0])
    pred[r, c] = 0


def shift_contour_point(o):
    o["contours"][0][0] += np.array([0.0, -1.0])


def shrink_triangle(o):
    tri = o["triangles"][first_square(o)]
    tri[:] = tri.mean(axis=0) + 0.99 * (tri - tri.mean(axis=0))


def flip_checkpoint_byte(o):
    buf = bytearray(o["checkpoints"][0]["bytes"])
    buf[-1] ^= 0x40
    o["checkpoints"][0]["bytes"] = bytes(buf)


def leak_subject(o):
    fold = o["folds_json"][0]
    fold["train_subjects"].append(fold["val_subjects"][0])


def nudge_param(o):
    p = o["model_params"]["enc1.conv1.weight"]
    p.flat[0] = np.nextafter(p.flat[0], np.float32(np.inf))


def nudge_logits(o):
    sid, logits = next(iter(o["logits"].items()))
    logits[0, 0, 0] += 1e-2 * max(1.0, float(np.abs(logits).max()))


def flip_clear_pixel(o):
    """Flip the prediction where the program's logits are farthest from a tie."""
    sid, logits = next(iter(o["logits"].items()))
    i = [s["id"] for s in o["samples"]].index(sid)
    r, c = np.unravel_index(np.argmax(np.abs(logits[1] - logits[0])), logits.shape[1:])
    o["preds"][i][r, c] ^= 1


CORRUPTIONS = {
    "folds": [("a validation subject also in its training split", leak_subject)],
    "logs": [("an epoch row missing", lambda o: o["logs"][0].pop())],
    "checkpoints": [("one bit flipped in a checkpoint value", flip_checkpoint_byte)],
    "gradients": [("a taped gradient off by 1e-4",
                   lambda o: o["gradients"]["taped"].__setitem__(
                       0, o["gradients"]["taped"][0] + 1e-4))],
    "checkpoint_read": [("an evaluated weight one ulp off", nudge_param)],
    "forward_reference": [("one logit off by 1 %", nudge_logits),
                          ("one confident prediction pixel flipped", flip_clear_pixel)],
    "overlap": [("a Dice value off by 1e-6", lambda o: bump(o["rows"][0], "dice")),
                ("a prediction pixel flipped", flip_pixel)],
    "contours": [("an HD value off by 1e-6", lambda o: bump(o["rows"][0], "hd_mm")),
                 ("a contour point moved one pixel", shift_contour_point)],
    "area_length": [("a square frame's area off by 1e-6",
                     lambda o: bump(o["rows"][first_square(o)], "S_cm2")),
                    ("a square frame's length 20 % short",
                     lambda o: bump(o["rows"][first_square(o)], "D_cm", -0.2))],
    "volume_ef": [("a volume off by 1e-6", lambda o: bump(o["rows"][0], "V_ml")),
                  ("an EF off by 1e-6", lambda o: bump(o["rows"][-1], "EF_pct"))],
    "triangles": [("a triangle shrunk by 1 %", shrink_triangle)],
    "agreement": [("a bias off by 1e-6", lambda o: bump(o["agreement"][0], "bias")),
                  ("a limit of agreement off by 1e-6",
                   lambda o: bump(o["agreement"][0], "loa_high"))],
}


def problems_of(check: str, outputs: dict) -> list[str]:
    """What the benchmark would report against the run: ops failing only
    through the named fault (non-square frames) are not problems."""
    return checks.run_checks([check], outputs)["problems"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bad = 0
    for name, cls in worker.WORKLOADS.items():
        work = HERE / "work" / f"selftest-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        spec = inputs.WORKLOADS[name]
        manifest = {"workload": name, "seed": args.seed, "spec": spec}
        manifest.update(inputs.MAKERS[name](spec, args.seed, work))
        wl = cls(manifest, work)
        patches = Patches()
        wl.install_hooks(patches)
        try:
            wl.reset()
            wl.run_verbs(warm=False)
        finally:
            patches.restore()
        outputs = wl.outputs()
        print(f"{name}: {wl.ops} ops")
        for check in cls.CHECKS:
            real = problems_of(check, copy.deepcopy(outputs))
            print(f"  {check:18s} real output: {'rejected ' + real[0] if real else 'accepted'}")
            bad += bool(real)
            for label, corrupt in CORRUPTIONS[check]:
                broken = copy.deepcopy(outputs)
                corrupt(broken)
                found = problems_of(check, broken)
                print(f"  {check:18s} {label}: {'rejected' if found else 'ACCEPTED'}")
                bad += not found
        if name == "measure-report256":
            _, failing = checks.check_area_length(copy.deepcopy(outputs))
            print(f"  non-square frames failing through resize_sample: "
                  f"{[outputs['samples'][i]['id'] for i in failing]}")
        shutil.rmtree(work, ignore_errors=True)
    print("self-test", "passed" if not bad else f"FAILED ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
