"""The timed process of one benchmark run.

    python3 perfbench/worker.py --workload NAME --seconds S --trace 0|1 --work DIR

``run.py`` starts it after ``inputs.py`` has written DIR. One caller runs
the program's CLI verbs in a closed loop, one op at a time: an untimed
warm-up round on the small warm-up inputs, then round(S / round_s) timed
rounds. With ``--trace 1`` every second round runs with every layer
traced, the others untraced. Light hooks on a few public functions time
each op and the set-up the verbs run inside each round, and keep the
outputs the checks need. The result goes to DIR/result.json.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import lvseg.checkpoint as checkpoint
import lvseg.cli as cli
import lvseg.measure as measure
import lvseg.training as training
from lvseg.autograd import Tensor

import checks
from tracer import Patches, Tracer, layer_metric_names


class Workload:
    """One workload's verbs, hooks and outputs. Hooks add to ``setup_s``
    (the set-up the verbs ran in the current round), ``op_ms`` and ``ops``."""

    def __init__(self, manifest: dict, work: Path):
        self.manifest = manifest
        self.spec = manifest["spec"]
        self.work = work
        self.setup_s = 0.0
        self.op_ms: list[float] = []
        self.ops = 0
        self.captures: dict[str, list] = {}

    def reset(self) -> None:
        self.setup_s = 0.0
        self.op_ms = []
        self.ops = 0
        self.captures = {}

    def capture(self, key: str, value) -> None:
        self.captures.setdefault(key, []).append(value)

    def setup_timer(self, fn):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.setup_s += perf_counter() - t0
        return timed

    # subclasses define: verbs(warm), install_hooks(patches), outputs()
    # and the checks they run

    def run_verbs(self, warm: bool) -> None:
        for argv in self.verbs(warm):
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"lvseg {' '.join(argv)} exited with {code}")


class TrainWorkload(Workload):
    """An op is one sample-step; its time is the fold's wall time divided
    by the fold's sample-steps, the smallest unit the program exposes."""

    def verbs(self, warm):
        return [["train", "--config", str(self.work / ("warm.json" if warm else "round.json"))]]

    def install_hooks(self, patches: Patches) -> None:
        patches.set(training, "resolve_data", self.setup_timer(training.resolve_data))
        patches.set(training, "make_folds", self.setup_timer(training.make_folds))
        train_fold = training.train_fold

        def timed_fold(config, train_samples, val_samples, fold):
            t0 = perf_counter()
            result = train_fold(config, train_samples, val_samples, fold)
            dt = perf_counter() - t0
            steps = len(train_samples) * config.augment_factor * config.epochs
            self.op_ms.append(1e3 * dt / steps)
            self.ops += steps
            self.capture("folds", {name: t.data.copy()
                                   for name, t in result.model.parameters().items()})
            return result
        patches.set(training, "train_fold", timed_fold)

    def outputs(self) -> dict:
        out_dir = Path(self.manifest["configs"]["round"]["out_dir"])
        folds = json.loads((out_dir / "folds.json").read_text())
        ckpts = []
        for k, params in enumerate(self.captures["folds"]):
            path = out_dir / f"fold{k}" / "checkpoint.bin"
            model = checkpoint.checkpoint_read(path)
            rewritten = self.work / "rewrite.bin"
            checkpoint.checkpoint_write(model, rewritten)
            ckpts.append({"bytes": path.read_bytes(), "trained": params,
                          "read_back": {n: t.data for n, t in model.parameters().items()},
                          "rewritten": rewritten.read_bytes()})
        logs = [checks.read_csv(out_dir / f"fold{k}" / "log.csv") for k in range(len(folds))]
        return {"folds_json": folds, "subjects": self.manifest["subjects"],
                "n_folds": self.manifest["configs"]["round"]["folds"],
                "epochs": self.manifest["configs"]["round"]["epochs"],
                "checkpoints": ckpts, "logs": logs,
                "gradients": checks.taped_and_numeric_gradients()}

    CHECKS = ("folds", "logs", "checkpoints", "gradients")


class EvalWorkload(Workload):
    """An op is one image of ``evaluate_model``: compose_input through the
    Dice, Jaccard, HD and MAD of ``metrics_for_masks``."""

    def verbs(self, warm):
        data = self.work / ("warm" if warm else "data")
        return [["eval", "--checkpoint", str(self.work / "checkpoint.bin"), "--data", str(data),
                 "--arch", "mfp-unet", "--out", str(self.work / ("warm-out" if warm else "out"))]]

    def install_hooks(self, patches: Patches) -> None:
        read = cli.checkpoint_read

        def read_checkpoint(path, expect_arch=None):
            model = read(path, expect_arch=expect_arch)
            self.model = model
            return model
        patches.set(cli, "checkpoint_read", self.setup_timer(read_checkpoint))
        patches.set(cli, "resolve_data", self.setup_timer(cli.resolve_data))
        compose, segment = training.compose_input, training.forward_segment
        contour, metrics = training.extract_contour, training.metrics_for_masks
        start = [0.0]

        def compose_input(sample, *args, **kwargs):
            start[0] = perf_counter()
            return compose(sample, *args, **kwargs)

        def forward_segment(model, image):
            pred = segment(model, image)
            self.capture("preds", pred)
            return pred

        def extract_contour(mask):
            poly = contour(mask)
            self.capture("contours", poly)
            return poly

        def metrics_for_masks(pred, truth, calibration):
            result = metrics(pred, truth, calibration)
            self.op_ms.append(1e3 * (perf_counter() - start[0]))
            self.ops += 1
            return result
        patches.set(training, "compose_input", compose_input)
        patches.set(training, "forward_segment", forward_segment)
        patches.set(training, "extract_contour", extract_contour)
        patches.set(training, "metrics_for_masks", metrics_for_masks)

    def outputs(self) -> dict:
        truth = np.load(self.work / "truth.npz")
        samples = self.manifest["samples"]
        # program logits on a subset, for the float64 reference forward pass
        subset = [0, len(samples) // 2]
        loaded = {s.sample_id: s for s in training.resolve_data(str(self.work / "data"),
                                                                self.model.n, 0)}
        logits = {}
        for i in subset:
            sid = samples[i]["id"]
            logits[sid] = self.model.forward(Tensor(training.compose_input(loaded[sid]))).data
        return {"samples": samples,
                "truth": {s["id"]: truth[f"mask/{s['id']}"] for s in samples},
                "images": {samples[i]["id"]: truth[f"image/{samples[i]['id']}"] for i in subset},
                "preds": self.captures["preds"], "contours": self.captures["contours"],
                "rows": checks.read_csv(self.work / "out" / "metrics.csv"),
                "checkpoint_bytes": (self.work / "checkpoint.bin").read_bytes(),
                "model_params": {n: t.data for n, t in self.model.parameters().items()},
                "logits": logits}

    CHECKS = ("checkpoint_read", "forward_reference", "overlap", "contours")


class MeasureWorkload(Workload):
    """An op is one mask through ``measure_samples``: contour, hull,
    triangle, landmarks, length, area and volume."""

    def verbs(self, warm):
        tag = "warm-" if warm else ""
        data = self.work / ("warm" if warm else "data")
        out = self.work / f"{tag}out"
        return [["measure", "--data", str(data), "--n", str(self.spec["n"]), "--out", str(out)],
                ["report", "--auto", str(out / "measurements.csv"),
                 "--manual", str(self.work / f"{tag}manual.csv"), "--out", str(out / "report")]]

    def install_hooks(self, patches: Patches) -> None:
        patches.set(cli, "resolve_data", self.setup_timer(cli.resolve_data))
        measure_mask, triangle = training.measure_mask, measure.min_enclosing_triangle

        def timed_measure(mask, calibration, phase="other"):
            self.capture("masks", (mask, calibration))
            t0 = perf_counter()
            try:
                return measure_mask(mask, calibration, phase)
            finally:
                self.op_ms.append(1e3 * (perf_counter() - t0))
                self.ops += 1

        def min_enclosing_triangle(hull):
            tri = triangle(hull)
            self.capture("triangles", tri)
            return tri
        patches.set(training, "measure_mask", timed_measure)
        patches.set(measure, "min_enclosing_triangle", min_enclosing_triangle)

    def outputs(self) -> dict:
        out = self.work / "out"
        return {"samples": self.manifest["samples"], "masks": self.captures["masks"],
                "triangles": self.captures["triangles"],
                "rows": checks.read_csv(out / "measurements.csv"),
                "manual": checks.read_csv(self.work / "manual.csv"),
                "agreement": checks.read_csv(out / "report" / "agreement.csv")}

    CHECKS = ("area_length", "volume_ef", "triangles", "agreement")


WORKLOADS = {"train-mfp64": TrainWorkload, "eval-mfp128": EvalWorkload,
             "measure-report256": MeasureWorkload}


def same_outputs(a: dict, b: dict) -> bool:
    """Whether two rounds captured identical outputs."""
    def same(x, y):
        if isinstance(x, dict):
            return x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
        if isinstance(x, (list, tuple)):
            return len(x) == len(y) and all(same(u, v) for u, v in zip(x, y))
        if isinstance(x, np.ndarray):
            return x.shape == y.shape and np.array_equal(x, y)
        return x == y
    return same(a, b)


class Tally:
    """Work time, set-up samples, op times and op count of some rounds."""

    def __init__(self):
        self.work_s, self.setups, self.op_ms, self.ops = 0.0, [], [], 0

    def add(self, wall_s: float, wl: Workload) -> None:
        self.work_s += wall_s - wl.setup_s
        self.setups.append(wl.setup_s)
        self.op_ms += wl.op_ms
        self.ops += wl.ops

    @property
    def wall_s(self) -> float:
        return self.work_s + sum(self.setups)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    work = Path(args.work)
    manifest = json.loads((work / "manifest.json").read_text())
    wl = WORKLOADS[args.workload](manifest, work)
    rounds = max(2 if args.trace else 1, round(args.seconds / manifest["spec"]["round_s"]))

    hooks = Patches()
    wl.install_hooks(hooks)
    wl.run_verbs(warm=True)

    # Every second round of a traced run is traced. The tracer goes under
    # the hooks, so the hooks are undone first and set again on top.
    tracer = Tracer() if args.trace else None
    plain, traced = Tally(), Tally()
    first, differing = None, 0
    for k in range(rounds):
        tracing = tracer is not None and k % 2 == 1
        if tracing:
            hooks.restore()
            traced_patches = Patches()
            tracer.install(traced_patches)
            wl.install_hooks(hooks)
        wl.reset()
        t0 = perf_counter()
        wl.run_verbs(warm=False)
        wall_s = perf_counter() - t0
        if tracing:
            hooks.restore()
            traced_patches.restore()
            wl.install_hooks(hooks)
        (traced if tracing else plain).add(wall_s, wl)
        if first is None:
            first = wl.captures
        else:
            differing += not same_outputs(first, wl.captures)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    hooks.restore()

    if tracer is not None:
        per_op_ms = 1e3 * traced.work_s / traced.ops
        layers = tracer.layer_ms(traced.ops)
        layers["trace.overhead_ms"] = per_op_ms - 1e3 * plain.work_s / plain.ops
        layers["trace.unattributed_ms"] = 1e3 * (traced.wall_s - tracer.attributed_s()) / traced.ops
        metrics = {name: layers[name] for name in layer_metric_names()}
        info = {"traced_op_ms": per_op_ms, "layer_share": tracer.attributed_s() / traced.wall_s}
    else:
        info = {}
        metrics = {
            "ops_per_s": plain.ops / plain.work_s,
            "op_ms_p50": statistics.median(plain.op_ms),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(plain.setups),
        }

    wl.captures = first
    report = checks.run_checks(wl.CHECKS, wl.outputs())
    info.update(report["info"], **({"checkpoint": manifest["checkpoint"]}
                                   if "checkpoint" in manifest else {}))
    problems = report["problems"]
    if differing:
        problems.append(f"{differing} rounds captured other outputs than the first")
    result = {"correct": not problems, "attempted": plain.ops + traced.ops,
              "failed": len(report["failed_ops"]) * rounds, "metrics": metrics,
              "rounds": rounds, "problems": problems, "failed_ops": report["failed_ops"],
              "info": info, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    (work / "result.json").write_text(json.dumps(result, indent=1, default=float) + "\n")


if __name__ == "__main__":
    main()
