"""Command-line entry point.

Verbs: synth, train, eval, measure, report. Exit code 0 on success, 2 on
a contract violation, a model whose training or logits blew up, or a verb
that runs out of memory, 3 on an I/O or format error or a training helper
process that died or failed.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import resource
import sys
import time
from pathlib import Path

from .checkpoint import checkpoint_read
from .config import RunConfig
from .errors import (ContractViolation, FormatError, MeasurementError, NonFiniteLogits,
                     TrainingDiverged, TrainingHelperError)
from .models import ARCH_TAGS
from .report import (agreement_reports, method_anova, read_measurements_csv,
                     write_agreement_report, write_measurements_csv, write_metrics_csv)
from .training import (evaluate_model, format_summary, measure_samples, resolve_data,
                       synth, train)

EXIT_OK = 0
EXIT_CONTRACT = 2
EXIT_IO = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The verbs' parser, built once per process (about 0.8 ms a build):
    ``parse_args`` leaves it as it was, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="lvseg",
        description="Left-ventricle segmentation, measurement, and agreement reporting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic phantom dataset")
    p_synth.add_argument("--count", type=int, default=10, help="number of subjects")
    p_synth.add_argument("--n", type=int, default=64, help="square image extent")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output dataset directory")

    p_train = sub.add_parser("train", help="cross-validated training run")
    p_train.add_argument("--config", help="JSON run configuration")
    p_train.add_argument("--arch", choices=ARCH_TAGS)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--data", help="dataset directory or synthetic:<count>")
    p_train.add_argument("--out", help="output directory")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint against ground truth")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--arch", choices=ARCH_TAGS,
                        help="reject the checkpoint unless it holds this architecture")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out", required=True, help="output directory for metrics.csv")

    p_measure = sub.add_parser("measure", help="geometric measurements from masks")
    p_measure.add_argument("--data", required=True)
    p_measure.add_argument("--n", type=int, default=64,
                           help="extent of synthetic:<count> phantoms; a dataset directory "
                                "is measured as stored")
    p_measure.add_argument("--seed", type=int, default=0)
    p_measure.add_argument("--out", required=True, help="output directory")

    p_report = sub.add_parser("report", help="agreement report between measurement CSVs")
    p_report.add_argument("--auto", action="append", required=True,
                          help="automatic measurement CSV; repeat for several methods, "
                               "which anova.txt compares (agreement.csv and boxplot.csv "
                               "describe the first)")
    p_report.add_argument("--manual", required=True, help="manual reference CSV")
    p_report.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_synth(args) -> None:
    samples = synth(args.count, args.n, args.seed, args.out)
    print(f"wrote {len(samples)} samples ({args.count} subjects) to {args.out}")


def _keep_freed_memory() -> None:
    """Have glibc keep the memory a verb frees in the process, so the next
    training sample's tape, or the next image's forward, reuses its pages.
    ``main`` applies it for every verb, and the training helper
    (``helper.serve``) applies it to itself, since the setting holds only
    for the process that makes it. Does nothing where the C library has no
    ``mallopt``."""
    # Backward frees each sample's tape as it goes, and glibc by default
    # returns the freed heap top to the OS, so the next sample faults the
    # same pages in again. MFP-Unet ``train_fold`` at n=64, base width 8,
    # batch 8 (2-core Xeon, one BLAS thread; median over three processes of
    # three folds of 32 sample-steps after a warm-up fold), per step:
    # 12.0 ms, 1,390 minor page faults, 79.7 MB peak RSS with glibc's
    # defaults; 9.9 ms, no fault, 79.6 MB with this setting.
    # Setting either threshold turns off glibc's dynamic thresholds, so
    # both are set: never trim the heap top, and serve blocks up to 32 MiB
    # (the largest mmap threshold glibc accepts) from the heap.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, -1)        # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def _cmd_train(args) -> None:
    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    overrides = {}
    if args.arch is not None:
        overrides["arch"] = args.arch
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.data is not None:
        overrides["data_dir"] = args.data
    if args.out is not None:
        overrides["out_dir"] = args.out
    if overrides:
        import dataclasses
        cfg = dataclasses.replace(cfg, **overrides)
    t0 = time.perf_counter()
    results = train(cfg)
    elapsed = time.perf_counter() - t0
    for r in results:
        print(f"fold {r.fold}: best validation Dice {r.best_val_dice:.4f} "
              f"({len(r.train_subjects)} train / {len(r.val_subjects)} val subjects)")
    print(f"checkpoints and logs under {cfg.out_dir}")
    steps = sum(r.sample_steps for r in results)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    helper_mb = max((r.helper_peak_rss_mb for r in results if r.processes > 1), default=None)
    print(f"trained {steps} sample-steps in {elapsed:.2f} s "
          f"({1e3 * elapsed / max(steps, 1):.1f} ms/step, peak RSS {peak_mb:.0f} MB) "
          + ("in 1 process" if helper_mb is None
             else f"in 2 processes, the helper's peak RSS {helper_mb:.0f} MB"))


def _cmd_eval(args) -> None:
    model = checkpoint_read(args.checkpoint, expect_arch=args.arch)
    samples = resolve_data(args.data, model.n, args.seed)
    t0 = time.perf_counter()
    try:
        rows = evaluate_model(model, samples)
    except NonFiniteLogits as exc:
        raise NonFiniteLogits(f"{exc} (checkpoint {args.checkpoint})") from None
    elapsed = time.perf_counter() - t0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(rows, out_dir / "metrics.csv")
    print(format_summary(rows))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"evaluated {len(samples)} images in {elapsed:.2f} s "
          f"({elapsed / max(len(samples), 1):.3f} s/image, peak RSS {peak_mb:.0f} MB)")


def _cmd_measure(args) -> None:
    samples = resolve_data(args.data, args.n, args.seed)
    rows = measure_samples(samples)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_measurements_csv(rows, out_dir / "measurements.csv")
    flagged = sum(1 for r in rows if r.flag != "ok")
    print(f"measured {len(samples)} masks -> {out_dir / 'measurements.csv'}"
          + (f" ({flagged} flagged rows)" if flagged else ""))


def _cmd_report(args) -> None:
    # one file under two spellings would read as two identical methods
    resolved = [Path(p).resolve() for p in args.auto]
    for p, r in zip(args.auto, resolved):
        if resolved.count(r) > 1:
            raise ContractViolation(f"--auto {p} is given more than once")
    manual = read_measurements_csv(args.manual)
    # each method is named by its path as given: every ``measure`` writes measurements.csv
    autos = {p: read_measurements_csv(p) for p in args.auto}
    first = args.auto[0]
    reports = agreement_reports(autos[first], manual, first)
    tables = method_anova(autos, manual) if len(autos) >= 2 else None
    write_agreement_report(reports, args.out, tables)
    print(f"agreement of {first} with {args.manual}:")
    for r in reports:
        print(f"{r.parameter}: slope {r.fit.slope:.3f}, R {r.fit.r:.3f}, "
              f"bias {r.ba.bias:.3f}, RPC {r.ba.rpc:.3f}")
    print(f"report written to {args.out}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _keep_freed_memory()
    handlers = {"synth": _cmd_synth, "train": _cmd_train, "eval": _cmd_eval,
                "measure": _cmd_measure, "report": _cmd_report}
    try:
        handlers[args.command](args)
    except (ContractViolation, MeasurementError, NonFiniteLogits, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except MemoryError as exc:
        print(f"error: {args.command} ran out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return EXIT_CONTRACT
    except (FormatError, OSError, TrainingHelperError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
