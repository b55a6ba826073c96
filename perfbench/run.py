"""Runs one benchmark workload and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It starts two child processes, one
after the other: ``inputs.py`` makes the workload's inputs from the seed in
a fresh work directory under ``perfbench/work/``, then ``worker.py`` runs
the timed rounds and the output checks. Both get one BLAS/OpenMP thread
and a fixed ``PYTHONHASHSEED`` (see README.md). The last line of standard
output is the result as JSON: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones); a summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNTS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-mfp64", "eval-mfp128", "measure-report256")
END_TO_END = {"ops_per_s": "op/s", "op_ms_p50": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
# A run is killed after a fixed allowance for making the inputs, the
# warm-up round and the checks, plus three times the requested seconds
# for the timed rounds (traced rounds are slower, and a slow machine takes
# longer than round_s per round).
FIXED_ALLOWANCE_S = 80.0

# Fixed for every child: one BLAS thread (a second one cost 50 % more user
# CPU on a forward/backward probe, with no steady gain in wall time), and
# one hash seed (with random ones, peak RSS of one forward loop read
# 604-870 MB from run to run).
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


def fail(msg: str, code: int) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_child(argv: list[str], env: dict, log: Path, deadline: float) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before " + Path(argv[1]).name, 3)
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(argv, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:   # run() has killed and reaped the child
            fail(f"{Path(argv[1]).name} timed out; log in {log}", 3)
    if proc.returncode != 0:
        tail = log.read_text()[-2000:]
        fail(f"{Path(argv[1]).name} exited with {proc.returncode}; log {log}:\n{tail}", 3)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + FIXED_ALLOWANCE_S + 3.0 * args.seconds

    root = HERE.parent
    src = root / "src"
    if not (src / "lvseg" / "__init__.py").is_file():
        fail(f"no lvseg sources under {src}; run from a checkout of the repository", 2)
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    work = HERE / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    run_child([sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", str(work)], env, work / "inputs.log", deadline)
    run_child([sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)],
              env, work / "worker.log", deadline)
    result = json.loads((work / "result.json").read_text())

    units = ({name: "count" if name in COUNTS else "ms" for name in result["metrics"]}
             if args.trace else END_TO_END)
    metrics = {name: {"value": float(v), "unit": units[name]}
               for name, v in result["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:12.4f} {m['unit']}", file=sys.stderr)
    print(f"rounds {result['rounds']}, ops {result['attempted']}, failed {result['failed']} "
          f"{result['failed_ops']}, BLAS threads {result['blas_threads']}, "
          f"info {json.dumps(result['info'])}", file=sys.stderr)
    for p in result["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    if result["correct"]:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
