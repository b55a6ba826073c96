"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]

Makes two sets of runs over the same seeds, alternating between the sets
run by run, each run a fresh ``run.py`` process of ``run_seconds`` from
BENCHMARK.json. Every raw result is printed as a JSON line; then, per
metric, one Markdown table row with each set's median and quartile spread
(Q3 - Q1, from ``statistics.quantiles(values, n=4)``, as a share of the
median) and how far the second median moved from the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = 2


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs: list[list[dict]] = [[] for _ in range(SETS)]
    for seed in args.seeds:
        for k in range(SETS):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"seed {seed} failed:\n{proc.stderr[-3000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[k].append(result)
            print(json.dumps({"workload": args.workload, "set": k, "seed": seed, **result}),
                  flush=True)

    for k, results in enumerate(runs):
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"set {k + 1}: {len(results)} runs, correct {all(r['correct'] for r in results)}, "
              f"failed shares {shares}")
    print("| workload | metric | set 1 median | set 1 spread | set 2 median | set 2 spread "
          "| median moved |")
    for name in runs[0][0]["metrics"]:
        cells, medians = [], []
        for results in runs:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            medians.append(med)
            cells += [f"{med:.4g}", f"{(q3 - q1) / med:.1%}"]
        print(f"| {args.workload} | `{name}` | " + " | ".join(cells)
              + f" | {medians[1] / medians[0] - 1:+.1%} |")


if __name__ == "__main__":
    main()
