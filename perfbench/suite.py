"""Run the benchmark over several workloads and seeds and summarise it.

    python3 perfbench/suite.py                          # every workload, seeds 1-10
    python3 perfbench/suite.py --workloads apply-1M --seeds 1-5
    python3 perfbench/suite.py --trace 1 --seeds 1

Each run is ``perfbench/run.py`` in a fresh process, one at a time, so
peak RSS is per workload and runs do not compete for the two CPUs.
Seeds are the outer loop, so slow drift of a shared machine spreads over
every workload. For each workload and metric it prints the median over
the runs with the number of runs, the quartiles, and, for end-to-end
metrics, the spread (quartile distance over median) beside the metric's
bound from BENCHMARK.json. Exits 1 when any run failed a check or exited
non-zero.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    chosen = args.workloads.split(",")
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {names}")
    specs = bench["per_layer" if args.trace else "end_to_end"]
    values = {(w, m["name"]): [] for w in chosen for m in specs}
    ok = True
    for seed in parse_seeds(args.seeds):
        for workload in chosen:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            good = proc.returncode == 0 and result["correct"]
            ok = ok and good
            print(f"{workload} seed {seed}: exit {proc.returncode} after {wall:.1f} s, "
                  f"{result['attempted']} attempted, {result['failed']} failed",
                  file=sys.stderr)
            if not good:
                sys.stderr.write(proc.stderr[-4000:])
            for (w, name), series in values.items():
                if w == workload and name in result["metrics"]:
                    series.append(result["metrics"][name]["value"])

    print(f"{'workload':<12} {'metric':<36} {'unit':<7} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6} runs")
    for workload in chosen:
        for spec in specs:
            series = values[workload, spec["name"]]
            if not series:
                print(f"{workload:<12} {spec['name']:<36} missing")
                ok = False
                continue
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
            spread = (q3 - q1) / abs(median) if median else 0.0
            bound = f"{spec['bound']:>6}" if "bound" in spec else f"{'':>6}"
            shown = f"{spread:>7.3f}" if "bound" in spec else f"{'':>7}"
            print(f"{workload:<12} {spec['name']:<36} {spec['unit']:<7} {median:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {shown} {bound} {len(series)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
