"""rankcal benchmark: one run of one workload.

    python3 perfbench/run.py --workload oneshot-140 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports rankcal from ``src``.
The run sets up its inputs from the seed, runs operations for
``--seconds`` (at least two), checks every operation's outputs, prints a
table of its metrics and, as the last line of standard output, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics.
Generated files live under ``.perfbench_out/work-<pid>`` and are removed
at exit; the result and, for a traced run, the spans are written to
``.perfbench_out``. The exit code is 0 when every check passed, 1 when
one failed and 2 when the run was refused.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "calibrate_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def end_to_end(result) -> dict:
    """{name: (value, sample count)} for the untraced run."""
    calibrations = [op.calibrate_s for op in result.ops if op.calibrate_s is not None]
    calibrations = calibrations or result.calibrate_in_setup_s
    out = {"setup_s": (statistics.median(result.setup_s), len(result.setup_s))}
    if calibrations:
        out["calibrate_s"] = (statistics.median(calibrations), len(calibrations))
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    out["ok_frac"] = ((result.attempted - result.failed) / result.attempted, result.attempted)
    return out


def per_layer(result, layers, tracing) -> dict:
    """{name: (value, traced operations)} for the traced run."""
    values = layers.layer_metrics(result.tracer.spans, result.accuracy, result.ops,
                                  tracing.span_cost_seconds())
    traced = sum(1 for op in result.ops if op.traced)
    return {name: (value, traced) for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rankcal" / "__init__.py").is_file():
        print(f"error: no rankcal sources at {ROOT / 'src' / 'rankcal'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import env
    import layers
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    record = env.environment()
    refused = env.thread_violations(record)
    if refused:
        print("error: refusing to run: " + "; ".join(refused), file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               workloads.Sizes(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        measured, units = per_layer(result, layers, tracing), layers.UNITS
    else:
        measured, units = end_to_end(result), END_TO_END_UNITS
    missing = sorted(set(units) - set(measured))
    for index, problems in enumerate(result.failures):
        for problem in problems:
            print(f"check failed, operation {index}: {problem}", file=sys.stderr)
    correct = result.failed == 0 and not missing

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": record, "correct": correct,
              "attempted": result.attempted, "failed": result.failed,
              "failures": result.failures, "missing": missing, "setup_s": result.setup_s,
              "operations": [{"wall_s": op.wall_s, "calibrate_s": op.calibrate_s,
                              "traced": op.traced} for op in result.ops],
              "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                          for k, (v, n) in measured.items()}}
    (OUT / f"result-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        spans = [span.as_record() for span in result.tracer.spans]
        (OUT / f"trace-{stem}.json").write_text(json.dumps(
            {"environment": record, "spans": spans}) + "\n")

    print("environment: " + json.dumps(record, sort_keys=True))
    print(f"{'workload':<12} {'metric':<36} {'median':>14} {'unit':<7} samples")
    for name in units:
        if name in measured:
            value, n = measured[name]
            print(f"{args.workload:<12} {name:<36} {value:>14.6g} {units[name]:<7} {n}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in measured.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
