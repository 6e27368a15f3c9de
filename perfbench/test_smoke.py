"""Smoke test of the benchmark itself, at tiny sizes (about 15 s).

    python3 -m pytest perfbench/test_smoke.py -q

It runs every workload untraced and traced with ``workloads.TINY`` and
checks that the outputs pass, that every metric BENCHMARK.json names is
emitted with its unit, that tracing leaves no wrapper behind and changes
no model byte, and that the benchmark refuses to run without the
program's sources or with more threads than CPUs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import env  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            workdir = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            out[name, trace] = workloads.run(name, 5, 0.0, trace, workloads.TINY, workdir)
    return out


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_every_check_passes_at_tiny_sizes(results):
    for key, result in results.items():
        assert result.attempted >= 2, key
        assert result.failed == 0, (key, result.failures)


def test_every_end_to_end_metric_is_emitted_with_its_unit(results):
    for name in workloads.WORKLOADS:
        measured = run.end_to_end(results[name, False])
        for spec in BENCH["end_to_end"]:
            assert spec["name"] in measured, (name, spec["name"])
            assert run.END_TO_END_UNITS[spec["name"]] == spec["unit"], spec["name"]
            assert measured[spec["name"]][0] > 0, (name, spec["name"])


def test_every_per_layer_metric_is_emitted_with_its_unit(results):
    assert [s["name"] for s in BENCH["per_layer"]] == list(layers.UNITS)
    for name in workloads.WORKLOADS:
        measured = run.per_layer(results[name, True], layers, tracing)
        for spec in BENCH["per_layer"]:
            assert spec["name"] in measured, (name, spec["name"])
            assert layers.UNITS[spec["name"]] == spec["unit"], spec["name"]


# Per-layer metrics that may read 0 on correct code: no QP fails, the
# measured overhead is a difference of two timings, and on apply-1M only
# the set-up selects a subset and serializes a model.
MAY_BE_ZERO = {"qp.failed", "trace.overhead_s"}
NOT_CALLED = {"apply-1M": {"dataset.select_subset_s", "modelfile.serialize_model_s"}}


def test_every_layer_the_workload_calls_is_measured(results):
    """A wrapper that its caller no longer resolves would read 0."""
    for name in workloads.WORKLOADS:
        measured = run.per_layer(results[name, True], layers, tracing)
        skipped = MAY_BE_ZERO | NOT_CALLED.get(name, set())
        for metric, (value, _) in measured.items():
            if metric in skipped:
                continue
            assert value > 0, (name, metric)
        for metric in NOT_CALLED.get(name, ()):
            assert measured[metric][0] == 0, (name, metric)


def test_tracing_wrappers_are_removed_after_a_traced_run(results):
    assert any(r.tracer.spans for r in results.values())
    assert tracing.wrappers_present() == []


def test_tracing_changes_no_model_byte(results):
    for name in workloads.WORKLOADS:
        traced_run = results[name, True]
        assert [op.traced for op in traced_run.ops[:2]] == [False, True]
        texts = {op.text for op in traced_run.ops} | {op.text for op in results[name, False].ops}
        assert len(texts) == 1, name


def test_refuses_more_threads_than_cpus():
    record = env.environment()
    assert env.thread_violations(record) == []
    record["blas"] = dict(record["blas"], threads=record["nproc"] + 1)
    assert env.thread_violations(record)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "oneshot-140", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
