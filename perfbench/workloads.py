"""The benchmark's workloads: inputs made from the seed, one operation,
and the checks every operation's outputs must pass.

rankcal is driven only through its public functions, looked up on their
modules at call time so that a traced run can wrap them. The program
receives only the generated inputs: corpus CSV files, arrays and model
text.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import rankcal
import rankcal.cli
import rankcal.simulate

from tracing import Tracer

# Criterion-2 gate on held-out pixels, and the criterion-5 parameter budget.
FORWARD_GATE_255 = 3.0
BACKWARD_GATE = 0.012
PARAMETERS = 408


@dataclass(frozen=True)
class Sizes:
    """Input sizes. The defaults are the benchmark; ``TINY`` is for the smoke test."""

    image_side: int = 90
    oneshot_pairs: int = 140
    rich_patches: int = 600
    illuminants: int = 4
    exposures: int = 5
    rich_pairs: int = 8000
    apply_pixels: int = 1_000_000
    apply_patches: int = 5000
    held_out: int = 1000
    config: rankcal.CalibrationConfig = field(default_factory=rankcal.CalibrationConfig)


TINY = Sizes(image_side=30, rich_patches=60, illuminants=2, exposures=2, rich_pairs=200,
             apply_pixels=20_000, apply_patches=100, held_out=200,
             config=rankcal.CalibrationConfig(sphere_count=20_000, trials=3))


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and WORKLOADS.md.

    A run sets up ``setups`` times before its first operation and
    ``setups_after_op`` times after each operation, for a median
    ``setup_s``. The short set-ups are spread over the run because their
    interpreter-bound speed changes from one second to the next; the
    ``apply-1M`` set-up holds a calibration, so it repeats only twice.
    """

    name: str
    calibrates_in_operation: bool
    setups: int
    setups_after_op: int


WORKLOADS = {
    w.name: w for w in (
        Workload("oneshot-140", True, 10, 10),
        Workload("rich-8000", True, 10, 10),
        Workload("apply-1M", False, 2, 0),
    )
}


@dataclass(frozen=True)
class Seeds:
    """Every random choice of one run, derived from the benchmark seed."""

    camera: int
    corpus: int
    illuminants: int
    subset: int
    calibration: int
    pixels: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        state = np.random.SeedSequence(seed).generate_state(6)
        return cls(*(int(s) % 1_000_000 for s in state))


@dataclass
class Inputs:
    camera: rankcal.SyntheticCamera
    corpus_path: Path
    subset: rankcal.SubsetSpec
    config: rankcal.CalibrationConfig
    pixels_raw: np.ndarray
    pixels_rendered: np.ndarray
    held_raw: np.ndarray
    held_rendered: np.ndarray
    apply_path: Path
    apply_raw: np.ndarray
    model_path: Path
    out_path: Path
    model_text: str | None = None
    calibrate_s: float | None = None


@dataclass
class Operation:
    text: str
    forward: np.ndarray
    backward: np.ndarray
    cli_code: int
    calibrate_s: float | None
    forward_s: float
    backward_s: float
    cli_s: float
    pixels: int
    cli_rows: int
    wall_s: float = 0.0
    traced: bool = False


def calibrate_file(inputs: Inputs, progress=None) -> str:
    """From corpus file to model text: the calibration the user runs."""
    corpus = rankcal.load_corpus(inputs.corpus_path)
    train = rankcal.select_subset(corpus, inputs.subset)
    model = rankcal.calibrate(train, inputs.config, progress)
    return rankcal.serialize_model(model)


def _image_corpus(camera, sizes: Sizes, seeds: Seeds, path: Path):
    image = rankcal.make_corpus(camera, sizes.image_side ** 2, rng_seed=seeds.corpus)
    rankcal.save_corpus(image, path)
    return image


def _multi_corpus(camera, patches: int, sizes: Sizes, seeds: Seeds, path: Path):
    corpus = rankcal.make_corpus(
        camera, patches,
        rankcal.simulate.make_illuminants(sizes.illuminants, seed=seeds.illuminants),
        rankcal.simulate.make_exposures(sizes.exposures),
        rng_seed=seeds.corpus,
    )
    rankcal.save_corpus(corpus, path)
    return corpus


def setup(workload: Workload, seed: int, sizes: Sizes, workdir: Path,
          progress=None) -> Inputs:
    """Make one workload's inputs from its seed and write its files."""
    seeds = Seeds.derive(seed)
    camera = rankcal.make_camera(seed=seeds.camera, tone=rankcal.ToneSpec("gamma", 1 / 2.2),
                                 gamut_mode="affine", quantize=True)
    rng = np.random.default_rng(seeds.pixels)
    corpus_path = workdir / "corpus.csv"
    if workload.name == "rich-8000":
        calib = _multi_corpus(camera, sizes.rich_patches, sizes, seeds, corpus_path)
        pairs = sizes.rich_pairs
    else:
        calib = _image_corpus(camera, sizes, seeds, corpus_path)
        pairs = sizes.oneshot_pairs
    held_raw = rng.uniform(0.0, 1.0, size=(sizes.held_out, 3))
    inputs = Inputs(
        camera=camera,
        corpus_path=corpus_path,
        subset=rankcal.SubsetSpec("uniform", k=pairs, rng_seed=seeds.subset),
        config=dataclasses.replace(sizes.config, rng_seed=seeds.calibration),
        pixels_raw=calib.raw,
        pixels_rendered=calib.rendered,
        held_raw=held_raw,
        held_rendered=rankcal.simulate.render_batch(camera, held_raw),
        apply_path=corpus_path,
        apply_raw=calib.raw,
        model_path=workdir / "model.txt",
        out_path=workdir / "predictions.csv",
    )
    if workload.calibrates_in_operation:
        return inputs

    t0 = time.perf_counter()
    inputs.model_text = calibrate_file(inputs, progress)
    inputs.calibrate_s = time.perf_counter() - t0
    inputs.model_path.write_text(inputs.model_text, encoding="utf-8")
    raw = rng.uniform(0.0, 1.0, size=(sizes.apply_pixels, 3))
    inputs.pixels_raw = inputs.held_raw = raw
    inputs.pixels_rendered = inputs.held_rendered = rankcal.simulate.render_batch(camera, raw)
    inputs.apply_path = workdir / "apply.csv"
    inputs.apply_raw = _multi_corpus(camera, sizes.apply_patches, sizes, seeds,
                                     inputs.apply_path).raw
    return inputs


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def operation(workload: Workload, inputs: Inputs, progress=None) -> Operation:
    """One timed operation: calibrate (unless done in set-up) and apply."""
    calibrate_s = None
    if workload.calibrates_in_operation:
        text, calibrate_s = _timed(lambda: calibrate_file(inputs, progress))
        inputs.model_path.write_text(text, encoding="utf-8")
    else:
        text = inputs.model_text
    model = rankcal.deserialize_model(text)
    forward, forward_s = _timed(lambda: rankcal.map_forward(model, inputs.pixels_raw))
    backward, backward_s = _timed(lambda: rankcal.map_backward(model, inputs.pixels_rendered))
    code, cli_s = _timed(lambda: rankcal.cli.main([
        "apply", "--model", str(inputs.model_path), "--direction", "forward",
        "--in", str(inputs.apply_path), "--out", str(inputs.out_path)]))
    return Operation(text, forward, backward, code, calibrate_s, forward_s, backward_s, cli_s,
                     inputs.pixels_raw.shape[0], inputs.apply_raw.shape[0])


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _angle_degrees(u, v) -> float:
    c = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


def _cli_mismatches(path: Path, expected: np.ndarray) -> int:
    """Rows of a ``rankcal apply`` output whose predictions differ from
    ``expected`` at the file's 17-significant-digit precision."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row[-3:] for row in csv.reader(fh)][1:]
    if len(rows) != expected.shape[0]:
        return max(len(rows), expected.shape[0])
    want = [[format(float(v), ".17g") for v in row] for row in expected]
    return sum(got != exp for got, exp in zip(rows, want))


def check(inputs: Inputs, op: Operation, reference: dict | None):
    """Failed checks of one operation, its accuracy, and its fingerprint.

    ``reference`` is the fingerprint of the run's first completed
    operation; every later one must match it byte for byte (criterion 10).
    """
    problems = []
    model = rankcal.deserialize_model(op.text)
    if rankcal.serialize_model(model) != op.text:
        problems.append("model text does not round-trip byte-identically")
    if rankcal.parameter_count(model) != PARAMETERS:
        problems.append(f"parameter_count is {rankcal.parameter_count(model)}, not {PARAMETERS}")
    for label, out in (("map_forward", op.forward), ("map_backward", op.backward)):
        if not (np.all(np.isfinite(out)) and out.min() >= 0.0 and out.max() <= 1.0):
            problems.append(f"{label} output is not finite and in [0, 1]")
    if op.cli_code != 0:
        problems.append(f"rankcal apply exited with {op.cli_code}")
    else:
        expected = rankcal.map_forward(model, inputs.apply_raw) * 255.0
        bad = _cli_mismatches(inputs.out_path, expected)
        if bad:
            problems.append(f"rankcal apply differs from map_forward on {bad} rows")

    if inputs.held_raw is inputs.pixels_raw:
        held_forward, held_backward = op.forward, op.backward
    else:
        held_forward = rankcal.map_forward(model, inputs.held_raw)
        held_backward = rankcal.map_backward(model, inputs.held_rendered)
    truth = inputs.camera.effective_matrix()
    accuracy = {
        "forward_rmse255": rankcal.rmse(held_forward, inputs.held_rendered, "rendered255"),
        "backward_rmse": rankcal.rmse(held_backward, inputs.held_raw, "raw01"),
        "row_angle_deg": max(_angle_degrees(model.matrix.rows[k], truth[k]) for k in range(3)),
    }
    # written so that a NaN error fails the gate
    if not accuracy["forward_rmse255"] <= FORWARD_GATE_255:
        problems.append(f"forward RMSE {accuracy['forward_rmse255']:.4f}/255 > {FORWARD_GATE_255}")
    if not accuracy["backward_rmse"] <= BACKWARD_GATE:
        problems.append(f"backward RMSE {accuracy['backward_rmse']:.6f} > {BACKWARD_GATE}")

    fingerprint = {"model": op.text, "forward": _digest(op.forward),
                   "backward": _digest(op.backward),
                   "cli": hashlib.sha256(inputs.out_path.read_bytes()).hexdigest()
                   if op.cli_code == 0 else None}
    if reference is not None:
        for key, value in fingerprint.items():
            if value != reference[key]:
                problems.append(f"{key} differs from the run's first operation")
    return problems, accuracy, fingerprint


@dataclass
class RunResult:
    workload: str
    setup_s: list
    ops: list
    failures: list
    accuracy: dict
    tracer: Tracer
    calibrate_in_setup_s: list

    @property
    def attempted(self) -> int:
        return len(self.failures)

    @property
    def failed(self) -> int:
        return sum(1 for f in self.failures if f)


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
        workdir: Path) -> RunResult:
    """Set up, then run operations until ``seconds`` have passed (at least two,
    so that determinism is checked). A traced run alternates untraced and
    traced operations and traces its last set-up before the operations."""
    workload = WORKLOADS[name]
    tracer = Tracer()
    setup_s, calibrate_in_setup_s, setup_models = [], [], set()

    def timed_setup(traced: bool) -> Inputs:
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.installed())
                stack.enter_context(tracer.span("bench.setup"))
            t0 = time.perf_counter()
            made = setup(workload, seed, sizes, workdir, tracer.progress if traced else None)
            elapsed = time.perf_counter() - t0
        setup_s.append(elapsed)
        if made.calibrate_s is not None:
            calibrate_in_setup_s.append(made.calibrate_s)
            setup_models.add(made.model_text)
        return made

    for i in range(workload.setups):
        inputs = timed_setup(trace and i == workload.setups - 1)

    ops, failures = [], []
    accuracy, reference = {}, None
    start = time.perf_counter()
    while len(failures) < 2 or time.perf_counter() - start < seconds:
        traced = trace and len(failures) % 2 == 1
        try:
            with contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(tracer.installed())
                    stack.enter_context(tracer.span("bench.op"))
                t0 = time.perf_counter()
                op = operation(workload, inputs, tracer.progress if traced else None)
                op.wall_s = time.perf_counter() - t0
            op.traced = traced
            problems, op_accuracy, fingerprint = check(inputs, op, reference)
        except Exception:  # a failed operation is counted, reported and not retried
            traceback.print_exc()
            problems = ["operation raised"]
        else:
            op.forward = op.backward = None  # keep peak memory independent of the op count
            ops.append(op)
            if reference is None:
                reference, accuracy = fingerprint, op_accuracy
        failures.append(problems)
        # these set-ups rewrite the same files; the operations keep the first inputs
        for _ in range(workload.setups_after_op):
            timed_setup(False)
    if len(setup_models) > 1:
        failures[0].append("model text differs between set-ups of the same seed")
    return RunResult(name, setup_s, ops, failures, accuracy, tracer, calibrate_in_setup_s)
