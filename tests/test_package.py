"""Tests for the package surface: the public names and the runtime imports."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import rankcal

PUBLIC = [
    "CalibrationConfig", "CalibrationError", "CorpusFormatError", "DegenerateChannel",
    "DegenerateGeometry", "DegenerateSpan", "EmptyCorpus", "Infeasible", "InsufficientData",
    "InsufficientVariety", "MaxIterations", "ModelParseError", "NoAchromaticSample",
    "PipelineModel", "PixelPairSet", "SingularMatrix", "SubsetSpec", "SyntheticCamera",
    "ToneSpec", "backward_parameter_count", "calibrate", "deserialize_model", "load_corpus",
    "make_camera", "make_corpus", "map_backward", "map_forward", "parameter_count", "rmse",
    "save_corpus", "select_subset", "serialize_model",
]

# stage internals that left the package root, by the module that defines them
MOVED = {
    "rankcal.ranking": ["build_half_spaces", "estimate_row", "monotonicity_score",
                        "sample_sphere", "SphereSample", "rescale_achromatic"],
    "rankcal.pipeline": ["estimate_matrix"],
    "rankcal.tonefit": ["fit_monotone", "fit_forward_tones", "fit_inverse_tones"],
    "rankcal.gamut": ["fit_lattice", "apply_lattice", "solve_affine_gamut", "AffineGamutMap"],
    "rankcal.qp": ["solve_qp", "QuadProgram", "QpSolution"],
    "rankcal.model": ["ColorMatrix", "ToneCurve", "Lattice3", "ModelMetadata"],
}


def test_public_names_are_pinned_and_resolve():
    assert rankcal.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(rankcal, name) is not None, name


def test_moved_names_live_in_their_module_only():
    assert sum(map(len, MOVED.values())) == 21
    for module, names in MOVED.items():
        found = importlib.import_module(module)
        for name in names:
            assert getattr(found, name).__module__ == module, name
            assert not hasattr(rankcal, name), name


def _imported(args, cwd) -> set[str]:
    """Top-level names of every module a fresh interpreter imports for ``args``."""
    src = str(Path(rankcal.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    names = set()
    for line in done.stderr.splitlines():
        if line.startswith("import time:") and not line.endswith("imported package"):
            names.add(line.rsplit("|", 1)[1].strip().split(".")[0])
    return names


def test_command_line_imports_only_stdlib_numpy_and_rankcal(tmp_path):
    # modules the interpreter loads at start-up, whatever it then runs
    startup = _imported(["-c", "pass"], tmp_path)
    used = set()
    for command in (
        ["simulate", "--out", "c.csv", "--patches", "140", "--seed", "1", "--quantize"],
        ["calibrate", "--data", "c.csv", "--out", "m.txt", "--sphere-count", "2000",
         "--trials", "2"],
        ["evaluate", "--model", "m.txt", "--data", "c.csv", "--direction", "backward",
         "--report", "r.txt"],
    ):
        used |= _imported(["-m", "rankcal", *command], tmp_path)
    assert {"rankcal", "numpy"} <= used
    foreign = used - startup - set(sys.stdlib_module_names) - {"numpy", "rankcal"}
    # the log also lists imports that failed, such as the stdlib's guarded
    # "import org.python.core"; a module that cannot be found was not loaded
    foreign = {name for name in foreign if importlib.util.find_spec(name) is not None}
    assert not foreign, sorted(foreign)


_NEW_NUMPY_MODULES = """
import sys
import rankcal
from rankcal.simulate import make_camera, make_corpus

# the corpus is drawn with numpy.random, which calibrate also uses
pairs = make_corpus(make_camera(seed=1, gamut_mode="warped", quantize=True), 140, rng_seed=2)
before = set(sys.modules)
model = rankcal.calibrate(pairs, rankcal.CalibrationConfig(sphere_count=2000, trials=2))
rankcal.map_forward(model, pairs.raw)
rankcal.map_backward(model, pairs.rendered)
rankcal.serialize_model(model)
print(" ".join(sorted(m for m in set(sys.modules) - before if m.startswith("numpy"))))
"""


def test_calibration_imports_no_numpy_submodule(tmp_path):
    # np.unique and np.median import numpy.ma, and polyval numpy.polynomial,
    # on the first call: a cost that every one-shot calibration paid
    src = str(Path(rankcal.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _NEW_NUMPY_MODULES], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == []
