"""Session-scoped fixtures shared by the unit and acceptance suites.

The expensive artifacts (the 100k sphere, matrix estimates, and the full
gated calibration) are built once and reused wherever a test needs them.
"""

import time

import numpy as np
import pytest

from rankcal.dataset import rmse
from rankcal.pipeline import (CalibrationConfig, calibrate, estimate_matrix, map_backward,
                              map_forward)
from rankcal.ranking import sample_sphere
from rankcal.simulate import ToneSpec, make_camera, make_corpus, render_batch


@pytest.fixture(scope="session")
def sphere100k():
    return sample_sphere(100_000)


@pytest.fixture(scope="session")
def clean_bundle(sphere100k):
    """Noise-free, gamut-free camera with estimated row directions."""
    camera = make_camera(seed=21, delta=0.25, tone=ToneSpec("gamma", 1 / 2.2),
                         gamut_mode="none")
    corpus = make_corpus(camera, 140, rng_seed=5)
    estimated = estimate_matrix(corpus, sphere100k, rng_seed=3)
    return {"camera": camera, "corpus": corpus, "estimated": estimated}


@pytest.fixture(scope="session")
def noisy_bundle(sphere100k):
    """Same camera with rendered-domain noise sigma = 2/255."""
    camera = make_camera(seed=21, delta=0.25, tone=ToneSpec("gamma", 1 / 2.2),
                         gamut_mode="none", noise_sigma=2.0 / 255.0)
    corpus = make_corpus(camera, 140, rng_seed=5)
    estimated = estimate_matrix(corpus, sphere100k, rng_seed=3)
    return {"camera": camera, "corpus": corpus, "estimated": estimated}


@pytest.fixture(scope="session")
def gated_bundle():
    """Full calibration of the gating synthetic camera plus held-out RMSE."""
    camera = make_camera(seed=11, delta=0.25, tone=ToneSpec("gamma", 1 / 2.2),
                         gamut_mode="affine")
    train = make_corpus(camera, 140, rng_seed=5)
    t0 = time.perf_counter()
    model = calibrate(train, CalibrationConfig(rng_seed=3))
    seconds = time.perf_counter() - t0

    rng = np.random.default_rng(77)
    held_raw = rng.uniform(0.0, 1.0, size=(1000, 3))
    held_rendered = render_batch(camera, held_raw)
    forward = rmse(map_forward(model, held_raw), held_rendered, "rendered255")
    backward = rmse(map_backward(model, held_rendered), held_raw, "raw01")
    return {
        "camera": camera,
        "train": train,
        "model": model,
        "seconds": seconds,
        "held_raw": held_raw,
        "held_rendered": held_rendered,
        "forward_rmse": forward,
        "backward_rmse": backward,
    }
