"""rankcal accuracy yardstick: held-out error of one-shot calibrations.

    python3 accbench/sweep.py                              # print the table
    python3 accbench/sweep.py --out accbench/ACCURACY.json # and write it

Run it from the root of a checkout; it imports rankcal from ``src``.
Each family is run clean and at rendered noise 2/255, quantized to 8
bits, on seeds 40-51: ``make_camera(seed=s, tone=..., gamut_mode=...,
noise_sigma=..., quantize=True)``, ``make_corpus(camera, 140,
rng_seed=s)`` and ``calibrate(corpus, CalibrationConfig(rng_seed=s))``.
A model is judged on 4,000 held-out raws, those of seed s drawn as
``np.random.default_rng(HELD_OUT_SEED + s).uniform(0, 1, (4000, 3))``,
which the same camera renders without noise or quantization. The
columns, for each family and noise level:

- ``fail``: calibrations that raised a ``CalibrationError`` (the JSON
  holds each seed and message);
- ``fwd /255``: the mean, over the calibrated cameras, of the forward
  RMSE on the held-out raws;
- ``dark /255``: the same on the held-out raws scaled into
  [0.005, 0.06];
- ``bwd``: the mean backward RMSE, in raw units, on the held-out pixels
  whose corrected raw (the value the camera clips to [0, 1] before its
  tone curve) lies inside (0, 1) in every channel;
- ``angle``: the largest angle, in degrees, of any calibrated model's
  matrix row from the camera's ``effective_matrix()`` row.

The model bytes do not depend on the BLAS thread count, so no number
here does. ``--seeds``, ``--sphere-count`` and ``--trials`` shrink the
sweep for the smoke test; the JSON records them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rankcal import (CalibrationConfig, CalibrationError, ToneSpec, calibrate,  # noqa: E402
                     make_camera, make_corpus, map_backward, map_forward, rmse)
from rankcal.ranking import DEFAULT_SPHERE_COUNT, DEFAULT_TRIALS  # noqa: E402
from rankcal.simulate import render_batch  # noqa: E402

# name: (tone, gamut mode)
FAMILIES = {
    "gamma 1/2.2 affine": (ToneSpec("gamma", 1 / 2.2), "affine"),
    "sRGB warped": (ToneSpec("srgb"), "warped"),
    "filmic warped": (ToneSpec("filmic"), "warped"),
    "gamma 0.7 none": (ToneSpec("gamma", 0.7), "none"),
    "gamma 1 affine": (ToneSpec("gamma", 1.0), "affine"),
}
NOISE255 = (0, 2)
SEEDS = tuple(range(40, 52))
PAIRS = 140
HELD_OUT = 4000
HELD_OUT_SEED = 1000
DARK = (0.005, 0.06)


def evaluate(camera, model, seed: int) -> dict:
    """Held-out errors of ``model`` against ``camera``, rendered clean."""
    clean = dataclasses.replace(camera, noise_sigma=0.0, quantize=False)
    raw = np.random.default_rng(HELD_OUT_SEED + seed).uniform(0.0, 1.0, (HELD_OUT, 3))
    dark = DARK[0] + (DARK[1] - DARK[0]) * raw
    rendered = render_batch(clean, raw)
    corrected = raw @ camera.matrix.rows.T
    if camera.gamut is not None:
        corrected = camera.gamut.apply(corrected)
    inside = np.all((corrected > 0.0) & (corrected < 1.0), axis=1)
    truth = camera.effective_matrix()
    rows = model.matrix.rows
    cosines = np.sum(rows * truth, axis=1) / (np.linalg.norm(rows, axis=1)
                                              * np.linalg.norm(truth, axis=1))
    return {
        "seed": seed,
        "forward255": rmse(map_forward(model, raw), rendered),
        "dark255": rmse(map_forward(model, dark), render_batch(clean, dark)),
        "backward": rmse(map_backward(model, rendered[inside]), raw[inside], "raw01"),
        "angle_deg": float(np.degrees(np.arccos(np.clip(cosines, -1.0, 1.0))).max()),
    }


def sweep(seeds=SEEDS, sphere_count=DEFAULT_SPHERE_COUNT, trials=DEFAULT_TRIALS) -> dict:
    rows = []
    for family, (tone, gamut_mode) in FAMILIES.items():
        for noise in NOISE255:
            failures, cameras = [], []
            for seed in seeds:
                camera = make_camera(seed=seed, tone=tone, gamut_mode=gamut_mode,
                                     noise_sigma=noise / 255.0, quantize=True)
                corpus = make_corpus(camera, PAIRS, rng_seed=seed)
                try:
                    model = calibrate(corpus, CalibrationConfig(
                        rng_seed=seed, sphere_count=sphere_count, trials=trials))
                except CalibrationError as exc:
                    failures.append({"seed": seed, "error": str(exc)})
                    continue
                cameras.append(evaluate(camera, model, seed))
            rows.append({
                "family": family,
                "noise255": noise,
                "failures": failures,
                **{key: float(np.mean([c[key] for c in cameras])) if cameras else None
                   for key in ("forward255", "dark255", "backward")},
                "angle_deg": max((c["angle_deg"] for c in cameras), default=None),
                "cameras": cameras,
            })
    config = {"seeds": list(seeds), "pairs": PAIRS, "held_out": HELD_OUT,
              "held_out_seed": HELD_OUT_SEED, "dark": list(DARK),
              "sphere_count": sphere_count, "trials": trials, "numpy": np.__version__}
    return {"config": config, "rows": rows}


def table(result: dict) -> str:
    def cell(value, digits, suffix=""):
        return "-" if value is None else f"{value:.{digits}f}{suffix}"

    lines = ["| Family | noise | fail | fwd /255 | dark /255 | bwd | angle |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for r in result["rows"]:
        lines.append(f"| {r['family']} | {r['noise255']} | {len(r['failures'])} | "
                     f"{cell(r['forward255'], 3)} | {cell(r['dark255'], 3)} | "
                     f"{cell(r['backward'], 4)} | {cell(r['angle_deg'], 2, '°')} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the result as JSON here")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    parser.add_argument("--sphere-count", type=int, default=DEFAULT_SPHERE_COUNT)
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    args = parser.parse_args(argv)
    result = sweep(args.seeds, args.sphere_count, args.trials)
    print(table(result))
    for r in result["rows"]:
        for f in r["failures"]:
            print(f"{r['family']}, noise {r['noise255']}: seed {f['seed']}: {f['error']}")
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
