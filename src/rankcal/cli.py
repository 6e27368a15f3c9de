"""Command-line front end: simulate, calibrate, apply, evaluate.

Machine-readable results go to files; human diagnostics go to stderr.
Exit codes: 0 success, 1 runtime error, 2 usage error. All commands are
deterministic for fixed flags, files, and seeds.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .dataset import (
    CSV_COLUMNS,
    _format_rows,
    load_corpus,
    parse_subset_spec,
    rmse,
    save_corpus,
    select_subset,
)
from .errors import CalibrationError
from .model import backward_parameter_count, parameter_count
from .modelfile import _fmt, deserialize_model, serialize_model
from .pipeline import CalibrationConfig, calibrate, map_backward, map_forward
from .ranking import DEFAULT_SPHERE_COUNT, DEFAULT_TRIALS
from .simulate import (
    ToneSpec,
    make_camera,
    make_corpus,
    make_exposures,
    make_illuminants,
    serialize_camera,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankcal",
        description="Recover and apply a camera's colour rendering pipeline "
                    "from RAW/rendered pixel pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write a synthetic corpus CSV")
    p_sim.add_argument("--out", required=True, help="corpus CSV to write")
    p_sim.add_argument("--patches", type=int, required=True)
    p_sim.add_argument("--illuminants", type=int, default=1)
    p_sim.add_argument("--exposures", type=int, default=1)
    p_sim.add_argument("--gamma", type=float, default=1.0 / 2.2,
                       help="exponent of the gamma tone family; must be finite and "
                            "> 0 for every family, as the truth sidecar records it")
    p_sim.add_argument("--tone", choices=("gamma", "srgb", "filmic"),
                       default="gamma")
    p_sim.add_argument("--gamut", choices=("none", "affine", "warped"),
                       default="affine")
    p_sim.add_argument("--noise", type=float, default=0.0,
                       help="rendered-domain gaussian sigma")
    p_sim.add_argument("--quantize", action="store_true",
                       help="round rendered values to 1/255 steps")
    p_sim.add_argument("--delta", type=float, default=0.25,
                       help="matrix off-diagonal perturbation scale")
    p_sim.add_argument("--seed", type=int, default=0)

    p_cal = sub.add_parser("calibrate", help="fit a pipeline model from a corpus")
    p_cal.add_argument("--data", required=True, help="corpus CSV")
    p_cal.add_argument("--subset", default="all",
                       help="all | uniform:K | exp:E,illu:I")
    p_cal.add_argument("--out", required=True, help="model file to write")
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.add_argument("--sphere-count", type=int, default=DEFAULT_SPHERE_COUNT,
                       help="row-search directions on the unit sphere; "
                            "an even count, in antipodal pairs")
    p_cal.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                       help="random colour subsets per matrix row")

    p_app = sub.add_parser("apply", help="map every row through a model")
    p_app.add_argument("--model", required=True)
    p_app.add_argument("--direction", choices=("forward", "backward"),
                       required=True)
    p_app.add_argument("--in", dest="infile", required=True, help="corpus CSV")
    p_app.add_argument("--out", required=True, help="CSV with pred_* columns")

    p_eval = sub.add_parser("evaluate", help="report RMSE against a corpus")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True, help="corpus CSV")
    p_eval.add_argument("--direction", choices=("forward", "backward"),
                        required=True)
    p_eval.add_argument("--report", required=True, help="report text file")
    p_eval.add_argument("--errormap", help="binary PPM error map to write")
    p_eval.add_argument("--width", type=int)
    p_eval.add_argument("--height", type=int)
    return parser


def _cmd_simulate(args, parser) -> int:
    if args.patches < 1:
        parser.error("--patches must be >= 1")
    if args.illuminants < 1 or args.exposures < 1:
        parser.error("--illuminants and --exposures must be >= 1")
    if not 0 <= args.noise < float("inf"):
        parser.error("--noise must be finite and >= 0")
    camera = make_camera(
        seed=args.seed,
        delta=args.delta,
        tone=ToneSpec(args.tone, args.gamma),
        gamut_mode=args.gamut,
        noise_sigma=args.noise,
        quantize=args.quantize,
    )
    illuminants = make_illuminants(args.illuminants, seed=args.seed + 1)
    exposures = make_exposures(args.exposures)
    corpus = make_corpus(camera, args.patches, illuminants, exposures,
                         rng_seed=args.seed + 2)
    save_corpus(corpus, args.out)
    with open(args.out + ".truth.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_camera(camera))
    print(f"wrote {len(corpus)} rows to {args.out}", file=sys.stderr)
    return 0


def _cmd_calibrate(args) -> int:
    cfg = CalibrationConfig(rng_seed=args.seed, sphere_count=args.sphere_count,
                            trials=args.trials)
    corpus = load_corpus(args.data)
    spec = parse_subset_spec(args.subset, rng_seed=args.seed)
    train = corpus if spec is None else select_subset(corpus, spec)

    def progress(stage: str, seconds: float) -> None:
        print(f"stage {stage}: {seconds:.2f} s", file=sys.stderr)

    model = calibrate(train, cfg, progress)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_model(model))
    print(f"parameters: {parameter_count(model)}")
    print(f"backward parameters: {backward_parameter_count(model)}")
    return 0


def _cmd_apply(args) -> int:
    with open(args.model, "r", encoding="utf-8") as fh:
        model = deserialize_model(fh.read())
    rows = []
    corpus = load_corpus(args.infile, rows)
    if args.direction == "forward":
        pred = map_forward(model, corpus.raw) * 255.0  # rendered predictions in jpeg units
    else:
        pred = map_backward(model, corpus.rendered)

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS + ("pred_r", "pred_g", "pred_b")) + "\n")
        start = 0
        for texts, white in rows:
            block = pred[start:start + len(texts)]
            if args.direction == "backward":
                block = block * white[:, None]  # raw predictions at white level
            fh.write(_format_rows("%s,%.17g,%.17g,%.17g\n", [texts] + block.T.tolist()))
            start += len(texts)
    print(f"wrote {len(corpus)} predictions to {args.out}", file=sys.stderr)
    return 0


def _cmd_evaluate(args, parser) -> int:
    if args.errormap is not None and (args.width is None or args.height is None):
        parser.error("--errormap requires --width and --height")
    if any(size is not None and size < 1 for size in (args.width, args.height)):
        parser.error("--width and --height must be >= 1")
    with open(args.model, "r", encoding="utf-8") as fh:
        model = deserialize_model(fh.read())
    corpus = load_corpus(args.data)
    if args.direction == "forward":
        pred = map_forward(model, corpus.raw)
        truth = corpus.rendered
        total = rmse(pred, truth, "rendered255")
        per_pixel = 255.0 * np.sqrt(np.mean((pred - truth) ** 2, axis=1))
    else:
        pred = map_backward(model, corpus.rendered)
        truth = corpus.raw
        total = rmse(pred, truth, "raw01")
        per_pixel = np.sqrt(np.mean((pred - truth) ** 2, axis=1))

    lines = [
        f"direction: {args.direction}",
        f"samples: {len(corpus)}",
        f"rmse: {total:.3f}",
        f"rmse_exact: {_fmt(total)}",
    ]
    if args.errormap is not None:
        if args.width * args.height != len(corpus):
            raise CalibrationError(
                f"errormap is {args.width}x{args.height} = "
                f"{args.width * args.height} pixels but the corpus has "
                f"{len(corpus)} rows"
            )
        scale = float(per_pixel.max())
        if scale <= 0.0:
            scale = 1.0
        grey = np.round(255.0 * np.clip(per_pixel / scale, 0.0, 1.0)).astype(np.uint8)
        pixels = np.repeat(grey[:, None], 3, axis=1).reshape(-1)
        with open(args.errormap, "wb") as fh:
            fh.write(f"P6\n{args.width} {args.height}\n255\n".encode("ascii"))
            fh.write(pixels.tobytes())
        lines.append(f"errormap: {os.path.basename(args.errormap)}")
        lines.append(f"errormap_scale: {_fmt(scale)}")
    with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"rmse: {total:.3f}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args, parser)
        if args.command == "calibrate":
            return _cmd_calibrate(args)
        if args.command == "apply":
            return _cmd_apply(args)
        return _cmd_evaluate(args, parser)
    except (CalibrationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
