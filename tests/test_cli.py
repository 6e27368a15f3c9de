"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankcal

from rankcal.cli import build_parser, main
from rankcal.dataset import CSV_COLUMNS, load_corpus, save_corpus
from rankcal.model import ColorMatrix, Lattice3, PipelineModel, PixelPairSet, ToneCurve
from rankcal.modelfile import deserialize_model, serialize_model
from rankcal.pipeline import CalibrationConfig, calibrate
from rankcal.simulate import ToneSpec, deserialize_camera, make_camera, make_corpus

FAST = ["--sphere-count", "20000", "--trials", "4"]


def run(argv):
    return main([str(a) for a in argv])


def child_env(**variables) -> dict:
    """The environment, with ``variables``, of a child process that imports
    the rankcal this suite tests."""
    src = str(Path(rankcal.__file__).resolve().parents[1])
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def write_identity_model(path):
    path.write_text(serialize_model(PipelineModel.identity()), encoding="utf-8")


def write_identity_corpus(path, n=40, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.02, 0.95, size=(n, 3))
    save_corpus(PixelPairSet.from_arrays(raw, raw), path)


class TestSimulateCommand:
    def test_writes_corpus_and_truth_sidecar(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run(["simulate", "--out", out, "--patches", 140, "--seed", 3])
        assert code == 0
        corpus = load_corpus(out)
        assert len(corpus) == 140
        camera = deserialize_camera((tmp_path / "c.csv.truth.txt").read_text())
        assert camera.seed == 3

    def test_multi_condition_row_count(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["simulate", "--out", out, "--patches", 10,
                    "--illuminants", 2, "--exposures", 3, "--seed", 1]) == 0
        assert len(load_corpus(out)) == 60

    def test_zero_patches_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--out", tmp_path / "c.csv", "--patches", 0])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--illuminants", "--exposures"])
    def test_zero_conditions_is_usage_error(self, tmp_path, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--out", tmp_path / "c.csv", "--patches", 10, flag, 0])
        assert exc.value.code == 2
        assert "--illuminants and --exposures must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-0.1"])
    def test_bad_noise_is_usage_error(self, tmp_path, noise, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--out", tmp_path / "c.csv", "--patches", 10,
                 "--noise", noise])
        assert exc.value.code == 2
        assert "--noise must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_same_seed_same_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        flags = ["--patches", 60, "--illuminants", 2, "--exposures", 2,
                 "--noise", 0.004, "--quantize", "--seed", 11]
        assert run(["simulate", "--out", a] + flags) == 0
        assert run(["simulate", "--out", b] + flags) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.truth.txt").read_bytes() == \
               (tmp_path / "b.csv.truth.txt").read_bytes()


class TestCalibrateCommand:
    def test_calibrates_and_prints_parameter_count(self, tmp_path, capsys):
        data = tmp_path / "c.csv"
        run(["simulate", "--out", data, "--patches", 200, "--seed", 5])
        model_path = tmp_path / "m.txt"
        code = run(["calibrate", "--data", data, "--subset", "uniform:140",
                    "--out", model_path, "--seed", 2] + FAST)
        assert code == 0
        out = capsys.readouterr()
        assert "parameters: 408" in out.out
        assert "stage matrix:" in out.err
        model = deserialize_model(model_path.read_text())
        assert model.metadata.samples == 140

    def test_deterministic_model_files(self, tmp_path):
        data = tmp_path / "c.csv"
        run(["simulate", "--out", data, "--patches", 120, "--seed", 6])
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for path in (a, b):
            assert run(["calibrate", "--data", data, "--out", path,
                        "--seed", 9] + FAST) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_data_file_exits_1(self, tmp_path, capsys):
        code = run(["calibrate", "--data", tmp_path / "nope.csv",
                    "--out", tmp_path / "m.txt"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_subset_spec_exits_1(self, tmp_path):
        data = tmp_path / "c.csv"
        run(["simulate", "--out", data, "--patches", 60, "--seed", 1])
        assert run(["calibrate", "--data", data, "--subset", "bogus",
                    "--out", tmp_path / "m.txt"]) == 1

    def test_odd_sphere_count_exits_1_naming_it(self, tmp_path, capsys):
        data = tmp_path / "c.csv"
        run(["simulate", "--out", data, "--patches", 140, "--seed", 1, "--quantize"])
        model = tmp_path / "m.txt"
        assert run(["calibrate", "--data", data, "--out", model,
                    "--sphere-count", 2001, "--trials", 2]) == 1
        assert "sphere_count must be even, got 2001" in capsys.readouterr().err
        assert not model.exists()

    def test_one_trial_writes_the_library_model(self, tmp_path):
        data, model = tmp_path / "c.csv", tmp_path / "m.txt"
        run(["simulate", "--out", data, "--patches", 140, "--seed", 1, "--quantize"])
        assert run(["calibrate", "--data", data, "--out", model,
                    "--sphere-count", 2000, "--trials", 1]) == 0
        cfg = CalibrationConfig(sphere_count=2000, trials=1)
        assert model.read_text(encoding="utf-8") == serialize_model(
            calibrate(load_corpus(data), cfg))
        assert "meta.setting.trials = 1\n" in model.read_text(encoding="utf-8")

    def test_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["calibrate", "--data", "c.csv", "--out", "m.txt"])
        cfg = CalibrationConfig()
        assert (args.sphere_count, args.trials) == (cfg.sphere_count, cfg.trials)

    @pytest.mark.parametrize("row, message", [
        (b"caf\xe9,i0,e0,p0,1,2,3,4,5,6,1000", "not UTF-8 text (byte 0xe9)"),
        (b"cam,i0,e0,p0,1,2,3,4,5,6,1e-320", "raw / white_level overflows"),
        (b'"cam",i0,e0,p0,1,2,3,4,5,6,1e-320', "raw / white_level overflows"),
    ])
    def test_bad_row_exits_1_naming_line(self, tmp_path, capsys, row, message):
        data, model = tmp_path / "c.csv", tmp_path / "m.txt"
        data.write_bytes(",".join(CSV_COLUMNS).encode() + b"\n" + row + b"\n")
        assert run(["calibrate", "--data", data, "--out", model]) == 1
        assert capsys.readouterr().err == f"error: {data}: line 2: {message}\n"
        assert not model.exists()

    def test_over_long_field_exits_1_naming_line(self, tmp_path, capsys):
        data = tmp_path / "c.csv"
        data.write_text(",".join(CSV_COLUMNS) + "\ncam,i0,e0," + "p" * 200_000
                        + ",1,2,3,4,5,6,1000\n", encoding="utf-8")
        assert run(["calibrate", "--data", data, "--out", tmp_path / "m.txt"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: line 2: field larger than field limit")
        assert not (tmp_path / "m.txt").exists()

    def test_camera_tag_with_line_break_writes_no_model(self, tmp_path, capsys):
        data = tmp_path / "c.csv"
        run(["simulate", "--out", data, "--patches", 60, "--seed", 1])
        text = data.read_text(encoding="utf-8").replace("\nsim1,", '\n"sim1\nA",')
        data.write_text(text, encoding="utf-8")
        assert load_corpus(data).camera[0] == "sim1\nA"
        model = tmp_path / "m.txt"
        assert run(["calibrate", "--data", data, "--out", model] + FAST) == 1
        err = capsys.readouterr().err
        assert "error: stage 'assemble': model metadata 'sim1\\nA' holds a line break" in err
        assert not model.exists()


def write_warped_model(path):
    """A model whose every layer moves values, built without libm or BLAS
    calls: a diagonal power-of-two matrix, exact polynomial tones and
    seeded lattice offsets."""
    rng = np.random.default_rng(303)
    forward = [0.0, 1.25, -0.25] + [0.0] * 5
    inverse = [0.0, 0.8, 0.128, 0.04096] + [0.0] * 4
    model = PipelineModel(
        matrix=ColorMatrix(np.diag([1.0, 0.5, 1.0])),
        forward_tones=(ToneCurve(forward),) * 3,
        forward_lut=Lattice3(Lattice3.identity(5).nodes + rng.uniform(-0.02, 0.02, (5, 5, 5, 3))),
        inverse_tones=(ToneCurve(inverse),) * 3,
        backward_lut=Lattice3(Lattice3.identity(5).nodes + rng.uniform(-0.02, 0.02, (5, 5, 5, 3))),
    )
    path.write_text(serialize_model(model), encoding="utf-8")


# The file text of format version 1. The warped model's file was written
# when each tone curve still stored its direction and channel; its keys
# now come from the curves' places, and must not move without a
# FORMAT_VERSION bump.
WARPED_MODEL_SHA256 = "7efee6f03a8720b516cc6cbe92a65d4f17fd1fcfb2d8c43ec427fa9597e4e00f"
WARPED_MODEL_FILE = Path(__file__).parent / "data" / "warped_model.txt"


def test_model_file_text_is_pinned(tmp_path):
    write_warped_model(tmp_path / "m.txt")
    written = (tmp_path / "m.txt").read_bytes()
    assert hashlib.sha256(written).hexdigest() == WARPED_MODEL_SHA256
    kept = WARPED_MODEL_FILE.read_text(encoding="utf-8")
    assert serialize_model(deserialize_model(kept)).encode("utf-8") == written


def write_sensor_corpus(path, n=500):
    """Integer sensor counts at white levels 1023 and 4095, with a comment,
    a blank line and '#' inside patch tags."""
    rng = np.random.default_rng(404)
    white = np.where(np.arange(n) % 2, 1023, 4095)
    raw = (rng.uniform(0.0, 1.0, (n, 3)) * white[:, None]).astype(int)
    jpeg = rng.integers(0, 256, (n, 3))
    lines = ["# sensor counts", ",".join(CSV_COLUMNS), ""]
    for i in range(n):
        lines.append(",".join([f"cam9,i{i % 3},e{i % 2}", f"p#{i}"]
                              + [str(v) for v in raw[i]] + [str(v) for v in jpeg[i]]
                              + [str(white[i])]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestApplyCommand:
    def test_identity_model_reproduces_inputs(self, tmp_path):
        data = tmp_path / "c.csv"
        write_identity_corpus(data)
        model = tmp_path / "m.txt"
        write_identity_model(model)
        out = tmp_path / "p.csv"
        assert run(["apply", "--model", model, "--direction", "forward",
                    "--in", data, "--out", out]) == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[-3:] == ["pred_r", "pred_g", "pred_b"]
        for line in lines[1:]:
            fields = line.split(",")
            jpeg = np.array([float(v) for v in fields[7:10]])
            pred = np.array([float(v) for v in fields[11:14]])
            assert np.allclose(pred, jpeg, atol=1e-9)

    def test_backward_units_follow_white_level(self, tmp_path):
        data = tmp_path / "c.csv"
        data.write_text(
            "camera,illuminant,exposure,patch,raw_r,raw_g,raw_b,"
            "jpeg_r,jpeg_g,jpeg_b,white_level\n"
            "cam,i0,e0,p0,200,400,600,51,102,153,1000\n",
            encoding="utf-8",
        )
        model = tmp_path / "m.txt"
        write_identity_model(model)
        out = tmp_path / "p.csv"
        assert run(["apply", "--model", model, "--direction", "backward",
                    "--in", data, "--out", out]) == 0
        fields = out.read_text().strip().split("\n")[1].split(",")
        pred = np.array([float(v) for v in fields[11:14]])
        assert np.allclose(pred, [200.0, 400.0, 600.0], atol=1e-9)

    # Digests recorded from the row-at-a-time writer, whose bytes the
    # batched writer must reproduce.
    @pytest.mark.parametrize("direction, digest", [
        ("forward", "b0b95f546b3223b5b23364ec91f0cef62a352b9ece7fff12102da1183bf8c29c"),
        ("backward", "e62f90224046cdb7f183c47c2bb7edf0e0a7c996be7c5ce77f8fbde4e75f7ea0"),
    ])
    def test_output_bytes(self, tmp_path, direction, digest):
        data, model, out = tmp_path / "c.csv", tmp_path / "m.txt", tmp_path / "p.csv"
        write_sensor_corpus(data)
        write_warped_model(model)
        assert run(["apply", "--model", model, "--direction", direction,
                    "--in", data, "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_model_with_byte_order_mark(self, tmp_path):
        # an editor may save the model with a UTF-8 byte-order mark
        data, plain, marked = tmp_path / "c.csv", tmp_path / "m.txt", tmp_path / "bom.txt"
        write_sensor_corpus(data, n=20)
        write_warped_model(plain)
        marked.write_text("\ufeff" + plain.read_text(encoding="utf-8"), encoding="utf-8")
        outputs = []
        for model in (plain, marked):
            out = model.with_suffix(".csv")
            assert run(["apply", "--model", model, "--direction", "forward",
                        "--in", data, "--out", out]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_quoted_input_echoed_unquoted(self, tmp_path, direction):
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        write_sensor_corpus(plain, n=20)
        text = plain.read_text(encoding="utf-8")
        quoted.write_text(text.replace("cam9,", '"cam9",').replace("\n", "\r\n"),
                          encoding="utf-8")
        model = tmp_path / "m.txt"
        write_warped_model(model)
        for data in (plain, quoted):
            assert run(["apply", "--model", model, "--direction", direction,
                        "--in", data, "--out", data.with_suffix(".out")]) == 0
        assert quoted.with_suffix(".out").read_bytes() == plain.with_suffix(".out").read_bytes()

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_quoted_tags_echoed_as_csv(self, tmp_path, direction):
        # tags that only a quoted field can hold: a comma, a quote, line breaks
        tags = ["c,A", 'c"B', "c\nC", "c\r\nD", "plain"]
        data = tmp_path / "c.csv"
        quoted = ['"' + t.replace('"', '""') + '"' for t in tags]
        data.write_text(",".join(CSV_COLUMNS) + "\n" + "".join(
            f"{t},i0,e0,p{k},100,200,300,10,20,30,1000\n" for k, t in enumerate(quoted)),
            encoding="utf-8", newline="")
        model, out = tmp_path / "m.txt", tmp_path / "p.csv"
        write_warped_model(model)
        assert run(["apply", "--model", model, "--direction", direction,
                    "--in", data, "--out", out]) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(header) == 14 and [len(row) for row in rows] == [14] * len(tags)
        assert [row[0] for row in rows] == tags
        assert [row[3] for row in rows] == [f"p{k}" for k in range(len(tags))]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_sensor_corpus(plain, n=20)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        model = tmp_path / "m.txt"
        write_warped_model(model)
        for data in (plain, marked):
            assert run(["apply", "--model", model, "--direction", "forward",
                        "--in", data, "--out", data.with_suffix(".out")]) == 0
        assert marked.with_suffix(".out").read_bytes() == plain.with_suffix(".out").read_bytes()

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_reads_standard_input(self, tmp_path, direction):
        data, model = tmp_path / "c.csv", tmp_path / "m.txt"
        write_sensor_corpus(data, n=50)
        write_warped_model(model)
        assert run(["apply", "--model", model, "--direction", direction,
                    "--in", data, "--out", tmp_path / "file.csv"]) == 0
        # input= feeds standard input through a pipe, which reads only once
        done = subprocess.run(
            [sys.executable, "-m", "rankcal", "apply", "--model", str(model),
             "--direction", direction, "--in", "/dev/stdin", "--out", str(tmp_path / "pipe.csv")],
            input=data.read_bytes(), env=child_env(), capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        assert (tmp_path / "pipe.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()

    def test_missing_model_exits_1(self, tmp_path):
        data = tmp_path / "c.csv"
        write_identity_corpus(data)
        assert run(["apply", "--model", tmp_path / "nope.txt",
                    "--direction", "forward", "--in", data,
                    "--out", tmp_path / "p.csv"]) == 1


class TestEvaluateCommand:
    def test_perfect_predictions_report_zero(self, tmp_path):
        data = tmp_path / "c.csv"
        write_identity_corpus(data)
        model = tmp_path / "m.txt"
        write_identity_model(model)
        report = tmp_path / "r.txt"
        assert run(["evaluate", "--model", model, "--data", data,
                    "--direction", "forward", "--report", report]) == 0
        text = report.read_text()
        assert "rmse: 0.000" in text
        assert "direction: forward" in text

    def test_errormap_dimensions_and_header(self, tmp_path):
        data = tmp_path / "c.csv"
        write_identity_corpus(data, n=40)
        model = tmp_path / "m.txt"
        write_identity_model(model)
        report = tmp_path / "r.txt"
        ppm = tmp_path / "e.ppm"
        assert run(["evaluate", "--model", model, "--data", data,
                    "--direction", "backward", "--report", report,
                    "--errormap", ppm, "--width", 8, "--height", 5]) == 0
        blob = ppm.read_bytes()
        assert blob.startswith(b"P6\n8 5\n255\n")
        assert len(blob) == len(b"P6\n8 5\n255\n") + 8 * 5 * 3
        assert "errormap_scale:" in report.read_text()

    def test_errormap_of_exact_predictions_is_black(self, tmp_path):
        # the identity model maps the nodes of its 5-node lattice exactly
        axis = np.linspace(0.0, 1.0, 5)
        raw = np.array(np.meshgrid(axis, axis, axis, indexing="ij")).reshape(3, -1).T
        data, model = tmp_path / "c.csv", tmp_path / "m.txt"
        save_corpus(PixelPairSet.from_arrays(raw, raw), data)
        write_identity_model(model)
        report, ppm = tmp_path / "r.txt", tmp_path / "e.ppm"
        assert run(["evaluate", "--model", model, "--data", data,
                    "--direction", "forward", "--report", report,
                    "--errormap", ppm, "--width", 25, "--height", 5]) == 0
        assert ppm.read_bytes() == b"P6\n25 5\n255\n" + bytes(25 * 5 * 3)
        assert "rmse_exact: 0\n" in report.read_text()
        assert "errormap_scale: 1\n" in report.read_text()

    def test_wrong_errormap_shape_exits_1(self, tmp_path):
        data = tmp_path / "c.csv"
        write_identity_corpus(data, n=40)
        model = tmp_path / "m.txt"
        write_identity_model(model)
        code = run(["evaluate", "--model", model, "--data", data,
                    "--direction", "forward", "--report", tmp_path / "r.txt",
                    "--errormap", tmp_path / "e.ppm",
                    "--width", 7, "--height", 5])
        assert code == 1

    @pytest.mark.parametrize("width, height", [(-10, -14), (0, 40), (40, 0), (-1, 5)])
    def test_errormap_size_below_1_is_usage_error(self, tmp_path, width, height):
        data = tmp_path / "c.csv"
        write_identity_corpus(data, n=140)
        model = tmp_path / "m.txt"
        write_identity_model(model)
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--model", model, "--data", data,
                 "--direction", "forward", "--report", tmp_path / "r.txt",
                 "--errormap", tmp_path / "e.ppm", "--width", width, "--height", height])
        assert exc.value.code == 2
        assert not (tmp_path / "e.ppm").exists()

    def test_errormap_requires_dimensions(self, tmp_path):
        data = tmp_path / "c.csv"
        write_identity_corpus(data)
        model = tmp_path / "m.txt"
        write_identity_model(model)
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--model", model, "--data", data,
                 "--direction", "forward", "--report", tmp_path / "r.txt",
                 "--errormap", tmp_path / "e.ppm"])
        assert exc.value.code == 2


def test_end_to_end_reports_sane_rmse(tmp_path):
    data = tmp_path / "c.csv"
    run(["simulate", "--out", data, "--patches", 140, "--seed", 5])
    model = tmp_path / "m.txt"
    assert run(["calibrate", "--data", data, "--out", model,
                "--seed", 3] + FAST) == 0
    report = tmp_path / "r.txt"
    assert run(["evaluate", "--model", model, "--data", data,
                "--direction", "forward", "--report", report]) == 0
    rmse_line = [l for l in report.read_text().split("\n") if l.startswith("rmse:")][0]
    assert float(rmse_line.split(":")[1]) <= 3.0


# The acceptance gate's criterion-2, -9 and -10 calibrations, each model
# then applied both ways to its corpus.
_THREAD_RUNS = [
    ("c2", "c2.csv", "all", ["--seed", "3"]),
    ("c9-140", "image.csv", "uniform:140", ["--seed", "2"]),
    ("c9-8000", "image.csv", "uniform:8000", ["--seed", "2"]),
    ("c10", "c10.csv", "uniform:120", ["--seed", "4", "--sphere-count", "20000",
                                       "--trials", "4"]),
]


def _run_at_threads(tmp_path, threads: int) -> dict:
    """sha256 of every model and apply output of _THREAD_RUNS, from one
    child process whose BLAS runs ``threads`` threads."""
    out = tmp_path / f"threads{threads}"
    out.mkdir()
    commands = []
    for name, corpus, subset, options in _THREAD_RUNS:
        model = out / f"{name}.txt"
        commands.append(["calibrate", "--data", tmp_path / corpus, "--subset", subset,
                         "--out", model, *options])
        for direction in ("forward", "backward"):
            commands.append(["apply", "--model", model, "--direction", direction,
                             "--in", tmp_path / corpus, "--out", out / f"{name}-{direction}.csv"])
    script = ("import sys\nfrom rankcal.cli import main\n"
              f"for argv in {[[str(a) for a in c] for c in commands]!r}:\n"
              "    assert main(argv) == 0, argv\n")
    env = child_env(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_models_and_outputs_do_not_depend_on_blas_threads(tmp_path):
    camera = make_camera(seed=11, delta=0.25, tone=ToneSpec("gamma", 1 / 2.2),
                         gamut_mode="affine")
    save_corpus(make_corpus(camera, 140, rng_seed=5), tmp_path / "c2.csv")
    assert run(["simulate", "--out", tmp_path / "image.csv", "--patches", 8100,
                "--seed", 17, "--quantize"]) == 0
    assert run(["simulate", "--out", tmp_path / "c10.csv", "--patches", 140,
                "--seed", 9, "--noise", 0.004, "--quantize"]) == 0
    one = _run_at_threads(tmp_path, 1)
    two = _run_at_threads(tmp_path, 2)
    assert len(one) == 3 * len(_THREAD_RUNS)
    assert one == two
