"""Acceptance gate: one check per shipping criterion.

Each test prints a single PASS/FAIL line (run with -s to see them) and
asserts at the stated tolerance. Criterion 1 is informative: the
reference real-camera dataset is not redistributed here, so it verifies
the reporting units and optionally scores a user-supplied corpus CSV
(set RANKCAL_RB_DATASET to its path).
"""

import contextlib
import io
import os

import numpy as np

from support import angle_degrees, grid_max_nn_gap, trilinear_weights

from rankcal.cli import main as cli_main
from rankcal.gamut import apply_lattice, fit_lattice
from rankcal.model import Lattice3, parameter_count
from rankcal.qp import QuadProgram, solve_qp
from rankcal.tonefit import fit_monotone

QP_TOL = 1e-8


def verdict(number: int, ok: bool, label: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")


def run_cli(argv) -> int:
    return cli_main([str(a) for a in argv])


def report_value(path, key: str) -> float:
    for line in path.read_text().split("\n"):
        if line.startswith(key + ":"):
            return float(line.split(":", 1)[1])
    raise AssertionError(f"{key} missing from {path}")


def test_criterion_01_reference_dataset_units(tmp_path):
    """Table-1 units are emitted; a user-supplied corpus is informative."""
    data = tmp_path / "c.csv"
    run_cli(["simulate", "--out", data, "--patches", 140, "--seed", 5])
    model = tmp_path / "m.txt"
    assert run_cli(["calibrate", "--data", data, "--out", model, "--seed", 2,
                    "--sphere-count", 20000, "--trials", 4]) == 0
    values = {}
    for direction in ("forward", "backward"):
        report = tmp_path / f"{direction}.txt"
        assert run_cli(["evaluate", "--model", model, "--data", data,
                        "--direction", direction, "--report", report]) == 0
        values[direction] = report_value(report, "rmse_exact")
    # forward reports 8-bit units, backward normalized raw units
    ok = 0.0 <= values["forward"] <= 255.0 and 0.0 <= values["backward"] <= 1.0

    external = os.environ.get("RANKCAL_RB_DATASET")
    note = "reference dataset not supplied; unit emission verified"
    if external:
        ext_model = tmp_path / "ext_model.txt"
        code = run_cli(["calibrate", "--data", external, "--subset",
                        "uniform:8000", "--out", ext_model, "--seed", 0])
        if code == 0:
            for direction in ("forward", "backward"):
                report = tmp_path / f"ext_{direction}.txt"
                run_cli(["evaluate", "--model", ext_model, "--data", external,
                         "--direction", direction, "--report", report])
                got = report_value(report, "rmse_exact")
                print(f"  informative {direction} rmse on supplied dataset: {got}")
            note = "user dataset scored; compare against the published columns"
    verdict(1, ok, f"evaluation units ({note})")
    assert ok


def test_criterion_02_synthetic_gate(gated_bundle):
    forward = gated_bundle["forward_rmse"]
    backward = gated_bundle["backward_rmse"]
    seconds = gated_bundle["seconds"]
    ok = forward <= 3.0 and backward <= 0.012 and seconds <= 60.0
    verdict(2, ok, f"gating run: forward {forward:.3f}/255 (<=3), "
                   f"backward {backward:.5f} (<=0.012), {seconds:.1f}s (<=60)")
    assert ok


def test_criterion_03_matrix_recovery(clean_bundle, noisy_bundle):
    worst_clean = 0.0
    truth = clean_bundle["camera"].effective_matrix()
    for k in range(3):
        worst_clean = max(worst_clean, angle_degrees(
            clean_bundle["estimated"].rows[k], truth[k]))
    worst_noisy = 0.0
    truth_n = noisy_bundle["camera"].effective_matrix()
    for k in range(3):
        worst_noisy = max(worst_noisy, angle_degrees(
            noisy_bundle["estimated"].rows[k], truth_n[k]))
    ok = worst_clean <= 1.2 and worst_noisy <= 3.0
    verdict(3, ok, f"row directions: clean {worst_clean:.3f} deg (<=1.2), "
                   f"noisy {worst_noisy:.3f} deg (<=3)")
    assert ok


def test_criterion_04_sphere_resolution(sphere100k):
    gap = grid_max_nn_gap(sphere100k.points, cell=0.05)
    ok = gap <= 1.15
    verdict(4, ok, f"100k-sample max nearest-neighbour gap {gap:.3f} deg (<=1.15)")
    assert ok


def test_criterion_05_parameter_budget(gated_bundle, tmp_path):
    count = parameter_count(gated_bundle["model"])
    data = tmp_path / "c.csv"
    run_cli(["simulate", "--out", data, "--patches", 60, "--seed", 7])
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = run_cli(["calibrate", "--data", data, "--out", tmp_path / "m.txt",
                        "--seed", 1, "--sphere-count", 20000, "--trials", 3])
    assert code == 0
    printed = "parameters: 408" in captured.getvalue()
    ok = count == 408 and printed
    verdict(5, ok, f"forward parameter count {count} (=408), CLI prints it")
    assert ok


def _qp_programs(count, seed):
    rng = np.random.default_rng(seed)
    programs = []
    for _ in range(count):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 21))
        bmat = rng.normal(size=(n, n))
        q = bmat @ bmat.T + 0.5 * np.eye(n)
        c = rng.normal(size=n)
        a = rng.normal(size=(m, n))
        x_feas = 0.5 * rng.normal(size=n)
        b = a @ x_feas + np.abs(rng.normal(size=m)) + 0.01
        programs.append(QuadProgram(q=q, c=c, a=a, b=b))
    return programs


def _batched_dual_projected_gradient(programs, iters=60_000):
    """Reference optima: accelerated projected gradient on the duals.

    All programs run in one padded batch; padded constraint rows have
    slack 1, so their multipliers clip to zero and never contribute.
    """
    count = len(programs)
    nmax = max(p.n for p in programs)
    mmax = max(p.m for p in programs)
    qinv = np.zeros((count, nmax, nmax))
    a = np.zeros((count, mmax, nmax))
    b = np.ones((count, mmax))
    c = np.zeros((count, nmax))
    step = np.zeros((count, 1))
    for i, p in enumerate(programs):
        qi = np.linalg.inv(p.q)
        qinv[i, :p.n, :p.n] = qi
        a[i, :p.m, :p.n] = p.a
        b[i, :p.m] = p.b
        c[i, :p.n] = p.c
        h = p.a @ qi @ p.a.T
        step[i, 0] = 1.0 / (np.linalg.eigvalsh(h).max() + 1e-12)
    lam = np.zeros((count, mmax))
    y = lam.copy()
    t = 1.0
    for _ in range(iters):
        x = -np.einsum("pnk,pk->pn", qinv, c + np.einsum("pmn,pm->pn", a, y))
        lam_next = np.maximum(0.0, y + step * (np.einsum("pmn,pn->pm", a, x) - b))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = lam_next + ((t - 1.0) / t_next) * (lam_next - lam)
        lam, t = lam_next, t_next
    x = -np.einsum("pnk,pk->pn", qinv, c + np.einsum("pmn,pm->pn", a, lam))
    return [p.objective(x[i, :p.n]) for i, p in enumerate(programs)]


def test_criterion_06_qp_kernel():
    programs = _qp_programs(200, seed=2026)
    reference = _batched_dual_projected_gradient(programs)
    worst_kkt = 0.0
    worst_gap = 0.0
    for prob, ref_obj in zip(programs, reference):
        sol = solve_qp(prob, QP_TOL)
        worst_kkt = max(worst_kkt, sol.stationarity, sol.max_violation,
                        sol.complementarity, -float(sol.multipliers.min(initial=0.0)))
        worst_gap = max(worst_gap, abs(prob.objective(sol.x) - ref_obj))
    ok = worst_kkt <= QP_TOL and worst_gap <= 1e-5
    verdict(6, ok, f"200 programs: KKT residual {worst_kkt:.2e} (<=1e-8), "
                   f"objective gap {worst_gap:.2e} (<=1e-5)")
    assert ok


def test_criterion_07_monotone_fit():
    grid = np.linspace(0.0, 1.0, 1024)
    failures = 0
    for seed in range(500):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(9, 300))
        x = rng.uniform(0.0, 1.0, n)
        if np.ptp(x) < 0.25:
            x = np.linspace(0.0, 1.0, n)
        kind = seed % 4
        if kind == 0:
            y = rng.normal(0.0, 1.0, n)
        elif kind == 1:
            y = 1.0 - x + rng.normal(0.0, 0.1, n)  # adversarial decreasing
        elif kind == 2:
            y = x ** rng.uniform(0.3, 3.0) + rng.normal(0.0, 0.02, n)
        else:
            y = np.sin(6 * x) + 0.5 * x
        try:
            curve = fit_monotone(x, y)
            if np.diff(curve(grid)).min() < -1e-9:
                failures += 1
        except Exception:
            failures += 1

    xg = np.linspace(0.02, 0.98, 140)
    curve = fit_monotone(xg, xg ** (1 / 2.2))
    window = np.linspace(0.05, 0.95, 1000)
    recovery = float(np.sqrt(np.mean(
        (curve(window) - window ** (1 / 2.2)) ** 2)))
    ok = failures == 0 and recovery <= 2e-3
    verdict(7, ok, f"500 randomized fits all monotone ({failures} failures), "
                   f"gamma recovery RMS {recovery:.2e} (<=2e-3)")
    assert ok


def test_criterion_08_lattice():
    rng = np.random.default_rng(0)
    lut = Lattice3(rng.uniform(0.0, 1.0, size=(5, 5, 5, 3)))
    node_err = 0.0
    for (i, j, k) in [(0, 0, 0), (4, 4, 4), (1, 2, 3), (3, 0, 2)]:
        v = np.array([i, j, k]) / 4.0
        node_err = max(node_err, float(np.abs(
            apply_lattice(lut, v) - lut.nodes[i, j, k]).max()))

    probe = rng.uniform(-0.3, 1.3, size=(2000, 3))
    _, w = trilinear_weights(probe, 5)
    unity_err = float(np.abs(w.sum(axis=1) - 1.0).max())
    weights_nonneg = float(w.min()) >= 0.0

    identity = Lattice3.identity(5)
    v = rng.uniform(0.0, 1.0, size=(2000, 3))
    identity_err = float(np.abs(apply_lattice(identity, v) - v).max())

    truth = Lattice3(identity.nodes + 0.05 * rng.normal(size=(5, 5, 5, 3)))
    base = (np.indices((4, 4, 4)).reshape(3, -1).T) / 4.0
    offsets = rng.uniform(0.02, 0.23, size=(12, 64, 3))
    samples = np.clip((base[None, :, :] + offsets).reshape(-1, 3), 0.0, 1.0)
    corners = np.array(np.meshgrid([0, 1], [0, 1], [0, 1], indexing="ij"),
                       dtype=float).reshape(3, -1).T
    samples = np.vstack([samples, corners])
    recovered = fit_lattice(samples, apply_lattice(truth, samples),
                            resolution=5, regularization=1e-6)
    recover_err = float(np.abs(recovered.nodes - truth.nodes).max())

    ok = (node_err <= 1e-12 and unity_err <= 1e-12 and weights_nonneg
          and identity_err <= 1e-12 and recover_err <= 1e-4)
    verdict(8, ok, f"nodes {node_err:.1e}, unity {unity_err:.1e}, "
                   f"identity {identity_err:.1e} (<=1e-12), "
                   f"recover {recover_err:.1e} (<=1e-4)")
    assert ok


def test_criterion_09_one_shot_protocol(tmp_path):
    # a simulated 90x90 image (8-bit rendered values, as a JPEG source
    # would be), one-shot calibration from 140 uniformly selected pixels,
    # whole-image application with an error map, and the data-rich
    # comparison point from 8000 pixels of the same image
    image_csv = tmp_path / "image.csv"
    assert run_cli(["simulate", "--out", image_csv, "--patches", 8100,
                    "--seed", 17, "--quantize"]) == 0

    model_140 = tmp_path / "m140.txt"
    assert run_cli(["calibrate", "--data", image_csv, "--subset", "uniform:140",
                    "--out", model_140, "--seed", 2]) == 0
    report_140 = tmp_path / "r140.txt"
    ppm = tmp_path / "error.ppm"
    assert run_cli(["evaluate", "--model", model_140, "--data", image_csv,
                    "--direction", "backward", "--report", report_140,
                    "--errormap", ppm, "--width", 90, "--height", 90]) == 0

    model_8000 = tmp_path / "m8000.txt"
    assert run_cli(["calibrate", "--data", image_csv, "--subset", "uniform:8000",
                    "--out", model_8000, "--seed", 2]) == 0
    report_8000 = tmp_path / "r8000.txt"
    assert run_cli(["evaluate", "--model", model_8000, "--data", image_csv,
                    "--direction", "backward", "--report", report_8000]) == 0

    one_shot = report_value(report_140, "rmse_exact")
    rich = report_value(report_8000, "rmse_exact")
    blob = ppm.read_bytes()
    header = b"P6\n90 90\n255\n"
    map_ok = blob.startswith(header) and len(blob) == len(header) + 90 * 90 * 3
    ok = map_ok and one_shot <= 1.5 * rich
    verdict(9, ok, f"one-shot {one_shot:.5f} vs 8000-pair {rich:.5f} "
                   f"(ratio {one_shot / rich:.2f} <= 1.5), PPM map written")
    assert ok


def test_criterion_10_determinism(tmp_path):
    def run_once(tag):
        base = tmp_path / tag
        base.mkdir()
        corpus = base / "c.csv"
        model = base / "m.txt"
        report = base / "r.txt"
        ppm = base / "e.ppm"
        assert run_cli(["simulate", "--out", corpus, "--patches", 140,
                        "--seed", 9, "--noise", 0.004, "--quantize"]) == 0
        assert run_cli(["calibrate", "--data", corpus, "--subset", "uniform:120",
                        "--out", model, "--seed", 4,
                        "--sphere-count", 20000, "--trials", 4]) == 0
        assert run_cli(["evaluate", "--model", model, "--data", corpus,
                        "--direction", "backward", "--report", report,
                        "--errormap", ppm, "--width", 14, "--height", 10]) == 0
        return {p.name: p.read_bytes() for p in
                (corpus, base / "c.csv.truth.txt", model, report, ppm)}

    first = run_once("a")
    second = run_once("b")
    same = {name: first[name] == second[name] for name in first}
    ok = all(same.values())
    verdict(10, ok, "byte-identical corpus, truth sidecar, model, report, "
                    f"error map ({sum(same.values())}/5)")
    assert ok
