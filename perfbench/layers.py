"""Per-layer metrics from a traced run's spans.

Each span belongs to one scope, found by walking up its parents:
``calibrate`` (inside a ``pipeline.calibrate`` call, wherever it ran),
``op`` (inside a traced operation) or ``setup`` (inside the traced
set-up). Calibration metrics are per ``calibrate`` call, application
metrics per traced operation, set-up metrics per traced set-up. A layer
the operation never calls reads 0. The application rates come from the
run's untraced operations, so tracing does not slow them.

Counts marked "computed" are derived from exact counts, not measured
by hardware counters: a dense-equivalent product count for sphere
scoring, and bytes a kernel touches by its array sizes.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import Span

STAGES = ("matrix", "achromatic_rescale", "forward_tones", "forward_lattice",
          "inverse_tones", "backward_lattice", "assemble")

# Sphere scoring: each dense-equivalent product writes one float32 (4 B)
# and reads a point and a constraint once per block pass (8 B amortized).
SCORE_BYTES_PER_PRODUCT = 12
# apply_lattice per point: (8,) int64 indices, (8,) float64 weights and
# the (8, 3) float64 gathered nodes: 64 + 64 + 192 B.
LATTICE_BYTES_PER_POINT = 320

UNITS = {
    **{f"pipeline.stage.{s}_s": "s" for s in STAGES},
    "pipeline.stage.matrix_share": "frac",
    "pipeline.calibrate_s": "s",
    "pipeline.calibrate.self_s": "s",
    "pipeline.map_forward.self_s": "s",
    "pipeline.map_backward.self_s": "s",
    "ranking.estimate_row.self_s": "s",
    "ranking.dot_products": "count",
    "ranking.score_gdot_per_s": "Gdot/s",
    "ranking.score_bytes_gb": "GB",
    "ranking.build_half_spaces_s": "s",
    "ranking.constraints": "count",
    "ranking.monotonicity_score_s": "s",
    "ranking.monotonicity_score.points": "count",
    "ranking.sample_sphere_s": "s",
    "ranking.rescale_achromatic_s": "s",
    "tonefit.fit_monotone_s": "s",
    "tonefit.fit_monotone.self_s": "s",
    "tonefit.fit_monotone.calls": "count",
    "tonefit.qp_attempts": "count",
    "tonefit.fits_per_attempt": "ratio",
    "qp.solve_qp_s": "s",
    "qp.solve_qp.calls": "count",
    "qp.iterations": "count",
    "qp.failed": "count",
    "gamut.fit_lattice_s": "s",
    "gamut.fit_lattice.samples": "count",
    "gamut.apply_lattice_s": "s",
    "gamut.apply_lattice.points": "count",
    "gamut.apply_lattice.bytes_gb": "GB",
    "dataset.load_corpus_s": "s",
    "dataset.load_corpus.rows": "count",
    "dataset.select_subset_s": "s",
    "modelfile.serialize_model_s": "s",
    "modelfile.deserialize_model_s": "s",
    "modelfile.bytes": "B",
    "cli.apply.self_s": "s",
    "simulate.make_corpus_s": "s",
    "dataset.save_corpus_s": "s",
    "map_forward_mpix_per_s": "Mpx/s",
    "map_backward_mpix_per_s": "Mpx/s",
    "apply_cli_krows_per_s": "krow/s",
    "forward_rmse255": "1/255",
    "backward_rmse": "raw",
    "row_angle_deg": "deg",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.span_cost_s": "s",
}


def _scopes(spans: list[Span]) -> list[tuple[str | None, str | None, int]]:
    """(scope, region, enclosing calibrate span or -1) for each span.

    The region is ``op`` or ``setup``; the scope is ``calibrate`` inside a
    calibration and the region otherwise.
    """
    out = []
    for i in range(len(spans)):
        region, calibrate, j = None, -1, i
        while j >= 0:
            name = spans[j].name
            if name == "pipeline.calibrate" and calibrate < 0:
                calibrate = j
            elif name in ("bench.op", "bench.setup") and region is None:
                region = name[len("bench."):]
            j = spans[j].parent
        out.append(("calibrate" if calibrate >= 0 else region, region, calibrate))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _rate(ops: list, seconds: str, size: str, scale: float) -> float:
    """Work over time summed across operations, in units of ``scale``."""
    return _ratio(sum(getattr(op, size) for op in ops) / scale,
                  sum(getattr(op, seconds) for op in ops))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], accuracy: dict, ops: list, span_cost_s: float) -> dict:
    """Every per-layer metric as ``{name: value}``; units are in UNITS.

    ``ops`` are the run's operations: the application rates come from the
    untraced ones, the tracing overhead from both kinds.
    """
    scopes = _scopes(spans)
    seconds = defaultdict(float)
    self_seconds = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    count_max = defaultdict(float)
    for span, (scope, _, _) in zip(spans, scopes):
        key = (scope, span.name)
        seconds[key] += span.seconds
        self_seconds[key] += span.self_seconds
        calls[key] += 1
        for name, value in span.counts.items():
            counts[key + (name,)] += value
            count_max[key + (name,)] = max(count_max[key + (name,)], value)

    n_cal = calls["calibrate", "pipeline.calibrate"]
    n_op = calls["op", "bench.op"]
    n_setup = calls["setup", "bench.setup"]

    def cal(value):
        return _ratio(value, n_cal)

    def per_op(value):
        return _ratio(value, n_op)

    # dense-equivalent products: each calibration's constraints times the
    # sphere points it scores
    scored = {}
    constraints = defaultdict(float)
    for span, (_, _, owner) in zip(spans, scopes):
        if span.name == "ranking.sample_sphere":
            scored[owner] = span.counts.get("scored", 0)
        elif span.name == "ranking.build_half_spaces":
            constraints[owner] += span.counts.get("constraints", 0)
    dot_products = cal(sum(constraints[c] * scored.get(c, 0) for c in constraints))
    qp_attempts = sum(1 for span in spans if span.name == "qp.solve_qp"
                      and span.parent >= 0 and spans[span.parent].name == "tonefit.fit_monotone")
    qp_failed = sum(1 for span, (scope, _, _) in zip(spans, scopes)
                    if span.name == "qp.solve_qp" and scope == "calibrate"
                    and span.error in ("MaxIterations", "Infeasible"))
    estimate_self = cal(self_seconds["calibrate", "ranking.estimate_row"])
    calibrate_s = cal(seconds["calibrate", "pipeline.calibrate"])
    stage = {s: cal(counts["calibrate", "pipeline.calibrate", f"stage.{s}"]) for s in STAGES}
    points = per_op(counts["op", "gamut.apply_lattice", "points"])
    n_spans = sum(1 for _, region, _ in scopes if region == "op")
    untraced = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced]

    metrics = {
        **{f"pipeline.stage.{s}_s": stage[s] for s in STAGES},
        "pipeline.stage.matrix_share": _ratio(stage["matrix"], calibrate_s),
        "pipeline.calibrate_s": calibrate_s,
        "pipeline.calibrate.self_s": cal(self_seconds["calibrate", "pipeline.calibrate"]),
        "pipeline.map_forward.self_s": per_op(self_seconds["op", "pipeline.map_forward"]),
        "pipeline.map_backward.self_s": per_op(self_seconds["op", "pipeline.map_backward"]),
        "ranking.estimate_row.self_s": estimate_self,
        "ranking.dot_products": dot_products,
        "ranking.score_gdot_per_s": _ratio(dot_products / 1e9, estimate_self),
        "ranking.score_bytes_gb": dot_products * SCORE_BYTES_PER_PRODUCT / 1e9,
        "ranking.build_half_spaces_s": cal(seconds["calibrate", "ranking.build_half_spaces"]),
        "ranking.constraints": cal(sum(constraints.values())),
        "ranking.monotonicity_score_s": cal(seconds["calibrate", "ranking.monotonicity_score"]),
        "ranking.monotonicity_score.points":
            cal(counts["calibrate", "ranking.monotonicity_score", "points"]),
        "ranking.sample_sphere_s": cal(seconds["calibrate", "ranking.sample_sphere"]),
        "ranking.rescale_achromatic_s": cal(seconds["calibrate", "ranking.rescale_achromatic"]),
        "tonefit.fit_monotone_s": cal(seconds["calibrate", "tonefit.fit_monotone"]),
        "tonefit.fit_monotone.self_s": cal(self_seconds["calibrate", "tonefit.fit_monotone"]),
        "tonefit.fit_monotone.calls": cal(calls["calibrate", "tonefit.fit_monotone"]),
        "tonefit.qp_attempts": cal(qp_attempts),
        "tonefit.fits_per_attempt": _ratio(calls["calibrate", "tonefit.fit_monotone"],
                                           qp_attempts),
        "qp.solve_qp_s": cal(seconds["calibrate", "qp.solve_qp"]),
        "qp.solve_qp.calls": cal(calls["calibrate", "qp.solve_qp"]),
        "qp.iterations": cal(counts["calibrate", "qp.solve_qp", "iterations"]),
        "qp.failed": cal(qp_failed),
        "gamut.fit_lattice_s": cal(seconds["calibrate", "gamut.fit_lattice"]),
        "gamut.fit_lattice.samples": cal(counts["calibrate", "gamut.fit_lattice", "samples"]),
        "gamut.apply_lattice_s": per_op(seconds["op", "gamut.apply_lattice"]),
        "gamut.apply_lattice.points": points,
        "gamut.apply_lattice.bytes_gb": points * LATTICE_BYTES_PER_POINT / 1e9,
        "dataset.load_corpus_s": per_op(seconds["op", "dataset.load_corpus"]),
        "dataset.load_corpus.rows": per_op(counts["op", "dataset.load_corpus", "rows"]),
        "dataset.select_subset_s": per_op(seconds["op", "dataset.select_subset"]),
        "modelfile.serialize_model_s": per_op(seconds["op", "modelfile.serialize_model"]),
        "modelfile.deserialize_model_s": per_op(seconds["op", "modelfile.deserialize_model"]),
        "modelfile.bytes": count_max["op", "modelfile.deserialize_model", "bytes"],
        "cli.apply.self_s": per_op(self_seconds["op", "cli.main"]),
        "simulate.make_corpus_s": _ratio(seconds["setup", "simulate.make_corpus"], n_setup),
        "dataset.save_corpus_s": _ratio(seconds["setup", "dataset.save_corpus"], n_setup),
        "map_forward_mpix_per_s": _rate(untraced, "forward_s", "pixels", 1e6),
        "map_backward_mpix_per_s": _rate(untraced, "backward_s", "pixels", 1e6),
        "apply_cli_krows_per_s": _rate(untraced, "cli_s", "cli_rows", 1e3),
        "forward_rmse255": accuracy.get("forward_rmse255", 0.0),
        "backward_rmse": accuracy.get("backward_rmse", 0.0),
        "row_angle_deg": accuracy.get("row_angle_deg", 0.0),
        "trace.overhead_s": (_median([op.wall_s for op in traced])
                             - _median([op.wall_s for op in untraced])),
        "trace.spans": per_op(n_spans),
        "trace.span_cost_s": per_op(n_spans) * span_cost_s,
    }
    return metrics
