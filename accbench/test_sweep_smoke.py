"""Smoke test of the accuracy yardstick, at a tiny size (about 5 s).

    python3 -m pytest accbench/test_sweep_smoke.py -q

It runs the sweep on one seed with a small sphere and few trials, and
checks that the result has the committed baseline's layout, and that the
baseline is a full sweep whose means are those of its cameras.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import sweep  # noqa: E402

BASELINE = json.loads((HERE / "ACCURACY.json").read_text())


def test_tiny_sweep_has_the_baseline_layout(tmp_path):
    out = tmp_path / "accuracy.json"
    run = subprocess.run([sys.executable, str(HERE / "sweep.py"), "--seeds", "40",
                          "--sphere-count", "2000", "--trials", "2", "--out", str(out)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(out.read_text())
    assert result["config"]["seeds"] == [40]
    assert (result["config"]["sphere_count"], result["config"]["trials"]) == (2000, 2)
    assert set(result["config"]) == set(BASELINE["config"])
    assert ([(r["family"], r["noise255"]) for r in result["rows"]]
            == [(r["family"], r["noise255"]) for r in BASELINE["rows"]])
    for row in result["rows"]:
        assert set(row) == set(BASELINE["rows"][0])
        assert len(row["cameras"]) + len(row["failures"]) == 1
    assert run.stdout.splitlines()[:12] == sweep.table(result).splitlines()


def test_baseline_is_a_full_sweep():
    config = BASELINE["config"]
    assert config["seeds"] == list(sweep.SEEDS)
    assert config["sphere_count"] == sweep.DEFAULT_SPHERE_COUNT
    assert config["trials"] == sweep.DEFAULT_TRIALS
    assert [(r["family"], r["noise255"]) for r in BASELINE["rows"]] == [
        (family, noise) for family in sweep.FAMILIES for noise in sweep.NOISE255]
    for row in BASELINE["rows"]:
        seeds = [c["seed"] for c in row["cameras"]] + [f["seed"] for f in row["failures"]]
        assert sorted(seeds) == config["seeds"]
        for key in ("forward255", "dark255", "backward"):
            assert row[key] == np.mean([c[key] for c in row["cameras"]])
        assert row["angle_deg"] == max(c["angle_deg"] for c in row["cameras"])
