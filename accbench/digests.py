"""sha256 digests of the benchmark's calibrations, for byte-identity checks.

    python3 accbench/digests.py

Run it from the root of a checkout; it imports rankcal from ``src`` and
the workloads from ``perfbench``. For seeds 1-10 of ``oneshot-140`` and
``rich-8000`` it builds the inputs with ``workloads.setup``, calibrates
them with ``workloads.calibrate_file`` and prints one line each:
``workload seed sha256`` of the model text as a model file holds it.
``apply-1M``'s set-up calibration is ``oneshot-140``'s on the same seed,
so it is not repeated. Two checkouts write the same model files on these
inputs when they print the same lines; the model bytes do not depend on
the BLAS thread count, but say which one a comparison used.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

NAMES = ("oneshot-140", "rich-8000")
SEEDS = tuple(range(1, 11))


def digests(sizes: workloads.Sizes = workloads.Sizes(), seeds=SEEDS) -> list[str]:
    """One ``workload seed sha256`` line per workload and seed, in order."""
    lines = []
    for name in NAMES:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as workdir:
                inputs = workloads.setup(workloads.WORKLOADS[name], seed, sizes, Path(workdir))
                text = workloads.calibrate_file(inputs)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            lines.append(f"{name} {seed} {digest}")
    return lines


if __name__ == "__main__":
    for line in digests():
        print(line, flush=True)
