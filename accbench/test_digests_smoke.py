"""Smoke test of the model digests, at the benchmark's tiny size (a few seconds).

    python3 -m pytest accbench/test_digests_smoke.py -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import digests  # noqa: E402
import workloads  # noqa: E402


def test_tiny_digests_repeat():
    first = digests.digests(workloads.TINY, seeds=(1,))
    assert [line.split()[:2] for line in first] == [["oneshot-140", "1"], ["rich-8000", "1"]]
    assert all(len(line.split()[2]) == 64 for line in first)
    assert digests.digests(workloads.TINY, seeds=(1,)) == first
