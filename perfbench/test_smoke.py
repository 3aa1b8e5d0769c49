"""Smoke test of the benchmark itself: `python3 -m pytest perfbench`.

Runs every workload at minimal size, untraced and traced, and requires
that every metric named in BENCHMARK.json is emitted with its unit and
that every output checks out.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_smoke_emits_every_metric():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "smoke: ok" in proc.stdout
