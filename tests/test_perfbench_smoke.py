"""The benchmark's smoke case runs and its independent checks pass.

``perfbench/run.py --smoke`` simulates, decomposes and evaluates one
tiny dataset and then checks the outputs without using jpjica: bit-exact
set-up, whitening identity, recomputed sources and recomputed jSIR.
No timing is asserted.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stderr[-2000:]
    assert result["correct"] is True
