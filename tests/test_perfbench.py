"""The benchmark's correctness checks: one request of each in-process workload,
checked against the independent rfft and lfilter references in perfbench/."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["batch-small-n", "grid-long-n"])
def test_first_request_passes_reference_checks(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--spawned", "0"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert (result["attempted"], result["failed"]) == (1, 0), proc.stderr
