from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_bench_selftest_passes():
    """``bench/selftest.py`` runs every workload and the tracer at tiny sizes,
    so a change to the package that breaks a workload's checks or a traced
    target fails here.  The traced children write the git-ignored
    ``.bench_out/``; no bytecode is written next to the sources."""
    result = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                            capture_output=True, text=True, timeout=300,
                            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert result.returncode == 0, result.stdout + result.stderr[-4000:]
