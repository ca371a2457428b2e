"""Smoke runs of the study scripts.

They are the only callers outside the tests of ``run_generative_baseline``
and of the ``HarstConfig`` constructors, so each runs once, at its smallest
size, in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("improvement_study.py", ["--seeds", "1", "--iterations", "1"]),
        ("sensitivity_study.py", ["--seeds", "1", "--out-dir", "out"]),
    ],
    ids=["improvement", "sensitivity"],
)
def test_study_script_exits_cleanly(script, args, tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
