"""Smoke runs of the study scripts and of the README's library example.

The scripts are the only callers outside the tests of
``run_generative_baseline``, so each runs once, at its smallest size, in a
fresh interpreter, as does the README's ``python`` block.
"""

import os
import re
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
    result = run_python([str(ROOT / "scripts" / script), *args], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    result = run_python(["-c", blocks[0]], tmp_path)
    assert result.returncode == 0, result.stderr


def run_python(args, cwd):
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
