"""Smoke runs of the study script and of the README's library example.

The study script is the only program outside the tests that runs
``paired_seed_study``, and through it ``run_generative_baseline``, so it
runs once, at its smallest size, in a fresh interpreter, as does the
README's ``python`` block.  Its two parts, the improvement table and the
sensitivity sweeps, are checked from that one run.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def study_run(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("study")
    script = ROOT / "scripts" / "paired_seed_study.py"
    args = [str(script), "--seeds", "1", "--iterations", "1", "--out", "rows.csv", "--out-dir", "out"]
    return run_python(args, cwd), cwd


@pytest.mark.parametrize(
    "printed, written",
    [
        ("mean random-selection", ["rows.csv"]),
        ("beta=4.0: acc_u", ["out/K.csv", "out/T.csv", "out/alpha.csv", "out/beta.csv"]),
    ],
    ids=["improvement", "sensitivity"],
)
def test_study_script_exits_cleanly(printed, written, study_run):
    result, cwd = study_run
    assert result.returncode == 0, result.stderr
    assert printed in result.stdout
    for name in written:
        assert (cwd / name).is_file(), name


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
