"""The scripts turn a library error into exit 2 and one error line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["run_verification.py", "--jobs", "0"],
        ["density_table.py", "--family", "beta", "--count", "5", "--bound", "20"],
        ["density_table.py", "--lengths", "1"],
    ],
)
def test_script_bad_input_exits_2(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"{argv[0]}: error: ")
    assert proc.stderr.count("\n") == 1
