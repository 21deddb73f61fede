"""The scripts, and the CLI in a fresh interpreter, turn a library
error into exit 2 and one error line."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a path in a directory that does not exist
MISSING_OUT = str(Path(tempfile.gettempdir()) / "critfact-missing-dir" / "x.json")


def run_fresh(argv, **env):
    """Run ``python ARGV...`` from the repository root with critfact on
    the path and ``env`` added to the environment."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, cwd=ROOT, timeout=60
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["run_verification.py", "--jobs", "0"],
        ["density_table.py", "--family", "beta", "--count", "5", "--bound", "20"],
        ["density_table.py", "--lengths", "1"],
        ["density_table.py", "--lengths", "6000"],
        ["density_table.py", "--family", "wx", "--n", "0"],
        ["density_table.py", "--lengths"],
        ["run_verification.py", "--out", MISSING_OUT],
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


@pytest.mark.parametrize(
    "name, value",
    [
        ("CRITFACT_MAX_WORDS", "abc"),
        ("CRITFACT_MAX_WORDS", "0"),
        ("CRITFACT_MAX_WORDS", "-5"),
        ("CRITFACT_MAX_PROFILE_LEN", "x"),
    ],
)
@pytest.mark.parametrize(
    "argv, prog",
    [
        (["-m", "critfact.cli", "enumerate", "--n", "2"], "critfact"),
        (["scripts/density_table.py"], "density_table.py"),
        (["scripts/run_verification.py"], "run_verification.py"),
    ],
)
def test_bad_limit_in_the_environment_exits_2(name, value, argv, prog):
    proc = run_fresh(argv, **{name: value})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"{prog}: error: {name} must be a positive integer, got {value!r}\n"


def test_import_reads_no_limit():
    proc = run_fresh(["-c", "import critfact"], CRITFACT_MAX_WORDS="abc")
    assert (proc.returncode, proc.stderr) == (0, "")


def test_run_verification_opens_out_before_the_first_report():
    # with a one-word ceiling the first report would fail; the path fails first
    proc = run_fresh(
        ["scripts/run_verification.py", "--out", MISSING_OUT], CRITFACT_MAX_WORDS="1"
    )
    assert proc.returncode == 2
    assert "critfact-missing-dir" in proc.stderr  # the error names the path
