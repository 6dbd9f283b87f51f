"""The examples must stay runnable: each is executed as a subprocess."""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
SRC_DIR = EXAMPLES_DIR.parent / "src"


def test_at_least_five_examples_exist():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize(
    "script", EXAMPLES, ids=[script.stem for script in EXAMPLES]
)
def test_example_runs_cleanly(script, tmp_path):
    # The parent's pytest `pythonpath` ini setting does not reach
    # subprocesses; make `repro` importable for the example explicitly.
    # Running in `tmp_path` keeps the files an example writes to its
    # working directory (serve_smoke's verdict) out of the checkout.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC_DIR), env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=tmp_path,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples must narrate what they show"
