"""docs/sensitivity.py prints the tables of docs/reproduction_notes.md."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_script_rows_equal_the_note_rows():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    p = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "docs" / "sensitivity.py")],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert p.returncode == 0, p.stderr
    printed = [line for line in p.stdout.splitlines() if line.startswith("|")]
    note = (ROOT / "docs" / "reproduction_notes.md").read_text().splitlines()
    assert len(printed) == 13
    assert printed == [line for line in note if line.startswith("|")]
