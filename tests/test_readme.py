"""The README's Python API example runs and prints the values it states."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_python_api_example_prints_its_values():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    p = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert p.returncode == 0, p.stderr
    values = [round(float(line), 4) for line in p.stdout.split()]
    assert values == [-0.3118, 0.9885]
