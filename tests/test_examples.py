"""Smoke test: the example scripts run to completion against the current API.

Each example asserts its own results (e.g. MMJoin against the Non-MMJoin
baseline), so a zero exit status means the API they use still works end to end.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("script", ["quickstart.py", "coauthor_graph.py"])
def test_example_runs(script):
    done = subprocess.run([sys.executable, str(EXAMPLES / script)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
