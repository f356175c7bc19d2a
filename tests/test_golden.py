"""The CLI's stdout bytes and exit codes, pinned against stored outputs.

``tests/data/golden/cases.json`` maps each case name to its argv and exit
code; ``<name>.out`` holds the exact stdout.  The ``mb`` case reads
``tests/data/h1_mb.json`` by a path relative to the repository root, and that
path is part of its report, so every case runs from the root.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden_bytes(name):
    case = CASES[name]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "mbeval.cli", *case["argv"]],
                          cwd=ROOT, env=env, capture_output=True, timeout=600)
    assert proc.returncode == case["exit"]
    assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes()
