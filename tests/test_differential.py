import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_differential_finds_the_working_tree_equal_to_itself():
    # an A/A run on the first two inputs of each set: both trees are this
    # checkout's src, so every record must match
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "differential.py"),
         "--parent-src", str(ROOT / "src"), "--limit", "2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == ("16 inputs: audit 2, batch 4, example 3, malformed 2, random 2, "
                        "ties 2, wide 1")
    assert lines[1:] == [
        "well-formed inputs that differ: 0",
        "malformed inputs that differ: newly rejected 0, rejected differently 0, "
        "newly loading 0, other 0",
    ]
