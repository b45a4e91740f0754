import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import differential  # noqa: E402


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
        "inputs that differ in layer sizes only: 0",
        "malformed inputs that differ: newly rejected 0, rejected differently 0, "
        "newly loading 0, other 0",
    ]


def _solved(i, layers, wealth="104.5"):
    return {"id": f"batch:1:{i}", "load": {"repr": "r", "dump": "d"},
            "solve": {"policy": "p", "wealth": wealth, "layers": layers, "trace": "t",
                      "replayed": wealth}}


def test_layer_sizes_alone_are_counted_apart_and_do_not_fail_the_run(capsys):
    same = (_solved(0, [1, 9, 1]), _solved(0, [1, 9, 1]))
    fewer = (_solved(1, [1, 9, 1]), _solved(1, [1, 4, 1]))
    assert differential.report([same, fewer]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["well-formed inputs that differ: 0",
                          "inputs that differ in layer sizes only: 1"]
    assert lines[4] == "--- batch:1:1"

    # an answer that moves as well still fails, and counts only as a difference
    moved = (_solved(2, [1, 9, 1]), _solved(2, [1, 4, 1], wealth="104.6"))
    assert differential.report([same, fewer, moved]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["well-formed inputs that differ: 1",
                          "inputs that differ in layer sizes only: 1"]
    assert lines[4] == "--- batch:1:2"
