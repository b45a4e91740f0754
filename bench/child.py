"""Fresh-interpreter measurements, one per child process.

    python3 bench/child.py setup INPUTS   load and validate every scenario,
                                          then print time.monotonic()
    python3 bench/child.py peak INPUTS    load and plan every scenario once,
                                          then print the peak RSS in KiB

INPUTS holds one scenario JSON document per line. The package is imported
from ``PYTHONPATH``, which the benchmark points at the checkout's ``src``.
"""

from __future__ import annotations

import resource
import sys
import time

import plan


def main() -> None:
    what, path = sys.argv[1], sys.argv[2]
    with open(path, encoding="utf-8") as stream:
        scenarios = [plan.load(line) for line in stream]
    if what == "setup":
        print(repr(time.monotonic()))
        return
    for scenario in scenarios:
        plan.plan(scenario)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


if __name__ == "__main__":
    main()
