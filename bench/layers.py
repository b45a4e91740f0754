"""Per-module self time and call counts, without touching the package.

:class:`ModuleProfile` runs ``cProfile`` on the calling thread and, through
``threading.setprofile``, on every thread started while it is active, so
the solver's expansion pool is covered too. Each profiler times with the
thread's own CPU clock, so threads waiting for the interpreter lock add
nothing and the totals add up across threads.

A module's self time is the time spent in its own functions plus the
built-ins they call directly (``min``, ``sorted``, ``dict.get``, ...);
Decimal arithmetic runs inside the caller's frame and counts there too.
Calls count every entry of a function of the module, a generator resuming
included.
"""

from __future__ import annotations

import cProfile
import threading
import time
from pathlib import Path

MODULES = ("dp", "ledger", "market", "money", "scenario", "expectation", "trace")
# expectation's self time is left out: its one entry point is timed as a
# span (expectation.reduce_s), and on a deterministic workload it would read
# a constant zero
TIMED = tuple(mod for mod in MODULES if mod != "expectation")
FUNCTIONS = (("ledger", "apply_rebalance"), ("market", "effective_fee"))


class ModuleProfile:
    """Context manager collecting per-module totals for ``package_dir``."""

    def __init__(self, package_dir: Path):
        self._package = package_dir.resolve()
        self._profiles: list[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._own: cProfile.Profile | None = None

    def _start(self) -> cProfile.Profile:
        profile = cProfile.Profile(time.thread_time)
        with self._lock:
            self._profiles.append(profile)
        profile.enable()
        return profile

    def _thread_hook(self, frame, event, arg) -> None:
        # first event in a new thread: hand the thread to its own profiler
        self._start()

    def __enter__(self) -> "ModuleProfile":
        threading.setprofile(self._thread_hook)
        self._own = self._start()
        return self

    def __exit__(self, *exc) -> None:
        self._own.disable()
        threading.setprofile(None)

    def _module(self, code) -> str | None:
        if isinstance(code, str):
            return None  # a built-in; charged to its caller
        path = Path(code.co_filename)
        if path.parent.resolve() != self._package or path.stem not in MODULES:
            return None
        return path.stem

    def totals(self) -> dict[str, float | int]:
        """``<module>.self_s``, ``<module>.calls`` and ``<module>.<function>.calls``.

        Times are thread CPU seconds under the profiler.
        """
        out: dict[str, float | int] = {}
        for mod in TIMED:
            out[f"{mod}.self_s"] = 0.0
        for mod in MODULES:
            out[f"{mod}.calls"] = 0
        for mod, func in FUNCTIONS:
            out[f"{mod}.{func}.calls"] = 0
        with self._lock:
            profiles = list(self._profiles)
        for profile in profiles:
            for entry in profile.getstats():
                mod = self._module(entry.code)
                if mod is None:
                    continue
                builtins = sum(sub.inlinetime for sub in entry.calls or ()
                               if isinstance(sub.code, str))
                if mod in TIMED:
                    out[f"{mod}.self_s"] += entry.inlinetime + builtins
                out[f"{mod}.calls"] += entry.callcount
                key = f"{mod}.{entry.code.co_name}.calls"
                if key in out:
                    out[key] += entry.callcount
        return out
