"""Seeded scenario generators for the benchmark workloads.

Each generator returns plain JSON-ready dicts in the scenario file format,
built without the package, so the planner only ever sees JSON text. Money
is drawn in whole cents and written at the default price scale of 4; the
same seed always gives the same scenarios.

- ``wide``: one deterministic instance, 3 securities in circulation over 5
  grid times (4 stages). Every price plus fee lies in [9.70, 10.60] and the
  capital buys exactly 9 lots at any of them, so the reachable holdings,
  and with them the work, barely move with the seed.
- ``batch``: many small mixed instances drawn like the acceptance sweep,
  in a fixed mix of shapes, heavy draws redrawn.

Run ``python3 bench/workloads.py --workload NAME --seed N`` to print a
workload's scenarios, one JSON document per line.
"""

from __future__ import annotations

import argparse
import json
import random

from checks import instance, reference_dp

WORKLOADS = ("wide", "batch")

WIDE_SECURITIES = 3
WIDE_TIMES = 5
WIDE_CAPITAL_CENTS = 9_600
WIDE_LEVEL = 10
WIDE_NOISE = 20
WIDE_FEE = 30

BATCH_SIZE = 2000
# draws whose full expansion exceeds this many (node, trade) pairs are
# redrawn, so a few heavy instances cannot dominate a batch
BATCH_MAX_SUCCESSORS = 100

# probability splits at 6 places; the thirds make means inexact at scale 4
_THIRDS = ("0.333333", "0.333333", "0.333334")
_SPLITS = (("0.50", "0.50"), ("0.25", "0.75"), ("0.20", "0.30", "0.50"), _THIRDS)


def money(cents: int) -> str:
    """Whole non-negative cents as a decimal string at price scale 4."""
    return f"{cents // 100}.{cents % 100:02d}00"


def _fee_brokers(rng: random.Random, windows: dict[str, list[int]], count: int,
                 max_fee_cents: int, dist_share: float = 0.0) -> list[dict]:
    """``count`` brokers quoting every active (security, time).

    With ``dist_share`` > 0 that share of fee quotes are distributions
    (expected mode only).
    """
    brokers = []
    for b in range(count):
        fees: dict[str, dict[str, object]] = {}
        for sid, active in windows.items():
            for t in active:
                if rng.random() < dist_share:
                    split = rng.choice(_SPLITS)
                    cell: object = [[money(rng.randint(0, max_fee_cents)), p] for p in split]
                else:
                    cell = money(rng.randint(0, max_fee_cents))
                fees.setdefault(sid, {})[str(t)] = cell
        brokers.append({"id": f"b{b}", "fees": fees})
    return brokers


def wide(seed: int) -> list[dict]:
    rng = random.Random(f"wide:{seed}")
    times = list(range(1, WIDE_TIMES + 1))
    securities = []
    windows = {}
    for i in range(WIDE_SECURITIES):
        sid = f"S{i}"
        level = 1000 + rng.randint(-WIDE_LEVEL, WIDE_LEVEL)
        quotes = {str(t): money(level + rng.randint(-WIDE_NOISE, WIDE_NOISE)) for t in times}
        securities.append({"id": sid, "issue_time": 1, "maturity": times[-1] - 1,
                           "quotes": quotes})
        windows[sid] = times
    return [{
        "initial_capital": money(WIDE_CAPITAL_CENTS + rng.randint(0, 60)),
        "times": times,
        "securities": securities,
        "brokers": _fee_brokers(rng, windows, 2, WIDE_FEE),
        "options": {"mode": "deterministic"},
    }]


def _small(rng: random.Random, i: int) -> dict:
    """The ``i``-th acceptance-style instance: 1-3 securities over 2-4 times.

    The shape (grid length, security count, mode) cycles with ``i``, so
    every batch has the same mix and only the numbers vary with the seed.
    """
    n_times = (2, 3, 3, 4)[i % 4]
    n_sec = 1 + i // 4 % 3
    expected = i // 12 % 5 < 2
    times = [rng.randint(0, 3)]
    for _ in range(n_times - 1):
        times.append(times[-1] + rng.randint(1, 3))
    securities = []
    windows = {}
    quoted = []  # quote prices in cents
    for k in range(n_sec):
        sid = f"S{k}"
        first = rng.randint(0, n_times - 2)
        last = rng.randint(first, n_times - 1)
        active = times[first:last + 1]
        drift = rng.choice((-1, 0, 0, 1, 1))
        price = rng.randint(200, 1500)
        quotes, dists = {}, {}
        for t in active:
            if expected and rng.random() < 0.4:
                split = rng.choice(_SPLITS)
                dists[str(t)] = [[money(max(100, price + rng.randint(-200, 200))), p]
                                 for p in split]
            else:
                quotes[str(t)] = money(price)
                quoted.append(price)
            price = min(max(price + drift * rng.randint(0, 250) + rng.randint(-80, 80), 100), 2000)
        entry = {"id": sid, "issue_time": active[0], "maturity": active[-1] - active[0],
                 "quotes": quotes}
        if dists:
            entry["distributions"] = dists
        securities.append(entry)
        windows[sid] = active
    brokers = _fee_brokers(rng, windows, rng.randint(1, 3), rng.choice((30, 30, 100)),
                           dist_share=0.2 if expected else 0.0)
    # shorting widens every trade range; with 3 securities it makes the
    # brute-force check explode, so it is drawn for 1-2 securities only
    allow_short = n_sec < 3 and rng.random() < 0.3
    lots = rng.randint(0, 6 if n_times < 4 else 3)
    return {
        "initial_capital": money(min(quoted, default=1000) * lots + rng.randint(0, 99)),
        "times": times,
        "securities": securities,
        "brokers": brokers,
        "options": {
            "mode": "expected" if expected else "deterministic",
            "allow_short": allow_short,
            "short_cap": rng.randint(1, 2) if allow_short else 0,
            "hold_to_end": rng.random() < 0.2,
        },
    }


def batch(seed: int) -> list[dict]:
    rng = random.Random(f"batch:{seed}")
    docs = []
    while len(docs) < BATCH_SIZE:
        doc = _small(rng, len(docs))
        if reference_dp(instance(doc))[1] <= BATCH_MAX_SUCCESSORS:
            docs.append(doc)
    return docs


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's scenarios for ``seed``, as JSON-ready dicts."""
    return {"wide": wide, "batch": batch}[workload](seed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for doc in generate(args.workload, args.seed):
        print(json.dumps(doc, sort_keys=True))


if __name__ == "__main__":
    main()
