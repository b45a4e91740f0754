import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

import pairs  # noqa: E402

def _number(path):
    return int(path.stem.removeprefix("BENCH_"))


# every committed summary written since the pairs were first summarized
# with inclusive quartiles, in BENCH_13.json; earlier files used other
# formulas
COMMITTED = sorted((path for path in ROOT.glob("BENCH_*.json") if _number(path) >= 13),
                   key=_number)


@pytest.mark.parametrize("path", COMMITTED, ids=[p.stem for p in COMMITTED])
def test_the_committed_summaries_come_back_from_their_runs(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    for workload in bench["workloads"].values():
        for name, committed in workload["metrics"].items():
            got = pairs.summarize(committed["parent"]["runs"], committed["change"]["runs"],
                                  committed["better"], committed["bound"])
            for side in ("parent", "change"):
                assert got.pop(side) == committed[side], name
            # one file computed the relative change as a ratio minus 1,
            # which differs in the last bits
            assert got == pytest.approx({key: committed[key] for key in got}, rel=1e-12), name


def test_a_workload_summary_counts_every_run():
    def result(seed, failed, correct=True):
        return {"correct": correct, "attempted": 10, "failed": failed, "metrics": {
            spec["name"]: {"value": float(seed), "unit": spec["unit"]}
            for spec in END_TO_END}}

    seeds = [1, 2, 3, 4]
    summary = pairs.workload_summary(
        {"parent": [result(s, 0) for s in seeds],
         "change": [result(s, 1, correct=s != 3) for s in seeds]}, seeds, END_TO_END)
    assert (summary["pairs"], summary["seeds"], summary["correct"]) == (4, seeds, False)
    assert summary["failed"] == {"parent": 0, "change": 4}
    assert summary["attempted"] == {"parent": 40, "change": 40}
    assert set(summary["metrics"]) == {spec["name"] for spec in END_TO_END}
    for metric in summary["metrics"].values():
        assert metric["change_wins"] == 0 and metric["relative_change"] == 0


def test_tied_parent_runs_leave_the_gap_over_their_spread_unset():
    got = pairs.summarize([20.0] * 10, [19.5] * 10, "lower", 0.15)
    assert got["parent"]["q1"] == got["parent"]["q3"] == 20.0
    assert got["median_gap_over_parent_iqr"] is None
    assert got["change_wins"] == 10 and got["relative_change"] == -0.025
    assert got["within_bound"]
