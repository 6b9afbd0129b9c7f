"""Schema of the committed benchmark records `BENCH_*.json`, written by
`scripts/bench.py`.  Their timings are measurements of one machine and are
not checked; their correctness and accuracy fields are."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# the timings of each layer case of `scripts/bench.py`
LAYER_TIMINGS = {"bfs": {"case_ms", "enumerate_classes_ms"}, "series": {"case_ms"}}


def test_the_d2_prefix_record_covers_every_workload():
    rec = json.loads((ROOT / "BENCH_d2_prefix.json").read_text())
    assert set(rec["workloads"]) == {"scan", "census", "queries"}


@pytest.mark.parametrize("name", ["BENCH_log_band.json", "BENCH_log_band_seed7919.json"])
def test_the_log_band_records_time_both_layer_cases(name):
    rec = json.loads((ROOT / name).read_text())
    assert set(rec["layers"]) == set(LAYER_TIMINGS)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_schema(path):
    rec = json.loads(path.read_text())
    assert rec["schema"] == "heightcount/bench/v1"
    assert path.name == f"BENCH_{rec['label']}.json"
    assert {"cores", "python", "numpy", "platform"} <= set(rec["machine"])
    assert rec["command"].startswith("python3 perfbench/run.py --workload W")
    assert rec["workloads"] and set(rec["workloads"]) <= {"scan", "census", "queries"}
    for workload in rec["workloads"].values():
        for side in ("parent", "change"):
            summary = workload[side]
            assert summary["runs"] == rec["pairs"]
            assert summary["correct"] is True
            assert summary["failed"] == 0 < summary["attempted"]
            for name, unit in END_TO_END.items():
                metric = summary["metrics"][name]
                assert metric["unit"] == unit
                assert len(metric["values"]) == summary["runs"]
                assert min(metric["values"]) <= metric["q1"] <= metric["median"] <= metric["q3"] <= max(metric["values"])
            # the tracemalloc and VmHWM peaks of one child; older records lack them
            for peak in ("traced_peak_mb", "own_peak_rss_mb"):
                if peak in summary:
                    assert 0 < summary[peak] < math.inf
        wins = workload["change_lower_in_pairs"]
        assert set(wins) == set(END_TO_END)
        assert all(0 <= n <= rec["pairs"] for n in wins.values())
    # in-process layer cases, in ms per repeat; older records lack them or
    # hold `bfs` alone
    for name, case in rec.get("layers", {}).items():
        assert case["case"] and case["timer"] == "time.process_time" and case["repeats"] >= 15
        for side in ("parent", "change"):
            assert set(case[side]) == LAYER_TIMINGS[name]
            for timing in case[side].values():
                assert len(timing["values"]) == case["repeats"]
                assert 0 < min(timing["values"]) <= timing["q1"] <= timing["median"] <= timing["q3"] <= max(timing["values"])
    accuracy = rec["accuracy"]
    assert accuracy["points"] > 0
    for side in ("parent", "change"):
        assert {"max_rel_error", "at_B", "at_T"} <= set(accuracy[side])
    assert accuracy["change"]["max_rel_error"] <= 1e-12
