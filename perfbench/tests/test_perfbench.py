"""Tests of the benchmark itself: failure accounting, spans, contract.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import heightcount as hc  # noqa: E402

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
from child import run_jobs  # noqa: E402
from spans import NullTracer, self_times  # noqa: E402


def _main(monkeypatch, capsys, workload: str) -> dict:
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", workload, "--seed", "1", "--seconds", "0"])
    assert run.main() == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_perturbed_reference_counts_in_error_rate(monkeypatch, capsys, tmp_path):
    refs = checks.load_references()
    # exact integer sums, so any change must be caught; perturb every
    # variant so the seed's choice does not matter
    for v in range(jobs.VARIANTS):
        refs[f"partial_sum(d=2,B=0,x={10**6 - 1000 * v})"] += 1
    perturbed = tmp_path / "references.json"
    perturbed.write_text(json.dumps({"values": refs}))
    monkeypatch.setattr(checks, "REFERENCES", perturbed)
    out = _main(monkeypatch, capsys, "scan")
    assert out["failed"] == 1 and out["attempted"] == 12 and out["correct"] is False


def test_budget_overrun_is_a_failed_job(monkeypatch):
    monkeypatch.setenv("HEIGHTCOUNT_MAX_SIEVE", "1000")
    job = next(j for j in jobs.build("scan", seed=1) if j.name == "partial_sum")
    results, _ = run_jobs([job], NullTracer())
    assert results["partial_sum"]["error"].startswith("BudgetError")
    failed = run.check([job], {"results": results}, checks.load_references())
    assert len(failed) == 1 and "BudgetError" in failed[0]


def test_budget_overrun_in_child_counts_in_error_rate(monkeypatch, capsys):
    # the child inherits the budget; every scan job that sieves with the
    # default budget (series, persistence, partial sum) must fail, the rest pass
    monkeypatch.setenv("HEIGHTCOUNT_MAX_SIEVE", "1000")
    out = _main(monkeypatch, capsys, "scan")
    assert out["failed"] == 3 and out["correct"] is False


def test_span_self_times_sum_to_traced_wall():
    record = run.spawn(["--workload", "scan", "--seed", "1", "--trace", "1"], 120)
    spans = record["spans"]
    own = self_times(spans)
    total = sum(own.values())
    roots = [s for s in spans if s["parent"] is None]
    assert {s["name"] for s in roots} == {"job." + j.name for j in jobs.build("scan", seed=1)}
    assert all(s["name"].split(".")[0] in run.LAYERS for s in spans if s["parent"] is not None)
    assert abs(total - sum(s["end"] - s["start"] for s in roots)) < 1e-9
    # what lies outside the spans is the loop around the jobs
    assert 0 <= record["wall_s"] - total <= 0.01 * record["wall_s"]


def test_self_times_subtract_covered_child_time():
    spans = [
        {"id": 0, "name": "job.a", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "adelic.f", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "dirichlet.g", "start": 2.0, "end": 3.0, "parent": 1},
        {"id": 3, "name": "adelic.h", "start": 5.0, "end": 6.0, "parent": 0},
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_calls_only_public_package_names():
    source = (BENCH / "jobs.py").read_text()
    used = set(re.findall(r"\bhc\.(\w+)", source))
    assert used and all(not n.startswith("_") and hasattr(hc, n) for n in used)
    assert "workers=" not in source
    for private in ("_volume_grid", "_coeff_arrays", "EulerFactorParams", "hnf_universe", "enumerate_elements"):
        assert private not in source


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]


def test_same_seed_same_inputs():
    first = run_jobs(jobs.build("census", seed=5)[-2:], NullTracer())[0]
    again = run_jobs(jobs.build("census", seed=5)[-2:], NullTracer())[0]
    assert [r["values"] for r in first.values()] == [r["values"] for r in again.values()]


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
