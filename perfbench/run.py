#!/usr/bin/env python3
"""Outside-in benchmark of heightcount.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Workloads (see jobs.py and BENCHMARK.json for why each exists):
  scan     reuse-heavy analytic pipeline: one sieve serves ~200 convolutions
  census   exhaustive PGL_2(Q) counting at B = 1 and B = 1/2
  queries  independent cold queries: BFS, volumes, a 0.3 GB table, one-shot b(T)

Closed loop, one client: one fresh child process at a time (child.py), its
jobs run back to back, no worker pools; BLAS is pinned to one thread.
Every child starts cold, as a CLI invocation does, so the package's
caches are empty.  The loop repeats until --seconds have passed and
reports medians over the repetitions:

  --trace 0  end-to-end metrics, tracing off:
             wall_s       seconds to run all jobs of the workload, set-up excluded
             setup_s      seconds from starting the child to the end of
                          `import heightcount`; an import-only child runs
                          beside each workload child, so the median has
                          twice as many samples
             peak_rss_mb  the child's peak resident memory (ru_maxrss)
  --trace 1  per-layer metrics from alternating untraced and traced
             children; spans go to .perfbench/trace-<workload>-seed<n>.json.

Every job's results are checked (checks.py); a job that raises, exceeds a
package budget, or returns a result outside its tolerance is failed.
error_rate = failed / attempted is printed, and `failed` and `attempted`
carry it in the final JSON line, which is always the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DEADLINE_S = 165.0  # the whole run must end within 180 s
SETUP_CHILDREN = 3  # import-only children per workload child, for setup_s samples

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# (name, unit, computed): computed counters are derived from inputs or
# returned values by jobs.py, not measured inside the package.
PER_LAYER = [
    ("building.calls", "count", False),
    ("building.self_s", "s", False),
    ("building.classes", "count", False),
    ("building.neighbours", "count", True),
    ("building.useful_ratio", "ratio", True),
    ("building.budget_ratio", "ratio", True),
    ("dirichlet.calls", "count", False),
    ("dirichlet.self_s", "s", False),
    ("dirichlet.sieve_terms", "count", True),
    ("dirichlet.euler_primes", "count", True),
    ("dirichlet.terms_per_s", "1/s", True),
    ("archimedean.calls", "count", False),
    ("archimedean.self_s", "s", False),
    ("archimedean.table_nodes", "count", True),
    ("archimedean.table_bytes", "bytes", True),
    ("adelic.calls", "count", False),
    ("adelic.self_s", "s", False),
    ("adelic.conv_evals", "count", False),
    ("adelic.conv_terms", "count", True),
    ("adelic.sieve_terms_requested", "count", True),
    ("adelic.reuse_ratio", "ratio", True),
    ("counting.calls", "count", False),
    ("counting.self_s", "s", False),
    ("counting.box_cells", "count", True),
    ("counting.classes_found", "count", False),
    ("counting.ties", "count", False),
    ("counting.hit_ratio", "ratio", False),
    ("trace.overhead_s", "s", False),
]
LAYERS = ("building", "dirichlet", "archimedean", "adelic", "counting")


class ChildFailed(Exception):
    pass


def spawn(args: list[str], timeout: float) -> dict:
    """Run child.py to completion and return its JSON record plus setup_s."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child {args} timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(record["package"]).resolve().parent.parent != SRC.resolve():
        raise ChildFailed(f"child imported heightcount from {record['package']}, not {SRC}")
    record["setup_s"] = record["import_end"] - start
    return record


def check(jobs, record: dict, references: dict) -> list[str]:
    """Names of failed jobs, each with its first problem."""
    failed = []
    for job in jobs:
        res = record["results"].get(job.name, {"error": "job did not run"})
        if "error" in res:
            problems = [res["error"].strip().splitlines()[-1]]
        else:
            problems = checks.compare(res["values"], references)
            if job.oracle is not None:
                problems += job.oracle(res["values"])
        if problems:
            failed.append(f"{job.name}: {problems[0]}")
    return failed


def budget_ratios(counters: dict) -> list[tuple[str, float]]:
    """(call, ball_size estimate / classes found) for each BFS call."""
    out = []
    for key, estimate in counters.items():
        if key.startswith("building.budget_estimate("):
            call = key[key.index("(") :]
            out.append((call, estimate / counters["building.budget_found" + call]))
    return out


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child run."""
    spans = record["spans"]
    own = self_times(spans)
    c = record["counters"]
    m: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s["name"].startswith(layer + ".")]
        m[f"{layer}.calls"] = len(mine)
        m[f"{layer}.self_s"] = sum(own[s["id"]] for s in mine)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    for name in (
        "building.classes",
        "building.neighbours",
        "dirichlet.sieve_terms",
        "dirichlet.euler_primes",
        "archimedean.table_nodes",
        "archimedean.table_bytes",
        "adelic.conv_evals",
        "adelic.conv_terms",
        "adelic.sieve_terms_requested",
        "counting.box_cells",
        "counting.classes_found",
        "counting.ties",
    ):
        m[name] = c.get(name, 0)
    m["building.useful_ratio"] = ratio(m["building.classes"], m["building.neighbours"])
    m["building.budget_ratio"] = min((r for _, r in budget_ratios(c)), default=0.0)
    m["dirichlet.terms_per_s"] = ratio(
        m["dirichlet.sieve_terms"] + m["dirichlet.euler_primes"], m["dirichlet.self_s"]
    )
    m["adelic.reuse_ratio"] = ratio(m["adelic.conv_terms"], m["adelic.sieve_terms_requested"])
    m["counting.hit_ratio"] = ratio(m["counting.classes_found"], m["counting.box_cells"])
    # harness time between layer calls: job spans' own time
    m["job.self_s"] = sum(own[s["id"]] for s in spans if s["name"].startswith("job."))
    m["span_self_sum_s"] = sum(own.values())
    return m


def describe(values: list[float]) -> str:
    return f"median {statistics.median(values):.6g}, min {min(values):.6g}, max {max(values):.6g}, n={len(values)}"


def main() -> int:
    ap = argparse.ArgumentParser(description="heightcount outside-in benchmark")
    ap.add_argument("--workload", required=True, choices=("scan", "census", "queries"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "heightcount" / "__init__.py").is_file():
        print(f"error: no heightcount source at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jobs as jobs_mod

    jobs = jobs_mod.build(args.workload, args.seed)
    references = checks.load_references()
    t0 = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - t0)

    attempted = failed = 0
    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    rep_s = 0.0
    try:
        spawn(["--import-only"], remaining())  # writes bytecode caches; not timed
        rep = 0
        while True:
            started = time.monotonic()
            for _ in range(0 if args.trace else SETUP_CHILDREN):
                setups.append(spawn(["--import-only"], remaining())["setup_s"])
            modes = (0, 1) if args.trace else (0,)
            for trace in modes:
                argv = ["--workload", args.workload, "--seed", str(args.seed)]
                argv += ["--trace", str(trace), "--run-id", f"{args.workload}-{args.seed}-{rep}"]
                attempted += len(jobs)
                record = spawn(argv, remaining())
                bad = check(jobs, record, references)
                failed += len(bad)
                for line in bad:
                    print(f"FAILED {line}", file=sys.stderr)
                setups.append(record["setup_s"])
                (traced if trace else plain).append(record)
            rep += 1
            rep_s = max(rep_s, time.monotonic() - started)
            # stop at the repetition whose end lies nearest to --seconds
            elapsed = time.monotonic() - t0
            if elapsed + rep_s / 2 >= args.seconds or remaining() < 1.5 * rep_s:
                break
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        failed += len(jobs)
    if not plain or (args.trace and not traced):
        print("error: no complete run to report", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced, {len(traced)} traced runs")
    print("machine " + json.dumps(plain[0]["machine"]))
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} jobs attempted)")
    walls = [r["wall_s"] for r in plain]
    wall = statistics.median(walls)
    if not args.trace:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        print(f"wall_s {wall:.6g} s ({describe(walls)})")
        print(f"setup_s {values['setup_s']:.6g} s ({describe(setups)})")
        print(f"peak_rss_mb {values['peak_rss_mb']:.6g} MB ({describe([r['peak_rss_mb'] for r in plain])})")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        per_rep = [layer_metrics(r) for r in traced]
        merged = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        merged["trace.overhead_s"] = traced_wall - wall
        print(f"traced wall_s {traced_wall:.6g} s; untraced wall_s {wall:.6g} s")
        print(f"span self-time sum {merged['span_self_sum_s']:.6g} s; harness (job.*) self time {merged['job.self_s']:.6g} s")
        for call, r in budget_ratios(traced[0]["counters"]):
            print(f"building budget {call}: estimate / classes found = {r:.6g} (computed)")
        metrics = {}
        for name, unit, computed in PER_LAYER:
            print(f"{name} {merged[name]:.6g} {unit}{' (computed)' if computed else ''}")
            metrics[name] = {"value": merged[name], "unit": unit}
        OUT_DIR.mkdir(exist_ok=True)
        dump = {
            "workload": args.workload,
            "seed": args.seed,
            "spans": [s for r in traced for s in r["spans"]],
            "counters": [r["counters"] for r in traced],
        }
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(dump))
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
