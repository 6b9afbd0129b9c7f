#!/usr/bin/env python3
"""Benchmark the working tree against a parent revision with perfbench.

For each workload, runs `python3 perfbench/run.py --workload W --seed S
--seconds 6` as a subprocess on the working tree and on --parent REV,
which is unpacked by `git archive` into a temporary directory.  The two
sides alternate over 10 pairs, and the side that goes first alternates
from pair to pair, so drift in the host's speed hits both alike.  Each run's final
JSON line gives its medians, `correct`, `failed` and `attempted`.

Writes BENCH_<label>.json at the repository root with the machine record,
the median and quartiles over the runs of each end-to-end metric for each
side and workload, how many pairs the working tree won, two more peaks, and
an accuracy column.  Each peak is read from one child that runs the
workload's jobs from `perfbench/jobs.py` once with the seed's inputs, in
MB of 2^20 bytes as `peak_rss_mb`.  The traced peak, `traced_peak_mb`, is
the tracemalloc peak: unlike the RSS, it does not move with the heap's
layout.  The own peak, `own_peak_rss_mb`, is the child's VmHWM from
/proc/self/status: unlike perfbench's ru_maxrss, which Linux raises at exec
to the resident peak of the process that starts the child, it counts the
child's own pages alone.  The accuracy column is the largest relative
error of the d = 2 adelic ball volume b(T) against the term-by-term
oracle `tests/oracles.adelic_volume_d2`, for each side.

Usage (from the repository root):
    python scripts/bench.py --parent HEAD --label d2_prefix
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
# parent/change pairs per workload, and the length of each perfbench run
PAIRS = 10
SECONDS = 6

# (B, T) points of the accuracy column: 2B an integer up to T = 13.1, where
# the oracle sums in integers, and B = 0.02, 1.98 up to T = 7
ACCURACY_POINTS = [
    (B, T)
    for B in (0.5, 1.0, 1.5)
    for T in (0.05, 0.3, 0.7, 1.1, 2.0, 3.5, 5.0, 7.0, 9.0, 11.0, 13.1)
] + [(B, T) for B in (0.02, 1.98) for T in (0.05, 0.3, 0.7, 1.1, 2.0, 3.5, 5.0, 7.0)]

# runs the workload's jobs once under tracemalloc, after the imports, with
# the package and perfbench on PYTHONPATH; prints the peak in MB
_TRACED_PEAK = """
import sys, tracemalloc
import jobs
from spans import NullTracer
todo = jobs.build(sys.argv[1], int(sys.argv[2]))
tracemalloc.start()
for job in todo:
    job.run(NullTracer())
print(tracemalloc.get_traced_memory()[1] / 2**20)
"""

# runs the workload's jobs once untraced, as above; prints VmHWM in MB
_OWN_PEAK = """
import sys
import jobs
from spans import NullTracer
for job in jobs.build(sys.argv[1], int(sys.argv[2])):
    job.run(NullTracer())
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024)
"""

# evaluates b(T) at each point with the package on PYTHONPATH
_EVALUATE = """
import json, sys
from heightcount import adelic_volume_callable
points = json.load(sys.stdin)
print(json.dumps([adelic_volume_callable(2, B, T, max_sieve=10**6)(T) for B, T in points]))
"""


def _unpack(rev: str, target: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(target, filter="data")


def _perfbench(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One perfbench run in `tree`: its machine record and final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    machine = next(json.loads(line[len("machine ") :]) for line in lines if line.startswith("machine "))
    return machine, json.loads(lines[-1])


def _peak(tree: Path, script: str, workload: str, seed: int) -> float:
    """The peak `script` prints after one run of the workload's jobs."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join((str(tree / "src"), str(tree / "perfbench"))),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, workload, str(seed)],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(proc.stdout)


def _summary(runs: list[dict]) -> dict:
    out = {
        "runs": len(runs),
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "metrics": {},
    }
    for name in END_TO_END:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        out["metrics"][name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "values": values,
        }
    return out


def _worst_error(tree: Path, oracle: list[float]) -> dict:
    """The largest relative error of the tree's b(T) and its (B, T)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _EVALUATE],
        input=json.dumps(ACCURACY_POINTS),
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    values = json.loads(proc.stdout)
    error, B, T = max((abs(v - o) / o, B, T) for v, o, (B, T) in zip(values, oracle, ACCURACY_POINTS))
    return {"max_rel_error": error, "at_B": B, "at_T": T}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--workloads", default="scan,census,queries")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from oracles import adelic_volume_d2

    def git(*argv: str) -> str:
        return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()

    parent_rev = git("rev-parse", args.parent)
    change = f"working tree at {git('rev-parse', 'HEAD')}"
    if git("status", "--porcelain"):
        change += " with uncommitted changes"
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        _unpack(parent_rev, parent)
        trees = {"parent": parent, "change": ROOT}
        machine, workloads = None, {}
        for workload in args.workloads.split(","):
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    machine, final = _perfbench(trees[side], workload, args.seed)
                    runs[side].append(final)
                    print(f"{workload} pair {i + 1} {side}: wall_s {final['metrics']['wall_s']['value']:.4f}", flush=True)
            wins = {
                name: sum(
                    c["metrics"][name]["value"] < p["metrics"][name]["value"]
                    for p, c in zip(runs["parent"], runs["change"])
                )
                for name in END_TO_END
            }
            workloads[workload] = {side: _summary(runs[side]) for side in runs}
            for side, tree in trees.items():
                summary = workloads[workload][side]
                summary["traced_peak_mb"] = _peak(tree, _TRACED_PEAK, workload, args.seed)
                summary["own_peak_rss_mb"] = _peak(tree, _OWN_PEAK, workload, args.seed)
            workloads[workload]["change_lower_in_pairs"] = wins
        oracle = [adelic_volume_d2(B, T) for B, T in ACCURACY_POINTS]
        accuracy = {
            "quantity": "d = 2 adelic ball volume b(T) against tests/oracles.adelic_volume_d2",
            "points": len(ACCURACY_POINTS),
            "parent": _worst_error(parent, oracle),
            "change": _worst_error(ROOT, oracle),
        }
    report = {
        "schema": "heightcount/bench/v1",
        "label": args.label,
        "machine": machine,
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {SECONDS}",
        "parent": parent_rev,
        "change": change,
        "pairs": PAIRS,
        "workloads": workloads,
        "accuracy": accuracy,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
