#!/usr/bin/env python3
"""Benchmark the working tree against a parent revision with perfbench.

For each workload, runs `python3 perfbench/run.py --workload W --seed S
--seconds N` as a subprocess on the working tree and on --parent REV,
with N the `run_seconds` of BENCHMARK.json, the length of a benchmark run.
Both run from fresh copies side by side in one temporary directory:
--parent unpacked by `git archive`, and the working tree's tracked and
untracked files, without those .gitignore names.  The two sides
alternate over 10 pairs, and the side that goes first alternates from
pair to pair, so drift in the host's speed hits both alike.  Each run's
final JSON line gives its medians, `correct`, `failed` and `attempted`.

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

The `layers` entry times in-process cases of single layers, each in one
child per side that imports only public names of the package, so that the
parent tree runs the same code.  Each case runs once to warm up, then
LAYER_REPEATS times under `time.process_time`; the median and quartiles
are recorded in ms.  There are two cases, both of the `queries` workload:
`bfs` runs `enumerate_classes` and one pass over its table at each of
that workload's five sizes, with the `enumerate_classes` share of the
same repeats beside it; `series` runs `ball_volume_numeric` at the radii
of its three `numeric` jobs (at input variant 1, so most radii are not
dyadic) and `ball_volume_table(3, 1, 11.41)`, the table of its largest
d = 3 one-shot b(T).

Usage (from the repository root):
    python scripts/bench.py --parent HEAD --label d2_prefix
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
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
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

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

# repeats of each layer case after its warm-up run
LAYER_REPEATS = 21

# the BFS layer case at the (d, p, k) of the `queries` BFS jobs of
# perfbench/jobs.py, with the package on PYTHONPATH: prints the ms of each
# repeat, of the whole case and of its `enumerate_classes` calls
_BFS_LAYER = """
import json, sys, time
from heightcount import BuildingParams, enumerate_classes
def case():
    spent = 0.0
    for d, p, k in ((2, 3, 8), (3, 2, 3), (3, 3, 3), (4, 2, 2), (4, 3, 2)):
        start = time.process_time()
        table = enumerate_classes(BuildingParams(d, p), k)
        spent += time.process_time() - start
        for _ in table:
            pass
    return spent
case()
runs = []
for _ in range(int(sys.argv[1])):
    start = time.process_time()
    spent = case()
    runs.append((1e3 * (time.process_time() - start), 1e3 * spent))
print(json.dumps(runs))
"""

# the series layer case at the radii of the `queries` numeric jobs of
# perfbench/jobs.py at variant 1, with the package on PYTHONPATH: prints
# the ms of each repeat
_SERIES_LAYER = """
import json, sys, time
from heightcount import ball_volume_numeric, ball_volume_table
def radii(d):
    fixed = {3: 2.0, 4: 1.5}.get(d, 1.0)
    return sorted(r if r == fixed else r + 0.01 if r < 4.0 else r - 0.01 for r in (0.5 * i for i in range(1, 9)))
def case():
    for d in (2, 3, 4):
        for R in radii(d):
            ball_volume_numeric(d, 1.0, R)
    ball_volume_table(3, 1.0, 11.41)
case()
runs = []
for _ in range(int(sys.argv[1])):
    start = time.process_time()
    case()
    runs.append([1e3 * (time.process_time() - start)])
print(json.dumps(runs))
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


def _copy_worktree(target: Path) -> None:
    """Copies the working tree's tracked and untracked files, leaving out
    what .gitignore names, such as bytecode caches."""
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=ROOT, check=True, capture_output=True
    )
    for name in filter(None, os.fsdecode(listing.stdout).split("\0")):
        if (ROOT / name).is_file():  # a tracked file may be deleted
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, target / name)


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


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _layer(tree: Path, script: str, names: tuple[str, ...]) -> dict:
    """A layer case, timed in one child of `tree`: the quartiles of each of
    the timings `script` prints per repeat, under `names`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(LAYER_REPEATS)],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return {name: _quartiles(list(ms)) for name, ms in zip(names, zip(*json.loads(proc.stdout)))}


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
        out["metrics"][name] = {"unit": runs[0]["metrics"][name]["unit"], **_quartiles(values)}
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
        # two fresh copies at paths of equal length: neither side reads a
        # stale bytecode cache, and the directory name sets the same heap
        # layout on both
        trees = {side: Path(tmp, side) for side in ("parent", "change")}
        _unpack(parent_rev, trees["parent"])
        _copy_worktree(trees["change"])
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
        layers = {
            "bfs": {
                "case": "enumerate_classes and one pass over its table at (d, p, k) = "
                "(2, 3, 8), (3, 2, 3), (3, 3, 3), (4, 2, 2), (4, 3, 2)",
                "timer": "time.process_time",
                "repeats": LAYER_REPEATS,
                **{side: _layer(tree, _BFS_LAYER, ("case_ms", "enumerate_classes_ms")) for side, tree in trees.items()},
            },
            "series": {
                "case": "ball_volume_numeric at d = 2, 3, 4 and the 8 radii of each queries numeric job "
                "at variant 1, and ball_volume_table(3, 1, 11.41)",
                "timer": "time.process_time",
                "repeats": LAYER_REPEATS,
                **{side: _layer(tree, _SERIES_LAYER, ("case_ms",)) for side, tree in trees.items()},
            },
        }
        oracle = [adelic_volume_d2(B, T) for B, T in ACCURACY_POINTS]
        accuracy = {
            "quantity": "d = 2 adelic ball volume b(T) against tests/oracles.adelic_volume_d2",
            "points": len(ACCURACY_POINTS),
            "parent": _worst_error(trees["parent"], oracle),
            "change": _worst_error(trees["change"], oracle),
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
        "layers": layers,
        "accuracy": accuracy,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
