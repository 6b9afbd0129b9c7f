"""One cold run of a workload, started by run.py as a fresh process.

The first statement imports the package, so the import-end timestamp
(CLOCK_MONOTONIC, shared by all processes on the host) marks the end of
set-up: interpreter start, numpy and heightcount.  The jobs then run back
to back; each job's failure (a raised HeightCountError such as BudgetError,
or any other exception) is recorded and the next job still runs.  One JSON
object goes to stdout: import-end time, wall time, peak RSS, machine
record, each job's results or error, and with --trace 1 the spans and
counters.  Checking happens in the parent, outside the timed region.

Usage: python3 perfbench/child.py --workload scan --seed 1 --trace 0
       python3 perfbench/child.py --import-only
"""

import time

import heightcount

IMPORT_END = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

from spans import NullTracer, Tracer  # noqa: E402


def run_jobs(jobs, tracer) -> tuple[dict, float]:
    """Run jobs back to back; return per-job results or errors and the wall time."""
    results = {}
    t0 = time.perf_counter()
    for job in jobs:
        try:
            results[job.name] = {"values": tracer.call("job." + job.name, job.run, tracer)}
        except heightcount.HeightCountError as exc:
            results[job.name] = {"error": f"{type(exc).__name__}: {exc}"}
        except Exception:  # a failed job must not stop the run; keep its traceback
            results[job.name] = {"error": traceback.format_exc()}
    return results, time.perf_counter() - t0


def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description="one cold run of a benchmark workload")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--variant", type=int, default=None, help="set every job input to this variant")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-id", default="0")
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args()

    out = {"import_end": IMPORT_END, "package": heightcount.__file__}
    if not args.import_only:
        import jobs

        tracer = Tracer(args.run_id) if args.trace else NullTracer()
        results, wall = run_jobs(jobs.build(args.workload, args.seed, args.variant), tracer)
        out.update(wall_s=wall, results=results, machine=machine())
        if args.trace:
            out.update(spans=tracer.export(), counters=tracer.counters)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
