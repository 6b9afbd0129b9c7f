#!/usr/bin/env python3
"""Record the reference results in references.json.

Runs every workload once per input variant, each in a cold child exactly
as run.py does, and stores every result keyed by quantity and inputs, so
the table covers every seed.  A key produced by two variants must agree
exactly, and every job's oracle must pass, or nothing is written.

Run it only at a commit whose results are trusted; later commits are
checked against what it wrote.

Usage (from the repository root): python3 perfbench/record.py
"""

from __future__ import annotations

import json
import subprocess
import sys

import checks
from run import DEADLINE_S, SRC, spawn


def main() -> int:
    sys.path.insert(0, str(SRC))
    import jobs

    values: dict = {}
    problems = []
    for workload in jobs.WORKLOADS:
        for variant in range(jobs.VARIANTS):
            record = spawn(["--workload", workload, "--variant", str(variant)], DEADLINE_S)
            for job in jobs.build(workload, variant=variant):
                res = record["results"][job.name]
                if "error" in res:
                    problems.append(f"{workload}/{job.name}: {res['error']}")
                    continue
                problems += [f"{workload}/{job.name}: {p}" for p in job.oracle(res["values"])] if job.oracle else []
                for key, value in res["values"].items():
                    if key.startswith("_"):
                        continue
                    if key in values and values[key] != value:
                        problems.append(f"{key}: {values[key]!r} != {value!r} across variants")
                    values[key] = value
            print(f"{workload} variant {variant}: wall {record['wall_s']:.2f} s", file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True).stdout.strip()
    with open(checks.REFERENCES, "w") as fh:
        json.dump({"recorded_at": commit, "values": dict(sorted(values.items()))}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(values)} reference values to {checks.REFERENCES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
