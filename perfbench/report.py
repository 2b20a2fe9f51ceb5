"""Summarise benchmark run records across runs.

Usage: python3 perfbench/report.py [RECORD_OR_DIR ...]

Reads the JSON records that ``run.py`` writes (default:
``perfbench/out/records``), groups them by workload, trace mode and source
digest, and prints for every metric the run count, the median and the
quartiles across runs (``statistics.quantiles(values, n=4)``), and the
spread: the distance between the quartiles as a share of the median.  For
end-to-end metrics it compares the spread with the metric's bound in
BENCHMARK.json and marks those above a third of it.  It also prints the
machine, commit and seeds of each group, and whether any run failed.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def load(paths):
    files = []
    for path in paths or [os.path.join(BENCH, "out", "records")]:
        if os.path.isdir(path):
            files += sorted(glob.glob(os.path.join(path, "*.json")))
        else:
            files.append(path)
    records = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    groups = {}
    for rec in load(argv):
        key = (rec["workload"], rec["trace"], rec["src_digest"][:12])
        groups.setdefault(key, []).append(rec)
    for (workload, trace, digest), recs in sorted(groups.items()):
        failed = sum(r["failed"] for r in recs)
        attempted = sum(r["attempted"] for r in recs)
        m = recs[0]["machine"]
        print(
            f"{workload}  trace={trace}  src {digest}  commit "
            f"{(recs[0]['commit'] or 'unknown')[:12]}  {len(recs)} runs  "
            f"failed {failed}/{attempted}"
        )
        print(
            f"  {m['nproc']} cpus, {m['cpu_model']}, Python {m['python']}, "
            f"numpy {m['numpy']}; seeds "
            + " ".join(str(r["seed"]) for r in recs)
        )
        jobs = [len(r["jobs"]) for r in recs]
        print(f"  jobs per run: {min(jobs)}-{max(jobs)}")
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name] for r in recs]
            p50, q1, q3, rel = spread(values)
            note = ""
            if name in bounds:
                bound = bounds[name]
                flag = "  ABOVE bound/3" if rel > bound / 3 else ""
                note = f"  bound {bound}{flag}"
            print(
                f"  {name:<56} p50 {p50:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                f"spread {rel:.3f}{note}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
