"""End-to-end benchmark of the ``interlacement`` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is one fresh ``python -m interlacement ...`` process with
``PYTHONPATH`` set to this checkout's ``src/``, so no ``lru_cache`` carries
warm state from one job to the next, as for a user of the CLI.  The loop is
closed with one client: the next job starts when the previous one has ended,
and new jobs start until the next one would end after ``--seconds``.

The inputs are graph files written before timing starts: the seed picks the
order of the workload's pool graphs (``refs.json``) and a fresh relabeling of
each (vertex names and order, slot numbers, edge order and direction).
Relabeling changes no expected result, so every job's output is checked
against the stored reference.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs each input untraced and then traced (``layertrace.py``)
and reports the per-layer metrics, as medians over the traced jobs.

The last line of stdout is one JSON object; the lines before it print the
metrics by name and unit.  A record of the run goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from time import perf_counter

import checker

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

MAX_INPUTS = 200
JOB_TIMEOUT_S = 120
RUN_LIMIT_S = 170

CHECK_FUNCTIONS = (
    "check_local_complement_transform",
    "check_naturality",
    "check_inverse",
    "check_core_kernel",
    "check_core_independence",
    "check_label_exchange",
    "check_interlacement_complement",
    "circuit_nullity",
)
TRACE_STATS = ("calls", "busy_s", "self_s", "errors")


@dataclass(frozen=True)
class Workload:
    args: tuple  # CLI arguments after the graph file
    command: str
    check: object
    work: object  # reference work units of one job
    rate_name: str
    rate_unit: str


def _profile_work(expect):
    return sum(expect["profile"].values())


def _verify_work(expect):
    return sum(checks for _, status, checks in expect["properties"] if checks)


def _orbit_work(expect):
    return expect["count"]


WORKLOADS = {
    "profile-large": Workload(
        (), "profile", checker.check_profile, _profile_work,
        "ts_per_s", "transition systems/s",
    ),
    "profile-crosscheck": Workload(
        ("--engine", "both"), "profile", checker.check_profile_both,
        _profile_work, "ts_per_s", "transition systems/s",
    ),
    "verify-exhaustive": Workload(
        ("--exhaustive",), "verify", checker.check_verify, _verify_work,
        "checks_per_s", "checks/s",
    ),
    "orbit": Workload(
        (), "orbit", checker.check_orbit, _orbit_work,
        "systems_per_s", "Euler systems/s",
    ),
}


# ---------------------------------------------------------------- inputs


def _parse_graph_text(text):
    vertices, edges = None, []
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "vertices:":
            vertices = fields[1:]
        elif fields and fields[0] == "edge":
            edges.append(tuple(
                (name, int(slot))
                for name, slot in (f.rsplit(".", 1) for f in fields[1:])
            ))
    return vertices, edges


def relabel(text, rng):
    """An isomorphic copy of a graph file: new vertex names and order, slots
    permuted at every vertex, edges shuffled and randomly reversed."""
    vertices, edges = _parse_graph_text(text)
    names = [f"x{i}" for i in range(len(vertices))]
    rng.shuffle(names)
    rename = dict(zip(vertices, names))
    slots = {}
    for v in vertices:
        perm = [0, 1, 2, 3]
        rng.shuffle(perm)
        slots[v] = perm
    new_edges = []
    for a, b in edges:
        ends = [f"{rename[v]}.{slots[v][s]}" for v, s in (a, b)]
        rng.shuffle(ends)
        new_edges.append(f"edge {ends[0]} {ends[1]}")
    rng.shuffle(new_edges)
    order = sorted(names, key=lambda s: int(s[1:]))
    rng.shuffle(order)
    return "vertices: " + " ".join(order) + "\n" + "\n".join(new_edges) + "\n"


def make_inputs(pool, rng, directory, count):
    """Job inputs: families take turns, each family's graphs in a
    seed-shuffled cycle, every input a fresh relabeling."""
    families = {}
    for entry in pool:
        families.setdefault(entry["family"], []).append(entry)
    cycles = [families[f] for f in sorted(families)]
    for members in cycles:
        rng.shuffle(members)
    inputs = []
    for i in range(count):
        members = cycles[i % len(cycles)]
        entry = members[(i // len(cycles)) % len(members)]
        path = os.path.join(directory, f"g{i:03d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(relabel(entry["graph"], rng))
        inputs.append((path, entry))
    return inputs


# ---------------------------------------------------------------- children


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv, workdir, stem, timeout):
    """Run one child to completion; returns (exit code, stdout, wall s,
    peak RSS MB).  The child is killed after ``timeout`` seconds."""
    out_path = os.path.join(workdir, stem + ".out")
    with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            env=_child_env(), cwd=workdir,
        )
        timer = threading.Timer(timeout, _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    os.unlink(out_path)
    return proc.returncode, stdout, wall, usage.ru_maxrss / 1024


def cli_argv(*args):
    return [sys.executable, "-m", "interlacement", *args]


# ---------------------------------------------------------------- tracing


def layer_values(stats, traced_wall, untraced_wall):
    """Flatten one traced job's stats into per-layer metric values."""
    flat = {}
    for table in (stats["layers"], stats["functions"]):
        for key, values in table.items():
            flat.update({f"{key}.{s}": v for s, v in zip(TRACE_STATS, values)})
    for key, cache in stats["caches"].items():
        total = cache["hits"] + cache["misses"]
        flat[f"{key}.hit_ratio"] = cache["hits"] / total if total else 0.0
    orbit = stats["orbit"]
    flat["euler.kotzig_orbit.new_ratio"] = (
        orbit["new"] / orbit["attempted"] if orbit["attempted"] else 0.0
    )
    # the eight identity checks are also reported as one group
    for fn in CHECK_FUNCTIONS:
        for s in TRACE_STATS:
            flat[f"interlace.check.{fn}.{s}"] = flat[f"interlace.{fn}.{s}"]
    flat["trace.overhead_ratio"] = traced_wall / untraced_wall
    return flat


# ---------------------------------------------------------------- records


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _src_digest():
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def machine():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
    }


def quartiles(values):
    if len(values) < 2:
        return {"p25": values[0], "p50": values[0], "p75": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"p25": q1, "p50": q2, "p75": q3}


# ---------------------------------------------------------------- runs


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "interlacement", "__main__.py")):
        return fail(f"no interlacement package under {SRC}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        with open(os.path.join(BENCH, "refs.json"), encoding="utf-8") as fh:
            refs = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot load the benchmark files: {exc}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    problems = checker.self_test(refs)
    print(
        "checker self-test: "
        + ("; ".join(problems) if problems else
           "clean outputs pass, 3/3 planted corruptions counted as failures")
    )

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result = run(
            args, WORKLOADS[args.workload], refs, workdir,
            [m["name"] for m in wanted],
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for metric in wanted:
        if metric["name"] not in result["metrics"]:
            return fail(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {
            "value": result["metrics"][metric["name"]],
            "unit": metric["unit"],
        }
    tally = result["tally"]
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    for line in result["lines"]:
        print(line)
    if not args.trace:
        print(f"  {'fail_ratio':<14} {tally.fail_ratio:.4g} "
              f"({tally.failed}/{tally.attempted} jobs)")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "commit": _commit(),
        "src_digest": _src_digest(),
        "self_test_problems": problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "job_quartiles": result["quartiles"],
        "setup_s": result["setup"],
        "jobs": result["jobs"],
    }
    records = os.path.join(OUT, "records")
    os.makedirs(records, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(records, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def run(args, workload, refs, workdir, wanted):
    rng = random.Random(f"{args.workload}/{args.seed}")
    pool = refs["workloads"][args.workload]
    inputs = make_inputs(pool, rng, workdir, MAX_INPUTS)
    started = perf_counter()
    tally = checker.Tally()

    def timeout():
        return max(1.0, min(JOB_TIMEOUT_S, started + RUN_LIMIT_S - perf_counter()))

    def job(argv, stem, entry, check):
        code, stdout, wall, rss = run_child(argv, workdir, stem, timeout())
        reason = check(code, stdout, entry)
        tally.record(reason, f"{stem} ({entry['name']})")
        return wall, rss, reason is None

    # set-up is timed once per job, spread over the whole run: on a shared
    # host the machine's speed drifts over seconds, and a burst at the start
    # would otherwise decide the median
    deadline = perf_counter() + args.seconds
    setup, jobs, spent = [], [], []
    for path, entry in inputs:
        if spent and perf_counter() + statistics.median(spent) > deadline:
            break
        t0 = perf_counter()
        stem = os.path.basename(path)[:-4]
        if not args.trace:
            wall, _, _ = job(
                cli_argv("validate", path), stem + "-validate", entry,
                checker.check_validate,
            )
            setup.append(wall)
        cli_args = (workload.command, path, *workload.args)
        wall, rss, ok = job(cli_argv(*cli_args), stem, entry, workload.check)
        record = {
            "input": os.path.basename(path),
            "graph": entry["name"],
            "wall_s": wall,
            "rss_mb": rss,
            "ok": ok,
            "work": workload.work(entry["expect"]),
        }
        if args.trace:
            stats_path = os.path.join(workdir, stem + ".stats.json")
            traced_argv = [
                sys.executable, os.path.join(BENCH, "layertrace.py"),
                stats_path, "--", *cli_args,
            ]
            twall, _, tok = job(traced_argv, stem + "-traced", entry, workload.check)
            record["traced_wall_s"] = twall
            record["traced_ok"] = tok
            try:
                with open(stats_path, encoding="utf-8") as fh:
                    stats = json.load(fh)
            except (OSError, ValueError) as exc:
                tally.record(f"no trace stats: {exc}", stem)
            else:
                record["layers"] = layer_values(stats, twall, wall)
                record["spans"] = stats["spans"]
        jobs.append(record)
        spent.append(perf_counter() - t0)

    walls = [j["wall_s"] for j in jobs]
    lines = [
        f"workload {args.workload}  seed {args.seed}  {len(jobs)} jobs  "
        f"(closed loop, 1 client, {len(pool)} pool graphs)"
    ]
    metrics = {}
    if args.trace:
        traced = [j["layers"] for j in jobs if "layers" in j]
        for name in wanted:
            if traced and name in traced[0]:
                metrics[name] = statistics.median(t[name] for t in traced)
                lines.append(f"  {name:<56} {metrics[name]:.6g}")
        # keep only the reported metrics of each job in the record
        for j in jobs:
            if "layers" in j:
                j["layers"] = {k: j["layers"][k] for k in metrics}
    else:
        work = sum(j["work"] for j in jobs)
        metrics = {
            "setup_s": statistics.median(setup),
            "work_per_s": work / sum(walls),
            "job_s_p50": statistics.median(walls),
            "peak_rss_mb": max(j["rss_mb"] for j in jobs),
        }
        q = quartiles(walls)
        lines += [
            f"  {'setup_s':<14} {metrics['setup_s']:.4f} s "
            f"(median of {len(setup)} validate runs)",
            f"  {workload.rate_name:<14} {metrics['work_per_s']:.1f} "
            f"{workload.rate_unit} ({work} from references / {sum(walls):.2f} s)",
            f"  {'job_s_p50':<14} {metrics['job_s_p50']:.4f} s "
            f"({len(jobs)} jobs; p25 {q['p25']:.4f}, p75 {q['p75']:.4f})",
            f"  {'peak_rss_mb':<14} {metrics['peak_rss_mb']:.1f} MB",
        ]
    return {
        "metrics": metrics,
        "tally": tally,
        "lines": lines,
        "jobs": jobs,
        "setup": setup,
        "quartiles": {"job_s": quartiles(walls)} if walls else {},
    }


if __name__ == "__main__":
    sys.exit(main())
