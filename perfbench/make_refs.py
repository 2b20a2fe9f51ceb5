"""Build ``refs.json``: the graph pool of every workload and the expected
result of every job on it.

Usage (from the repository root): python3 perfbench/make_refs.py

The benchmark itself never imports the library; this script does, once, and
stores each result only after an independent route agrees with it:

* profiles: the tracing and nullity engines agree and the total is 3^n;
* orbit sizes: the Kotzig closure equals the profile coefficient at x^c;
* verify reports: every property passes, and every check count equals the
  count the sweep must make, worked out from n, the orbit size and the
  profile (sum over k of coefficient_k * 2^k for core independence).

The benchmark relabels these graphs per seed (vertex names and order, slot
numbers, edge order), which changes none of the expected results.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from interlacement import (  # noqa: E402
    build_graph,
    hierholzer,
    kotzig_orbit,
    profile_by_nullity,
    profile_by_tracing,
    random_matching_graph,
    run_exhaustive,
)
from interlacement.cli import format_graph  # noqa: E402
from interlacement.graph4 import HalfEdge  # noqa: E402

OUT = os.path.join(ROOT, "perfbench", "refs.json")


def doubled_ring(n):
    """Narrow-frontier family: slots 2 and 3 of vertex i join slots 0 and 1
    of vertex i+1 (cyclically)."""
    names = tuple(f"v{i}" for i in range(n))
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges.append((HalfEdge(names[i], 2), HalfEdge(names[j], 0)))
        edges.append((HalfEdge(names[i], 3), HalfEdge(names[j], 1)))
    return build_graph(names, edges)


def checked_profile(g):
    traced = profile_by_tracing(g)
    by_rank = profile_by_nullity(g)
    if traced.coefficients != by_rank.coefficients:
        raise SystemExit(f"engines disagree on {format_graph(g)}")
    if traced.total() != 3 ** g.n:
        raise SystemExit(f"profile total {traced.total()} != 3^{g.n}")
    return traced.coefficients


def checked_orbit_size(g, coefficients):
    size = len(kotzig_orbit(g, hierholzer(g)))
    if size != coefficients[g.c]:
        raise SystemExit(
            f"orbit size {size} != profile coefficient {coefficients[g.c]}"
        )
    return size


def expected_verify_counts(g, orbit, coefficients):
    n, o, ts = g.n, orbit, 3 ** g.n
    counts = {
        "local-complement transform": ts * o * n,
        "naturality": ts * o * o,
        "inverse": o * o,
        "core-kernel equality": ts,
        "circuit nullity": ts,
        "core independence": sum(v << k for k, v in coefficients.items()),
        "label exchange": ts * o * n + o * n,
    }
    if n <= 8:
        counts["kotzig closure"] = 1
    return counts


def verify_expect(g):
    coefficients = checked_profile(g)
    orbit = checked_orbit_size(g, coefficients)
    report = run_exhaustive(g)
    want = expected_verify_counts(g, orbit, coefficients)
    properties = []
    for out in report.outcomes:
        if out.skipped is not None:
            if out.name in want:
                raise SystemExit(f"{out.name} skipped, expected {want[out.name]}")
            properties.append([out.name, "skip", None])
            continue
        if not out.ok or out.checks != want[out.name]:
            raise SystemExit(
                f"{out.name}: ok={out.ok} checks={out.checks}, "
                f"expected {want[out.name]}"
            )
        properties.append([out.name, "pass", out.checks])
    return {"orbit_size": orbit, "properties": properties}


def entry(name, family, g, expect):
    return {
        "name": name,
        "family": family,
        "graph": format_graph(g),
        "shape": {"n": g.n, "edges": len(g.edges), "c": g.c},
        "expect": expect,
    }


def first_seeds(count, n, accept, *, connected=True):
    found = []
    seed = 0
    while len(found) < count:
        g = random_matching_graph(n, seed, connected=connected)
        if accept(g):
            found.append((seed, g))
        seed += 1
    return found


def profile_pool(n, randoms, multis):
    pool = [
        entry(f"random-n{n}-s{s}", "random", g, {"profile": checked_profile(g)})
        for s, g in first_seeds(randoms, n, lambda g: True)
    ]
    pool += [
        entry(f"multi-n{n}-s{s}", "multi", g, {"profile": checked_profile(g)})
        for s, g in first_seeds(multis, n, lambda g: g.c > 1, connected=False)
    ]
    ring = doubled_ring(n)
    pool.append(entry(f"ring-n{n}", "ring", ring, {"profile": checked_profile(ring)}))
    return pool


def orbit_pool(n, randoms):
    # random graphs whose orbit is as large as the ring's, so every job of
    # the workload does the same amount of work
    ring = doubled_ring(n)
    size = checked_orbit_size(ring, checked_profile(ring))
    pool = []
    for s, g in first_seeds(
        randoms, n, lambda g: profile_by_tracing(g).coefficients[1] == size
    ):
        count = checked_orbit_size(g, checked_profile(g))
        pool.append(entry(f"random-n{n}-s{s}", "random", g, {"count": count}))
    pool.append(entry(f"ring-n{n}", "ring", ring, {"count": size}))
    return pool


def verify_pool(n, orbit, count):
    # one orbit size, so the naturality sweep (|orbit|^2 * 3^n checks, most
    # of a job) is the same size in every job
    def accept(g):
        return len(kotzig_orbit(g, hierholzer(g))) == orbit

    return [
        entry(f"random-n{n}-s{s}", "random", g, verify_expect(g))
        for s, g in first_seeds(count, n, accept)
    ]


def provenance():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    import numpy

    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main():
    refs = {
        "provenance": provenance(),
        "workloads": {
            "profile-large": profile_pool(12, randoms=3, multis=0),
            "profile-crosscheck": profile_pool(10, randoms=2, multis=2),
            "verify-exhaustive": verify_pool(4, orbit=32, count=4),
            "orbit": orbit_pool(10, randoms=3),
        },
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, pool in refs["workloads"].items():
        print(f"{name}: {', '.join(e['name'] for e in pool)}")


if __name__ == "__main__":
    main()
