"""The ten acceptance gates, one test each.

Every gate is exact: GF(2) arithmetic throughout, zero tolerance, and
the stated corpora are swept in full.  The terminal summary prints one
PASS/FAIL line per gate (see conftest).
"""

import random
import subprocess
import sys
import time

from interlacement import (
    GF2Vector,
    TransitionSystem,
    build_graph,
    check_circuit_nullity,
    check_core_kernel,
    check_inverse,
    check_naturality,
    core_vector,
    euler_from_partition,
    hierholzer,
    interlacement_graph,
    kappa_transform,
    kotzig_orbit,
    label_transitions,
    profile_by_frontier,
    profile_by_nullity,
    profile_by_tracing,
    random_matching_graph,
    sweep_property,
    trace_partition,
)
from interlacement.cli import format_graph
from interlacement.euler import TransitionLabel
from conftest import (
    ACCEPTANCE_GATES,
    all_ts,
    corpus,
    graph_two_loops,
    vertex_indices,
)
from oracles import all_euler_systems_bruteforce

ACCEPTANCE_GATES.update(
    {
        "test_gate_1_transform_exhaustive": (
            "gate 1: local-complement transform, exhaustive over the "
            "n<=4 corpus x full orbits x all transition systems x "
            "vertices, under 60 s"
        ),
        "test_gate_2_naturality_inverse": (
            "gate 2: naturality and inverse pair, exhaustive n<=4 plus "
            "1000 random triples at n<=10, zero failures"
        ),
        "test_gate_3_circuit_nullity": (
            "gate 3: kernel dimension = circuits - components, "
            "exhaustive n<=6 plus 200 random partitions at n=14 under 5 s"
        ),
        "test_gate_4_core_equals_kernel": (
            "gate 4: core space = matrix kernel as subspaces, same "
            "corpora as gate 3"
        ),
        "test_gate_5_complement_and_labels": (
            "gate 5: interlacement-graph complement and label exchange "
            "rules, exhaustive n<=5"
        ),
        "test_gate_6_transform_closure": (
            "gate 6: transform orbit = brute-force euler enumeration "
            "for every corpus graph with n<=5"
        ),
        "test_gate_7_partition_to_euler": (
            "gate 7: growing-circuit postconditions on every non-euler "
            "partition of every corpus graph with n<=5"
        ),
        "test_gate_8_profile_engines": (
            "gate 8: tracing and nullity profiles agree for n<=8, and "
            "the frontier profile with them; two-loop profile is 1:2 2:1; "
            "totals are 3^n"
        ),
        "test_gate_9_profile_performance": (
            "gate 9: 3^12 profile of a connected 12-vertex graph under "
            "10 s in process; the trace CLI run totals 3^12"
        ),
        "test_gate_10_frontier_profile": (
            "gate 10: frontier profile of a connected 24-vertex graph "
            "totals 3^24, validates, matches its reversed relabeling, "
            "under 10 s"
        ),
    }
)


def swept(g, name):
    """Check count of one property's exhaustive sweep over ``g``, which
    must pass; the reference Euler system is ``hierholzer(g)``."""
    outcome = sweep_property(g, hierholzer(g), name)
    assert outcome.ok, outcome.failures
    return outcome.checks


def orbit_size(g):
    return len(kotzig_orbit(g, hierholzer(g)))


def test_gate_1_transform_exhaustive():
    graphs = corpus(4)
    assert len(graphs) >= 50
    # the corpus must exercise loops and parallel edges
    assert any(a.vertex == b.vertex for g in graphs for a, b in g.edges)
    assert any(
        len(g.edges) != len({frozenset((a.vertex, b.vertex)) for a, b in g.edges})
        for g in graphs
    )
    start = time.perf_counter()
    checks = 0
    for g in graphs:
        count = swept(g, "local-complement transform")
        assert count == 3 ** g.n * orbit_size(g) * g.n
        checks += count
    elapsed = time.perf_counter() - start
    assert checks > 100_000
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_gate_2_naturality_inverse():
    for g in corpus(4):
        pairs = orbit_size(g) ** 2
        assert swept(g, "inverse") == pairs
        assert swept(g, "naturality") == pairs * 3 ** g.n
    rng = random.Random(424242)
    triples = 0
    while triples < 1000:
        n = rng.randrange(2, 11)
        g = random_matching_graph(n, seed=rng.randrange(10**6))
        base = hierholzer(g)
        c = base
        for _ in range(rng.randrange(0, n + 1)):
            c = kappa_transform(c, rng.choice(g.vertices))
        c2 = base
        for _ in range(rng.randrange(0, n + 1)):
            c2 = kappa_transform(c2, rng.choice(g.vertices))
        ts = TransitionSystem(tuple(rng.randrange(3) for _ in range(n)))
        assert check_naturality(g, c, c2, ts)
        assert check_inverse(g, c, c2)
        triples += 1


def test_gate_3_circuit_nullity():
    for g in corpus(6):
        assert swept(g, "circuit nullity") == 3 ** g.n
    g14 = random_matching_graph(14, seed=7)
    c14 = hierholzer(g14)
    rng = random.Random(14)
    start = time.perf_counter()
    for _ in range(200):
        ts = TransitionSystem(tuple(rng.randrange(3) for _ in range(14)))
        assert check_circuit_nullity(g14, c14, ts)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"n=14 run took {elapsed:.1f}s"


def test_gate_4_core_equals_kernel():
    for g in corpus(6):
        assert swept(g, "core-kernel equality") == 3 ** g.n
    g14 = random_matching_graph(14, seed=7)
    c14 = hierholzer(g14)
    rng = random.Random(14)
    for _ in range(200):
        ts = TransitionSystem(tuple(rng.randrange(3) for _ in range(14)))
        assert check_core_kernel(g14, c14, ts)


def test_gate_5_complement_and_labels():
    # label exchange over (c, ts, v), complement over (c, v)
    for g in corpus(5):
        expected = orbit_size(g) * g.n * (3 ** g.n + 1)
        assert swept(g, "label exchange") == expected


def test_gate_6_transform_closure():
    # the sweep compares the orbit's size with the frontier count; the
    # brute force over all 3^n transition systems is the oracle for both
    for g in corpus(5):
        assert swept(g, "kotzig closure") == 1
        brute = all_euler_systems_bruteforce(g)
        assert {e.ts for e in kotzig_orbit(g, hierholzer(g))} == {
            e.ts for e in brute
        }


def test_gate_7_partition_to_euler():
    phi, chi = TransitionLabel.PHI, TransitionLabel.CHI
    for g in corpus(5):
        for ts in all_ts(g):
            p = trace_partition(g, ts)
            if p.size == g.c:
                continue
            c, v0, gamma0 = euler_from_partition(g, p)
            labels = label_transitions(c, ts)
            assert set(labels.values()) <= {phi, chi}
            v0i = g.vertex_index(v0)
            assert labels[v0] == chi
            for vi in vertex_indices(gamma0):
                if vi != v0i:
                    assert labels[g.vertices[vi]] == phi
            h = interlacement_graph(c)
            expect = GF2Vector.unit(g.n, v0i)
            for w in h.neighbors(v0):
                expect += GF2Vector.unit(g.n, g.vertex_index(w))
            assert core_vector(g, gamma0) == expect


def test_gate_8_profile_engines():
    assert dict(profile_by_tracing(graph_two_loops()).coefficients) == {1: 2, 2: 1}
    for g in corpus(8):
        trace = profile_by_tracing(g)
        by_rank = profile_by_nullity(g)
        assert trace.coefficients == by_rank.coefficients
        assert trace.total() == 3 ** g.n
        assert by_rank.total() == 3 ** g.n
        assert profile_by_frontier(g).coefficients == trace.coefficients


def test_gate_9_profile_performance(tmp_path):
    g = random_matching_graph(12, seed=0, connected=True)
    start = time.perf_counter()
    prof = profile_by_tracing(g)
    elapsed = time.perf_counter() - start
    assert prof.total() == 3 ** 12
    assert elapsed < 10.0, f"profile took {elapsed:.1f}s"

    path = tmp_path / "g12.graph"
    path.write_text(format_graph(g))
    proc = subprocess.run(
        [sys.executable, "-m", "interlacement", "profile", str(path), "--engine", "trace"],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    line = proc.stdout.decode()
    total = sum(
        int(part.split(":")[1]) for part in line.strip().split()
    )
    assert total == 3 ** 12


def test_gate_10_frontier_profile():
    # 3^24 systems are far past the tracer; the frontier engine never
    # meets them one by one
    g = random_matching_graph(24, seed=0, connected=True)
    start = time.perf_counter()
    prof = profile_by_frontier(g)
    elapsed = time.perf_counter() - start
    assert prof.total() == 3 ** 24
    prof.validate()
    # the reversed vertex order gives the engine another opening order
    # and other frontier names, so agreement is not a replay
    flipped = build_graph(tuple(reversed(g.vertices)), g.edges)
    assert profile_by_frontier(flipped).coefficients == prof.coefficients
    assert elapsed < 10.0, f"frontier profile took {elapsed:.1f}s"
