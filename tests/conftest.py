import itertools
import json
import os

import pytest

from interlacement import (
    GF2Matrix,
    Graph4R,
    HalfEdge,
    TransitionSystem,
    build_graph,
    hierholzer,
    kotzig_orbit,
    random_matching_graph,
    sweep_property,
    verify,
)
from interlacement.cli import parse_graph

# tests that start ``python -m interlacement`` need the child to import
# this same checkout, whether or not PYTHONPATH was set for the run
_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)


def matrix_from_rows(rows) -> GF2Matrix:
    """GF(2) matrix of 0/1 rows listed top to bottom, entries left to right."""
    rows = [list(row) for row in rows]
    bits = tuple(sum(x << j for j, x in enumerate(row)) for row in rows)
    return GF2Matrix(len(rows), len(rows[0]) if rows else 0, bits)


def all_ts(g):
    """Every transition system of ``g``, in ``itertools.product`` order."""
    for codes in itertools.product((0, 1, 2), repeat=g.n):
        yield TransitionSystem(codes)


def per_point(g, name):
    """Property ``name`` swept with one check call at every point of
    ``verify._rows``, the route that the sweep's row proofs replace."""
    c0 = hierholzer(g)
    orbit = kotzig_orbit(g, c0)
    outcome = verify.PropertyOutcome(name)
    for check, axes, _ in verify.PROPERTIES[name]:
        for _, lead, points in verify._rows(g, c0, orbit, axes):
            for args in points:
                outcome.record(g, check(g, *lead, *args))
    return outcome


def outcome_of(outcome):
    return outcome.checks, outcome.ok, outcome.failures


def assert_rows_match_per_point(g, name):
    """The per-point oracle of property ``name`` on ``g``: the sweep,
    which proves rows where it can, reports what one check call per
    point reports, and passes."""
    swept = sweep_property(g, hierholzer(g), name)
    assert outcome_of(swept) == outcome_of(per_point(g, name))
    assert swept.ok, swept.failures


def vertex_indices(circuit):
    """Vertex index under each crossing of ``circuit``, in traversal order."""
    return tuple(h >> 2 for h, _ in circuit.crossings)


def plant_walk_without_swap(monkeypatch):
    """Plant a defect in the orbit walk: the label exchange keeps psi at
    the neighbours of the transformed vertex, where chi and psi must
    swap, so the walk reaches transition systems that are not Euler
    systems."""
    from interlacement import euler

    exchange = euler._label_exchange

    def no_swap(codes, psi, rows, i):
        _, new_rows = exchange(codes, psi, rows, i)
        field = 3 << 2 * (len(rows) - 1 - i)
        return psi ^ ((psi ^ codes) & field), new_rows

    monkeypatch.setattr(euler, "_label_exchange", no_swap)


# one summary line per acceptance gate, printed after the run;
# populated by test_acceptance.py
ACCEPTANCE_GATES = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_GATES:
        return
    rows = []
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            name = rep.nodeid.split("::")[-1].split("[")[0]
            if name in ACCEPTANCE_GATES:
                rows.append((ACCEPTANCE_GATES[name], rep.passed))
    if not rows:
        return
    terminalreporter.section("acceptance gates")
    # "gate N: ..." rows in gate order, gate 10 after gate 9
    for desc, ok in sorted(rows, key=lambda row: int(row[0].split()[1][:-1])):
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {desc}")


def graph_two_loops() -> Graph4R:
    # one vertex carrying two loops
    return build_graph(
        ("a",),
        [
            (HalfEdge("a", 0), HalfEdge("a", 1)),
            (HalfEdge("a", 2), HalfEdge("a", 3)),
        ],
    )


def graph_four_parallel() -> Graph4R:
    # two vertices joined by four parallel edges, slot i to slot i
    return build_graph(
        ("u", "v"),
        [(HalfEdge("u", i), HalfEdge("v", i)) for i in range(4)],
    )


def graph_loop_plus_parallel() -> Graph4R:
    # a loop at each vertex and a double edge between them
    return build_graph(
        ("x", "y"),
        [
            (HalfEdge("x", 0), HalfEdge("x", 1)),
            (HalfEdge("y", 0), HalfEdge("y", 1)),
            (HalfEdge("x", 2), HalfEdge("y", 2)),
            (HalfEdge("x", 3), HalfEdge("y", 3)),
        ],
    )


def graph_disconnected() -> Graph4R:
    # two components: a double-loop vertex and a 4-parallel pair
    return build_graph(
        ("a", "u", "v"),
        [
            (HalfEdge("a", 0), HalfEdge("a", 1)),
            (HalfEdge("a", 2), HalfEdge("a", 3)),
        ]
        + [(HalfEdge("u", i), HalfEdge("v", i)) for i in range(4)],
    )


# the fixed random corpus: every test that says "corpus" means this.
# n <= 4 has 14 seeds per size plus the 4 named fixtures giving 60
# graphs, loops and parallels included by construction.
def corpus(max_n: int):
    graphs = [
        graph_two_loops(),
        graph_four_parallel(),
        graph_loop_plus_parallel(),
        graph_disconnected(),
    ]
    graphs = [g for g in graphs if g.n <= max_n]
    seeds_by_n = {1: 14, 2: 14, 3: 14, 4: 14, 5: 4, 6: 3, 7: 1, 8: 1}
    for n in range(1, max_n + 1):
        for seed in range(seeds_by_n.get(n, 0)):
            graphs.append(random_matching_graph(n, seed=seed))
    return graphs


def pool_graphs(workload: str):
    """The graphs of one benchmark workload's pool in perfbench/refs.json."""
    refs = os.path.join(os.path.dirname(_SRC), "perfbench", "refs.json")
    with open(refs, encoding="utf-8") as fh:
        pool = json.load(fh)["workloads"][workload]
    return [parse_graph(entry["graph"]) for entry in pool]


def two_component_graphs():
    # the 11 two-component graphs among seeds 0..39 for n = 4..8
    graphs = [
        random_matching_graph(n, seed=seed)
        for n in range(4, 9)
        for seed in range(40)
    ]
    return [g for g in graphs if g.c == 2]


@pytest.fixture
def g_loops():
    return graph_two_loops()


@pytest.fixture
def g_4par():
    return graph_four_parallel()


@pytest.fixture
def g_mixed():
    return graph_loop_plus_parallel()


@pytest.fixture
def g_split():
    return graph_disconnected()
