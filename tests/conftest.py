import os

import pytest

from interlacement import (
    Graph4R,
    HalfEdge,
    build_graph,
    random_matching_graph,
)

# tests that start ``python -m interlacement`` need the child to import
# this same checkout, whether or not PYTHONPATH was set for the run
_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)

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
    for desc, ok in sorted(rows):
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
