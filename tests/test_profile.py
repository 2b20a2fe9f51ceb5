import itertools
import logging
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlacement import (
    EulerSystem,
    GraphMismatch,
    InvalidProfile,
    PartitionProfile,
    TooLarge,
    TransitionSystem,
    build_graph,
    euler_count,
    hierholzer,
    kotzig_orbit,
    profile_by_frontier,
    profile_by_nullity,
    profile_by_tracing,
    random_matching_graph,
)
from interlacement import profile as profile_module
from interlacement.cli import format_graph
from interlacement.profile import _frontier_plan, _nullity_states, _state_bound
from conftest import corpus, graph_disconnected, graph_two_loops
from oracles import circuit_count


def naive_profile(g):
    # the slowest possible oracle: trace every transition system one at
    # a time through the scalar tracer
    counts = Counter()
    for codes in itertools.product((0, 1, 2), repeat=g.n):
        counts[circuit_count(g, codes)] += 1
    return dict(counts)


@pytest.mark.parametrize(
    "g",
    corpus(5) + [pytest.param(random_matching_graph(8, seed=5), id="random-n8-s5")],
    ids=lambda g: "-".join(g.vertices),
)
def test_tracing_against_naive(g):
    assert dict(profile_by_tracing(g).coefficients) == naive_profile(g)


def test_golden_loops(g_loops):
    assert dict(profile_by_tracing(g_loops).coefficients) == {1: 2, 2: 1}
    assert dict(profile_by_frontier(g_loops).coefficients) == {1: 2, 2: 1}


def test_golden_parallel(g_4par):
    assert dict(profile_by_tracing(g_4par).coefficients) == {1: 6, 2: 3}
    assert dict(profile_by_frontier(g_4par).coefficients) == {1: 6, 2: 3}


def disjoint_union(*graphs):
    """The graphs side by side, vertex names prefixed by their part."""
    vertices, edges = [], []
    for i, g in enumerate(graphs):
        vertices += [f"p{i}{v}" for v in g.vertices]
        edges += [
            ((f"p{i}{a.vertex}", a.slot), (f"p{i}{b.vertex}", b.slot))
            for a, b in g.edges
        ]
    return build_graph(vertices, edges)


def _random_small_graphs():
    # loops and parallel edges come with the random matchings; the
    # unions have 2 or 3 components, n <= 8 in all
    graphs = [
        pytest.param(random_matching_graph(n, seed=s), id=f"random-n{n}-s{s}")
        for n in range(1, 9)
        for s in (20, 21)
    ]
    for s in range(6):
        two = disjoint_union(
            random_matching_graph(1 + s % 3, seed=s, connected=True),
            random_matching_graph(2 + s % 4, seed=s + 50, connected=True),
        )
        three = disjoint_union(
            *(
                random_matching_graph(1 + (s + k) % 2, seed=10 * s + k, connected=True)
                for k in range(3)
            )
        )
        graphs.append(pytest.param(two, id=f"union2-{s}"))
        graphs.append(pytest.param(three, id=f"union3-{s}"))
    return graphs


@pytest.mark.parametrize(
    "g", corpus(8) + _random_small_graphs(), ids=lambda g: "-".join(g.vertices)
)
def test_engines_agree(g):
    trace = profile_by_tracing(g)
    by_rank = profile_by_nullity(g)
    assert trace.coefficients == by_rank.coefficients
    assert trace.total() == 3 ** g.n
    assert profile_by_frontier(g).coefficients == trace.coefficients


@given(st.integers(min_value=1, max_value=8), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_frontier_matches_tracing(n, seed):
    g = random_matching_graph(n, seed=seed)
    assert profile_by_frontier(g).coefficients == profile_by_tracing(g).coefficients


def test_profile_shape(g_split):
    prof = profile_by_tracing(g_split)
    assert prof.total() == 3 ** g_split.n
    assert min(prof.coefficients) == g_split.c
    assert max(prof.coefficients) <= g_split.c + g_split.n


def test_disjoint_union_convolution():
    # the profile of a disjoint union is the convolution of the parts
    split = graph_disconnected()
    loops = graph_two_loops()
    par = build_graph(
        ("u", "v"),
        [
            (("u", i), ("v", i))
            for i in range(4)
        ],
    )
    pl = profile_by_tracing(loops).coefficients
    pp = profile_by_tracing(par).coefficients
    combined = Counter()
    for k1, n1 in pl.items():
        for k2, n2 in pp.items():
            combined[k1 + k2] += n1 * n2
    assert dict(profile_by_tracing(split).coefficients) == dict(combined)


@given(st.integers(min_value=1, max_value=8), st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_nullity_matches_tracing(n, seed, connected):
    g = random_matching_graph(n, seed=seed, connected=connected)
    assert profile_by_nullity(g).coefficients == profile_by_tracing(g).coefficients


@pytest.mark.parametrize("g", corpus(4), ids=lambda g: "-".join(g.vertices))
def test_nullity_independent_of_reference(g):
    # every Euler system of the orbit gives the same profile
    expected = profile_by_tracing(g).coefficients
    for c in kotzig_orbit(g, hierholzer(g)):
        assert profile_by_nullity(g, c).coefficients == expected


def test_nullity_agreement_control(monkeypatch):
    # with one interlacement edge toggled, the nullity engine must
    # disagree with the tracer somewhere: the agreement tests can fail
    real = EulerSystem.interlacement_rows.func

    def toggled(c):
        rows = list(real(c))
        rows[0] ^= 1 << 1
        rows[1] ^= 1 << 0
        return tuple(rows)

    def nullity(g):
        try:
            return profile_by_nullity(g).coefficients
        except InvalidProfile:
            return None

    monkeypatch.setattr(EulerSystem, "interlacement_rows", property(toggled))
    graphs = [g for g in corpus(5) if g.n >= 2]
    assert any(nullity(g) != profile_by_tracing(g).coefficients for g in graphs)


def test_nullity_engine_uses_given_euler(g_4par):
    c = hierholzer(g_4par)
    prof = profile_by_nullity(g_4par, c)
    assert prof.coefficients == profile_by_tracing(g_4par).coefficients


def test_nullity_engine_rejects_wrong_graph(g_4par, g_loops):
    c = hierholzer(g_loops)
    with pytest.raises(GraphMismatch):
        profile_by_nullity(g_4par, c)


def test_euler_count_matches_orbit():
    for g in corpus(5):
        orbit = kotzig_orbit(g, hierholzer(g))
        assert euler_count(g) == len(orbit)


def test_guard():
    g = random_matching_graph(7, seed=0)
    with pytest.raises(TooLarge):
        profile_by_tracing(g, max_vertices=6)
    # the state guard of the frontier and nullity engines is the largest
    # (w - 1)!! over the order's frontier widths w, refused before the
    # first state exists
    steps = _frontier_plan(g)
    bound = _state_bound(steps)
    widest = max(len(s.frontier) for s in steps)
    assert bound == _double_factorial(widest - 1) > 1
    for engine in (profile_by_frontier, profile_by_nullity):
        with pytest.raises(TooLarge, match=f"up to {bound} states"):
            engine(g, max_states=bound - 1)
        assert engine(g, max_states=bound).total() == 3 ** 7


@pytest.mark.parametrize(
    "g",
    corpus(8)
    + [
        pytest.param(
            random_matching_graph(n, seed=s, connected=connected),
            id=f"random-n{n}-s{s}-{'conn' if connected else 'any'}",
        )
        for n in range(9, 17)
        for s in (0, 1)
        for connected in (False, True)
    ],
    ids=lambda g: "-".join(g.vertices),
)
def test_nullity_states_within_pairing_bound(g):
    # the nullity engine never holds more states at a step than the
    # (w - 1)!! frontier pairings its guard admits
    steps = _frontier_plan(g)
    layers = list(_nullity_states(g, hierholzer(g), steps))
    assert len(layers) == len(steps) == g.n
    for step, states in zip(steps, layers):
        assert 1 <= len(states) <= _double_factorial(len(step.frontier) - 1)
    assert len(layers[-1]) == 1
    # each frontier is exactly the half-edges at unopened vertices whose
    # edges lead to opened vertices, sorted; the last one is empty
    other = g.other_end_table
    opened = set()
    for step in steps:
        opened.add(step.vertex)
        dangling = tuple(
            h
            for h in range(4 * g.n)
            if h >> 2 not in opened and other[h] >> 2 in opened
        )
        assert step.frontier == dangling
    assert steps[-1].frontier == ()


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(random_matching_graph(20, seed=s, connected=True), id=str(s))
        for s in (0, 1, 2)
    ]
    # components of 20 and 2 vertices
    + [pytest.param(random_matching_graph(22, seed=0), id="n22-s0")],
)
def test_nullity_matches_frontier_at_n20(g):
    # past the tracer's reach the two state engines check each other
    by_rank = profile_by_nullity(g)
    assert by_rank.coefficients == profile_by_frontier(g).coefficients
    assert by_rank.total() == 3 ** g.n


def _double_factorial(k):
    return 1 if k <= 0 else k * _double_factorial(k - 2)


def test_tracer_logs_progress(monkeypatch, caplog):
    # 3^8 leaves, one progress line per 3^7
    monkeypatch.setattr(profile_module, "_PROGRESS_EVERY", 2187)
    with caplog.at_level(logging.INFO, logger=profile_module.__name__):
        profile_by_tracing(random_matching_graph(8, seed=5))
    assert caplog.messages == [
        f"profile: {k} transition systems processed" for k in (2187, 4374, 6561)
    ]


def test_runs_without_numpy(tmp_path):
    # with numpy blocked, every engine and `profile --engine trace` run
    g = random_matching_graph(5, seed=1)
    path = tmp_path / "g5.graph"
    path.write_text(format_graph(g))
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "import interlacement as il\n"
        "from interlacement.cli import main\n"
        "g = il.random_matching_graph(5, seed=1)\n"
        "p = il.profile_by_frontier(g)\n"
        "assert p == il.profile_by_nullity(g) == il.profile_by_tracing(g)\n"
        f"sys.exit(main(['profile', {str(path)!r}, '--engine', 'trace']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    items = profile_by_frontier(g).sorted_items()
    assert proc.stdout == " ".join(f"{k}:{v}" for k, v in items) + "\n"


def test_validate_catches_bad_profile():
    prof = PartitionProfile({1: 1}, n_vertices=2, c_components=1)
    with pytest.raises(InvalidProfile):
        prof.validate()


@pytest.mark.parametrize("g", corpus(6), ids=lambda g: "-".join(g.vertices))
def test_validate_catches_moved_count(g):
    # negative control of p(-2) = 0: one system moved to a neighbouring
    # stratum keeps the total, the range of counts and every coefficient
    # positive, so only the value at -2 can catch it
    counts = profile_by_frontier(g).coefficients
    assert sum(a * (-2) ** k for k, a in counts.items()) == 0
    k = next((k for k in counts if counts[k] >= 2 and k + 1 in counts), None)
    if k is None:
        pytest.skip("no stratum can give a system to its neighbour")
    moved = dict(counts)
    moved[k] -= 1
    moved[k + 1] += 1
    with pytest.raises(InvalidProfile, match="impossible"):
        PartitionProfile(moved, g.n, g.c).validate()


def test_validate_survives_optimize():
    # python -O strips assert statements; validate must still raise
    code = "from interlacement import *; PartitionProfile({1: 1}, 2, 1).validate()"
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True)
    assert b"InvalidProfile" in proc.stderr
