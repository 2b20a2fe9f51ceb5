import itertools

import pytest

from interlacement import (
    EulerSystem,
    GF2Vector,
    GraphError,
    GraphMismatch,
    HalfEdge,
    NoVertices,
    NotAJunction,
    SlotMissing,
    SlotReused,
    TRANSITIONS,
    Transition,
    TransitionSystem,
    UnknownVertex,
    build_graph,
    connected_components,
    core_space,
    core_vector,
    hierholzer,
    kappa_transform,
    random_matching_graph,
    trace_partition,
    unite_circuits,
)
from interlacement.graph4 import SLOTS
from conftest import all_ts, corpus, vertex_indices
from oracles import circuit_count


def test_transition_tables():
    assert [t.value for t in TRANSITIONS] == ["01|23", "02|13", "03|12"]
    for t in TRANSITIONS:
        # partner is an involution without fixed points on slots
        for s in range(4):
            assert t.partner[t.partner[s]] == s
            assert t.partner[s] != s
    assert Transition.from_pair(0, 1) is Transition.PAIR_01_23
    assert Transition.from_pair(3, 1) is Transition.PAIR_02_13
    assert Transition.from_pair(2, 1) is Transition.PAIR_03_12
    for code in range(3):
        assert TRANSITIONS[code].code == code
    for a, b in itertools.permutations(SLOTS, 2):
        t = Transition.from_pair(a, b)
        assert t.partner[a] == b
        assert t is Transition.from_pair(b, a)
    bad = [(a, a) for a in SLOTS] + [(-1, 0), (0, 4), (4, 5), (3, -1)]
    for a, b in bad:
        with pytest.raises(GraphError):
            Transition.from_pair(a, b)


def test_build_rejects_empty():
    with pytest.raises(NoVertices):
        build_graph((), [])


def test_build_rejects_reused_slot():
    with pytest.raises(SlotReused):
        build_graph(
            ("a",),
            [
                (HalfEdge("a", 0), HalfEdge("a", 1)),
                (HalfEdge("a", 1), HalfEdge("a", 2)),
            ],
        )


def test_build_rejects_self_paired_slot():
    with pytest.raises(SlotReused):
        build_graph(("a",), [(HalfEdge("a", 0), HalfEdge("a", 0))])


def test_build_rejects_missing_slot():
    with pytest.raises(SlotMissing):
        build_graph(("a",), [(HalfEdge("a", 0), HalfEdge("a", 1))])


def test_build_rejects_unknown_vertex():
    with pytest.raises(UnknownVertex):
        build_graph(
            ("a",),
            [
                (HalfEdge("a", 0), HalfEdge("b", 1)),
                (HalfEdge("a", 2), HalfEdge("a", 3)),
            ],
        )


def test_other_end_involution(g_mixed):
    g = g_mixed
    for h in range(4 * g.n):
        assert g.other_end(g.other_end(h)) == h
        assert g.other_end(h) != h


def test_components(g_split, g_4par):
    assert connected_components(g_split) == (("a",), ("u", "v"))
    assert g_split.components_index == ((0,), (1, 2))
    assert g_split.c == 2
    assert g_split.component_of == (0, 1, 1)
    assert connected_components(g_4par) == (("u", "v"),)


def test_transition_system_accessors(g_4par):
    ts = TransitionSystem.from_map(
        g_4par, {"u": Transition("01|23"), "v": Transition("03|12")}
    )
    assert ts.codes == (0, 2)
    assert ts.as_map(g_4par) == {"u": Transition.PAIR_01_23, "v": Transition.PAIR_03_12}
    assert ts.replace(0, 1).codes == (1, 2)
    with pytest.raises(UnknownVertex):
        TransitionSystem.from_map(
            g_4par, {"u": Transition("01|23"), "w": Transition("03|12")}
        )
    with pytest.raises(GraphMismatch):
        TransitionSystem.from_map(g_4par, {"u": Transition("01|23")})


def test_transition_system_normalises_codes(g_4par):
    # a list of codes is stored as a tuple, so the system hashes and the
    # cached transform accepts an Euler system built from it
    c = hierholzer(g_4par)
    ts = TransitionSystem(list(c.ts.codes))
    assert ts.codes == c.ts.codes and isinstance(ts.codes, tuple)
    assert ts == c.ts and hash(ts) == hash(c.ts)
    e = EulerSystem.from_transitions(g_4par, ts)
    assert kappa_transform(e, "u").ts == kappa_transform(c, "u").ts
    for bad in ((1.0, 0), (0, "1"), (0, None), (3, 0), (-1, 0)):
        with pytest.raises(GraphError):
            TransitionSystem(bad)


def test_transition_system_rejects_non_sequence():
    for bad in (5, None):
        with pytest.raises(GraphError, match="not a sequence of transition codes"):
            TransitionSystem(bad)


def naive_circuit_count(g, ts):
    # independent oracle: walk the successor permutation with a seen set
    n4 = 4 * g.n
    partner = {}
    for vi, code in enumerate(ts.codes):
        table = TRANSITIONS[code].partner
        for s in range(4):
            partner[4 * vi + s] = 4 * vi + table[s]
    seen = set()
    orbits = 0
    for h in range(n4):
        if h in seen:
            continue
        orbits += 1
        cur = h
        while cur not in seen:
            seen.add(cur)
            cur = g.other_end(partner[cur])
    assert orbits % 2 == 0
    return orbits // 2


@pytest.mark.parametrize("g", corpus(4), ids=lambda g: "-".join(g.vertices))
def test_circuit_count_against_naive(g):
    for ts in all_ts(g):
        assert circuit_count(g, ts.codes) == naive_circuit_count(g, ts)


@pytest.mark.parametrize("g", corpus(5), ids=lambda g: "-".join(g.vertices))
def test_trace_partition_structure(g):
    for ts in all_ts(g):
        p = trace_partition(g, ts)
        assert p.size == circuit_count(g, ts.codes)
        used = []
        for circ in p.circuits:
            for hin, hout in circ.crossings:
                # each crossing respects the chosen transition
                assert hout == (hin & ~3) | TRANSITIONS[ts.codes[hin >> 2]].partner[hin & 3]
                used.append(hin)
                used.append(hout)
        # every half-edge appears exactly once over the partition
        assert sorted(used) == list(range(4 * g.n))
        # canonical: circuits ordered by smallest entering half-edge,
        # each starting at its own minimum
        mins = [min(h for cr in c.crossings for h in cr) for c in p.circuits]
        assert mins == sorted(mins)
        for circ in p.circuits:
            assert circ.crossings[0][0] == min(
                h for cr in circ.crossings for h in cr
            )


def test_trace_deterministic(g_4par):
    for ts in all_ts(g_4par):
        assert trace_partition(g_4par, ts) == trace_partition(g_4par, ts)


def test_circuits_at(g_4par):
    ts = TransitionSystem((0, 0))
    p = trace_partition(g_4par, ts)
    for vi in range(2):
        owners = p.circuits_at(vi)
        assert len(owners) == 2
        for ci in owners:
            assert vi in vertex_indices(p.circuits[ci])


def test_core_vector_single_vs_double_incidence(g_4par):
    # "01|23" at both endpoints splits the four edges into two circuits,
    # each passing u and v exactly once: singly incident everywhere
    p = trace_partition(g_4par, TransitionSystem((0, 0)))
    assert p.size == 2
    for circ in p.circuits:
        assert core_vector(g_4par, circ).to_tuple() == (1, 1)
    # the euler circuit passes each vertex twice, so its core vanishes
    p1 = trace_partition(g_4par, TransitionSystem((2, 0)))
    assert p1.size == 1
    assert core_vector(g_4par, p1.circuits[0]) == GF2Vector.zero(2)


def test_core_vector_loop(g_split):
    # in the split graph the two loops at vertex a become two circuits,
    # each singly incident at a
    ts = TransitionSystem((0, 0, 0))
    p = trace_partition(g_split, ts)
    loops = [c for c in p.circuits if set(vertex_indices(c)) == {0}]
    assert len(loops) == 2
    for circ in loops:
        assert core_vector(g_split, circ).to_tuple() == (1, 0, 0)


def test_core_space_shape(g_mixed):
    for ts in all_ts(g_mixed):
        p = trace_partition(g_mixed, ts)
        m = core_space(g_mixed, p)
        assert m.nrows == p.size
        assert m.ncols == g_mixed.n


def test_unite_circuits_merges(g_4par):
    p = trace_partition(g_4par, TransitionSystem((0, 0)))
    assert p.size == 2
    q = unite_circuits(g_4par, p, "u")
    assert q.size == 1
    # everything still covered exactly once
    used = sorted(
        h for c in q.circuits for cr in c.crossings for h in cr
    )
    assert used == list(range(8))
    # only the transition at u changed
    assert q.source.codes[1] == p.source.codes[1]
    assert q.source.codes[0] != p.source.codes[0]


def test_unite_circuits_not_a_junction(g_4par):
    p = trace_partition(g_4par, TransitionSystem((2, 0)))
    assert p.size == 1
    with pytest.raises(NotAJunction):
        unite_circuits(g_4par, p, "u")


def test_unite_preserves_orientations(g_split):
    ts = TransitionSystem((2, 0, 0))
    p = trace_partition(g_split, ts)
    q = unite_circuits(g_split, p, "u")
    assert q.size == p.size - 1
    # crossings of untouched circuits survive verbatim
    for c in p.circuits:
        if 1 not in vertex_indices(c) and 2 not in vertex_indices(c):
            assert c in q.circuits


def test_random_matching_graph_shape():
    for n in (1, 2, 5, 9):
        g = random_matching_graph(n, seed=42)
        assert g.n == n
        assert len(g.edges) == 2 * n
        for h in range(4 * n):
            assert g.other_end(g.other_end(h)) == h
    assert random_matching_graph(5, seed=1) == random_matching_graph(5, seed=1)
    assert random_matching_graph(5, seed=1) != random_matching_graph(5, seed=2)


def test_random_matching_graph_connected():
    for seed in range(6):
        g = random_matching_graph(8, seed=seed, connected=True)
        assert g.c == 1


def test_graph_equality_and_hash(g_4par):
    again = build_graph(
        ("u", "v"), [(HalfEdge("u", i), HalfEdge("v", i)) for i in range(4)]
    )
    assert g_4par == again
    assert hash(g_4par) == hash(again)
