import subprocess
import sys

import pytest

from interlacement import (
    AlreadyEuler,
    Circuit,
    EulerSystem,
    GF2Vector,
    Graph4R,
    GraphError,
    GraphMismatch,
    NotEulerSystem,
    TRANSITIONS,
    TooLarge,
    TransitionLabel,
    TransitionSystem,
    core_vector,
    dow,
    euler_count,
    euler_from_partition,
    hierholzer,
    interlacement_graph,
    kappa_transform,
    kotzig_orbit,
    label_transitions,
    orbit_keys,
    random_matching_graph,
    trace_partition,
    transition_for_label,
)
import interlacement.euler
from conftest import (
    all_ts,
    corpus,
    plant_walk_without_swap,
    pool_graphs,
    two_component_graphs,
    vertex_indices,
)
from oracles import (
    all_euler_systems_bruteforce,
    circuit_count,
    kappa_by_walk_reversal,
    kotzig_orbit_by_tracing,
)


def test_hierholzer_golden_loops(g_loops):
    c = hierholzer(g_loops)
    assert [TRANSITIONS[x].value for x in c.ts.codes] == ["03|12"]
    assert str(dow(c, 0)) == "a a"


def test_hierholzer_golden_parallel(g_4par):
    c = hierholzer(g_4par)
    assert c.ts.as_map(g_4par) == {
        "u": TRANSITIONS[2],  # 03|12
        "v": TRANSITIONS[0],  # 01|23
    }
    assert str(dow(c, 0)) == "u v u v"


@pytest.mark.parametrize("g", corpus(5), ids=lambda g: "-".join(g.vertices))
def test_hierholzer_is_euler(g):
    c = hierholzer(g)
    assert circuit_count(g, c.ts.codes) == g.c
    assert len(c.circuits) == g.c
    # one circuit per component, matched in order; every other orbit
    # member comes from from_transitions, which keeps trace order
    for e in kotzig_orbit(g, c):
        assert len(e.circuits) == g.c
        for circ, comp in zip(e.circuits, g.components_index):
            assert set(vertex_indices(circ)) == set(comp)


def test_from_transitions_rejects_non_euler(g_4par):
    with pytest.raises(NotEulerSystem):
        EulerSystem.from_transitions(g_4par, TransitionSystem((0, 0)))


def test_malformed_circuits_raise_under_optimize():
    # python -O strips assert statements; these public inputs must still
    # raise typed errors instead of returning wrong values
    code = (
        "from interlacement import *\n"
        "g = build_graph(('u', 'v'), [(('u', i), ('v', i)) for i in range(4)])\n"
        "c = hierholzer(g)\n"
        "p = trace_partition(g, TransitionSystem((0, 0)))\n"
        "bad = CircuitPartition(g, p.source, p.circuits * 2)\n"
        "twice = Circuit(((0, 1), (4, 5), (0, 1), (4, 5)))\n"
        "# both circuits enter u through slot 0\n"
        "slot0 = CircuitPartition(g, p.source, (Circuit(((0, 1), (5, 4))),\n"
        "                                       Circuit(((0, 2), (6, 7)))))\n"
        "# half-edges 0-3 are at a and 4-7 at u; the second circuit crosses both\n"
        "loops = [(('a', 0), ('a', 1)), (('a', 2), ('a', 3))]\n"
        "g2 = build_graph(('a', 'u', 'v'), loops + list(g.edges))\n"
        "across = CircuitPartition(g2, TransitionSystem((0, 0, 0)), (\n"
        "    Circuit(((6, 7),)), Circuit(((0, 1), (4, 5))), Circuit(((2, 3),)),\n"
        "    Circuit(((8, 9),))))\n"
        "# an extra circuit starting at half-edge 100, beyond the graph\n"
        "far = Circuit(((100, 101),))\n"
        "beyond = CircuitPartition(g, p.source, p.circuits + (far,))\n"
        "# no circuit crosses u; then each circuit crosses one vertex only\n"
        "none_at_u = CircuitPartition(g, p.source, (Circuit(((4, 5),)),\n"
        "                                          Circuit(((6, 7),))))\n"
        "apart = CircuitPartition(g, p.source, (Circuit(((0, 1), (2, 3))),\n"
        "                                      Circuit(((4, 5), (6, 7)))))\n"
        "# one circuit crossing v once, and one crossing u three times\n"
        "once = Circuit(((0, 1), (4, 5), (2, 3)))\n"
        "thrice = Circuit(((0, 1), (4, 5), (2, 3), (6, 7), (0, 2)))\n"
        "for make in (lambda: core_vector(g, Circuit(((0, 1),) * 3)),\n"
        "             lambda: EulerSystem(g, c.ts, c.circuits * 2).psi_codes,\n"
        "             lambda: EulerSystem(g, c.ts, (twice,)).psi_codes,\n"
        "             lambda: unite_circuits(g, bad, 'u'),\n"
        "             lambda: euler_from_partition(g, bad),\n"
        "             lambda: euler_from_partition(\n"
        "                 g, CircuitPartition(g, c.ts, c.circuits * 2)),\n"
        "             lambda: unite_circuits(g, slot0, 'u'),\n"
        "             lambda: euler_from_partition(g, slot0),\n"
        "             lambda: euler_from_partition(g2, across),\n"
        "             lambda: euler_from_partition(g, beyond),\n"
        "             lambda: euler_from_partition(g, none_at_u),\n"
        "             lambda: euler_from_partition(g, apart),\n"
        "             lambda: EulerSystem(g, c.ts, (once,)).interlacement_rows,\n"
        "             lambda: EulerSystem(g, c.ts, (thrice,)).interlacement_rows):\n"
        "    try:\n"
        "        make()\n"
        "    except (GraphMismatch, NotEulerSystem) as exc:\n"
        "        print(type(exc).__name__, exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True
    )
    assert proc.stdout.splitlines() == [
        "GraphMismatch circuit crosses vertex 0 3 times",
        "NotEulerSystem circuits enter vertex 'u' 4 times and leave it 4 "
        "times, not twice each",
        "NotEulerSystem circuits use a slot of vertex 'u' twice",
        "GraphMismatch circuits cross vertex 'u' 4 times",
        "GraphMismatch circuits cross vertex 'u' 4 times",
        "GraphMismatch circuits cross vertex 'u' 4 times",
        "GraphMismatch circuits use a slot of vertex 'u' twice",
        "GraphMismatch circuits use a slot of vertex 'u' twice",
        "GraphMismatch a circuit of the partition crosses more than one "
        "component, at vertex 'u'",
        "GraphMismatch circuits of the partition start at no vertex of the graph",
        "GraphMismatch circuits cross vertex 'u' 0 times",
        "GraphMismatch no vertex joins two circuits in the component of 'u'",
        "NotEulerSystem a circuit crosses vertex 'v' 1 times, not twice",
        "NotEulerSystem a circuit crosses vertex 'u' 3 times, not twice",
    ], proc.stderr


def test_dow_properties(g_mixed):
    c = hierholzer(g_mixed)
    letters = dow(c, 0).word
    assert sorted(letters) == sorted(
        v for v in g_mixed.vertices for _ in range(2)
    )


def test_labels_golden_parallel(g_4par):
    c = hierholzer(g_4par)
    # at u the traversal enters slots 1 and 2, so psi pairs them: 02|13
    assert transition_for_label(c, "u", TransitionLabel.PSI) == TRANSITIONS[1]
    assert transition_for_label(c, "u", TransitionLabel.CHI) == TRANSITIONS[0]
    assert transition_for_label(c, "u", TransitionLabel.PHI) == TRANSITIONS[2]
    labels = label_transitions(c, c.ts)
    assert set(labels.values()) == {TransitionLabel.PHI}


def test_labels_partition_every_transition(g_mixed):
    c = hierholzer(g_mixed)
    for vi, v in enumerate(g_mixed.vertices):
        seen = set()
        for code in range(3):
            ts = c.ts.replace(vi, code)
            seen.add(label_transitions(c, ts)[v])
        assert seen == {
            TransitionLabel.PHI,
            TransitionLabel.CHI,
            TransitionLabel.PSI,
        }


@pytest.mark.parametrize("g", corpus(4), ids=lambda g: "-".join(g.vertices))
def test_labels_orientation_invariant(g):
    # reversing the stored orientation of any circuit must not change
    # any label
    c = hierholzer(g)
    for flip in range(len(c.circuits)):
        circs = list(c.circuits)
        circs[flip] = Circuit(
            tuple((hout, hin) for hin, hout in reversed(circs[flip].crossings))
        )
        mirrored = EulerSystem(g, c.ts, tuple(circs))
        for ts in all_ts(g):
            assert label_transitions(c, ts) == label_transitions(mirrored, ts)


@pytest.mark.parametrize("g", corpus(4), ids=lambda g: "-".join(g.vertices))
def test_kappa_involution_and_euler(g):
    c = hierholzer(g)
    for v in g.vertices:
        cv = kappa_transform(c, v)
        assert circuit_count(g, cv.ts.codes) == g.c
        assert kappa_transform(cv, v).ts == c.ts


@pytest.mark.parametrize("g", corpus(4), ids=lambda g: "-".join(g.vertices))
def test_kappa_matches_walk_reversal(g):
    # the O(1) transition swap against the literal walk-reversal oracle
    c = hierholzer(g)
    frontier = [c]
    seen = {c.ts}
    for _ in range(3):  # a few layers of the orbit
        nxt = []
        for cur in frontier:
            for v in g.vertices:
                fast = kappa_transform(cur, v)
                slow = kappa_by_walk_reversal(cur, v)
                assert fast.ts == slow.ts
                # the slow form must itself be a valid partition of the
                # half-edges
                used = sorted(
                    h
                    for circ in slow.circuits
                    for cr in circ.crossings
                    for h in cr
                )
                assert used == list(range(4 * g.n))
                if fast.ts not in seen:
                    seen.add(fast.ts)
                    nxt.append(fast)
        frontier = nxt


def test_kappa_changes_only_v(g_4par):
    c = hierholzer(g_4par)
    cv = kappa_transform(c, "u")
    assert cv.ts.codes[1] == c.ts.codes[1]
    assert cv.ts.codes[0] == c.psi_codes[0]


@pytest.mark.parametrize("g", corpus(5), ids=lambda g: "-".join(g.vertices))
def test_kotzig_closure(g):
    # reachable-by-transforms set == brute force over all transition
    # systems with the right circuit count
    orbit = kotzig_orbit(g, hierholzer(g))
    brute = all_euler_systems_bruteforce(g)
    assert {e.ts for e in orbit} == {e.ts for e in brute}
    assert len(orbit) == len(brute) == euler_count(g)


@pytest.mark.parametrize("g", corpus(4), ids=lambda g: "-".join(g.vertices))
def test_kotzig_orbit_transforms_each_new_system_once(g, monkeypatch):
    # corpus(4) holds the n = 1 and n = 2 fixtures; the transforms are
    # applied by the label-exchange walk, so kotzig_orbit calls no
    # kappa_transform and traces each member at most once
    kappa_calls, traced = [], []
    inner_kappa = interlacement.euler.kappa_transform
    inner_trace = interlacement.euler.trace_partition

    def counting_kappa(c, v):
        kappa_calls.append(v)
        return inner_kappa(c, v)

    def counting_trace(g, ts):
        traced.append(ts)
        return inner_trace(g, ts)

    monkeypatch.setattr(interlacement.euler, "kappa_transform", counting_kappa)
    monkeypatch.setattr(interlacement.euler, "trace_partition", counting_trace)
    c = hierholzer(g)
    orbit = kotzig_orbit(g, c)
    assert kappa_calls == []
    assert len(traced) <= len(orbit) and len(set(traced)) == len(traced)
    assert set(traced) <= {e.ts for e in orbit}


def _unpack(key, n):
    # the code of vertex i sits in bits 2(n - 1 - i) and 2(n - 1 - i) + 1
    return tuple((key >> 2 * (n - 1 - i)) & 3 for i in range(n))


def _unspread(rows, n):
    # a packed row marks neighbour w by a nonzero 2-bit field of w
    return tuple(
        sum(1 << w for w, f in enumerate(_unpack(row, n)) if f) for row in rows
    )


def _walk_mismatch(g):
    """First orbit member whose walked state differs from the traced one,
    or None when the walk matches the traced orbit member by member."""
    c = hierholzer(g)
    traced = kotzig_orbit_by_tracing(g, c)
    codes = [_unpack(key, g.n) for key in orbit_keys(g, c)]
    if codes != [e.ts.codes for e in traced]:
        return "codes"
    walked = {
        _unpack(codes, g.n): (_unpack(psi, g.n), _unspread(rows, g.n))
        for codes, psi, rows in interlacement.euler._orbit_walk(c)
    }
    for e in traced:
        if walked[e.ts.codes] != (e.psi_codes, e.interlacement_rows):
            return e.ts.codes
    return None


_WALK_GRAPHS = corpus(6) + two_component_graphs() + pool_graphs("orbit")


@pytest.mark.parametrize("g", _WALK_GRAPHS, ids=lambda g: f"n{g.n}-c{g.c}")
def test_orbit_walk_matches_tracing(g):
    # the keys decode to the codes of the orbit traced by the oracle, in
    # order; codes, psi codes and interlacement rows of every member,
    # walked by the label exchange, equal those of the member traced on
    # its own.  The one place the tracing orbit is built for each graph
    assert _walk_mismatch(g) is None


def test_orbit_walk_without_chi_psi_swap_fails(monkeypatch):
    # negative control: leaving psi alone at the neighbours of the
    # transformed vertex breaks the walk on some graph of the same set
    plant_walk_without_swap(monkeypatch)
    assert any(_walk_mismatch(g) is not None for g in _WALK_GRAPHS)


def test_kotzig_orbit_names_first_member_not_euler(monkeypatch):
    # with the walk broken, kotzig_orbit stops at the first decoded key
    # that traces more circuits than components, and names it
    plant_walk_without_swap(monkeypatch)
    g = random_matching_graph(3, seed=0, connected=True)
    c = hierholzer(g)
    first = next(
        codes
        for codes in (_unpack(key, g.n) for key in orbit_keys(g, c))
        if trace_partition(g, TransitionSystem(codes)).size != g.c
    )
    member = " ".join(
        f"{v}:{TRANSITIONS[x].value}" for v, x in zip(g.vertices, first)
    )
    with pytest.raises(NotEulerSystem) as info:
        kotzig_orbit(g, c)
    assert str(info.value) == (
        f"orbit member [{member}] is not an Euler system: transition system "
        "traces 2 circuits, graph has 1 component"
    )


def test_orbit_codes_graph_mismatch(g_4par, g_loops):
    # both public forms of the orbit refuse an Euler system of another graph
    with pytest.raises(GraphMismatch):
        orbit_keys(g_loops, hierholzer(g_4par))
    with pytest.raises(GraphMismatch):
        kotzig_orbit(g_loops, hierholzer(g_4par))


@pytest.mark.parametrize("g", _WALK_GRAPHS, ids=lambda g: f"n{g.n}-c{g.c}")
def test_orbit_keys_decode_to_orbit_codes(g):
    # the packed keys sort as the code tuples do, and decode to the codes
    # of kotzig_orbit, in order; test_orbit_walk_matches_tracing holds
    # them to the traced orbit
    c = hierholzer(g)
    keys = orbit_keys(g, c)
    assert keys == sorted(keys)
    codes = [_unpack(key, g.n) for key in keys]
    assert codes == [e.ts.codes for e in kotzig_orbit(g, c)]


def test_hierholzer_rejects_unpaired_half_edge_table():
    # the table pairs half-edge 0 with 4 and every other half-edge with
    # itself, so the walk from a gets stuck at b
    g = Graph4R(("a", "b"), (), (4, 1, 2, 3, 0, 5, 6, 7))
    with pytest.raises(GraphError, match="does not close up"):
        hierholzer(g)


def test_orbit_golden_counts(g_loops, g_4par):
    assert len(kotzig_orbit(g_loops, hierholzer(g_loops))) == 2
    assert len(kotzig_orbit(g_4par, hierholzer(g_4par))) == 6


def test_euler_from_partition_loops(g_loops):
    ts = TransitionSystem((0,))  # 01|23 splits the loops apart
    p = trace_partition(g_loops, ts)
    assert p.size == 2
    c, v0, gamma0 = euler_from_partition(g_loops, p)
    assert v0 == "a"
    assert label_transitions(c, ts)["a"] == TransitionLabel.CHI
    assert gamma0 in p.circuits
    # loop core: e_a, and a has no interlacement neighbors
    assert core_vector(g_loops, gamma0) == GF2Vector.unit(1, 0)
    assert interlacement_graph(c).neighbors("a") == ()


def test_euler_from_partition_rejects_euler(g_4par):
    c = hierholzer(g_4par)
    p = trace_partition(g_4par, c.ts)
    with pytest.raises(AlreadyEuler):
        euler_from_partition(g_4par, p)


@pytest.mark.parametrize("g", corpus(5), ids=lambda g: "-".join(g.vertices))
def test_euler_from_partition_postconditions(g):
    phi, chi = TransitionLabel.PHI, TransitionLabel.CHI
    for ts in all_ts(g):
        p = trace_partition(g, ts)
        if p.size == g.c:
            continue
        c, v0, gamma0 = euler_from_partition(g, p)
        labels = label_transitions(c, ts)
        # (1) only follow or crossing labels anywhere
        assert set(labels.values()) <= {phi, chi}
        # (2) crossing exactly at the final junction, follow on the rest
        # of the united circuit
        assert labels[v0] == chi
        v0i = g.vertex_index(v0)
        for vi in vertex_indices(gamma0):
            if vi != v0i:
                assert labels[g.vertices[vi]] == phi
        # (3) the united circuit's core is the unit vector at the
        # junction plus its interlacement neighborhood
        h = interlacement_graph(c)
        expect = GF2Vector.unit(g.n, v0i)
        for w in h.neighbors(v0):
            expect += GF2Vector.unit(g.n, g.vertex_index(w))
        assert core_vector(g, gamma0) == expect


def test_bruteforce_guard():
    with pytest.raises(TooLarge):
        all_euler_systems_bruteforce(
            random_matching_graph(6, seed=0), max_vertices=5
        )
