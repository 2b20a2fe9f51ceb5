import re

import pytest

from interlacement import (
    GF2Matrix,
    GF2Vector,
    TooLarge,
    TransitionSystem,
    euler_count,
    hierholzer,
    interlace,
    kotzig_orbit,
    random_matching_graph,
    trace_partition,
)
from interlacement import verify
from interlacement.euler import TransitionLabel
from interlacement.verify import (
    PROPERTY_NAMES,
    _work_estimate,
    run_exhaustive,
    run_random_graphs,
    run_samples,
    sweep_property,
)
from conftest import (
    all_ts,
    corpus,
    graph_four_parallel,
    outcome_of,
    per_point,
    pool_graphs,
    vertex_indices,
)


# report order; the check counts below are pinned, and any rework of the
# sweep harness must reproduce them exactly
NAMES = (
    "local-complement transform",
    "naturality",
    "inverse",
    "core-kernel equality",
    "circuit nullity",
    "core independence",
    "kotzig closure",
    "label exchange",
)


def summary(report):
    return [(o.name, o.checks, o.ok) for o in report.outcomes]


def passing(*checks):
    return [(name, count, True) for name, count in zip(NAMES, checks)]


def closure_of(report):
    return next(o for o in report.outcomes if o.name == "kotzig closure")


def test_exhaustive_passes():
    g = graph_four_parallel()
    report = run_exhaustive(g)
    assert PROPERTY_NAMES == NAMES
    assert summary(report) == passing(108, 324, 36, 9, 9, 24, 1, 120)
    assert all(out.skipped is None for out in report.outcomes)
    # the guard's estimate (orbit of 6) covers every check of the report
    assert _work_estimate(g, 6) >= 631


def test_exhaustive_work_guard():
    g = random_matching_graph(8, seed=0)
    with pytest.raises(TooLarge):
        run_exhaustive(g)


def test_closure_fails_on_wrong_count(monkeypatch):
    # negative control: the closure check must notice an orbit that falls
    # one short of the Euler-system count
    monkeypatch.setattr(verify, "euler_count", lambda g: euler_count(g) + 1)
    report = run_exhaustive(graph_four_parallel())
    bad = [o for o in report.outcomes if not o.ok]
    assert [o.name for o in bad] == ["kotzig closure"]
    assert bad[0].failures == ["orbit=6 euler_count=7"]


def test_exhaustive_corrupt_fails(monkeypatch):
    g = graph_four_parallel()
    plain = run_exhaustive(g)
    steps = counter(monkeypatch, interlace, "modified_local_complement")
    report = run_exhaustive(g, corrupt=True)
    assert not report.passed
    assert report.caught_control
    bad = [o for o in report.outcomes if not o.ok]
    assert len(bad) == 1
    assert bad[0].name == "local-complement transform"
    assert bad[0].failures == [
        "note=negative control (corrupted entry) vertex=u "
        "euler=[u:01|23 v:02|13] partition=[u:01|23 v:01|23]"
    ]
    # the control takes the place of one check and adds none
    assert [(o.name, o.checks) for o in report.outcomes] == [
        (o.name, o.checks) for o in plain.outcomes
    ]
    # the transform's row 0, which holds the control, runs one call per
    # point; each of the other 5 members' rows is proved by one call per
    # vertex
    size, points = 6, 3 ** g.n * g.n
    assert len(steps) == points + (size - 1) * g.n


def test_samples_deterministic():
    g = random_matching_graph(6, seed=2)
    a = run_samples(g, 15, seed=9)
    b = run_samples(g, 15, seed=9)
    assert summary(a) == summary(b) == passing(15, 15, 15, 15, 15, 15, 1, 30)


def test_samples_corrupt_fails():
    g = random_matching_graph(5, seed=4)
    report = run_samples(g, 5, seed=0, corrupt=True)
    assert not report.passed


def test_samples_skip_closure_on_big_graph():
    g = random_matching_graph(12, seed=0)
    report = run_samples(g, 2, seed=0)
    assert report.passed
    assert closure_of(report).skipped == (
        "orbit of 44160 Euler systems exceeds the limit of 6561"
    )


def test_samples_check_closure_by_count():
    # nine vertices, but only 3,392 Euler systems: under the orbit limit
    g = random_matching_graph(9, seed=0)
    report = run_samples(g, 2, seed=0)
    closure = closure_of(report)
    assert closure.skipped is None
    assert (closure.checks, closure.ok) == (1, True)


def test_samples_skip_closure_on_frontier_refusal():
    g = random_matching_graph(40, seed=2)
    report = run_samples(g, 2, seed=0)
    assert report.passed
    assert closure_of(report).skipped == (
        "frontier profile of 40 vertices refused: up to 34459425 states "
        "(guard at 135135)"
    )


def test_random_graphs_mode():
    report = run_random_graphs(4, 4, seed=11)
    assert summary(report) == passing(4, 4, 4, 4, 4, 4, 1, 8)
    assert closure_of(report).skipped is None


def test_random_graphs_skip_closure_when_large():
    report = run_random_graphs(12, 2, seed=1)
    assert closure_of(report).skipped == (
        "orbit of 64896 Euler systems exceeds the limit of 6561"
    )


def test_label_exchange_witness_line(monkeypatch):
    # plant a wrong label: v always reads phi, so every transform at v,
    # which must turn phi into psi there, fails
    real = interlace.label_transitions

    def planted(c, ts):
        labels = real(c, ts)
        labels["v"] = TransitionLabel.PHI
        return labels

    monkeypatch.setattr(interlace, "label_transitions", planted)
    g = graph_four_parallel()
    outcome = sweep_property(g, hierholzer(g), "label exchange")
    assert (outcome.checks, outcome.ok) == (120, False)
    assert outcome.failures[0] == (
        "vertex=v euler=[u:01|23 v:02|13] partition=[u:01|23 v:01|23] "
        "expected={u:phi v:psi} actual={u:phi v:phi}"
    )


def plant(monkeypatch, name, wrap):
    """Replace ``interlace.<name>``, through which verify reads it, by
    ``wrap(real)``."""
    monkeypatch.setattr(interlace, name, wrap(getattr(interlace, name)))


def plant_entry(target, change=verify._corrupted):
    # M(c, ts) changed at (c.ts, ts) == target; by default entry (0, 0)
    # is flipped
    def wrap(real):
        def planted(c, ts):
            m = real(c, ts)
            return change(m) if (c.ts, ts) == target else m

        return planted

    return wrap


def plant_member(target, change):
    # every M(c, ts) of the orbit member whose system is target changed
    def wrap(real):
        def planted(c, ts):
            m = real(c, ts)
            return change(m) if c.ts == target else m

        return planted

    return wrap


def plant_column(target, t):
    # entry (0, 0) of every M(c, ts) of the orbit member whose system is
    # target flipped where ts has code t at the first vertex: a change of
    # one column of W_c that keeps it whole
    def wrap(real):
        def planted(c, ts):
            m = real(c, ts)
            if c.ts == target and ts.codes[0] == t:
                return verify._corrupted(m)
            return m

        return planted

    return wrap


def zero(m):
    return GF2Matrix(m.nrows, m.ncols, (0,) * m.nrows)


def swap_label(target):
    # the label of the first vertex moved one step along phi, chi, psi
    # at (c.ts, ts) == target
    order = list(TransitionLabel)
    step = dict(zip(order, order[1:] + order[:1]))

    def wrap(real):
        def swapped(c, ts):
            labels = real(c, ts)
            if (c.ts, ts) == target:
                first = next(iter(labels))
                labels[first] = step[labels[first]]
            return labels

        return swapped

    return wrap


def wrong_neighbour(target, w):
    # the row operation at (c.ts, v) == target also toggles row w, which
    # turns w into a neighbour of v or out of one
    def wrap(real):
        def wrong(m, c, v):
            out = real(m, c, v)
            if (c.ts, v) != target:
                return out
            rows = list(out.rows)
            rows[w] ^= m.rows[c.graph.vertex_index(v)]
            return GF2Matrix(out.nrows, out.ncols, tuple(rows))

        return wrong

    return wrap


PLANT_GRAPH = random_matching_graph(3, seed=1)
PLANT_ORBIT = kotzig_orbit(PLANT_GRAPH, hierholzer(PLANT_GRAPH))
# (1, 0, 0) is not constant; (1, 1, 1) is, so every column of code 1 in
# the orbit member's matrices or labels is assembled from the planted
# one.  (1, 1, 1) is also an orbit member's system, so the matrix
# planted there is also a change of basis.
PLANT_TS = TransitionSystem((1, 0, 0))
PLANT_CONSTANT = TransitionSystem((1, 1, 1))


@pytest.mark.parametrize(
    "name, wrap, failing",
    [
        (
            "modified_interlacement_matrix",
            plant_entry((PLANT_ORBIT[1].ts, PLANT_TS)),
            {"local-complement transform", "naturality"},
        ),
        (
            "modified_interlacement_matrix",
            plant_entry((PLANT_ORBIT[1].ts, PLANT_CONSTANT)),
            {"local-complement transform", "naturality", "inverse"},
        ),
        (
            # a singular change of basis M(c2, c.ts) at c = PLANT_ORBIT[0],
            # whose system is constant: a product can still match
            "modified_interlacement_matrix",
            plant_entry((PLANT_ORBIT[1].ts, PLANT_ORBIT[0].ts), zero),
            {"local-complement transform", "naturality", "inverse"},
        ),
        (
            # every matrix of one member zero: each change of basis into
            # it is singular, though both sides agree at every constant
            # system
            "modified_interlacement_matrix",
            plant_member(PLANT_ORBIT[1].ts, zero),
            {"local-complement transform", "naturality", "inverse"},
        ),
        (
            # the member stays whole and M(c, c.ts) = I, since c.ts has
            # code 0 at the first vertex, but its form is no other
            # member's, so its pair rows go point by point
            "modified_interlacement_matrix",
            plant_column(PLANT_ORBIT[1].ts, 1),
            {"local-complement transform", "naturality", "inverse"},
        ),
        (
            "modified_local_complement",
            wrong_neighbour((PLANT_ORBIT[2].ts, "v1"), 0),
            {"local-complement transform"},
        ),
        (
            "label_transitions",
            swap_label((PLANT_ORBIT[1].ts, PLANT_TS)),
            {"label exchange"},
        ),
        (
            "label_transitions",
            swap_label((PLANT_ORBIT[1].ts, PLANT_CONSTANT)),
            {"label exchange"},
        ),
    ],
    ids=[
        "entry-off-constant",
        "entry-at-constant",
        "singular-change",
        "singular-member",
        "column-off-own",
        "wrong-neighbour",
        "label-off-constant",
        "label-at-constant",
    ],
)
def test_table_sweeps_negative_controls(monkeypatch, name, wrap, failing):
    # a planted defect fails the table sweeps at the same points, with
    # the same witnesses in the same order, as the per-point route
    plant(monkeypatch, name, wrap)
    g = PLANT_GRAPH
    props = ("local-complement transform", "naturality", "inverse", "label exchange")
    for prop in props:
        table = sweep_property(g, hierholzer(g), prop)
        assert outcome_of(table) == outcome_of(per_point(g, prop))
        assert table.ok == (prop not in failing)


def test_vertex_table_sweeps_on_open_orbit(monkeypatch):
    # with a member missing from the orbit, some kappa(c, v) has no table
    # entries; the points of such (c, v) go to the per-point check
    g = PLANT_GRAPH
    orbit = PLANT_ORBIT[:-1]
    monkeypatch.setattr(verify, "kotzig_orbit", lambda g, c: orbit)
    # the label exchange also checks the interlacement complement per (c, v)
    for prop, extra in (("local-complement transform", 0), ("label exchange", 1)):
        outcome = sweep_property(g, hierholzer(g), prop)
        assert outcome.ok
        assert outcome.checks == len(orbit) * g.n * (3 ** g.n + extra)


def counter(monkeypatch, module, name):
    """Replace ``module.<name>`` by a wrapper that records each call's
    arguments in the returned list."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_exhaustive_builds_table_once(monkeypatch):
    # the run's table builds each M(c, ts) once for all the properties
    # that read it, the inverse pair included; core-kernel equality and
    # circuit nullity build one per ts
    calls = counter(monkeypatch, interlace, "modified_interlacement_matrix")
    # likewise each labelling, read by the label exchange alone: a row
    # that falls back to the per-point check would label it again
    labels = counter(monkeypatch, interlace, "label_transitions")
    # one form per member proves every naturality and inverse row: a row
    # that falls back to the per-point checks would take products
    products = counter(monkeypatch, interlace, "mat_mul")
    g = graph_four_parallel()
    assert run_exhaustive(g).passed
    size, points = 6, 3 ** g.n
    assert len(calls) == size * points + 2 * points
    assert len(labels) == size * points
    assert products == []


def test_exhaustive_builds_orbit_once(monkeypatch):
    # one orbit and one count serve every property, the closure check
    # included
    orbits = counter(monkeypatch, verify, "kotzig_orbit")
    counts = counter(monkeypatch, verify, "euler_count")
    assert run_exhaustive(graph_four_parallel()).passed
    assert (len(orbits), len(counts)) == (1, 1)


def test_inverse_table_negative_control(monkeypatch):
    # one flipped entry M(c, c2.ts) fails the pair (c, c2), where it is
    # the left factor, and (c2, c), where it is the right one
    g = graph_four_parallel()
    orbit = kotzig_orbit(g, hierholzer(g))
    target = (orbit[-1].ts, orbit[0].ts)
    plant(monkeypatch, "modified_interlacement_matrix", plant_entry(target))
    table = sweep_property(g, hierholzer(g), "inverse")
    assert outcome_of(table) == outcome_of(per_point(g, "inverse"))
    assert (table.checks, len(table.failures)) == (36, 2)
    assert table.failures[0].startswith(
        f"euler=[{verify._fmt_ts(g, orbit[0].ts)}] "
        f"euler2=[{verify._fmt_ts(g, orbit[-1].ts)}] product="
    )


def test_naturality_table_negative_control(monkeypatch):
    # flip one entry of M(c, ts) for one (c, ts); ts is another orbit
    # member's system, so the flipped matrix is also a change of basis
    g = graph_four_parallel()
    orbit = kotzig_orbit(g, hierholzer(g))
    target = (orbit[-1].ts, orbit[0].ts)
    plant(monkeypatch, "modified_interlacement_matrix", plant_entry(target))
    table = sweep_property(g, hierholzer(g), "naturality")
    reference = per_point(g, "naturality")
    assert not table.ok
    assert table.checks == reference.checks == 324
    assert table.failures == reference.failures
    assert len(table.failures) == 3


def add_row_0_to_1(m):
    rows = list(m.rows)
    rows[1] ^= rows[0]
    return GF2Matrix(m.nrows, m.ncols, tuple(rows))


def test_pair_rows_into_member_whose_own_entry_is_not_identity(monkeypatch):
    # every matrix of one member c2 premultiplied by an invertible A:
    # the member stays whole and A W_c2 keeps the row space of W_c2, but
    # its own entry M(c2, c2.ts) = A is not I, so it has no form, no
    # pair row with it is proved and its points go to the per-point
    # checks: naturality into it holds there, the inverse pair does not
    g = PLANT_GRAPH
    j = 1
    plant(
        monkeypatch,
        "modified_interlacement_matrix",
        plant_member(PLANT_ORBIT[j].ts, add_row_0_to_1),
    )
    table = verify._OrbitTable(g, PLANT_ORBIT)
    assert table.blocks[j] is not None
    assert table.entry(j, table.own[j]) != GF2Matrix.identity(g.n)
    assert table.forms[j] is None
    for prop in ("naturality", "inverse"):
        outcome = sweep_property(g, hierholzer(g), prop)
        assert outcome_of(outcome) == outcome_of(per_point(g, prop))
        assert not outcome.ok


def test_orbit_shares_one_form():
    # the identity behind the pair rows: every W_c of an orbit spans one
    # row space, the graph's transition matroid, of rank n, so every
    # member has a form and all of them have the same one
    for g in corpus(5) + pool_graphs("verify-exhaustive"):
        forms = verify._OrbitTable(g, kotzig_orbit(g, hierholzer(g))).forms
        assert forms[0] is not None and len(forms[0]) == g.n
        assert all(form == forms[0] for form in forms)


def test_naturality_needs_nonsingular_change(monkeypatch):
    # plant a zero M(c, c.ts): at (c, c, c.ts) the product 0 @ 0 matches
    # the direct 0, but the singular change of basis still fails
    g = graph_four_parallel()
    c = hierholzer(g)
    plant(monkeypatch, "modified_interlacement_matrix", plant_entry((c.ts, c.ts), zero))
    result = interlace.check_naturality(g, c, c, c.ts)
    assert not result
    assert result.witness["product"] == result.witness["direct"]
    assert result.witness["nonsingular"] is False


@pytest.mark.parametrize("defect", ["extra-coordinate", "zero"])
def test_core_independence_row_negative_control(monkeypatch, defect):
    # a planted core vector breaks the dependency space of the one ts
    # whose two circuits are gamma, which crosses every vertex, and
    # another.  Both cores are s != 0.  With an extra coordinate, gamma's
    # core makes the two vectors independent (the rank tells); zeroed,
    # it leaves them of rank 1 but no longer summing to 0.  Either way
    # that row is not proved, and its points fail as they do point by
    # point
    g = random_matching_graph(4, seed=0, connected=True)
    ts, gamma = next(
        (ts, p.circuits[0])
        for ts in all_ts(g)
        for p in [trace_partition(g, ts)]
        if p.size == 2 and set(vertex_indices(p.circuits[0])) == set(range(g.n))
    )
    core = interlace.core_vector(g, gamma).bits
    if defect == "zero":
        bits = 0
    else:
        bits = next(core ^ 1 << v for v in range(g.n) if core ^ 1 << v)

    def wrap(real):
        def planted(g, circ):
            return GF2Vector(g.n, bits) if circ == gamma else real(g, circ)

        return planted

    plant(monkeypatch, "core_vector", wrap)
    rows = sweep_property(g, hierholzer(g), "core independence")
    assert outcome_of(rows) == outcome_of(per_point(g, "core independence"))
    assert not rows.ok
    assert all(f"partition=[{verify._fmt_ts(g, ts)}]" in f for f in rows.failures)


def skip_toggles(real):
    # the local complement toggles no edge between neighbours of v
    return lambda h, v: h


def flip_first_coordinate(real):
    return lambda g, gamma: GF2Vector(g.n, real(g, gamma).bits ^ 1)


def rank_plus_one(real):
    return lambda m: real(m) + 1


@pytest.mark.parametrize(
    "prop, name, wrap, witness",
    [
        (
            "label exchange",
            "simple_local_complement",
            skip_toggles,
            r"vertex=v\d euler=\[[^]]*\] transformed=SimpleGraph\(.*\) "
            r"complemented=SimpleGraph\(.*\)",
        ),
        (
            "core-kernel equality",
            "core_vector",
            flip_first_coordinate,
            r"euler=\[[^]]*\] partition=\[[^]]*\] core_span=[01/]+ kernel=[01/]*",
        ),
        (
            "circuit nullity",
            "rank",
            rank_plus_one,
            r"partition=\[[^]]*\] nullity=-?\d+ p_size=\d+ components=1",
        ),
        (
            "core independence",
            "rank",
            rank_plus_one,
            r"partition=\[[^]]*\] subset=\([\d, ]*\) independent=False "
            r"component_swallowed=False",
        ),
    ],
    ids=[
        "interlacement-complement",
        "core-kernel",
        "circuit-nullity",
        "core-independence",
    ],
)
def test_identity_check_negative_controls(monkeypatch, prop, name, wrap, witness):
    # one planted defect in a function the check reads fails the property,
    # and the first witness is that check's
    plant(monkeypatch, name, wrap)
    g = random_matching_graph(4, seed=0, connected=True)
    outcome = sweep_property(g, hierholzer(g), prop)
    assert not outcome.ok and outcome.skipped is None
    assert re.fullmatch(witness, outcome.failures[0]), outcome.failures[0]
