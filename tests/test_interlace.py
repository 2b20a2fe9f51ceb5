import ast
import importlib
import inspect
import itertools
import pkgutil
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interlacement
from interlacement import (
    GF2Matrix,
    GraphError,
    GraphMismatch,
    SimpleGraph,
    TransitionLabel,
    TransitionSystem,
    UnknownVertex,
    adjacency_matrix,
    check_core_independence,
    check_core_kernel,
    check_interlacement_complement,
    check_inverse,
    check_local_complement_transform,
    check_naturality,
    circuit_nullity,
    core_space,
    dow,
    hierholzer,
    interlacement_graph,
    kappa_transform,
    kernel_basis,
    kotzig_orbit,
    label_transitions,
    mat_mul,
    modified_interlacement_matrix,
    modified_local_complement,
    random_matching_graph,
    rank,
    simple_local_complement,
    spans_equal,
    trace_partition,
)
from conftest import all_ts, assert_rows_match_per_point, corpus, matrix_from_rows


def alternation_graph(c):
    # oracle for the interlacement graph straight off the double
    # occurrence words: v ~ w iff the four positions alternate
    g = c.graph
    rows = [[0] * g.n for _ in range(g.n)]
    for comp in range(g.c):
        letters = dow(c, comp).word
        for v, w in itertools.combinations(set(letters), 2):
            pat = [x for x in letters if x in (v, w)]
            if pat == [v, w, v, w] or pat == [w, v, w, v]:
                vi, wi = g.vertex_index(v), g.vertex_index(w)
                rows[vi][wi] = rows[wi][vi] = 1
    return rows


@pytest.mark.parametrize("g", corpus(5), ids=lambda g: "-".join(g.vertices))
def test_interlacement_graph_against_dow_oracle(g):
    for c in kotzig_orbit(g, hierholzer(g)):
        h = interlacement_graph(c)
        assert adjacency_matrix(h).to_lists() == alternation_graph(c)


def test_interlacement_golden(g_4par, g_loops):
    # u v u v alternates, so the two vertices interlace
    h = interlacement_graph(hierholzer(g_4par))
    assert h.neighbors("u") == ("v",)
    h1 = interlacement_graph(hierholzer(g_loops))
    assert h1.neighbors("a") == ()


@pytest.mark.parametrize(
    "module",
    ["interlacement"]
    + [
        f"interlacement.{m.name}"
        for m in pkgutil.iter_modules(interlacement.__path__)
        if m.name != "__main__"
    ],
)
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_names_listed_where_defined():
    # every name the package exports is in the __all__ of the module
    # that defines it at top level
    home = {}
    for m in pkgutil.iter_modules(interlacement.__path__):
        if m.name == "__main__":
            continue
        mod = importlib.import_module(f"interlacement.{m.name}")
        for node in ast.parse(inspect.getsource(mod)).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                home[node.name] = mod
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        home[t.id] = mod
            elif isinstance(node, ast.AnnAssign):
                home[node.target.id] = mod
    unlisted = [
        name
        for name in interlacement.__all__
        if name not in getattr(home[name], "__all__", ())
    ]
    assert unlisted == []
    # the package resolves each name lazily, to the defining module's
    # object, for attribute access and for a star import alike
    star = {}
    exec("from interlacement import *", star)
    astray = [
        name
        for name in interlacement.__all__
        if not getattr(interlacement, name) is star[name] is getattr(home[name], name)
    ]
    assert astray == []
    assert set(interlacement.__all__) <= set(dir(interlacement))
    assert not hasattr(interlacement, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        interlacement.no_such_name


def test_simple_graph_guards():
    with pytest.raises(GraphError, match="loop"):
        SimpleGraph(("a",), (1,))
    with pytest.raises(GraphError, match="symmetric"):
        SimpleGraph(("a", "b"), (2, 0))
    with pytest.raises(GraphError, match="2 adjacency rows for 1"):
        SimpleGraph(("a",), (0, 0))
    with pytest.raises(GraphError, match="fit"):
        SimpleGraph(("a", "b"), (4, 0))
    with pytest.raises(GraphError, match="fit"):
        SimpleGraph(("a", "b"), (-1, 0))
    with pytest.raises(GraphError, match="loop"):
        SimpleGraph.from_edges(("a", "b"), [("a", "a")])
    with pytest.raises(UnknownVertex, match="'c'"):
        SimpleGraph.from_edges(("a", "b"), [("a", "c")])


def test_simple_graph_guards_survive_optimize():
    # python -O strips assert statements; the guards must still raise
    code = (
        "from interlacement import GraphError, SimpleGraph\n"
        "for make in (lambda: SimpleGraph.from_edges(('a', 'b'), [('a', 'a')]),\n"
        "             lambda: SimpleGraph(('a', 'b'), (2, 0))):\n"
        "    try:\n"
        "        make()\n"
        "    except GraphError as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True
    )
    assert proc.stdout.split() == ["GraphError", "GraphError"], proc.stderr


def test_simple_local_complement_involution():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randrange(2, 8)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randrange(2)
        h = SimpleGraph.from_edges(
            tuple(f"v{i}" for i in range(n)),
            [
                (f"v{i}", f"v{j}")
                for i in range(n)
                for j in range(i + 1, n)
                if rows[i][j]
            ],
        )
        for v in h.vertices:
            assert simple_local_complement(simple_local_complement(h, v), v) == h


def test_simple_local_complement_toggles_neighbors():
    h = SimpleGraph.from_edges(("a", "b", "c"), [("a", "b"), ("a", "c")])
    hv = simple_local_complement(h, "a")
    assert hv.neighbors("b") == ("a", "c")
    assert hv.neighbors("a") == ("b", "c")
    assert simple_local_complement(hv, "a") == h


def test_matrix_golden_values(g_4par):
    c = hierholzer(g_4par)
    psi = TransitionSystem(tuple(c.psi_codes))
    m = modified_interlacement_matrix(c, psi)
    assert m.to_lists() == [[1, 1], [1, 1]]
    assert [k.to_tuple() for k in kernel_basis(m)] == [(1, 1)]

    phi_psi = TransitionSystem((c.ts.codes[0], c.psi_codes[1]))
    assert modified_interlacement_matrix(c, phi_psi).to_lists() == [
        [1, 1],
        [0, 1],
    ]

    chi = TransitionSystem(tuple(c.chi_codes))
    assert modified_interlacement_matrix(c, chi).to_lists() == [
        [0, 1],
        [1, 0],
    ]


def test_matrix_label_structure(g_mixed):
    # phi columns are unit vectors, psi diagonals are set, chi columns
    # keep the interlacement column
    g = g_mixed
    c = hierholzer(g)
    adj = adjacency_matrix(interlacement_graph(c))
    for ts in all_ts(g):
        m = modified_interlacement_matrix(c, ts)
        labels = label_transitions(c, ts)
        for j, v in enumerate(g.vertices):
            col = [m.entry(i, j) for i in range(g.n)]
            ref = [adj.entry(i, j) for i in range(g.n)]
            if labels[v] == TransitionLabel.PHI:
                assert col == [1 if i == j else 0 for i in range(g.n)]
            elif labels[v] == TransitionLabel.PSI:
                ref[j] = 1
                assert col == ref
            else:
                assert col == ref


def column(m, j):
    return tuple(r >> j & 1 for r in m.rows)


def assemble(parts, codes):
    # the column assembly: column j taken from parts[codes[j]]
    rows = [0] * parts[0].nrows
    for j, t in enumerate(codes):
        for i, bit in enumerate(column(parts[t], j)):
            rows[i] |= bit << j
    return GF2Matrix(parts[0].nrows, len(codes), tuple(rows))


@pytest.mark.parametrize("g", corpus(5), ids=lambda g: "-".join(g.vertices))
def test_columns_depend_on_their_code_alone(g):
    # what the column-by-column sweeps in verify rest on: column v of
    # M(c, ts), and the label at v, are those of the constant system
    # whose codes all equal ts's code at v
    constant = [TransitionSystem((t,) * g.n) for t in range(3)]
    for c in kotzig_orbit(g, hierholzer(g)):
        matrices = [modified_interlacement_matrix(c, p) for p in constant]
        labels = [label_transitions(c, p) for p in constant]
        for ts in all_ts(g):
            m = modified_interlacement_matrix(c, ts)
            lab = label_transitions(c, ts)
            for j, (v, t) in enumerate(zip(g.vertices, ts.codes)):
                assert column(m, j) == column(matrices[t], j)
                assert lab[v] == labels[t][v]
            assert m == assemble(matrices, ts.codes)


@given(st.integers(1, 6), st.integers(0, 10**6), st.data())
@settings(max_examples=100, deadline=None)
def test_row_operations_commute_with_column_assembly(n, seed, data):
    # a left multiplication acts on each column alone, so it may be taken
    # before or after the assembly; modified_local_complement is one
    g = random_matching_graph(n, seed=seed)
    c = hierholzer(g)
    for vi in data.draw(st.lists(st.integers(0, n - 1), max_size=n)):
        c = kappa_transform(c, g.vertices[vi])
    square = st.lists(st.integers(0, 2 ** n - 1), min_size=n, max_size=n)
    parts = [GF2Matrix(n, n, tuple(data.draw(square))) for _ in range(3)]
    a = GF2Matrix(n, n, tuple(data.draw(square)))
    codes = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    v = g.vertices[data.draw(st.integers(0, n - 1))]
    m = assemble(parts, codes)
    assert mat_mul(a, m) == assemble([mat_mul(a, p) for p in parts], codes)
    assert modified_local_complement(m, c, v) == assemble(
        [modified_local_complement(p, c, v) for p in parts], codes
    )


@pytest.mark.parametrize("g", corpus(4), ids=lambda g: "-".join(g.vertices))
def test_matrix_of_itself_is_identity(g):
    # a system measured against its own partition is all-phi, so the
    # matrix collapses to the identity and the kernel is trivial
    for c in kotzig_orbit(g, hierholzer(g)):
        m = modified_interlacement_matrix(c, c.ts)
        assert m == GF2Matrix.identity(g.n)
        assert kernel_basis(m) == []


def test_modified_local_complement_golden(g_4par):
    c = hierholzer(g_4par)
    psi = TransitionSystem(tuple(c.psi_codes))
    m = modified_interlacement_matrix(c, psi)
    out = modified_local_complement(m, c, "u")
    assert out.to_lists() == [[1, 1], [0, 0]]
    with pytest.raises(GraphMismatch, match="matrix has 3 rows, graph has 2"):
        modified_local_complement(GF2Matrix.identity(3), c, "u")


def block_transform_oracle(m, c, v):
    # independent oracle: build the row operation as a matrix product,
    # T = I + sum of E_{w,v} over interlacement neighbors w of v
    g = c.graph
    vi = g.vertex_index(v)
    h = interlacement_graph(c)
    nbr = {g.vertex_index(w) for w in h.neighbors(v)}
    rows = []
    for i in range(g.n):
        bits = 1 << i
        if i in nbr:
            bits |= 1 << vi
        rows.append(bits)
    t = GF2Matrix(g.n, g.n, tuple(rows))
    return mat_mul(t, m)


@pytest.mark.parametrize("g", corpus(4), ids=lambda g: "-".join(g.vertices))
def test_transform_matches_block_oracle(g):
    c = hierholzer(g)
    for ts in all_ts(g):
        m = modified_interlacement_matrix(c, ts)
        for v in g.vertices:
            out = modified_local_complement(m, c, v)
            assert out == block_transform_oracle(m, c, v)


# The per-point oracles of the identities that verify proves by rows:
# one check call at every point of the sweep, against the sweep itself.
# Gates 1, 2 and 5 run the same sweeps on the same corpora.


@pytest.mark.parametrize("g", corpus(4), ids=lambda g: "-".join(g.vertices))
def test_local_complement_transform_exhaustive(g):
    # the row operation on the modified matrix lands exactly on the
    # matrix of the transformed euler system, over the whole orbit
    assert_rows_match_per_point(g, "local-complement transform")


def test_transform_random_sampling():
    # the same identity spot-checked on larger graphs
    rng = random.Random(2024)
    checks = 0
    while checks < 400:
        n = rng.randrange(5, 13)
        g = random_matching_graph(n, seed=rng.randrange(10**6))
        c = hierholzer(g)
        for _ in range(rng.randrange(1, 4)):
            c = kappa_transform(c, rng.choice(g.vertices))
        ts = TransitionSystem(tuple(rng.randrange(3) for _ in range(n)))
        v = rng.choice(g.vertices)
        assert check_local_complement_transform(g, c, ts, v)
        checks += 1


@pytest.mark.parametrize("g", corpus(5), ids=lambda g: "-".join(g.vertices))
def test_interlacement_complement_rule(g):
    for c in kotzig_orbit(g, hierholzer(g)):
        for v in g.vertices:
            assert check_interlacement_complement(g, c, v)


@pytest.mark.parametrize("g", corpus(5), ids=lambda g: "-".join(g.vertices))
def test_label_exchange_rule(g):
    # with the interlacement complement, which the sweep runs per point
    assert_rows_match_per_point(g, "label exchange")


@pytest.mark.parametrize("g", corpus(4), ids=lambda g: "-".join(g.vertices))
def test_naturality_and_inverse_exhaustive(g):
    # the only run of check_naturality at every n = 4 point
    assert_rows_match_per_point(g, "naturality")
    assert_rows_match_per_point(g, "inverse")


def test_naturality_random_triples():
    rng = random.Random(77)
    checks = 0
    while checks < 1000:
        n = rng.randrange(2, 11)
        g = random_matching_graph(n, seed=rng.randrange(10**6))
        c = hierholzer(g)
        c1 = c
        for _ in range(rng.randrange(0, 4)):
            c1 = kappa_transform(c1, rng.choice(g.vertices))
        c2 = c
        for _ in range(rng.randrange(0, 4)):
            c2 = kappa_transform(c2, rng.choice(g.vertices))
        ts = TransitionSystem(tuple(rng.randrange(3) for _ in range(n)))
        assert check_naturality(g, c1, c2, ts)
        assert check_inverse(g, c1, c2)
        checks += 1


@pytest.mark.parametrize("g", corpus(6), ids=lambda g: "-".join(g.vertices))
def test_core_equals_kernel(g):
    c = hierholzer(g)
    for ts in all_ts(g):
        assert check_core_kernel(g, c, ts)


@pytest.mark.parametrize("g", corpus(6), ids=lambda g: "-".join(g.vertices))
def test_nullity_formula(g):
    c = hierholzer(g)
    for ts in all_ts(g):
        nullity, p_size, comps = circuit_nullity(g, c, ts)
        assert comps == g.c
        assert nullity == p_size - comps


def principal_cases(g):
    """(nullity of M(c, ts), S, T) for every transition system ts, with
    S the non-phi and T the psi vertices of ts relative to c."""
    c = hierholzer(g)
    for ts in all_ts(g):
        labels = label_transitions(c, ts)
        s = [v for v in g.vertices if labels[v] is not TransitionLabel.PHI]
        t = {v for v in s if labels[v] is TransitionLabel.PSI}
        m = modified_interlacement_matrix(c, ts)
        yield g.n - rank(m), s, t


def principal_nullity(h, s, t):
    # |S| - rank(A[S] + I_T), with A[S] written out as an |S| x |S| matrix
    a = adjacency_matrix(h).to_lists()
    idx = [h.vertex_index(v) for v in s]
    sub = [
        [a[i][j] ^ (i == j and v in t) for j in idx] for i, v in zip(idx, s)
    ]
    return len(s) - rank(matrix_from_rows(sub))


@pytest.mark.parametrize("g", corpus(5), ids=lambda g: "-".join(g.vertices))
def test_principal_submatrix_nullity(g):
    # a phi column of M(c, ts) is a unit column, so its nullity is that
    # of the principal submatrix on the other vertices
    h = interlacement_graph(hierholzer(g))
    for nullity, s, t in principal_cases(g):
        assert nullity == principal_nullity(h, s, t)


def test_principal_submatrix_nullity_control():
    # with psi and chi swapped the identity must fail somewhere, or the
    # check above could not tell the labels apart
    assert any(
        nullity != principal_nullity(interlacement_graph(hierholzer(g)), s, set(s) - t)
        for g in corpus(5)
        for nullity, s, t in principal_cases(g)
    )


def test_nullity_formula_large_random():
    g = random_matching_graph(14, seed=1)
    c = hierholzer(g)
    rng = random.Random(0)
    for _ in range(200):
        ts = TransitionSystem(tuple(rng.randrange(3) for _ in range(14)))
        nullity, p_size, comps = circuit_nullity(g, c, ts)
        assert nullity == p_size - comps


def test_core_kernel_large_random():
    g = random_matching_graph(14, seed=1)
    c = hierholzer(g)
    rng = random.Random(0)
    for _ in range(200):
        ts = TransitionSystem(tuple(rng.randrange(3) for _ in range(14)))
        assert check_core_kernel(g, c, ts)


@pytest.mark.parametrize("g", corpus(5), ids=lambda g: "-".join(g.vertices))
def test_core_independence(g):
    # every subset of the circuits of every partition
    assert_rows_match_per_point(g, "core independence")


def test_core_independence_witness(g_split):
    # choosing every circuit of a component forces dependence, and the
    # check certifies that the rank criterion and the component
    # criterion agree on it
    ts = TransitionSystem((0, 0, 0))
    p = trace_partition(g_split, ts)
    full = tuple(range(p.size))
    assert check_core_independence(g_split, ts, full)
    m = core_space(g_split, p)
    assert rank(m) < p.size


def test_core_independence_bad_subset(g_4par):
    ts = TransitionSystem((0, 0))
    with pytest.raises(GraphMismatch):
        check_core_independence(g_4par, ts, (99,))


def test_check_result_witness(g_4par):
    c = hierholzer(g_4par)
    ts = TransitionSystem((0, 0))
    res = check_local_complement_transform(g_4par, c, ts, "u")
    assert res
    assert res.witness is None or isinstance(res.witness, dict)


@pytest.mark.parametrize("g", corpus(4), ids=lambda g: "-".join(g.vertices))
def test_kernel_spans_core_spans(g):
    # spans_equal is symmetric on these pairs
    c = hierholzer(g)
    for ts in all_ts(g):
        p = trace_partition(g, ts)
        m = modified_interlacement_matrix(c, ts)
        kmat = GF2Matrix.from_vectors(kernel_basis(m), g.n)
        assert spans_equal(core_space(g, p), kmat)
        assert spans_equal(kmat, core_space(g, p))
