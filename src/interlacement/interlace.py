"""Interlacement graphs and modified interlacement matrices over GF(2).

Two vertices are interlaced in an Euler system when their occurrences
alternate v..w..v..w along a circuit.  The modified interlacement matrix
of an Euler system C and a transition system P starts from the Boolean
adjacency matrix of the interlacement graph of C and edits one column
per vertex according to the label of P's transition there: a phi vertex
gets the standard basis column (diagonal 1, zeros elsewhere), a psi
vertex gets its diagonal entry set to 1, and a chi vertex is left alone.

The matrix is a plain ``GF2Matrix``; the Euler system it was built from
is passed explicitly wherever it is needed.  The modified local
complement at v adds row v of M(C, P) to every row indexed by an
interlacement neighbor of v in C; the checks in this module verify,
among other things, that this row operation is exactly what the vertex
transform at v does to the matrix.

The core vector of a circuit (its singly incident vertices) and the
core space of a partition are defined here too, beside the core-kernel
and core-independence checks, so that the graph model in
:mod:`interlacement.graph4` needs no GF(2) types.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import GraphError, GraphMismatch, UnknownVertex
from .euler import (
    EulerSystem,
    TransitionLabel,
    kappa_transform,
    label_transitions,
)
from .gf2 import (
    GF2Matrix,
    GF2Vector,
    iter_bits,
    kernel_basis,
    mat_mul,
    rank,
    spans_equal,
)
from .graph4 import (
    Circuit,
    CircuitPartition,
    Graph4R,
    TransitionSystem,
    trace_partition,
)

__all__ = [
    "SimpleGraph",
    "CheckResult",
    "interlacement_graph",
    "adjacency_matrix",
    "simple_local_complement",
    "modified_interlacement_matrix",
    "modified_local_complement",
    "core_vector",
    "core_space",
    "check_local_complement_transform",
    "check_interlacement_complement",
    "check_label_exchange",
    "check_naturality",
    "check_inverse",
    "check_core_kernel",
    "circuit_nullity",
    "check_circuit_nullity",
    "check_core_independence",
]


class SimpleGraph:
    """A simple graph on an ordered vertex set, adjacency as bit rows.

    Raises ``GraphError`` on construction when the rows do not match the
    vertices in number or width, or describe a loop or an asymmetric
    adjacency; ``from_edges`` raises ``UnknownVertex`` for an endpoint
    outside ``vertices``.
    """

    __slots__ = ("vertices", "rows")

    def __init__(self, vertices: Tuple[object, ...], rows: Tuple[int, ...]):
        n = len(vertices)
        if len(rows) != n:
            raise GraphError(f"{len(rows)} adjacency rows for {n} vertices")
        for i, r in enumerate(rows):
            if r < 0 or r >> n:
                raise GraphError(f"row {i} does not fit in {n} vertices")
            if r >> i & 1:
                raise GraphError(f"loop at {vertices[i]!r}")
            for j in iter_bits(r):
                if not rows[j] >> i & 1:
                    raise GraphError(
                        f"adjacency not symmetric: {vertices[i]!r} -> "
                        f"{vertices[j]!r}"
                    )
        self.vertices = vertices
        self.rows = rows

    def __eq__(self, other) -> bool:
        if type(other) is not SimpleGraph:
            return NotImplemented
        return self.vertices == other.vertices and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.vertices, self.rows))

    def __repr__(self) -> str:
        # witnesses of the interlacement-complement check print this text
        return f"SimpleGraph(vertices={self.vertices!r}, rows={self.rows!r})"

    @classmethod
    def from_edges(cls, vertices: Iterable, edges: Iterable[Tuple]) -> "SimpleGraph":
        vs = tuple(vertices)
        index = {v: i for i, v in enumerate(vs)}
        rows = [0] * len(vs)
        for a, b in edges:
            for end in (a, b):
                if end not in index:
                    raise UnknownVertex(f"vertex {end!r} is not in the graph")
            i, j = index[a], index[b]
            if i == j:
                raise GraphError(f"loop at {a!r}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(vs, tuple(rows))

    def vertex_index(self, v) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise UnknownVertex(f"vertex {v!r} is not in the graph") from None

    def neighbors(self, v) -> Tuple[object, ...]:
        return tuple(self.vertices[j] for j in iter_bits(self.rows[self.vertex_index(v)]))


@lru_cache(maxsize=8192)
def interlacement_graph(c: EulerSystem) -> SimpleGraph:
    """Interlacement graph of an Euler system: the graph's vertices with
    ``c.interlacement_rows`` (occurrences alternate around a circuit) as
    adjacency."""
    return SimpleGraph(c.graph.vertices, c.interlacement_rows)


def adjacency_matrix(h: SimpleGraph) -> GF2Matrix:
    """Boolean adjacency matrix of a simple graph (zero diagonal)."""
    return GF2Matrix.from_row_bits(h.rows, len(h.vertices))


def simple_local_complement(h: SimpleGraph, v) -> SimpleGraph:
    """Toggle all edges between distinct neighbors of ``v``."""
    vi = h.vertex_index(v)
    nv = h.rows[vi]
    rows = list(h.rows)
    for w in iter_bits(nv):
        rows[w] ^= nv & ~(1 << w)
    return SimpleGraph(h.vertices, tuple(rows))


def modified_interlacement_matrix(c: EulerSystem, ts: TransitionSystem) -> GF2Matrix:
    """The modified interlacement matrix M(``c``, ``ts``).

    Starts from the adjacency matrix of the interlacement graph of ``c``
    and edits one column per vertex according to the label of ``ts``
    there: phi columns become standard basis columns, psi vertices get a
    1 on the diagonal, chi columns are untouched.  The phi and psi rules
    touch disjoint columns, so the edit order is immaterial.
    """
    ts.require_fits(c.graph)
    n = c.graph.n
    codes = ts.codes
    # bit masks of the phi- and psi-labeled vertices
    phi = psi = 0
    bit = 1
    for code, phi_code, psi_code in zip(codes, c.ts.codes, c.psi_codes):
        if code == phi_code:
            phi |= bit
        elif code == psi_code:
            psi |= bit
        bit <<= 1
    diag = phi | psi
    keep = ~phi
    rows = c.interlacement_rows
    return GF2Matrix._unchecked(
        n, n, tuple([r & keep | diag & 1 << v for v, r in enumerate(rows)])
    )


def modified_local_complement(m: GF2Matrix, c: EulerSystem, v) -> GF2Matrix:
    """Add row ``v`` of ``m`` to every row of an interlacement neighbor
    of ``v`` in ``c``.

    Applied to M(c, P) this gives M(kappa(c, v), P); the transform of
    ``c`` itself is not computed.
    """
    if m.nrows != c.graph.n:
        raise GraphMismatch(f"matrix has {m.nrows} rows, graph has {c.graph.n}")
    vi = c.graph.vertex_index(v)
    rows = list(m.rows)
    rv = rows[vi]
    for w in iter_bits(c.interlacement_rows[vi]):
        rows[w] ^= rv
    return GF2Matrix._unchecked(m.nrows, m.ncols, tuple(rows))


class CheckResult:
    """Outcome of a property check; falsy on failure, with witness data."""

    __slots__ = ("ok", "witness")

    def __init__(self, ok: bool, witness: Optional[Dict] = None):
        self.ok = ok
        self.witness = witness

    def __bool__(self) -> bool:
        return self.ok


def check_local_complement_transform(
    g: Graph4R, c: EulerSystem, ts: TransitionSystem, v
) -> CheckResult:
    """Row operations match the rebuild: complementing the matrix of
    (c, ts) at v gives exactly the matrix of (kappa(c, v), ts)."""
    lhs = modified_local_complement(modified_interlacement_matrix(c, ts), c, v)
    rhs = modified_interlacement_matrix(kappa_transform(c, v), ts)
    ok = lhs == rhs
    if ok:
        return CheckResult(True)
    return CheckResult(
        False,
        {
            "vertex": v,
            "euler": c.ts,
            "partition": ts,
            "row_ops": lhs,
            "rebuilt": rhs,
        },
    )


def check_interlacement_complement(g: Graph4R, c: EulerSystem, v) -> CheckResult:
    """The interlacement graph of kappa(c, v) is the simple local
    complement at v of the interlacement graph of c."""
    lhs = interlacement_graph(kappa_transform(c, v))
    rhs = simple_local_complement(interlacement_graph(c), v)
    ok = lhs.rows == rhs.rows
    if ok:
        return CheckResult(True)
    return CheckResult(
        False, {"vertex": v, "euler": c.ts, "transformed": lhs, "complemented": rhs}
    )


_SWAP_AT_V = {
    TransitionLabel.PHI: TransitionLabel.PSI,
    TransitionLabel.PSI: TransitionLabel.PHI,
    TransitionLabel.CHI: TransitionLabel.CHI,
}
_SWAP_AT_NBR = {
    TransitionLabel.CHI: TransitionLabel.PSI,
    TransitionLabel.PSI: TransitionLabel.CHI,
    TransitionLabel.PHI: TransitionLabel.PHI,
}


def _exchanged_labels(c: EulerSystem, v, before: Dict) -> Dict:
    """The labels wrt kappa(c, v) that the exchange rules predict from
    ``before``, the labels of the same transitions wrt ``c``."""
    vertices = c.graph.vertices
    neighbors = {
        vertices[w]
        for w in iter_bits(c.interlacement_rows[c.graph.vertex_index(v)])
    }
    expected = {}
    for w, lab in before.items():
        if w == v:
            expected[w] = _SWAP_AT_V[lab]
        elif w in neighbors:
            expected[w] = _SWAP_AT_NBR[lab]
        else:
            expected[w] = lab
    return expected


def check_label_exchange(
    g: Graph4R, c: EulerSystem, ts: TransitionSystem, v
) -> CheckResult:
    """Relabeling rule under the vertex transform at ``v``: phi and psi
    swap at ``v`` itself, chi and psi swap at every interlacement
    neighbor of ``v``, and all other labels are unchanged."""
    expected = _exchanged_labels(c, v, label_transitions(c, ts))
    after = label_transitions(kappa_transform(c, v), ts)
    ok = after == expected
    if ok:
        return CheckResult(True)
    return CheckResult(
        False,
        {
            "vertex": v,
            "euler": c.ts,
            "partition": ts,
            "expected": expected,
            "actual": after,
        },
    )


def check_naturality(
    g: Graph4R, c: EulerSystem, c2: EulerSystem, ts: TransitionSystem
) -> CheckResult:
    """Change of Euler system factors through multiplication:
    matrix(c2, ts) = matrix(c2, c.ts) @ matrix(c, ts), with the change
    of basis matrix(c2, c.ts) nonsingular."""
    m_change = modified_interlacement_matrix(c2, c.ts)
    nonsingular = rank(m_change) == g.n
    product = mat_mul(m_change, modified_interlacement_matrix(c, ts))
    direct = modified_interlacement_matrix(c2, ts)
    if nonsingular and product == direct:
        return CheckResult(True)
    return CheckResult(
        False,
        {
            "euler": c.ts,
            "euler2": c2.ts,
            "partition": ts,
            "product": product,
            "direct": direct,
            "nonsingular": nonsingular,
        },
    )


def check_inverse(g: Graph4R, c: EulerSystem, c2: EulerSystem) -> CheckResult:
    """matrix(c, c2.ts) and matrix(c2, c.ts) are mutually inverse."""
    product = mat_mul(
        modified_interlacement_matrix(c, c2.ts),
        modified_interlacement_matrix(c2, c.ts),
    )
    if product == GF2Matrix.identity(g.n):
        return CheckResult(True)
    return CheckResult(False, {"euler": c.ts, "euler2": c2.ts, "product": product})


def core_vector(g: Graph4R, gamma: Circuit) -> GF2Vector:
    """Indicator of the vertices where ``gamma`` uses exactly two half-edges.

    Coordinate ``v`` is 1 when the circuit is singly incident at ``v``
    (one crossing, two of the four half-edges) and 0 when it is doubly
    incident or not incident at all.  The vector is zero exactly when
    the circuit is an Euler circuit of its component.

    Raises:
        GraphMismatch: the circuit crosses some vertex more than twice,
            so it is not a circuit of a 4-regular graph.
    """
    counts = Counter(h >> 2 for h, _ in gamma.crossings)
    bits = 0
    for vi, cnt in counts.items():
        if cnt > 2:
            raise GraphMismatch(f"circuit crosses vertex {vi} {cnt} times")
        if cnt == 1:
            bits |= 1 << vi
    return GF2Vector(g.n, bits)


def core_space(g: Graph4R, p: CircuitPartition) -> GF2Matrix:
    """Matrix whose rows are the core vectors of the circuits of ``p``."""
    if p.graph != g:
        raise GraphMismatch("partition belongs to a different graph")
    return GF2Matrix.from_vectors(
        [core_vector(g, circ) for circ in p.circuits], g.n
    )


def check_core_kernel(
    g: Graph4R, c: EulerSystem, ts: TransitionSystem
) -> CheckResult:
    """The span of the core vectors of the circuits traced by ``ts``
    equals the kernel of the modified interlacement matrix of (c, ts)."""
    p = trace_partition(g, ts)
    cores = core_space(g, p)
    kb = kernel_basis(modified_interlacement_matrix(c, ts))
    kernel = GF2Matrix.from_vectors(kb, g.n)
    ok = spans_equal(cores, kernel)
    if ok:
        return CheckResult(True)
    return CheckResult(
        False,
        {"euler": c.ts, "partition": ts, "core_span": cores, "kernel": kernel},
    )


def circuit_nullity(
    g: Graph4R, c: EulerSystem, ts: TransitionSystem
) -> Tuple[int, int, int]:
    """(kernel dimension, circuit count, component count) for (c, ts).

    The kernel dimension of the modified interlacement matrix always
    equals circuit count minus component count.
    """
    m = modified_interlacement_matrix(c, ts)
    nullity = g.n - rank(m)
    p = trace_partition(g, ts)
    return nullity, p.size, g.c


def check_circuit_nullity(
    g: Graph4R, c: EulerSystem, ts: TransitionSystem
) -> CheckResult:
    """Counting identity: the kernel dimension of the modified
    interlacement matrix of (c, ts) is circuit count minus component
    count."""
    nullity, p_size, comps = circuit_nullity(g, c, ts)
    if nullity == p_size - comps:
        return CheckResult(True)
    return CheckResult(
        False,
        {"partition": ts, "nullity": nullity, "p_size": p_size, "components": comps},
    )


def check_core_independence(
    g: Graph4R, ts: TransitionSystem, subset: Iterable[int]
) -> CheckResult:
    """Independence criterion for a subset of circuits.

    The core vectors of the chosen circuits are linearly independent
    exactly when no connected component has all of its circuits chosen.
    The check computes both sides and confirms they agree.
    """
    p = trace_partition(g, ts)
    chosen = sorted(set(subset))
    for i in chosen:
        if not 0 <= i < p.size:
            raise GraphMismatch(f"circuit index {i} out of range for size {p.size}")
    vectors = [core_vector(g, p.circuits[i]) for i in chosen]
    independent = rank(GF2Matrix.from_vectors(vectors, g.n)) == len(chosen)
    chosen_set = set(chosen)
    by_comp: Dict[int, List[int]] = {}
    for ci, circ in enumerate(p.circuits):
        comp = g.component_of[circ.crossings[0][0] >> 2]
        by_comp.setdefault(comp, []).append(ci)
    swallowed = any(
        set(members) <= chosen_set for members in by_comp.values()
    )
    ok = independent == (not swallowed)
    if ok:
        return CheckResult(True)
    return CheckResult(
        False,
        {
            "partition": ts,
            "subset": tuple(chosen),
            "independent": independent,
            "component_swallowed": swallowed,
        },
    )
