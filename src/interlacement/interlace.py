"""Interlacement graphs and modified interlacement matrices over GF(2).

Two vertices are interlaced in an Euler system when their occurrences
alternate v..w..v..w along a circuit.  The modified interlacement matrix
of an Euler system C and a transition system P starts from the Boolean
adjacency matrix of the interlacement graph of C and edits one column
per vertex according to the label of P's transition there: a phi vertex
gets the standard basis column (diagonal 1, zeros elsewhere), a psi
vertex gets its diagonal entry set to 1, and a chi vertex is left alone.

The modified local complement at v adds row v to every row indexed by an
interlacement neighbor of v; the checks in this module verify, among
other things, that this row operation is exactly what the vertex
transform at v does to the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import GraphMismatch, UnknownVertex
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
    CircuitPartition,
    Graph4R,
    TransitionSystem,
    core_space,
    core_vector,
    trace_partition,
)

__all__ = [
    "SimpleGraph",
    "ModifiedInterlacementMatrix",
    "CheckResult",
    "interlacement_graph",
    "adjacency_matrix",
    "simple_local_complement",
    "modified_interlacement_matrix",
    "modified_local_complement",
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


@dataclass(frozen=True)
class SimpleGraph:
    """A simple graph on an ordered vertex set, adjacency as bit rows."""

    vertices: Tuple[object, ...]
    rows: Tuple[int, ...]

    def __post_init__(self):
        n = len(self.vertices)
        assert len(self.rows) == n
        for i, r in enumerate(self.rows):
            assert r >> n == 0 and not (r >> i) & 1, "no loops"
            for j in iter_bits(r):
                assert (self.rows[j] >> i) & 1, "adjacency must be symmetric"

    @classmethod
    def from_edges(cls, vertices: Iterable, edges: Iterable[Tuple]) -> "SimpleGraph":
        vs = tuple(vertices)
        index = {v: i for i, v in enumerate(vs)}
        rows = [0] * len(vs)
        for a, b in edges:
            i, j = index[a], index[b]
            assert i != j
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

    def has_edge(self, a, b) -> bool:
        return bool((self.rows[self.vertex_index(a)] >> self.vertex_index(b)) & 1)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2


@lru_cache(maxsize=8192)
def interlacement_graph(c: EulerSystem) -> SimpleGraph:
    """Interlacement graph of an Euler system.

    Vertices v and w are adjacent when both lie on the same circuit and
    their occurrences alternate around it; vertices of different
    components are never adjacent.
    """
    g = c.graph
    rows = [0] * g.n
    for circ in c.circuits:
        seq = [h >> 2 for h, _ in circ.crossings]
        pos: Dict[int, List[int]] = {}
        for k, vi in enumerate(seq):
            pos.setdefault(vi, []).append(k)
        members = sorted(pos)
        for a_idx, v in enumerate(members):
            p1, p2 = pos[v]
            for w in members[a_idx + 1 :]:
                between = sum(1 for q in pos[w] if p1 < q < p2)
                if between == 1:
                    rows[v] |= 1 << w
                    rows[w] |= 1 << v
    return SimpleGraph(g.vertices, tuple(rows))


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


@dataclass(frozen=True)
class ModifiedInterlacementMatrix:
    """A modified interlacement matrix tagged with its defining systems."""

    matrix: GF2Matrix
    euler: EulerSystem
    partition: TransitionSystem


def _label_masks(c: EulerSystem, ts: TransitionSystem) -> Tuple[int, int]:
    """Bit masks of the phi- and psi-labeled vertices of ``ts`` wrt ``c``."""
    phi_mask = 0
    psi_mask = 0
    phi = c.ts.codes
    psi = c.psi_codes
    for i, code in enumerate(ts.codes):
        if code == phi[i]:
            phi_mask |= 1 << i
        elif code == psi[i]:
            psi_mask |= 1 << i
    return phi_mask, psi_mask


def modified_interlacement_matrix(
    c: EulerSystem, ts: TransitionSystem
) -> ModifiedInterlacementMatrix:
    """The modified interlacement matrix of (``c``, ``ts``).

    Starts from the adjacency matrix of the interlacement graph of ``c``
    and edits one column per vertex according to the label of ``ts``
    there: phi columns become standard basis columns, psi vertices get a
    1 on the diagonal, chi columns are untouched.  The phi and psi rules
    touch disjoint columns, so the edit order is immaterial.
    """
    g = c.graph
    if len(ts) != g.n:
        raise GraphMismatch(
            f"transition system covers {len(ts)} vertices, graph has {g.n}"
        )
    phi_mask, psi_mask = _label_masks(c, ts)
    rows = [r & ~phi_mask for r in interlacement_graph(c).rows]
    for v in iter_bits(phi_mask | psi_mask):
        rows[v] |= 1 << v
    return ModifiedInterlacementMatrix(
        GF2Matrix(g.n, g.n, tuple(rows)), c, ts
    )


def modified_local_complement(
    m: ModifiedInterlacementMatrix, v
) -> ModifiedInterlacementMatrix:
    """Add row ``v`` to every row of an interlacement neighbor of ``v``.

    The neighborhood is read from the interlacement graph of the tagged
    Euler system, and the tag advances to the vertex transform at ``v``;
    the partition tag is unchanged.
    """
    c = m.euler
    vi = c.graph.vertex_index(v)
    nv = interlacement_graph(c).rows[vi]
    rows = list(m.matrix.rows)
    rv = rows[vi]
    for w in iter_bits(nv):
        rows[w] ^= rv
    return ModifiedInterlacementMatrix(
        GF2Matrix(m.matrix.nrows, m.matrix.ncols, tuple(rows)),
        kappa_transform(c, v),
        m.partition,
    )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a property check; falsy on failure, with witness data."""

    ok: bool
    witness: Optional[Dict] = None

    def __bool__(self) -> bool:
        return self.ok


def check_local_complement_transform(
    g: Graph4R, c: EulerSystem, ts: TransitionSystem, v
) -> CheckResult:
    """Row operations match the rebuild: complementing the matrix of
    (c, ts) at v gives exactly the matrix of (kappa(c, v), ts)."""
    lhs = modified_local_complement(modified_interlacement_matrix(c, ts), v)
    rhs = modified_interlacement_matrix(kappa_transform(c, v), ts)
    ok = lhs.matrix == rhs.matrix
    if ok:
        return CheckResult(True)
    return CheckResult(
        False,
        {
            "vertex": v,
            "euler": c.ts,
            "partition": ts,
            "row_ops": lhs.matrix,
            "rebuilt": rhs.matrix,
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


def check_label_exchange(
    g: Graph4R, c: EulerSystem, ts: TransitionSystem, v
) -> CheckResult:
    """Relabeling rule under the vertex transform at ``v``: phi and psi
    swap at ``v`` itself, chi and psi swap at every interlacement
    neighbor of ``v``, and all other labels are unchanged."""
    before = label_transitions(c, ts)
    after = label_transitions(kappa_transform(c, v), ts)
    neighbors = set(interlacement_graph(c).neighbors(v))
    swap_at_v = {
        TransitionLabel.PHI: TransitionLabel.PSI,
        TransitionLabel.PSI: TransitionLabel.PHI,
        TransitionLabel.CHI: TransitionLabel.CHI,
    }
    swap_at_nbr = {
        TransitionLabel.CHI: TransitionLabel.PSI,
        TransitionLabel.PSI: TransitionLabel.CHI,
        TransitionLabel.PHI: TransitionLabel.PHI,
    }
    expected = {}
    for w, lab in before.items():
        if w == v:
            expected[w] = swap_at_v[lab]
        elif w in neighbors:
            expected[w] = swap_at_nbr[lab]
        else:
            expected[w] = lab
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
    m_direct = modified_interlacement_matrix(c2, ts).matrix
    m_change = modified_interlacement_matrix(c2, c.ts).matrix
    m_base = modified_interlacement_matrix(c, ts).matrix
    product = mat_mul(m_change, m_base)
    nonsingular = rank(m_change) == g.n
    ok = product == m_direct and nonsingular
    if ok:
        return CheckResult(True)
    return CheckResult(
        False,
        {
            "euler": c.ts,
            "euler2": c2.ts,
            "partition": ts,
            "product": product,
            "direct": m_direct,
            "nonsingular": nonsingular,
        },
    )


def check_inverse(g: Graph4R, c: EulerSystem, c2: EulerSystem) -> CheckResult:
    """matrix(c, c2.ts) and matrix(c2, c.ts) are mutually inverse."""
    a = modified_interlacement_matrix(c, c2.ts).matrix
    b = modified_interlacement_matrix(c2, c.ts).matrix
    ok = mat_mul(a, b) == GF2Matrix.identity(g.n)
    if ok:
        return CheckResult(True)
    return CheckResult(
        False, {"euler": c.ts, "euler2": c2.ts, "product": mat_mul(a, b)}
    )


def check_core_kernel(
    g: Graph4R, c: EulerSystem, ts: TransitionSystem
) -> CheckResult:
    """The span of the core vectors of the circuits traced by ``ts``
    equals the kernel of the modified interlacement matrix of (c, ts)."""
    p = trace_partition(g, ts)
    cores = core_space(g, p)
    kb = kernel_basis(modified_interlacement_matrix(c, ts).matrix)
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
    m = modified_interlacement_matrix(c, ts).matrix
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
