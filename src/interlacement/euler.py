"""Euler systems of 4-regular multigraphs and the transforms between them.

An Euler system is a transition system that traces exactly one circuit
per connected component.  Relative to an Euler system C, every
transition at a vertex carries one of three labels: phi (the transition
C itself uses), chi (the other transition consistent with a traversal
orientation of C, pairing each entering half-edge with an exiting one),
and psi (the orientation-inconsistent transition, pairing the two
entering half-edges together).  The labels do not depend on which of the
two traversal directions is stored.

The vertex transform kappa replaces the transition at one vertex with
its psi transition; the result is again an Euler system, the transform
is an involution, and repeatedly applying it at all vertices reaches
every Euler system of the graph.  What the transform at v does to the
labels is known in advance (the label exchange): phi and psi swap at v,
chi and psi swap at every interlacement neighbour of v, and the
interlacement graph becomes its local complement at v.  The orbit walk
follows these rules and traces no circuit.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, lru_cache
from typing import Dict, List, Tuple

from .errors import AlreadyEuler, GraphError, GraphMismatch, NotEulerSystem
from .graph4 import (
    CODE_BY_PAIR,
    TRANSITIONS,
    Circuit,
    CircuitPartition,
    Graph4R,
    Transition,
    TransitionSystem,
    trace_partition,
    unite_circuits,
)

__all__ = [
    "TransitionLabel",
    "DoubleOccurrenceWord",
    "EulerSystem",
    "hierholzer",
    "dow",
    "label_transitions",
    "transition_for_label",
    "kappa_transform",
    "orbit_keys",
    "kotzig_orbit",
    "euler_from_partition",
]


class TransitionLabel(Enum):
    PHI = "phi"
    CHI = "chi"
    PSI = "psi"

    def __str__(self) -> str:
        return self.value


class DoubleOccurrenceWord:
    """Cyclic sequence of vertex ids in which each vertex occurs twice."""

    __slots__ = ("word",)

    def __init__(self, word: Tuple[object, ...]):
        self.word = word

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.word)


class EulerSystem:
    """An Euler system: one circuit per component, plus a stored traversal.

    ``circuits`` holds one directed circuit per connected component (in
    component order).  The stored direction is an artifact of how the
    system was produced; two Euler systems are equal exactly when their
    transition systems are, and every label computation is invariant
    under reversing any stored circuit.
    """

    def __init__(
        self, graph: Graph4R, ts: TransitionSystem, circuits: Tuple[Circuit, ...]
    ):
        self.graph = graph
        self.ts = ts
        self.circuits = circuits

    def __eq__(self, other) -> bool:
        if not isinstance(other, EulerSystem):
            return NotImplemented
        return self.graph == other.graph and self.ts == other.ts

    def __hash__(self) -> int:
        return hash(self.ts)

    @classmethod
    def from_transitions(cls, g: Graph4R, ts: TransitionSystem) -> "EulerSystem":
        """Validate that ``ts`` traces one circuit per component and wrap it.

        Raises:
            NotEulerSystem: the partition has more circuits than components.
        """
        p = trace_partition(g, ts)
        if p.size != g.c:
            raise NotEulerSystem(
                f"transition system traces {p.size} circuits, graph has {g.c} components"
            )
        # circuits come in the order of their smallest half-edge, which for
        # one circuit per component is component order
        return cls(g, ts, p.circuits)

    @cached_property
    def psi_codes(self) -> Tuple[int, ...]:
        """Transition code of the psi transition at each vertex: the one
        coupling the two slots through which the circuits enter it.

        Raises:
            NotEulerSystem: the circuits do not cross every vertex twice,
                or cross it twice through one slot.
        """
        g = self.graph
        ins: List[List[int]] = [[] for _ in range(g.n)]
        outs: List[List[int]] = [[] for _ in range(g.n)]
        for circ in self.circuits:
            for hin, hout in circ.crossings:
                ins[hin >> 2].append(hin & 3)
                outs[hout >> 2].append(hout & 3)
        codes = []
        for v, vin, vout in zip(g.vertices, ins, outs):
            if len(vin) != 2 or len(vout) != 2:
                raise NotEulerSystem(
                    f"circuits enter vertex {v!r} {len(vin)} times and leave "
                    f"it {len(vout)} times, not twice each"
                )
            if len({*vin, *vout}) != 4:
                raise NotEulerSystem(f"circuits use a slot of vertex {v!r} twice")
            codes.append(CODE_BY_PAIR[vin[0]][vin[1]])
        return tuple(codes)

    @cached_property
    def chi_codes(self) -> Tuple[int, ...]:
        # the three codes at a vertex are {0, 1, 2}, so chi is the remainder
        return tuple(
            3 - p - q for p, q in zip(self.ts.codes, self.psi_codes)
        )

    @cached_property
    def labels_by_code(self) -> Tuple[Tuple[TransitionLabel, ...], ...]:
        """Per vertex, the label of each transition code (0, 1, 2)."""
        out = []
        for phi, psi in zip(self.ts.codes, self.psi_codes):
            row = [TransitionLabel.CHI] * 3
            # phi wins where a malformed system's phi and psi codes coincide
            row[psi] = TransitionLabel.PSI
            row[phi] = TransitionLabel.PHI
            out.append(tuple(row))
        return tuple(out)

    @cached_property
    def interlacement_rows(self) -> Tuple[int, ...]:
        """Adjacency of the interlacement graph, one bit row per vertex.

        Vertices v and w are adjacent when both lie on the same circuit
        and their occurrences alternate v..w..v..w around it; vertices of
        different components are never adjacent.  So the row of v is the
        XOR of the vertices its circuit visits strictly between v's two
        visits, where a vertex visited twice cancels.

        Raises:
            NotEulerSystem: a circuit crosses a vertex once, or more than
                twice.
        """
        rows = [0] * self.graph.n
        for circ in self.circuits:
            # prefix[k]: XOR of the vertices of the first k crossings
            prefix = [0]
            pos: Dict[int, List[int]] = {}
            for k, (h, _) in enumerate(circ.crossings):
                pos.setdefault(h >> 2, []).append(k)
                prefix.append(prefix[-1] ^ 1 << (h >> 2))
            for vi, visits in pos.items():
                if len(visits) != 2:
                    raise NotEulerSystem(
                        f"a circuit crosses vertex {self.graph.vertices[vi]!r} "
                        f"{len(visits)} times, not twice"
                    )
                p1, p2 = visits
                rows[vi] = prefix[p2] ^ prefix[p1 + 1]
        return tuple(rows)


def hierholzer(g: Graph4R) -> EulerSystem:
    """Deterministic Euler system of ``g``, one circuit per component.

    Tours always start from the lowest-indexed unused half-edge, every
    exit taken is the lowest-indexed unused half-edge at the current
    vertex, and sub-tours are spliced in at the first vertex of the tour
    (in traversal order) that still has unused half-edges.

    Raises:
        GraphError: a walk gets stuck away from its start, which only a
            ``Graph4R`` built without ``build_graph``, on a half-edge
            table that is not a pairing, can cause.
    """
    nhe = g.half_edge_count
    other = g.other_end_table
    used = bytearray(nhe)

    def lowest_unused(vi: int):
        base = vi << 2
        for s in range(4):
            if not used[base + s]:
                return base + s
        return None

    def walk(start: int) -> List[int]:
        seq = []
        h = start
        while h is not None:
            seq.append(h)
            used[h] = 1
            used[other[h]] = 1
            h = lowest_unused(other[h] >> 2)
        if other[seq[-1]] >> 2 != start >> 2:
            raise GraphError(
                f"walk from vertex {g.vertices[start >> 2]!r} does not close "
                "up: the half-edge table is not a 4-regular pairing"
            )
        return seq

    circuits = []
    codes = [0] * g.n
    for comp in g.components_index:
        tour = walk(comp[0] << 2)
        while True:
            for i, h in enumerate(tour):
                sub_start = lowest_unused(h >> 2)
                if sub_start is not None:
                    tour[i:i] = walk(sub_start)
                    break
            else:
                break
        crossings = tuple(
            (other[tour[i - 1]], tour[i]) for i in range(len(tour))
        )
        circuits.append(Circuit(crossings))
        for hin, hout in crossings:
            codes[hin >> 2] = CODE_BY_PAIR[hin & 3][hout & 3]
    return EulerSystem(g, TransitionSystem(tuple(codes)), tuple(circuits))


def dow(c: EulerSystem, component: int = 0) -> DoubleOccurrenceWord:
    """Double occurrence word of one component's circuit of ``c``."""
    if not 0 <= component < len(c.circuits):
        raise GraphMismatch(
            f"component {component} out of range ({len(c.circuits)} components)"
        )
    circ = c.circuits[component]
    return DoubleOccurrenceWord(
        tuple(c.graph.vertices[h >> 2] for h, _ in circ.crossings)
    )


def label_transitions(c: EulerSystem, ts: TransitionSystem) -> Dict:
    """Label of each vertex's transition in ``ts`` relative to ``c``.

    Returns a {vertex id: TransitionLabel} dict in vertex order.
    """
    g = c.graph
    if len(ts) != g.n:
        raise GraphMismatch(
            f"transition system covers {len(ts)} vertices, graph has {g.n}"
        )
    return {
        v: row[code] for v, row, code in zip(g.vertices, c.labels_by_code, ts.codes)
    }


def transition_for_label(c: EulerSystem, v, label: TransitionLabel) -> Transition:
    """The transition at ``v`` that carries ``label`` relative to ``c``."""
    i = c.graph.vertex_index(v)
    if label is TransitionLabel.PHI:
        return TRANSITIONS[c.ts.codes[i]]
    if label is TransitionLabel.PSI:
        return TRANSITIONS[c.psi_codes[i]]
    return TRANSITIONS[c.chi_codes[i]]


@lru_cache(maxsize=8192)
def kappa_transform(c: EulerSystem, v) -> EulerSystem:
    """Replace the transition at ``v`` with its psi transition.

    The result is again an Euler system (validated), and applying the
    transform twice at the same vertex gives back ``c``.
    """
    i = c.graph.vertex_index(v)
    new_ts = c.ts.replace(i, c.psi_codes[i])
    return EulerSystem.from_transitions(c.graph, new_ts)


def _label_exchange(codes, psi, rows, i):
    """Psi codes and interlacement rows after the vertex transform at ``i``.

    ``codes``, ``psi`` and ``rows`` describe an Euler system C: its
    transition codes and psi codes packed two bits per vertex, vertex 0
    most significant, and its interlacement rows with each neighbour's
    bit spread to that neighbour's 2-bit field.  In kappa_i(C), phi and
    psi swap at i; at each interlacement neighbour w of i, chi and psi
    swap, so the new psi code is chi_w = 3 - phi_w - psi_w; and the rows
    become the local complement at i.
    """
    n = len(rows)
    field = 3 << 2 * (n - 1 - i)
    nbrs = rows[i]
    # phi + psi <= 3 in every field, so the subtraction borrows nowhere
    chi = (1 << 2 * n) - 1 - codes - psi
    new_psi = psi ^ ((psi ^ chi) & nbrs) ^ ((psi ^ codes) & field)
    new_rows = list(rows)
    rest = nbrs
    while rest:
        low = rest & -rest  # low bit of the field of neighbour w
        w_field = 3 * low
        new_rows[n - 1 - (low.bit_length() >> 1)] ^= nbrs ^ w_field
        rest ^= w_field
    return new_psi, tuple(new_rows)


def _orbit_walk(c: EulerSystem):
    """(codes, psi codes, interlacement rows) of each orbit member of ``c``,
    packed as :func:`_label_exchange` takes them.

    Breadth-first closure over single-vertex transforms by the label
    exchange; members are deduplicated by their packed transition codes,
    and the list starts with ``c``.
    """
    shifts = range(2 * c.graph.n - 2, -1, -2)
    fields = [3 << s for s in shifts]
    start = (
        sum(x << s for x, s in zip(c.ts.codes, shifts)),
        sum(x << s for x, s in zip(c.psi_codes, shifts)),
        tuple(
            sum(f for w, f in enumerate(fields) if row >> w & 1)
            for row in c.interlacement_rows
        ),
    )
    seen = {start[0]}
    states = [start]
    for codes, psi, rows in states:
        diff = codes ^ psi
        for i, field in enumerate(fields):
            key = codes ^ (diff & field)
            if key not in seen:
                seen.add(key)
                states.append((key, *_label_exchange(codes, psi, rows, i)))
    return states


def orbit_keys(g: Graph4R, c: EulerSystem) -> List[int]:
    """Packed transition codes of every Euler system reachable from ``c``
    by vertex transforms, sorted.

    Each key holds the code of vertex i in bits 2(n - 1 - i) and
    2(n - 1 - i) + 1, so ``(key >> 2 * (n - 1 - i)) & 3`` is that code
    and the keys sort as the code tuples do.  The walk starts from the
    codes, psi codes and interlacement rows of ``c`` and applies the
    label-exchange rules, so it traces no circuit and builds no
    ``EulerSystem``.  The orbit has no size guard of its own: compare
    ``euler_count(g)`` with a limit before walking it.

    Raises:
        GraphMismatch: ``c`` is an Euler system of another graph.
    """
    if c.graph != g:
        raise GraphMismatch("Euler system belongs to a different graph")
    return sorted(codes for codes, _, _ in _orbit_walk(c))


def kotzig_orbit(g: Graph4R, c: EulerSystem):
    """All Euler systems reachable from ``c`` by vertex transforms.

    The members are those of :func:`orbit_keys`, in key order.  Each one
    other than ``c`` is traced and validated once by
    ``EulerSystem.from_transitions``, so its psi codes and interlacement
    rows come from its own circuits, never from the walk: checks that
    compare the transform with the label-exchange rules (label exchange,
    interlacement complement) test the walk's rules rather than repeat
    them.  The orbit has no size guard of its own: compare
    ``euler_count(g)`` with a limit before building it.

    Raises:
        GraphMismatch: ``c`` is an Euler system of another graph.
        NotEulerSystem: a walked member is not an Euler system; the
            message names the first such member in key order.
    """
    shifts = range(2 * g.n - 2, -1, -2)
    orbit = []
    for key in orbit_keys(g, c):
        ts = TransitionSystem(tuple((key >> s) & 3 for s in shifts))
        try:
            orbit.append(c if ts == c.ts else EulerSystem.from_transitions(g, ts))
        except NotEulerSystem as exc:
            member = " ".join(
                f"{v}:{TRANSITIONS[x].value}" for v, x in zip(g.vertices, ts.codes)
            )
            raise NotEulerSystem(
                f"orbit member [{member}] is not an Euler system: {exc}"
            ) from None
    return tuple(orbit)


def euler_from_partition(g: Graph4R, p: CircuitPartition):
    """Grow an Euler system from a non-Euler partition by uniting circuits.

    Within each component (components in vertex order), circuits are
    repeatedly united at the lowest-indexed vertex where the growing
    circuit meets an untouched circuit of ``p``, respecting the stored
    orientations; the first step of a component unites the two original
    circuits meeting at its lowest-indexed junction.  After size(p) - c
    steps every component is a single circuit.

    Returns:
        (c, v0, gamma0): the resulting Euler system, the vertex of the
        final uniting step, and the untouched circuit of ``p`` consumed
        by that step.  Relative to ``c``, the source of ``p`` is chi at
        every uniting vertex (in particular at v0) and phi elsewhere,
        and the core of gamma0 equals the unit vector at v0 plus the
        indicator of v0's interlacement neighborhood.

    Raises:
        AlreadyEuler: ``p`` already has one circuit per component.
        GraphMismatch: the circuits of ``p`` cross a vertex other than
            twice or a uniting vertex through one slot twice, one circuit
            crosses two components or starts at no vertex, or no vertex
            joins two circuits of one component.
    """
    if p.graph != g:
        raise GraphMismatch("partition belongs to a different graph")
    if p.size == g.c:
        raise AlreadyEuler("the partition already has one circuit per component")
    originals = set(p.circuits)
    cur = p
    growing: Circuit | None = None
    last_vertex = None
    last_original: Circuit | None = None
    for comp in g.components_index:
        comp_set = set(comp)
        growing = None
        while True:
            comp_circuits = [
                ci
                for ci, circ in enumerate(cur.circuits)
                if (circ.crossings[0][0] >> 2) in comp_set
            ]
            if len(comp_circuits) == 1:
                break
            candidate = None
            for vi in comp:
                owners = cur.circuits_at(vi)
                if len(owners) != 2:
                    raise GraphMismatch(
                        f"circuits cross vertex {g.vertices[vi]!r} "
                        f"{len(owners)} times"
                    )
                if owners[0] == owners[1]:
                    continue
                pair = (cur.circuits[owners[0]], cur.circuits[owners[1]])
                if growing is None or growing in pair:
                    candidate = (vi, pair)
                    break
            if candidate is None:
                raise GraphMismatch(
                    "no vertex joins two circuits in the component of "
                    f"{g.vertices[comp[0]]!r}"
                )
            vi, pair = candidate
            if growing is None:
                gamma = pair[1]
            else:
                gamma = pair[0] if pair[1] is growing else pair[1]
            if gamma not in originals:
                raise GraphMismatch(
                    "a circuit of the partition crosses more than one "
                    f"component, at vertex {g.vertices[vi]!r}"
                )
            last_vertex = g.vertices[vi]
            last_original = gamma
            before = set(cur.circuits)
            cur = unite_circuits(g, cur, g.vertices[vi])
            (growing,) = set(cur.circuits) - before
    if cur.size != g.c:
        raise GraphMismatch("circuits of the partition start at no vertex of the graph")
    system = EulerSystem.from_transitions(g, cur.source)
    return system, last_vertex, last_original
