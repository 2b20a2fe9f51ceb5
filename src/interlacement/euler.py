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
every Euler system of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Dict, List, Tuple

from .errors import AlreadyEuler, GraphMismatch, NotEulerSystem
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
    "kotzig_orbit",
    "euler_from_partition",
]


class TransitionLabel(Enum):
    PHI = "phi"
    CHI = "chi"
    PSI = "psi"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class DoubleOccurrenceWord:
    """Cyclic sequence of vertex ids in which each vertex occurs twice."""

    word: Tuple[object, ...]

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.word)


@dataclass(frozen=True, eq=False)
class EulerSystem:
    """An Euler system: one circuit per component, plus a stored traversal.

    ``circuits`` holds one directed circuit per connected component (in
    component order).  The stored direction is an artifact of how the
    system was produced; two Euler systems are equal exactly when their
    transition systems are, and every label computation is invariant
    under reversing any stored circuit.
    """

    graph: Graph4R
    ts: TransitionSystem
    circuits: Tuple[Circuit, ...]

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


def hierholzer(g: Graph4R) -> EulerSystem:
    """Deterministic Euler system of ``g``, one circuit per component.

    Tours always start from the lowest-indexed unused half-edge, every
    exit taken is the lowest-indexed unused half-edge at the current
    vertex, and sub-tours are spliced in at the first vertex of the tour
    (in traversal order) that still has unused half-edges.
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
        assert other[seq[-1]] >> 2 == start >> 2, "walk must close up"
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
    phi = c.ts.codes
    psi = c.psi_codes
    labels = {}
    for i, v in enumerate(g.vertices):
        code = ts.codes[i]
        if code == phi[i]:
            labels[v] = TransitionLabel.PHI
        elif code == psi[i]:
            labels[v] = TransitionLabel.PSI
        else:
            labels[v] = TransitionLabel.CHI
    return labels


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


def kotzig_orbit(g: Graph4R, c: EulerSystem):
    """All Euler systems reachable from ``c`` by vertex transforms.

    Breadth-first closure over single-vertex transforms.  The transform
    at vertex i only swaps code i for the psi code, so each neighbour is
    looked up by its transition codes first; only a system not seen yet
    is built (and validated) by :func:`kappa_transform`, once per orbit
    member.  Returns the systems sorted by transition codes.  The orbit
    has no size guard of its own: compare ``euler_count(g)`` with a limit
    before building it.
    """
    if c.graph != g:
        raise GraphMismatch("Euler system belongs to a different graph")
    seen: Dict[Tuple[int, ...], EulerSystem] = {c.ts.codes: c}
    queue = [c]
    for cur in queue:
        codes = cur.ts.codes
        for i, psi in enumerate(cur.psi_codes):
            key = codes[:i] + (psi,) + codes[i + 1 :]
            if key not in seen:
                seen[key] = nxt = kappa_transform(cur, g.vertices[i])
                queue.append(nxt)
    return tuple(seen[key] for key in sorted(seen))


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
