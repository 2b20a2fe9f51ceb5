"""Half-edge model of 4-regular multigraphs and their circuit partitions.

A graph on n vertices owns 4n half-edges; half-edge ``4*v + s`` is slot
``s`` of vertex ``v``.  An edge is an unordered pair of distinct
half-edges, so loops and parallel edges are first-class.  A transition
at a vertex pairs its four slots into two couples; choosing a transition
at every vertex splits the edge set into closed circuits, traced here by
following the successor map

    succ(h) = other_end(transition_partner(h))

on "entered half-edge" states.  Successor orbits come in mirror pairs
(one per traversal direction), so the number of circuits is half the
number of orbits; :func:`trace_partition` walks each circuit once and
only marks its reversed twin.

The model does not depend on the GF(2) layer: the core vectors of
circuits, which are GF(2) vectors, live in :mod:`interlacement.interlace`
next to the core checks that use them.
"""

from __future__ import annotations

import random
from enum import Enum
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .errors import (
    GraphError,
    GraphMismatch,
    NoVertices,
    NotAJunction,
    SlotMissing,
    SlotReused,
    UnknownVertex,
)

__all__ = [
    "SLOTS",
    "Transition",
    "TRANSITIONS",
    "HalfEdge",
    "Graph4R",
    "TransitionSystem",
    "Circuit",
    "CircuitPartition",
    "build_graph",
    "connected_components",
    "trace_partition",
    "unite_circuits",
    "random_matching_graph",
]

SLOTS = (0, 1, 2, 3)


class Transition(Enum):
    """One of the three pairings of the four half-edge slots at a vertex.

    The canonical name lists the couple containing slot 0 first, smaller
    partner first: "01|23", "02|13", "03|12".
    """

    PAIR_01_23 = "01|23"
    PAIR_02_13 = "02|13"
    PAIR_03_12 = "03|12"

    @property
    def partner(self) -> Tuple[int, int, int, int]:
        """Slot-to-slot partner table of this pairing."""
        return _PARTNER[self]

    @property
    def code(self) -> int:
        """Index of this transition in the canonical order (0, 1, 2)."""
        return _CODE[self]

    @classmethod
    def from_pair(cls, a: int, b: int) -> "Transition":
        """The unique transition whose pairing couples slots ``a`` and ``b``."""
        if a == b or a not in SLOTS or b not in SLOTS:
            raise GraphError(f"({a}, {b}) is not a pair of distinct slots")
        return TRANSITIONS[CODE_BY_PAIR[a][b]]

    def __str__(self) -> str:
        return self.value


TRANSITIONS: Tuple[Transition, ...] = (
    Transition.PAIR_01_23,
    Transition.PAIR_02_13,
    Transition.PAIR_03_12,
)

_PARTNER: Dict[Transition, Tuple[int, int, int, int]] = {
    Transition.PAIR_01_23: (1, 0, 3, 2),
    Transition.PAIR_02_13: (2, 3, 0, 1),
    Transition.PAIR_03_12: (3, 2, 1, 0),
}

_CODE: Dict[Transition, int] = {t: i for i, t in enumerate(TRANSITIONS)}

PARTNER_BY_CODE: Tuple[Tuple[int, int, int, int], ...] = tuple(
    _PARTNER[t] for t in TRANSITIONS
)

# CODE_BY_PAIR[a][b]: code of the transition coupling slots a and b;
# None on the diagonal, where a == b couples nothing
CODE_BY_PAIR: Tuple[Tuple[int | None, ...], ...] = tuple(
    tuple(
        next((c for c, p in enumerate(PARTNER_BY_CODE) if p[a] == b), None)
        for b in SLOTS
    )
    for a in SLOTS
)


class HalfEdge(NamedTuple):
    """Slot ``slot`` of vertex ``vertex``; the atomic endpoint of an edge."""

    vertex: object
    slot: int

    def __str__(self) -> str:
        return f"{self.vertex}.{self.slot}"


class Graph4R:
    """A 4-regular multigraph in half-edge form.

    ``vertices`` fixes the vertex order used everywhere (matrices, bit
    vectors, transition tuples).  ``edges`` keeps the construction order
    and endpoint order so that printing round-trips.  Use
    :func:`build_graph` to construct one.
    """

    def __init__(
        self,
        vertices: Tuple[object, ...],
        edges: Tuple[Tuple[HalfEdge, HalfEdge], ...],
        other_end_table: Tuple[int, ...],
    ):
        self.vertices = vertices
        self.edges = edges
        self.other_end_table = other_end_table
        self.n = len(vertices)
        self.half_edge_count = 4 * self.n

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Graph4R):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.vertices, self.edges))

    @cached_property
    def _vindex(self) -> Dict[object, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def vertex_index(self, v) -> int:
        try:
            return self._vindex[v]
        except KeyError:
            raise UnknownVertex(f"vertex {v!r} is not in the graph") from None

    def other_end(self, h: int) -> int:
        return self.other_end_table[h]

    @cached_property
    def components_index(self) -> Tuple[Tuple[int, ...], ...]:
        """Connected components as sorted tuples of vertex indices,
        ordered by smallest member."""
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for h in range(self.half_edge_count):
            a, b = find(h >> 2), find(self.other_end_table[h] >> 2)
            if a != b:
                parent[max(a, b)] = min(a, b)
        groups: Dict[int, List[int]] = {}
        for v in range(self.n):
            groups.setdefault(find(v), []).append(v)
        return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))

    @cached_property
    def component_of(self) -> Tuple[int, ...]:
        """Component index of each vertex, aligned with ``vertices``."""
        out = [0] * self.n
        for ci, comp in enumerate(self.components_index):
            for v in comp:
                out[v] = ci
        return tuple(out)

    @property
    def c(self) -> int:
        """Number of connected components."""
        return len(self.components_index)


def build_graph(vertices: Sequence, edges: Iterable[Tuple]) -> Graph4R:
    """Construct a 4-regular multigraph from vertex ids and half-edge pairs.

    Args:
        vertices: distinct vertex ids in the order they should be indexed.
        edges: pairs of (vertex, slot) endpoints; each of the 4 slots of
            each vertex must be used exactly once over all edges.

    Raises:
        NoVertices: the vertex list is empty.
        UnknownVertex: an endpoint names a vertex not listed.
        SlotReused: a (vertex, slot) endpoint appears twice.
        SlotMissing: some slot is never used, so the graph is not 4-regular.
    """
    vs = tuple(vertices)
    if not vs:
        raise NoVertices("a graph needs at least one vertex")
    if len(set(vs)) != len(vs):
        raise GraphError("duplicate vertex id in vertex list")
    vindex = {v: i for i, v in enumerate(vs)}
    nhe = 4 * len(vs)
    other: List[int] = [-1] * nhe
    norm_edges: List[Tuple[HalfEdge, HalfEdge]] = []
    for endpoints in edges:
        (va, sa), (vb, sb) = endpoints
        for v, s in ((va, sa), (vb, sb)):
            if v not in vindex:
                raise UnknownVertex(f"edge endpoint {v!r}.{s} names an unknown vertex")
            if s not in SLOTS:
                raise GraphError(f"slot {s!r} of vertex {v!r} is not in 0..3")
        ha = (vindex[va] << 2) | sa
        hb = (vindex[vb] << 2) | sb
        if ha == hb:
            raise SlotReused(f"edge uses the half-edge {va}.{sa} twice")
        for h, v, s in ((ha, va, sa), (hb, vb, sb)):
            if other[h] != -1:
                raise SlotReused(f"half-edge {v}.{s} is used by more than one edge")
        other[ha] = hb
        other[hb] = ha
        norm_edges.append((HalfEdge(va, sa), HalfEdge(vb, sb)))
    for h, o in enumerate(other):
        if o == -1:
            raise SlotMissing(
                f"half-edge {vs[h >> 2]}.{h & 3} is not used by any edge"
            )
    return Graph4R(vs, tuple(norm_edges), tuple(other))


def connected_components(g: Graph4R) -> Tuple[Tuple[object, ...], ...]:
    """Connected components as tuples of vertex ids, ordered by first vertex."""
    return tuple(
        tuple(g.vertices[v] for v in comp) for comp in g.components_index
    )


class TransitionSystem:
    """A choice of transition at every vertex, stored as canonical codes.

    ``codes[i]`` is the :class:`Transition` code at the vertex in
    position ``i`` of the graph's vertex order.
    """

    __slots__ = ("codes",)

    def __init__(self, codes: Sequence[int]):
        # stored as a tuple, so any sequence of codes hashes like its tuple
        try:
            self.codes = tuple(codes)
        except TypeError:
            raise GraphError(
                f"{codes!r} is not a sequence of transition codes"
            ) from None
        for c in self.codes:
            if not isinstance(c, int) or c not in (0, 1, 2):
                raise GraphError(f"{c!r} is not a transition code")

    def __eq__(self, other) -> bool:
        if type(other) is not TransitionSystem:
            return NotImplemented
        return self.codes == other.codes

    def __hash__(self) -> int:
        return hash((self.codes,))

    @classmethod
    def from_map(cls, g: Graph4R, mapping: Dict) -> "TransitionSystem":
        """Build from a {vertex id: Transition} mapping covering V exactly."""
        extra = set(mapping) - set(g.vertices)
        if extra:
            raise UnknownVertex(f"transition given for unknown vertex {sorted(map(repr, extra))[0]}")
        missing = [v for v in g.vertices if v not in mapping]
        if missing:
            raise GraphMismatch(f"no transition for vertex {missing[0]!r}")
        return cls(tuple(mapping[v].code for v in g.vertices))

    def as_map(self, g: Graph4R) -> Dict:
        if len(self.codes) != g.n:
            raise GraphMismatch(
                f"transition system covers {len(self.codes)} vertices, graph has {g.n}"
            )
        return {v: TRANSITIONS[c] for v, c in zip(g.vertices, self.codes)}

    def replace(self, i: int, code: int) -> "TransitionSystem":
        codes = list(self.codes)
        codes[i] = code
        return TransitionSystem(tuple(codes))

    def __len__(self) -> int:
        return len(self.codes)


class Circuit:
    """A directed closed walk, stored as its cyclic crossing sequence.

    Each crossing is an (entered, exited) pair of half-edge indices at
    one vertex; the walk leaves through ``exited``, traverses that edge,
    and the next crossing's ``entered`` is the far end.
    """

    __slots__ = ("crossings",)

    def __init__(self, crossings: Tuple[Tuple[int, int], ...]):
        self.crossings = crossings

    def __eq__(self, other) -> bool:
        if type(other) is not Circuit:
            return NotImplemented
        return self.crossings == other.crossings

    def __hash__(self) -> int:
        return hash((self.crossings,))

    def __len__(self) -> int:
        return len(self.crossings)


class CircuitPartition:
    """The circuits induced on a graph by one transition system."""

    __slots__ = ("graph", "source", "circuits")

    def __init__(
        self, graph: Graph4R, source: TransitionSystem, circuits: Tuple[Circuit, ...]
    ):
        self.graph = graph
        self.source = source
        self.circuits = circuits

    @property
    def size(self) -> int:
        return len(self.circuits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircuitPartition):
            return NotImplemented
        return self.graph == other.graph and self.source == other.source

    def __hash__(self) -> int:
        return hash(self.source)

    def circuits_at(self, vi: int) -> Tuple[int, ...]:
        """Indices of the circuits owning the two crossings at vertex ``vi``."""
        out = []
        for ci, circ in enumerate(self.circuits):
            for h, _ in circ.crossings:
                if h >> 2 == vi:
                    out.append(ci)
        return tuple(out)


def trace_partition(g: Graph4R, ts: TransitionSystem) -> CircuitPartition:
    """Split the edge set into circuits according to ``ts``.

    Entered states are scanned upward.  The first unvisited one is the
    smallest state of a circuit and of its reversed twin; the circuit is
    walked once from it, marking each exit (where the twin enters), so
    the twin is never traced.  The circuit list is therefore canonical
    for (graph, ts): ordered by smallest half-edge, each started there.
    """
    if len(ts) != g.n:
        raise GraphMismatch(
            f"transition system covers {len(ts)} vertices, graph has {g.n}"
        )
    other = g.other_end_table
    partner = [PARTNER_BY_CODE[c] for c in ts.codes]
    visited = bytearray(g.half_edge_count)
    circuits = []
    for h in range(g.half_edge_count):
        if visited[h]:
            continue
        crossings = []
        cur = h
        while not visited[cur]:
            hout = (cur & ~3) | partner[cur >> 2][cur & 3]
            visited[cur] = visited[hout] = 1
            crossings.append((cur, hout))
            cur = other[hout]
        circuits.append(Circuit(tuple(crossings)))
    return CircuitPartition(g, ts, tuple(circuits))


def unite_circuits(g: Graph4R, p: CircuitPartition, v) -> CircuitPartition:
    """Join the two distinct circuits of ``p`` meeting at ``v`` into one.

    The replacement transition at ``v`` couples the first circuit's
    entering half-edge with the second circuit's exiting one, so both
    stored orientations are preserved: the united circuit runs the first
    circuit up to ``v``, then all of the second, then the rest of the
    first.  Only the transition at ``v`` changes, and the result has one
    circuit fewer.

    Raises:
        GraphMismatch: the circuits of ``p`` cross ``v`` other than twice,
            or use one of its slots twice.
        NotAJunction: the two crossings at ``v`` belong to one circuit.
    """
    if p.graph != g:
        raise GraphMismatch("partition belongs to a different graph")
    vi = g.vertex_index(v)
    locs = []
    for ci, circ in enumerate(p.circuits):
        for k, (hin, _) in enumerate(circ.crossings):
            if hin >> 2 == vi:
                locs.append((ci, k))
    if len(locs) != 2:
        raise GraphMismatch(f"circuits cross vertex {v!r} {len(locs)} times")
    (ci1, k1), (ci2, k2) = locs
    if ci1 == ci2:
        raise NotAJunction(
            f"vertex {v!r} is not incident on two distinct circuits"
        )
    first, second = p.circuits[ci1], p.circuits[ci2]
    a_in, a_out = first.crossings[k1]
    b_in, b_out = second.crossings[k2]
    if len({a_in & 3, a_out & 3, b_in & 3, b_out & 3}) != 4:
        raise GraphMismatch(f"circuits use a slot of vertex {v!r} twice")
    t_new = Transition.from_pair(a_in & 3, b_out & 3)
    new_ts = p.source.replace(vi, t_new.code)
    rot_b = second.crossings[k2 + 1 :] + second.crossings[:k2]
    rot_a = first.crossings[k1 + 1 :] + first.crossings[:k1]
    united = Circuit(((a_in, b_out),) + rot_b + ((b_in, a_out),) + rot_a)
    new_circuits = tuple(
        united if ci == ci1 else circ
        for ci, circ in enumerate(p.circuits)
        if ci != ci2
    )
    return CircuitPartition(g, new_ts, new_circuits)


def random_matching_graph(n: int, seed: int = 0, *, connected: bool = False) -> Graph4R:
    """Random 4-regular multigraph from a perfect matching on 4n half-edges.

    The 4n labeled half-edges are shuffled with ``random.Random(seed)``
    and paired off consecutively, so loops and parallel edges occur
    naturally.  With ``connected=True``, matchings are redrawn from the
    same stream until the result is connected.
    """
    if n < 1:
        raise NoVertices("a graph needs at least one vertex")
    names = tuple(f"v{i}" for i in range(n))
    rng = random.Random(seed)
    while True:
        hes = list(range(4 * n))
        rng.shuffle(hes)
        edges = []
        for i in range(0, 4 * n, 2):
            a, b = hes[i], hes[i + 1]
            edges.append(
                (HalfEdge(names[a >> 2], a & 3), HalfEdge(names[b >> 2], b & 3))
            )
        g = build_graph(names, edges)
        if not connected or g.c == 1:
            return g
