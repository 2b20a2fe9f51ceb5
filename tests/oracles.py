"""Brute-force oracles that the library's engines are checked against.

Each one is the slow, literal form of something the library computes
faster: the circuit count of raw transition codes, the Euler systems
among all 3^n transition systems, the transform as a reversed walk, and
the transform orbit with every new member built by a traced transform.
They are test-only; import them as ``from oracles import ...``.
"""

import itertools
from typing import Sequence

from interlacement import (
    Circuit,
    EulerSystem,
    Graph4R,
    TooLarge,
    Transition,
    TransitionSystem,
    kappa_transform,
)
from interlacement.graph4 import PARTNER_BY_CODE
from interlacement.profile import DEFAULT_ENUMERATION_GUARD


def circuit_count(g: Graph4R, codes: Sequence[int]) -> int:
    """Number of circuits traced by raw transition codes (no objects built)."""
    other = g.other_end_table
    succ = [
        other[(h & ~3) | PARTNER_BY_CODE[codes[h >> 2]][h & 3]]
        for h in range(g.half_edge_count)
    ]
    visited = bytearray(g.half_edge_count)
    orbits = 0
    for h in range(g.half_edge_count):
        if not visited[h]:
            orbits += 1
            cur = h
            while not visited[cur]:
                visited[cur] = 1
                cur = succ[cur]
    assert orbits % 2 == 0
    return orbits // 2


def all_euler_systems_bruteforce(
    g: Graph4R, *, max_vertices: int = DEFAULT_ENUMERATION_GUARD
):
    """Every Euler system of ``g``, found by trying all 3^n transition systems.

    Enumeration runs the mixed-radix base-3 counter over vertices in
    index order (first vertex most significant).

    Raises:
        TooLarge: ``g`` has more than ``max_vertices`` vertices.
    """
    if g.n > max_vertices:
        raise TooLarge(
            f"brute force over 3^{g.n} transition systems refused "
            f"(guard at {max_vertices} vertices)"
        )
    c = g.c
    out = []
    for codes in itertools.product((0, 1, 2), repeat=g.n):
        if circuit_count(g, codes) == c:
            out.append(EulerSystem.from_transitions(g, TransitionSystem(codes)))
    return tuple(out)


def kappa_by_walk_reversal(c: EulerSystem, v) -> EulerSystem:
    """The transform at ``v`` as a literal reversal of one v-to-v walk.

    Splits the component circuit at the two crossings of ``v``, reverses
    the closed walk between them, and reassembles the crossing sequence
    directly, deriving the new transition system from the result.
    """
    g = c.graph
    vi = g.vertex_index(v)
    comp = g.component_of[vi]
    circ = c.circuits[comp]
    positions = [k for k, (hin, _) in enumerate(circ.crossings) if hin >> 2 == vi]
    assert len(positions) == 2
    p1, p2 = positions
    in1, out1 = circ.crossings[p1]
    in2, out2 = circ.crossings[p2]
    middle = tuple(
        (hout, hin) for hin, hout in reversed(circ.crossings[p1 + 1 : p2])
    )
    new_crossings = (
        circ.crossings[:p1]
        + ((in1, in2),)
        + middle
        + ((out1, out2),)
        + circ.crossings[p2 + 1 :]
    )
    new_circ = Circuit(new_crossings)
    new_ts = c.ts.replace(vi, Transition.from_pair(in1 & 3, in2 & 3).code)
    circuits = tuple(
        new_circ if k == comp else old for k, old in enumerate(c.circuits)
    )
    return EulerSystem(g, new_ts, circuits)


def kotzig_orbit_by_tracing(g: Graph4R, c: EulerSystem):
    """All Euler systems reachable from ``c``, each built by a traced transform.

    Breadth-first closure over single-vertex transforms.  A neighbour is
    looked up by its transition codes first, and only a system not seen
    yet is built (traced and validated) by ``kappa_transform``, so every
    member's psi codes and interlacement rows come from its own circuits.
    Returns the systems sorted by transition codes.
    """
    seen = {c.ts.codes: c}
    queue = [c]
    for cur in queue:
        codes = cur.ts.codes
        for i, psi in enumerate(cur.psi_codes):
            key = codes[:i] + (psi,) + codes[i + 1 :]
            if key not in seen:
                seen[key] = nxt = kappa_transform(cur, g.vertices[i])
                queue.append(nxt)
    return tuple(seen[key] for key in sorted(seen))
