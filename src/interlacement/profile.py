"""Circuit-count profiles over all 3^n transition systems of a graph.

The profile of a graph maps each possible circuit count k to the number
of transition systems tracing exactly k circuits (the coefficient map of
the generating polynomial sum of x^|P|).  Three independent engines
compute it:

* the frontier engine (the default) never visits the 3^n systems one by
  one.  It opens the vertices in a greedy minimum-frontier order and
  keeps, for each way the partial circuits can pair up the edges that
  leave the opened vertices, a histogram of the circuits already
  closed: the transfer-matrix method of Sekine, Imai and Tani applied
  to Jaeger's transition polynomial.  Its cost grows with the frontier
  width, not with n.  Its plan, fixed before any state exists, is the
  vertex order and the frontier after each step;
* the tracing engine walks the 3^n systems depth first, fixing the
  vertices' transitions in index order; each transition joins the
  open paths at its slots and counts the circuits that close, and the
  walk undoes its joins on the way back.  The frontier engine joins
  paths the same way; the two share only the table of slot couples;
* the nullity engine reads each circuit count off the kernel dimension
  of M(c, P) for one Euler system c.  It opens the vertices in the
  frontier engine's order and merges the partial label choices whose
  columns meet the columns still to come in the same subspace: a
  dynamic program over cut-rank states, which the frontier engine's
  pairing bound guards.  It shares only that plan and its bound with
  the frontier engine.  It is pure Python.

The tracing engine is the 3^n oracle the two state engines are checked
against; at sizes past its reach they check each other.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Tuple

from .errors import GraphMismatch, InvalidProfile, TooLarge
from .graph4 import PARTNER_BY_CODE, Graph4R

if TYPE_CHECKING:
    from .euler import EulerSystem

__all__ = [
    "DEFAULT_ENUMERATION_GUARD",
    "DEFAULT_STATE_GUARD",
    "PartitionProfile",
    "profile_by_frontier",
    "profile_by_tracing",
    "profile_by_nullity",
    "euler_count",
]

# vertex guard of the tracer, the one 3^n engine, whose cost is exactly
# 3^n leaves: at 0.46-0.49 us per leaf (n = 11-13, 2-vCPU x86 host),
# 3^16 (43M) takes about 20 s, where 3^20 would take about 28 min
DEFAULT_ENUMERATION_GUARD = 16

# (w - 1)!! pairings of w frontier edges, the state guard of the
# frontier and nullity engines; 13!! admits frontiers of up to 14
# edges, which covers random connected graphs up to about n = 28
DEFAULT_STATE_GUARD = 135_135

_PROGRESS_EVERY = 1 << 20

# each transition code's two slot couples (a, b, c, d): a with b, c with d
_COUPLES = tuple(
    (0, p[0], *(s for s in range(1, 4) if s != p[0])) for p in PARTNER_BY_CODE
)


class PartitionProfile:
    """Coefficient map {circuit count: number of transition systems}."""

    __slots__ = ("coefficients", "n_vertices", "c_components")

    def __init__(
        self, coefficients: Dict[int, int], n_vertices: int, c_components: int
    ):
        self.coefficients = coefficients
        self.n_vertices = n_vertices
        self.c_components = c_components

    def __eq__(self, other) -> bool:
        if type(other) is not PartitionProfile:
            return NotImplemented
        return (
            self.coefficients == other.coefficients
            and self.n_vertices == other.n_vertices
            and self.c_components == other.c_components
        )

    def total(self) -> int:
        return sum(self.coefficients.values())

    def sorted_items(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(self.coefficients.items()))

    def validate(self) -> None:
        """Structural sanity: totals, the value at -2, and the reachable
        range of counts.

        The profile polynomial p(x) = sum of a_k x^k is 3^n at x = 1 and
        0 at x = -2.  Fix every transition but one vertex's: the rest
        pairs that vertex's four slots by two open paths, one of its
        three transitions closes them into two circuits and the other
        two into one, and x^2 + 2x vanishes at x = -2.

        Raises:
            InvalidProfile: the coefficients do not total 3^n, p(-2) is
                not 0, the smallest count is not c, the largest exceeds
                c + n, or a coefficient is below 1.
        """
        n, c, counts = self.n_vertices, self.c_components, self.coefficients
        if not (
            self.total() == 3 ** n
            and sum(a * (-2) ** k for k, a in counts.items()) == 0
            and min(counts) == c
            and max(counts) <= c + n
            and all(v > 0 for v in counts.values())
        ):
            raise InvalidProfile(
                f"profile {dict(self.sorted_items())} is impossible for "
                f"{n} vertices in {c} components"
            )


class _Step(NamedTuple):
    """Opening one vertex, ``vertex``, and the frontier it leaves.

    ``frontier`` is the sorted tuple of the dangling half-edges: the
    ends, at vertices not yet opened, of the edges that leave the opened
    vertices.
    """

    vertex: int
    frontier: Tuple[int, ...]


def _frontier_plan(g: Graph4R) -> List[_Step]:
    """Steps of the greedy minimum-frontier order.

    Each step opens the unopened vertex that adds the fewest frontier
    edges net of those it closes, the smallest index on a tie.
    """
    n = g.n
    other = g.other_end_table
    # net frontier change of opening each vertex: +1 per edge to an
    # unopened vertex, -1 per edge to an opened one, 0 per loop
    delta = [
        sum(other[h] >> 2 != v for h in range(4 * v, 4 * v + 4))
        for v in range(n)
    ]
    opened = [False] * n
    frontier: Tuple[int, ...] = ()
    steps = []
    for _ in range(n):
        v = min(
            (u for u in range(n) if not opened[u]),
            key=lambda u: (delta[u], u),
        )
        opened[v] = True
        # the new dangling ends: v's edges to unopened vertices
        dangling = [
            other[h] for h in range(4 * v, 4 * v + 4) if not opened[other[h] >> 2]
        ]
        for h in dangling:
            delta[h >> 2] -= 2
        frontier = tuple(sorted([h for h in frontier if h >> 2 != v] + dangling))
        steps.append(_Step(v, frontier))
    return steps


def _state_bound(steps: List[_Step]) -> int:
    """Most states any step can hold: (w - 1)!! pairings of w edges."""
    return max(math.prod(range(len(s.frontier) - 1, 0, -2)) for s in steps)


def _guarded_plan(g: Graph4R, max_states: int, engine: str) -> List[_Step]:
    """The frontier order's steps, refused when some step admits more
    than ``max_states`` states (before any state exists)."""
    steps = _frontier_plan(g)
    bound = _state_bound(steps)
    if bound > max_states:
        raise TooLarge(
            f"{engine} profile of {g.n} vertices refused: up to {bound} "
            f"states (guard at {max_states})"
        )
    return steps


def _field(g: Graph4R) -> int:
    """Bits per count of a packed histogram.

    A histogram is one int, sum of count << (k * field): no count exceeds
    3^n, so the fields never carry into each other.
    """
    return (3 ** g.n).bit_length()


def _unpack(packed: int, field: int, fields: int) -> Dict[int, int]:
    """{k: count} of the nonzero counts among the first ``fields``."""
    mask = (1 << field) - 1
    return {
        k: count for k in range(fields) if (count := packed >> k * field & mask)
    }


def profile_by_frontier(
    g: Graph4R, *, max_states: int = DEFAULT_STATE_GUARD
) -> PartitionProfile:
    """Profile computed by a dynamic program over the frontier pairings.

    Vertices are opened one at a time.  A state is the perfect matching
    that the partial circuits induce on the frontier: the tuple giving
    each frontier half-edge, in order, the far end of the open path
    that ends there.  It carries a histogram {closed circuits: number
    of partial transition systems}.  Opening a vertex tries its 3
    transitions on every state: each joins its two slot couples as the
    tracer does, and a circuit closes when a couple joins two ends of
    one path.  The next state is read off the next frontier.

    Raises:
        TooLarge: the order's frontier admits more than ``max_states``
            pairings at some step (checked before any state exists).
    """
    steps = _guarded_plan(g, max_states, "frontier")
    field = _field(g)
    # end[h]: the far end of the open path that ends at half-edge h.  A
    # half-edge no path has reached yet ends at the other end of its
    # edge; each state writes the entries of its frontier, and each
    # transition's joins are undone once its key is read
    end = dict(enumerate(g.other_end_table))
    frontier: Tuple[int, ...] = ()
    states: Dict[Tuple[int, ...], int] = {(): 1}
    for v, nxt_frontier in steps:
        quads = [
            (4 * v + a, 4 * v + b, 4 * v + c, 4 * v + d) for a, b, c, d in _COUPLES
        ]
        nxt: Dict[Tuple[int, ...], int] = {}
        for ends, hist in states.items():
            end.update(zip(frontier, ends))
            for a, b, c, d in quads:
                x, y = end[a], end[b]
                end[x], end[y] = y, x
                z, w = end[c], end[d]
                end[z], end[w] = w, z
                key = tuple(map(end.__getitem__, nxt_frontier))
                closed = (x == b) + (z == d)
                nxt[key] = nxt.get(key, 0) + (hist << closed * field)
                end[z], end[w] = c, d
                end[x], end[y] = a, b
        states = nxt
        frontier = nxt_frontier
    (packed,) = states.values()
    profile = PartitionProfile(_unpack(packed, field, 2 * g.n + 1), g.n, g.c)
    profile.validate()
    return profile


def _log_progress(leaves: int) -> None:
    """Report progress of a 3^n engine, every ``_PROGRESS_EVERY`` leaves."""
    # imported here, not at the top: importing logging adds 5-8 ms to
    # the start of every command, and only runs past 2^20 leaves log
    import logging

    logging.getLogger(__name__).info(
        "profile: %d transition systems processed", leaves
    )


def _circuit_histogram(g: Graph4R) -> Dict[int, int]:
    """{circuit count: systems} over all 3^n systems, depth first.

    The walk fixes the vertices' transitions in index order.  ``end[h]``
    is the far end of the open path that ends at half-edge h.  A
    transition joins its two slot couples; a couple whose slots end
    the same path closes a circuit.  Joins are undone on the way back.
    """
    n = g.n
    end = list(g.other_end_table)
    quads = [
        [(4 * v + a, 4 * v + b, 4 * v + c, 4 * v + d) for a, b, c, d in _COUPLES]
        for v in range(n)
    ]
    hist = [0] * (2 * n + 1)
    leaves = 0

    def walk(v: int, closed: int) -> None:
        nonlocal leaves
        if v == n:
            hist[closed] += 1
            leaves += 1
            if leaves % _PROGRESS_EVERY == 0:
                _log_progress(leaves)
            return
        for a, b, c, d in quads[v]:
            x, y = end[a], end[b]
            end[x], end[y] = y, x
            z, w = end[c], end[d]
            end[z], end[w] = w, z
            walk(v + 1, closed + (x == b) + (z == d))
            end[z], end[w] = c, d
            end[x], end[y] = a, b

    walk(0, 0)
    return {k: count for k, count in enumerate(hist) if count}


def profile_by_tracing(
    g: Graph4R,
    *,
    max_vertices: int = DEFAULT_ENUMERATION_GUARD,
) -> PartitionProfile:
    """Profile computed by tracing every transition system.

    A depth-first walk fixes one vertex's transition per level and
    counts the circuits it closes; each of the 3^n leaves is one
    transition system.  It shares only the table of slot couples with
    the frontier engine, and no code with the nullity engine.

    Raises:
        TooLarge: the graph exceeds the enumeration guard.
    """
    if g.n > max_vertices:
        raise TooLarge(
            f"profile over 3^{g.n} transition systems refused "
            f"(guard at {max_vertices} vertices)"
        )
    profile = PartitionProfile(_circuit_histogram(g), g.n, g.c)
    profile.validate()
    return profile


def _nullity_states(
    g: Graph4R, c: EulerSystem, steps: List[_Step]
) -> Iterator[Dict[Tuple[int, ...], int]]:
    """The states after each step of a dynamic program over the labels.

    The vertices open in the order of ``steps``.  After some are open,
    let U be the span of the columns of M(c, P) chosen so far, and F the
    span of e_u and A e_u over the unopened u.  Every later column lies
    in F, so the final rank depends on U only through dim U and
    S = U ∩ F.  A state is the reduced basis of S (rows in increasing
    order of lowest bit, each lowest bit cleared from the other rows),
    carrying a packed histogram over dim U.  Opening v tries its three
    columns: a column raises the rank exactly when it is not in S, and
    the next state is (S + <col>) ∩ F' by the modular law.  F' contains
    every e_u of an unopened u, so x lies in F' exactly when x on the
    opened vertices lies in W, the span of the A e_u there over the
    unopened u.  After the last step F = 0 and one state is left.
    """
    # the GF(2) layer is imported here, not at the top, so that the
    # frontier engine loads the graph model only
    from .gf2 import _reduce

    n = g.n
    adj = c.interlacement_rows
    field = _field(g)
    upper = -1 << n
    states: Dict[Tuple[int, ...], int] = {(): 1}
    opened = 0
    for step in steps:
        v = step.vertex
        opened |= 1 << v
        # W's basis, shifted n bits up
        w_lead: Dict[int, int] = {}
        for u in range(n):
            if not opened >> u & 1:
                w = _reduce((adj[u] & opened) << n, w_lead)
                if w:
                    w_lead[w & -w] = w

        def meet(rows: List[int]) -> Tuple[int, ...]:
            """Reduced basis of span(rows) ∩ F' from a reduced basis.

            A row b enters the elimination as (b on opened) << n | b,
            against W's basis; a combination whose upper half reduces
            to 0 lies in F'.  Taken from the highest lowest bit down,
            each row that stays is combined only with rows of higher
            lowest bit that leave, so the rows kept are reduced too.
            """
            lead = dict(w_lead)
            kept = []
            for b in reversed(rows):
                z = _reduce((b & opened) << n | b, lead, upper)
                top = z & upper
                if top:
                    lead[top & -top] = z
                else:
                    kept.append(z)
            return tuple(reversed(kept))

        nxt: Dict[Tuple[int, ...], int] = {}
        for basis, hist in states.items():
            lows = [row & -row for row in basis]
            for col in (1 << v, adj[v], adj[v] | 1 << v):
                for low, row in zip(lows, basis):
                    if col & low:
                        col ^= row
                if col:
                    # col is not in S: clear its lowest bit from S's rows
                    # and insert it in order
                    low = col & -col
                    rows = [row ^ col if row & low else row for row in basis]
                    rows.insert(bisect.bisect(lows, low), col)
                    key = meet(rows)
                    nxt[key] = nxt.get(key, 0) + (hist << field)
                else:
                    key = meet(basis)
                    nxt[key] = nxt.get(key, 0) + hist
        states = nxt
        yield states


def profile_by_nullity(
    g: Graph4R,
    c: EulerSystem | None = None,
    *,
    max_states: int = DEFAULT_STATE_GUARD,
) -> PartitionProfile:
    """Profile computed from kernel dimensions of modified matrices.

    For every transition system P, the circuit count is the component
    count plus the kernel dimension of the modified interlacement matrix
    M(c, P).  Column v of M(c, P) is e_v, A e_v or A e_v + e_v as P
    labels v phi, chi or psi, A the interlacement adjacency of c.  A
    dynamic program over the frontier engine's vertex order merges the
    partial label choices whose column spans meet the columns still to
    come in the same subspace (the cut-rank idea of Oum, and of Bläser
    and Hoffmann).  It shares only the order and its state bound with
    the frontier engine.  The same nullity is |S| - rank(A[S] + I_T) for
    the non-phi vertices S and psi vertices T (Aigner and van der Holst;
    Traldi).

    Args:
        c: reference Euler system; defaults to ``hierholzer(g)``.

    Raises:
        TooLarge: the order's frontier admits more than ``max_states``
            pairings at some step (checked before any state exists).
    """
    from .euler import hierholzer

    steps = _guarded_plan(g, max_states, "nullity")
    if c is None:
        c = hierholzer(g)
    elif c.graph != g:
        raise GraphMismatch("Euler system belongs to a different graph")
    for states in _nullity_states(g, c, steps):
        pass
    (packed,) = states.values()
    # a system of rank r traces c(g) + n - r circuits
    ranks = _unpack(packed, _field(g), g.n + 1)
    coefficients = {g.c + g.n - r: count for r, count in ranks.items()}
    profile = PartitionProfile(coefficients, g.n, g.c)
    profile.validate()
    return profile


def euler_count(g: Graph4R) -> int:
    """Number of Euler systems of ``g`` (the profile coefficient at c)."""
    return profile_by_frontier(g).coefficients[g.c]
