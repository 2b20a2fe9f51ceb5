"""Circuit-count profiles over all 3^n transition systems of a graph.

The profile of a graph maps each possible circuit count k to the number
of transition systems tracing exactly k circuits (the coefficient map of
the generating polynomial sum of x^|P|).  Two independent engines
compute it:

* the tracing engine enumerates the base-3 counter over vertices in
  index order and counts successor orbits, vectorized with numpy in
  chunks (cycle minima by pointer doubling);
* the nullity engine reuses one all-chi matrix per Euler system and
  patches the phi/psi columns per transition system, reading the
  circuit count off the kernel dimension.

The tracing engine splits the counter range into fixed chunks, so
partial profiles merge by coefficient addition and the result is
independent of its thread count.  The nullity engine is pure Python
under the interpreter lock and runs on one thread.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import GraphMismatch, InvalidProfile, TooLarge
from .euler import DEFAULT_ENUMERATION_GUARD, EulerSystem, hierholzer
from .gf2 import iter_bits, rank_rows
from .graph4 import PARTNER_BY_CODE, Graph4R
from .interlace import interlacement_graph

__all__ = [
    "PartitionProfile",
    "profile_by_tracing",
    "profile_by_nullity",
    "euler_count",
]

logger = logging.getLogger(__name__)

_CHUNK = 3 ** 10
_PROGRESS_EVERY = 1 << 20


@dataclass(frozen=True)
class PartitionProfile:
    """Coefficient map {circuit count: number of transition systems}."""

    coefficients: Dict[int, int]
    n_vertices: int
    c_components: int

    def total(self) -> int:
        return sum(self.coefficients.values())

    def sorted_items(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(self.coefficients.items()))

    def validate(self) -> None:
        """Structural sanity: totals, and the reachable range of counts.

        Raises:
            InvalidProfile: the coefficients do not total 3^n, the
                smallest count is not c, the largest exceeds c + n, or a
                coefficient is below 1.
        """
        n, c, counts = self.n_vertices, self.c_components, self.coefficients
        if not (
            self.total() == 3 ** n
            and min(counts) == c
            and max(counts) <= c + n
            and all(v > 0 for v in counts.values())
        ):
            raise InvalidProfile(
                f"profile {dict(self.sorted_items())} is impossible for "
                f"{n} vertices in {c} components"
            )


def _check_guard(g: Graph4R, max_vertices: int) -> None:
    if g.n > max_vertices:
        raise TooLarge(
            f"profile over 3^{g.n} transition systems refused "
            f"(guard at {max_vertices} vertices); raise the guard to override"
        )


def _succ_lut(g: Graph4R) -> np.ndarray:
    """succ_lut[v, code, slot] = successor state of half-edge (v, slot)."""
    n = g.n
    lut = np.empty((n, 3, 4), dtype=np.int16)
    for v in range(n):
        for code in range(3):
            partner = PARTNER_BY_CODE[code]
            for s in range(4):
                lut[v, code, s] = g.other_end_table[(v << 2) | partner[s]]
    return lut


def _trace_chunk(
    lut: np.ndarray, pow3: np.ndarray, n: int, lo: int, hi: int
) -> np.ndarray:
    """Histogram of circuit counts for counter values in [lo, hi)."""
    nhe = 4 * n
    idx = np.arange(lo, hi, dtype=np.int64)
    digits = (idx[:, None] // pow3[None, :]) % 3
    succ = lut[np.arange(n)[None, :], digits, :].reshape(len(idx), nhe)
    # pointer doubling: after k rounds each entry knows the minimum of
    # the 2^k states ahead of it, so log2(4n) rounds reach the whole cycle
    minima = np.broadcast_to(
        np.arange(nhe, dtype=np.int16), (len(idx), nhe)
    ).copy()
    hop = succ
    span = 1
    while span < nhe:
        minima = np.minimum(minima, np.take_along_axis(minima, hop, axis=1))
        hop = np.take_along_axis(hop, hop, axis=1)
        span <<= 1
    orbit_leaders = (minima == np.arange(nhe, dtype=np.int16)).sum(axis=1)
    counts = orbit_leaders // 2
    return np.bincount(counts, minlength=2 * n + 1)


def profile_by_tracing(
    g: Graph4R,
    *,
    max_vertices: int = DEFAULT_ENUMERATION_GUARD,
    threads: int = 1,
) -> PartitionProfile:
    """Profile computed by tracing every transition system.

    Raises:
        TooLarge: the graph exceeds the enumeration guard.
    """
    _check_guard(g, max_vertices)
    n = g.n
    total = 3 ** n
    lut = _succ_lut(g)
    pow3 = np.array([3 ** (n - 1 - v) for v in range(n)], dtype=np.int64)
    starts = range(0, total, _CHUNK)
    acc = np.zeros(2 * n + 1, dtype=np.int64)

    def work(lo):
        return _trace_chunk(lut, pow3, n, lo, min(lo + _CHUNK, total))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for lo, part in zip(starts, pool.map(work, starts)):
                acc += part
                _report_progress(lo, min(lo + _CHUNK, total))
    else:
        for lo in starts:
            acc += work(lo)
            _report_progress(lo, min(lo + _CHUNK, total))
    coefficients = {k: int(v) for k, v in enumerate(acc) if v}
    profile = PartitionProfile(coefficients, n, g.c)
    profile.validate()
    return profile


def _report_progress(lo: int, hi: int) -> None:
    """Log when the counter passes a multiple of ``_PROGRESS_EVERY``."""
    if hi // _PROGRESS_EVERY > lo // _PROGRESS_EVERY:
        logger.info("profile: %d transition systems processed", hi)


def _nullity_histogram(g: Graph4R, c: EulerSystem) -> Dict[int, int]:
    """Histogram of circuit counts via kernel dimensions."""
    n = g.n
    comp = g.c
    base = interlacement_graph(c).rows
    phi = c.ts.codes
    psi = c.psi_codes
    pow3 = [3 ** (n - 1 - v) for v in range(n)]
    hist: Dict[int, int] = {}
    for idx in range(3 ** n):
        phi_mask = 0
        psi_mask = 0
        for v in range(n):
            code = (idx // pow3[v]) % 3
            if code == phi[v]:
                phi_mask |= 1 << v
            elif code == psi[v]:
                psi_mask |= 1 << v
        rows = [r & ~phi_mask for r in base]
        for v in iter_bits(phi_mask | psi_mask):
            rows[v] |= 1 << v
        k = comp + n - rank_rows(rows, n)
        hist[k] = hist.get(k, 0) + 1
    return hist


def profile_by_nullity(
    g: Graph4R,
    c: EulerSystem | None = None,
    *,
    max_vertices: int = DEFAULT_ENUMERATION_GUARD,
) -> PartitionProfile:
    """Profile computed from kernel dimensions of modified matrices.

    For every transition system P, the circuit count is the component
    count plus the kernel dimension of the modified interlacement matrix
    of (c, P).  One adjacency base per Euler system is reused, with the
    phi/psi columns patched per system.

    Args:
        c: reference Euler system; defaults to ``hierholzer(g)``.
    """
    _check_guard(g, max_vertices)
    if c is None:
        c = hierholzer(g)
    elif c.graph != g:
        raise GraphMismatch("Euler system belongs to a different graph")
    profile = PartitionProfile(_nullity_histogram(g, c), g.n, g.c)
    profile.validate()
    return profile


def euler_count(
    g: Graph4R, *, max_vertices: int = DEFAULT_ENUMERATION_GUARD
) -> int:
    """Number of Euler systems of ``g`` (the profile coefficient at c)."""
    profile = profile_by_tracing(g, max_vertices=max_vertices)
    return profile.coefficients[g.c]
