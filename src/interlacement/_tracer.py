"""Vectorized internals of the tracing engine (the package's numpy user).

Imported only when :func:`interlacement.profile.profile_by_tracing`
runs, so the other commands do not pay for importing numpy.

The base-3 counter over vertices in index order is split into fixed
chunks of ``_CHUNK`` systems.  Each chunk is traced with numpy (cycle
minima by pointer doubling) into a histogram of circuit counts, and the
histograms merge by addition, so the result does not depend on the
chunk size.
"""

from __future__ import annotations

import logging
from typing import Dict

import numpy as np

from .graph4 import PARTNER_BY_CODE, Graph4R

logger = logging.getLogger(__name__)

_CHUNK = 3 ** 10
_PROGRESS_EVERY = 1 << 20


def succ_lut(g: Graph4R) -> np.ndarray:
    """succ_lut[v, code, slot] = successor state of half-edge (v, slot)."""
    n = g.n
    lut = np.empty((n, 3, 4), dtype=np.int16)
    for v in range(n):
        for code in range(3):
            partner = PARTNER_BY_CODE[code]
            for s in range(4):
                lut[v, code, s] = g.other_end_table[(v << 2) | partner[s]]
    return lut


def trace_chunk(
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


def circuit_histogram(g: Graph4R) -> Dict[int, int]:
    """{circuit count: systems} over all 3^n systems, traced chunk by chunk.

    The caller guarantees that 3^n fits in int64.  One chunk is in
    memory at a time.
    """
    n = g.n
    total = 3 ** n
    lut = succ_lut(g)
    pow3 = np.array([3 ** (n - 1 - v) for v in range(n)], dtype=np.int64)
    acc = np.zeros(2 * n + 1, dtype=np.int64)
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        acc += trace_chunk(lut, pow3, n, lo, hi)
        if hi // _PROGRESS_EVERY > lo // _PROGRESS_EVERY:
            logger.info("profile: %d transition systems processed", hi)
    return {k: int(v) for k, v in enumerate(acc) if v}

