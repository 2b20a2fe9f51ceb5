"""Partition profiles: the circuit-count distribution over all 3^n systems.

Three independent engines compute the same histogram.  The frontier
engine (the default) never visits the 3^n systems one at a time: it
opens the vertices one by one and keeps, for each way the partial
circuits pair up the edges leaving the opened set, a histogram of the
circuits already closed.  The tracing engine follows every circuit of
every transition system directly (a depth-first walk over the
vertices that joins path ends and undoes the joins on the way back).  The
nullity engine never traces: it reads each circuit count off the GF(2)
nullity of the modified matrix M(C, P).  It opens the vertices in the
frontier engine's order and chooses each one's phi/chi/psi column of
M(C, P); partial choices merge when their columns' span meets the
columns still to come in the same subspace, so it too avoids the 3^n
walk.  Agreement is a strong end-to-end check of the combinatorics and
the linear algebra.
"""

import time

from interlacement import (
    euler_count,
    profile_by_frontier,
    profile_by_nullity,
    profile_by_tracing,
    random_matching_graph,
)

g = random_matching_graph(9, seed=0, connected=True)
print(f"graph: {g.n} vertices, 3^{g.n} = {3 ** g.n} transition systems")

t0 = time.perf_counter()
frontier = profile_by_frontier(g)
t1 = time.perf_counter()
trace = profile_by_tracing(g)
t2 = time.perf_counter()
by_rank = profile_by_nullity(g)
t3 = time.perf_counter()

print(f"frontier engine ({t1 - t0:7.4f}s):", dict(frontier.sorted_items()))
print(f"tracing engine  ({t2 - t1:7.4f}s):", dict(trace.sorted_items()))
print(f"nullity engine  ({t3 - t2:7.4f}s):", dict(by_rank.sorted_items()))
print(
    "engines agree:",
    frontier.coefficients == trace.coefficients == by_rank.coefficients,
)
print()

# the coefficient at the component count is the number of euler systems
print("euler systems of this graph:", euler_count(g))
print()

# the frontier engine's cost follows the frontier width, not 3^n:
# the tracer's time triples with each vertex, so 3^24 would take it days
g12 = random_matching_graph(12, seed=0, connected=True)
t0 = time.perf_counter()
frontier12 = profile_by_frontier(g12)
t1 = time.perf_counter()
trace12 = profile_by_tracing(g12)
t2 = time.perf_counter()
print(f"n=12: frontier {t1 - t0:.4f}s, tracer {t2 - t1:.2f}s, "
      f"agree: {frontier12.coefficients == trace12.coefficients}")
g24 = random_matching_graph(24, seed=0, connected=True)
t0 = time.perf_counter()
big = profile_by_frontier(g24)
t1 = time.perf_counter()
print(f"n=24: frontier {t1 - t0:.2f}s, total 3^24: {big.total() == 3 ** 24}")
