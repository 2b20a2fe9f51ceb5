"""Core vectors, the kernel of the matrix, and counting by nullity.

Each circuit of a partition has a core vector over GF(2): coordinate v
is 1 when the circuit passes v exactly once.  Stacking them spans the
core space, and the core space is exactly the kernel of the modified
interlacement matrix.  Counting circuits then reduces to linear
algebra: |P| = components + nullity of the matrix.
"""

import itertools

from interlacement import (
    GF2Matrix,
    TransitionSystem,
    circuit_nullity,
    core_space,
    core_vector,
    hierholzer,
    kernel_basis,
    modified_interlacement_matrix,
    random_matching_graph,
    spans_equal,
    trace_partition,
)

g = random_matching_graph(6, seed=3, connected=True)
c = hierholzer(g)
ts = TransitionSystem((0, 2, 1, 0, 2, 1))
p = trace_partition(g, ts)

print(f"partition has {p.size} circuits on {g.n} vertices")
for i, circ in enumerate(p.circuits):
    print(f"  core of circuit {i}: {core_vector(g, circ)}")

m = modified_interlacement_matrix(c, ts)
kern = kernel_basis(m)
print("kernel basis:", [str(k) for k in kern])
print(
    "core space == kernel:",
    spans_equal(core_space(g, p), GF2Matrix.from_vectors(kern, g.n)),
)
print()

# the counting identity across every transition system of the graph
agreements = 0
for codes in itertools.product((0, 1, 2), repeat=g.n):
    nullity, p_size, comps = circuit_nullity(g, c, TransitionSystem(codes))
    assert p_size == comps + nullity
    agreements += 1
print(f"|P| = components + nullity held for all {agreements} transition systems")
