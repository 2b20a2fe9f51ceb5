"""The modified interlacement matrix and its local-complement transform.

Start from the interlacement graph of an Euler system C: vertices are
adjacent when their visits alternate around a circuit of C.  For a
circuit partition P, take the adjacency matrix and patch it by P's
labels relative to C: a phi column becomes a unit column, a psi label
sets the diagonal entry.  The punchline is a commuting square: doing
the transform C*v on the Euler system changes the matrix by nothing
more than XORing row v into the rows of v's interlacement neighbors.
"""

from interlacement import (
    TransitionSystem,
    adjacency_matrix,
    hierholzer,
    interlacement_graph,
    kappa_transform,
    modified_interlacement_matrix,
    modified_local_complement,
    random_matching_graph,
)


def show(m, vertices, title):
    print(title)
    print("   " + " ".join(vertices))
    for i, v in enumerate(vertices):
        print(f"{v}  " + " ".join(str(m.entry(i, j)) for j in range(len(vertices))))
    print()


g = random_matching_graph(5, seed=7, connected=True)
c = hierholzer(g)
h = interlacement_graph(c)
print("interlacement edges:", [(a, b) for a in h.vertices for b in h.neighbors(a) if a < b])
show(adjacency_matrix(h), g.vertices, "adjacency of I(C):")

ts = TransitionSystem((1, 0, 2, 1, 0))
m = modified_interlacement_matrix(c, ts)
show(m, g.vertices, f"modified matrix for partition {ts.codes}:")

v = g.vertices[2]
left = modified_local_complement(m, c, v)
right = modified_interlacement_matrix(kappa_transform(c, v), ts)
show(left, g.vertices, f"row operation at {v}:")
show(right, g.vertices, f"matrix rebuilt at the transformed system:")
print("the square commutes:", left == right)
