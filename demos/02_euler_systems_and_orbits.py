"""Euler systems, the three transition labels, and the transform orbit.

An Euler system is a circuit partition with exactly one circuit per
connected component.  Fixing an Euler system C classifies the three
transitions at each vertex: phi follows C, psi reverses the v-to-v loop
of C through v, chi is the remaining one.  Swapping the transition at v
to its psi choice is again an Euler system (the transform C*v), the
transform is an involution, and repeated transforms reach every Euler
system of the graph.
"""

from interlacement import (
    TRANSITIONS,
    TransitionLabel,
    dow,
    euler_count,
    hierholzer,
    kappa_transform,
    kotzig_orbit,
    random_matching_graph,
    transition_for_label,
)

g = random_matching_graph(4, seed=2, connected=True)
print("random connected graph on", g.vertices)

c = hierholzer(g)
print("euler system:", {v: t.value for v, t in c.ts.as_map(g).items()})
print("double occurrence word:", dow(c, 0))
print()

for v in g.vertices:
    row = {
        lbl.name.lower(): transition_for_label(c, v, lbl).value
        for lbl in TransitionLabel
    }
    print(f"labels at {v}: {row}")
print()

v = g.vertices[0]
cv = kappa_transform(c, v)
print(f"transform at {v}:", {w: t.value for w, t in cv.ts.as_map(g).items()})
print("word after transform:", dow(cv, 0))
print("involution check:", kappa_transform(cv, v).ts == c.ts)
print()

# orbit members are distinct Euler systems, so the orbit is all of them
# exactly when its size equals the frontier engine's count
orbit = kotzig_orbit(g, c)
count = euler_count(g)
print(f"orbit size {len(orbit)}, frontier count {count}")
print("orbit = all euler systems:", len(orbit) == count)
