"""Build the quotient orbit graph at q=13 and certify acyclicity.

The graph has one component and first Betti number |PSL2(q)| = 1092, so
H_1 of the 1-skeleton is a free module of rank one over the integral group
ring.  Attaching a single 2-cell orbit along a well-chosen closed walk
kills all of H_1 at once; the certificate is a 1092 x 1092 integer pairing
matrix with determinant +-1, computed exactly by multi-modular CRT.

The search builds the walk in exact arithmetic from the block structure of
H_1 (see sl2cert.module); pass a small budget to see the failure
diagnostics instead.
"""

import sys

from sl2cert import acyclic, orbit_graph

q = 13
graph = orbit_graph.build_graph(q, orbit_graph.flavor_of(q))
print(f"orbit graph at q={q}: {graph.n_vertices} vertices, "
      f"{graph.n_edges} edges")

b0, b1 = orbit_graph.homology_ranks(graph)
print(f"H_0 rank {b0}, H_1 rank {b1} (= |PSL2({q})| = {graph.psl.n})")

# The distinguished word from the construction, emitted as metadata; the
# certified attaching walk itself is found by search.
word = orbit_graph.y0_word(graph)
print("seed word:", word["labels"])

budget = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
try:
    path = acyclic.search_attaching_path(graph, seed=1, budget=budget)
except acyclic.NoPathFound as exc:
    print("no path within budget:", exc)
    raise SystemExit(1)

print(f"found closed walk of length {len(path)}")

cert = acyclic.certify_acyclicity(graph, path)
print("verdict:", cert.verdict, " det =", cert.determinant)

# Independent cross-oracle: H_0 from the Smith normal form of the
# vertex-edge boundary, H_1 = 0 from an integer inverse of the pairing
# matrix, checked exactly (it never computes the determinant).
hom = acyclic.smith_cross_check(graph, path)
print("Smith form homology:", hom)
