"""Solve the group-algebra partition of unity at q=13 and lift it.

Given a certified attaching walk, we look for edge-indexed elements x_e of
the rational group algebra Q[PSL2(q)] with

    1 = sum_e  eps_e a_e N(G_e) x_e

where N(G_e) is the norm element of the edge stabilizer.  The solve is an
exact Dixon lift over a big prime; verification substitutes back in the
1092-dimensional algebra, on integer coefficient arrays over one common
denominator.

The solution then lifts through SL2(q) -> PSL2(q): each x_e pulls back to
half its least section lift, the defect r = 1 - sum satisfies z r = -r for
the central involution z, and delta = r/2 completes an exact identity in
the 2184-dimensional algebra.
"""

import sys

from sl2cert import acyclic, orbit_graph, partition

q = 13
graph = orbit_graph.build_graph(q, orbit_graph.flavor_of(q))

budget = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
try:
    path = acyclic.search_attaching_path(graph, seed=1, budget=budget)
except acyclic.NoPathFound as exc:
    print("no path within budget:", exc)
    raise SystemExit(1)
print(f"attaching walk of length {len(path)}")

solution = partition.solve_partition_of_unity(graph, path)
support = sum(len(x.coeffs) for x in solution.values())
print(f"partition of unity over PSL2({q}): {len(solution)} edge elements, "
      f"total support {support} (verified exactly)")

x, delta = partition.lift_partition(graph, path, solution)
print(f"lift to SL2({q}): delta has support {len(delta.coeffs)}; "
      "the lifted identity was verified exactly in dimension "
      f"{graph.sl.n}")
