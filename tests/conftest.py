import math
from fractions import Fraction

import numpy as np
import pytest

from sl2cert import acyclic, chartab, groups, orbit_graph


@pytest.fixture(scope="session")
def sl13():
    return groups.enumerate_group(13, "SL")


@pytest.fixture(scope="session")
def subgroups13(sl13):
    return groups.all_standard_subgroups(sl13)


@pytest.fixture(scope="session")
def table13():
    return chartab.CharacterTable(13)


@pytest.fixture(scope="session")
def graph13():
    return orbit_graph.build_graph(13, "13mod24")


@pytest.fixture(scope="session")
def check_partition_witness():
    """Check that a partition of unity is read off one solution of M f = e_1.

    Rebuilds the edge vector f from f(h^-1 b_e) = |K_e| x~_e[h], with b_e the
    base edge of orbit e and K_e its PSL stabilizer, and checks that f is
    consistent, zero on the tree edges and solves M f = e_1 exactly in
    integers.  Returns f.
    """
    def check(graph, path, solution) -> list[Fraction]:
        cyc = acyclic.CycleSpace(graph)
        psl = graph.psl
        f: list[Fraction | None] = [None] * graph.n_edges
        for orbit, elt in solution.items():
            base = graph.edge_of(orbit, psl.identity)
            # |K_e| = |G^_e| / 2: z lies in every lifted stabilizer
            order = len(graph.edge_orbits[orbit].stabilizer) // 2
            for h in range(psl.n):
                e = int(cyc.trans[cyc.inv[h], base])
                value = order * elt.coeffs.get(h, Fraction(0))
                assert f[e] in (None, value), f"f takes two values on edge {e}"
                f[e] = value
        assert None not in f, "the solution does not reach every edge"
        tree_zero = all(f[e] == 0 for e in np.flatnonzero(cyc.in_tree))
        assert tree_zero, f"tree zero {tree_zero}"
        den = math.lcm(*(v.denominator for v in f))
        f_num = np.array([int(v * den) for v in f], dtype=object)
        mat = cyc.pairing_matrix(acyclic.path_edge_vector(graph, path))
        want = np.zeros(psl.n, dtype=object)
        want[psl.identity] = den
        assert np.array_equal(mat.astype(object) @ f_num[cyc.non_tree], want)
        return f
    return check
