from fractions import Fraction

import numpy as np
import pytest

from sl2cert import partition
from sl2cert.acyclic import EdgePath
from sl2cert.partition import GroupAlgElt, Inconsistent


class _CyclicTable:
    """Minimal group-table stand-in: Z/n with optional central involution."""

    def __init__(self, n):
        self.n = n
        self.identity = 0
        self.z = n // 2 if n % 2 == 0 else 0

    def mul(self, i, j):
        return (i + j) % self.n

    def inv(self, i):
        return (-i) % self.n

    def build_cayley(self):
        elements = np.arange(self.n)
        self._cayley = (elements[:, None] + elements[None, :]) % self.n
        self._inv = -elements % self.n


class _Proj:
    """Quotient C4 -> C2 with section lift j -> j."""

    def __init__(self):
        self.lift = lambda j: j

    def __call__(self, i):
        return i % 2


class _Stab:
    def __init__(self, elements):
        self.elements = elements

    def __len__(self):
        return len(self.elements)


class _EdgeOrbit:
    def __init__(self, stabilizer):
        self.stabilizer = stabilizer


class _ToyGraph:
    """One free edge orbit over G = C2, with central extension C4."""

    def __init__(self):
        self.sl = _CyclicTable(4)
        self.psl = _CyclicTable(2)
        self.proj = _Proj()
        self.edge_orbits = {"e": _EdgeOrbit(_Stab((0, 2)))}
        self.edge_offset = {"e": 0}
        self.edge_rep = [("e", 0), ("e", 1)]


def test_groupalg_ring_ops(sl13):
    a = GroupAlgElt.basis(sl13, 5)
    b = GroupAlgElt.basis(sl13, 9)
    assert (a + b) - b == a
    assert (a * b).coeffs == {sl13.mul(5, 9): Fraction(1)}
    one = GroupAlgElt.one(sl13)
    assert one * a == a


def test_norm_element_idempotent_scaled(sl13, subgroups13):
    h = subgroups13["C4"]
    n = GroupAlgElt.norm_element(sl13, h.elements)
    assert n * n == n * len(h)


def test_z_fixes_edge_norms(sl13, subgroups13):
    z = GroupAlgElt.basis(sl13, sl13.z)
    for name in ("Cq-1", "C4", "Q8", "C6"):
        n = GroupAlgElt.norm_element(sl13, subgroups13[name].elements)
        assert z * n == n


def test_dumps_parse_roundtrip(sl13):
    x = GroupAlgElt(sl13, {3: Fraction(1, 2), 100: Fraction(-5, 3)})
    assert GroupAlgElt.parse(sl13, x.dumps()) == x


def test_kernel_ideal_criterion(sl13):
    # r in ker(pi) iff z.r = -r; (1 - z) generates the ideal
    one_minus_z = (GroupAlgElt.one(sl13)
                   - GroupAlgElt.basis(sl13, sl13.z))
    member = one_minus_z * GroupAlgElt(sl13, {7: Fraction(2, 3)})
    z = sl13.z
    assert member.translate_left(z) == -member
    non_member = GroupAlgElt.one(sl13)
    assert non_member.translate_left(z) != -non_member


def test_toy_solve_and_lift():
    graph = _ToyGraph()
    path = EdgePath(0, [("e", 0, 1), ("e", 0, 1)])    # s_e = 2, invertible
    sol = partition.solve_partition_of_unity(graph, path)
    assert sol["e"].coeffs == {0: Fraction(1, 2)}
    x, delta = partition.lift_partition(graph, path, sol)
    assert x["e"].coeffs == {0: Fraction(1, 4)}
    assert delta.coeffs == {0: Fraction(1, 4), 2: Fraction(-1, 4)}


def test_toy_singular_system_rejected():
    graph = _ToyGraph()
    # s_e = 1 + g is a zero divisor in Q[C2]: no partition exists
    path = EdgePath(0, [("e", 0, 1), ("e", 1, 1)])
    with pytest.raises(Inconsistent):
        partition.solve_partition_of_unity(graph, path)


def test_projection_halves_lifted_norm(graph13):
    # pi(N(G_e-hat)) = 2 N(G_e) for every edge stabilizer
    for name, eo in graph13.edge_orbits.items():
        lifted = GroupAlgElt.norm_element(graph13.sl, eo.stabilizer.elements)
        projected = partition.project(lifted, graph13)
        stab_psl = sorted({graph13.proj(i) for i in eo.stabilizer.elements})
        twice = GroupAlgElt.norm_element(graph13.psl, stab_psl) * 2
        assert projected == twice


# the closed walk of tests/test_acyclic.py: (edge orbit, PSL2(13) matrix, sign)
FIXED_WALK = (("eta3", (1, 11, 8, 11), -1), ("eta2", (1, 6, 6, 11), -1),
              ("eta1", (2, 3, 12, 12), 1), ("eta1", (0, 1, 12, 1), -1),
              ("eta0", (0, 1, 12, 1), -1))


def test_partition_on_fixed_walk_uses_right_cosets(graph13):
    # det M = -2^42 3^42 281^12 is nonzero, so the Q[G] identity is solvable;
    # columns taken over left cosets span only rank 1062 of 1092
    psl = graph13.psl
    path = EdgePath(0, [(o, psl.index[m], s) for o, m, s in FIXED_WALK])
    sol = partition.solve_partition_of_unity(graph13, path)
    partition.verify_partition(graph13, path, sol)
    x, delta = partition.lift_partition(graph13, path, sol)
    # pin the solution that Dixon lifting reconstructs on the pivot columns
    assert sum(len(elt.coeffs) for elt in sol.values()) == 3224
    assert len(delta.coeffs) == 2
