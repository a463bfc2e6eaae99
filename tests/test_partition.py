import hashlib
from fractions import Fraction

import numpy as np
import pytest

from sl2cert import partition
from sl2cert.acyclic import EdgePath
from sl2cert.module import group_product
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

    def right_mul(self, h):
        return (np.arange(self.n) + h) % self.n

    left_mul = right_mul

    def build_cayley(self):
        elements = np.arange(self.n)
        self._cayley = (elements[:, None] + elements[None, :]) % self.n
        self._inv = -elements % self.n


class _Proj:
    """Quotient C4 -> C2 with section lift j -> j."""

    section = np.arange(2)

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
    """One free edge orbit over G = C2, with central extension C4: one vertex
    and the two loop edges e and g.e, the cell data that `CycleSpace` reads."""

    def __init__(self):
        self.sl = _CyclicTable(4)
        self.psl = _CyclicTable(2)
        self.proj = _Proj()
        self.edge_orbits = {"e": _EdgeOrbit(_Stab((0, 2)))}
        self.edge_coset = {"e": np.arange(2)}
        self.edge_offset = {"e": 0}
        self.edge_rep = [("e", 0), ("e", 1)]
        self.edge_src = self.edge_tgt = np.zeros(2, dtype=np.int64)
        self.n_vertices, self.n_edges = 1, 2

    def edge_of(self, orbit, g):
        return self.edge_offset[orbit] + int(self.edge_coset[orbit][g])


def _basis(table, *elements):
    """The int64 coefficient array of the sum of the elements."""
    out = np.zeros(table.n, dtype=np.int64)
    out[list(elements)] = 1
    return out


def test_groupalg_ring_ops(sl13):
    a = _basis(sl13, 5)
    b = _basis(sl13, 9)
    assert np.array_equal(group_product(sl13, a, b),
                          _basis(sl13, sl13.mul(5, 9)))
    one = _basis(sl13, sl13.identity)
    assert np.array_equal(group_product(sl13, one, a), a)
    assert np.array_equal(group_product(sl13, a, one), a)
    # both loops (over the sparser left or right factor) agree with mul
    rng = np.random.default_rng(3)
    left = np.zeros(sl13.n, dtype=object)
    right = np.zeros(sl13.n, dtype=object)
    left[rng.choice(sl13.n, 3, replace=False)] = [2**70, -3, 5]
    right[rng.choice(sl13.n, 7, replace=False)] = [1, -1, 4, 2**65, 6, -7, 9]
    for x, y in ((left, right), (right, left)):
        expected = np.zeros(sl13.n, dtype=object)
        for g in np.flatnonzero(x):
            for h in np.flatnonzero(y):
                expected[sl13.mul(int(g), int(h))] += x[g] * y[h]
        assert np.array_equal(group_product(sl13, x, y), expected)
    assert sl13._cayley is None


def test_norm_element_idempotent_scaled(sl13, subgroups13):
    h = subgroups13["C4"]
    n = _basis(sl13, *h.elements)
    assert np.array_equal(group_product(sl13, n, n), n * len(h))


def test_z_fixes_edge_norms(sl13, subgroups13):
    z = _basis(sl13, sl13.z)
    for name in ("Cq-1", "C4", "Q8", "C6"):
        n = _basis(sl13, *subgroups13[name].elements)
        assert np.array_equal(group_product(sl13, z, n), n)


def test_kernel_ideal_criterion(sl13):
    # r in ker(pi) iff z.r = -r; (1 - z) generates the ideal
    z = _basis(sl13, sl13.z)
    one_minus_z = _basis(sl13, sl13.identity) - z
    member = group_product(sl13, one_minus_z, 2 * _basis(sl13, 7))
    assert np.array_equal(group_product(sl13, z, member), -member)
    non_member = _basis(sl13, sl13.identity)
    assert not np.array_equal(group_product(sl13, z, non_member), -non_member)


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
    psl = graph13.psl
    for name, eo in graph13.edge_orbits.items():
        projected = np.bincount(graph13.proj.proj[list(eo.stabilizer.elements)],
                                minlength=psl.n)
        stab_psl = sorted({graph13.proj(i) for i in eo.stabilizer.elements})
        assert np.array_equal(projected, 2 * _basis(psl, *stab_psl))


# the closed walk of tests/test_acyclic.py: (edge orbit, PSL2(13) matrix, sign)
FIXED_WALK = (("eta3", (1, 11, 8, 11), -1), ("eta2", (1, 6, 6, 11), -1),
              ("eta1", (2, 3, 12, 12), 1), ("eta1", (0, 1, 12, 1), -1),
              ("eta0", (0, 1, 12, 1), -1))


@pytest.fixture(scope="module")
def fixed_walk(graph13):
    psl = graph13.psl
    path = EdgePath(0, [(o, psl.index[m], s) for o, m, s in FIXED_WALK])
    return path, partition.solve_partition_of_unity(graph13, path)


def test_partition_on_fixed_walk_is_pinned(graph13, fixed_walk):
    # det M = -2^42 3^42 281^12 is nonzero, so M f = e_1 has one solution
    path, sol = fixed_walk
    partition.verify_partition(graph13, path, sol)
    x, delta = partition.lift_partition(graph13, path, sol)
    assert graph13.sl._cayley is None      # no SL2(13) table was built
    assert sum(len(elt.coeffs) for elt in sol.values()) == 3385
    assert {o: _digest(elt) for o, elt in sol.items()} == FIXED_WALK_SOLUTION
    assert {o: _digest(elt) for o, elt in x.items()} == FIXED_WALK_LIFT
    assert _digest(delta) == FIXED_WALK_DELTA
    # z lies in every lifted stabilizer, so the PSL identity forces
    # delta = (1 - z)/4
    sl = graph13.sl
    assert delta.coeffs == {sl.identity: Fraction(1, 4), sl.z: Fraction(-1, 4)}


def test_partition_is_one_column_of_the_inverse(graph13, fixed_walk,
                                                check_partition_witness):
    path, sol = fixed_walk
    check_partition_witness(graph13, path, sol)


def test_lift_rejects_a_doubled_element(graph13, fixed_walk):
    path, sol = fixed_walk
    doubled = {**sol, "eta1": GroupAlgElt(graph13.psl, {
        g: 2 * c for g, c in sol["eta1"].coeffs.items()})}
    with pytest.raises(Inconsistent, match=r"not \(1 \+ z\)/2"):
        partition.lift_partition(graph13, path, doubled)


def _digest(elt) -> str:
    return hashlib.sha256(elt.dumps().encode()).hexdigest()


# sha256 of dumps() for the fixed walk's solution, its lift and delta
FIXED_WALK_SOLUTION = {
    "eta3": "55a7c000c7d9612de62231d1776444eae7dd5d5beaef4afdd1c9fc16f723b0ff",
    "eta2": "a78d6f2a1dc8cdbc920692637a8514a169eec062282aef680e026eefe449e634",
    "eta1": "f7e2b8b855e69b658b618da182f289113f878011e488db618a793f5b426712ab",
    "eta0": "103a94411b6600d6f38ef7ccff617de1ac99f8149c27c2b6f09fcd58a79c8632",
}
FIXED_WALK_LIFT = {
    "eta3": "44f047837b76f234cf46eed7eb43e2250771bed979b2454cd672d3f0e71f35d9",
    "eta2": "6fe74e6701b59b9e912ca02223dfc918dbfbeaf8db13a8e6ed54b26797d5a243",
    "eta1": "366ef65f4c88d20ac7873c6427fbc93053db4d9b69819ee99caf22b581b86e06",
    "eta0": "4f23edbfecb176280849fd44ebd946df48e425eb9fb611a349b1a29bc0cd5dd2",
}
FIXED_WALK_DELTA = (
    "6960e9c742c98405e1484e6e17df96ae2af4ca1798c463dc8119ad8610de2e55")
