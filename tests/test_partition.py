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
    """One free edge orbit over G = C2, with central extension C4."""

    def __init__(self):
        self.sl = _CyclicTable(4)
        self.psl = _CyclicTable(2)
        self.proj = _Proj()
        self.edge_orbits = {"e": _EdgeOrbit(_Stab((0, 2)))}
        self.edge_offset = {"e": 0}
        self.edge_rep = [("e", 0), ("e", 1)]


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


def test_dumps_parse_roundtrip(sl13):
    x = GroupAlgElt(sl13, {3: Fraction(1, 2), 100: Fraction(-5, 3)})
    assert GroupAlgElt.parse(sl13, x.dumps()) == x


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


def test_partition_on_fixed_walk_uses_right_cosets(graph13):
    # det M = -2^42 3^42 281^12 is nonzero, so the Q[G] identity is solvable;
    # columns taken over left cosets span only rank 1062 of 1092
    psl = graph13.psl
    path = EdgePath(0, [(o, psl.index[m], s) for o, m, s in FIXED_WALK])
    sol = partition.solve_partition_of_unity(graph13, path)
    partition.verify_partition(graph13, path, sol)
    x, delta = partition.lift_partition(graph13, path, sol)
    assert graph13.sl._cayley is None      # no SL2(13) table was built
    # pin the solution that Dixon lifting reconstructs on the pivot columns
    assert sum(len(elt.coeffs) for elt in sol.values()) == 3224
    assert {o: _digest(elt) for o, elt in sol.items()} == FIXED_WALK_SOLUTION
    assert {o: _digest(elt) for o, elt in x.items()} == FIXED_WALK_LIFT
    assert _digest(delta) == FIXED_WALK_DELTA
    # z lies in every lifted stabilizer, so the PSL identity forces
    # delta = (1 - z)/4
    sl = graph13.sl
    assert delta.coeffs == {sl.identity: Fraction(1, 4), sl.z: Fraction(-1, 4)}


def _digest(elt) -> str:
    return hashlib.sha256(elt.dumps().encode()).hexdigest()


# sha256 of dumps() for the fixed walk's solution, its lift and delta
FIXED_WALK_SOLUTION = {
    "eta3": "c87e5316a45922b40f15a9b120b303cb8f2c6c27218ead62fe2b84b340c1e6f8",
    "eta2": "8f81f160eb981c2ff03573bfa86a3ae4ab9d95d3ea0418ad2176dac86123d265",
    "eta1": "ef9a0f1a8ba36aac3f40652ef247f660448336015ce2c47b0b61745f0a9c4d34",
    "eta0": "3e243020f326b4f38fc3cd1185e2b7b533346170e2f03ff512ead4562d4a2f24",
}
FIXED_WALK_LIFT = {
    "eta3": "0bb45521fc59707775ca3505203e3eeefff82c556d6b37fe013bfeb3bdbed148",
    "eta2": "b3c448803a6730ea0dd3ed50e72970f0e96e505f77054c414eef683a877a009c",
    "eta1": "c02f6ae668835959b880b34db1d902e1a377c1e220b376685c9254c30e9b6704",
    "eta0": "a5f0bd264d20ced500343ff5bede1c90bef94a70589b0c58e0beb70bc1ef6cce",
}
FIXED_WALK_DELTA = (
    "6960e9c742c98405e1484e6e17df96ae2af4ca1798c463dc8119ad8610de2e55")
