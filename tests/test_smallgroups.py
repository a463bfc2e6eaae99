import numpy as np
import pytest

from sl2cert import smallgroups


@pytest.fixture(scope="module", params=["Q8", "SL2_3", "D4", "C12"])
def group(request):
    by_name = {g.name: g for g in smallgroups.all_test_groups()}
    return by_name[request.param]


def test_expected_groups_present():
    names = {g.name for g in smallgroups.all_test_groups()}
    assert names == {"Q8", "SL2_3", "D4", "C12"}


def test_group_axioms(group):
    n = group.n
    t = group.table
    assert sorted(t[group.identity]) == list(range(n))
    for i in range(n):
        assert sorted(t[i]) == list(range(n))          # latin square rows
        assert group.mul(i, group.inv(i)) == group.identity
    # associativity spot check
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b, c = rng.integers(n, size=3)
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


def test_orders():
    by_name = {g.name: g for g in smallgroups.all_test_groups()}
    assert by_name["Q8"].n == 8
    assert by_name["SL2_3"].n == 24
    assert by_name["D4"].n == 8
    assert by_name["C12"].n == 12


def test_representation_is_homomorphism(group):
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b = rng.integers(group.n, size=2)
        lhs = group.rep(group.mul(a, b))
        rhs = group.rep(a) @ group.rep(b)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_representation_unitary(group):
    for i in range(group.n):
        u = group.rep(i)
        assert np.allclose(u @ u.conj().T, np.eye(group.m), atol=1e-10)


def test_block_irreducibility(group):
    # a block's character norm is 1 exactly when it is irreducible
    for b in group.blocks:
        norm = sum(abs(np.trace(b.matrices[i])) ** 2
                   for i in range(group.n)) / group.n
        assert abs(norm - 1) < 1e-8


def test_m_values():
    # m = sum of block dims for each test group
    by_name = {g.name: g for g in smallgroups.all_test_groups()}
    assert by_name["Q8"].m == 8
    assert by_name["SL2_3"].m == 12
    assert by_name["D4"].m == 8
    assert by_name["C12"].m == 12


def test_quaternion_arithmetic():
    i = (0, 2, 0, 0)
    j = (0, 0, 2, 0)
    k = smallgroups.quat_mul2(i, j)
    assert k == (0, 0, 0, 2)
    assert smallgroups.quat_mul2(i, i) == (-2, 0, 0, 0)


def test_hurwitz_units_closed():
    units = set(smallgroups.HURWITZ)
    assert len(units) == 24
    for p in units:
        for q in units:
            assert smallgroups.quat_mul2(p, q) in units


def test_quat_mul2_rejects_a_non_hurwitz_product():
    # (1, 0, 0, 0) is 1/2, not a Hurwitz unit: its square 1/4 does not halve
    with pytest.raises(ArithmeticError, match="not a Hurwitz product"):
        smallgroups.quat_mul2((1, 0, 0, 0), (1, 0, 0, 0))


def test_sl2_3_rejects_a_wrong_order_six_element(monkeypatch):
    # the check on (1, 1, 1, 1) must raise by name, also under python -O
    monkeypatch.setattr(smallgroups.SmallGroup, "order", lambda self, i: 3)
    with pytest.raises(ArithmeticError, match="has order 3 in SL2\\(3\\), not 6"):
        smallgroups.binary_tetrahedral_group()
