import dataclasses
import gc
import hashlib
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2cert import smallgroups, unitary, verify


@pytest.fixture(scope="module")
def q8():
    return smallgroups.quaternion_group()


@pytest.fixture(scope="module")
def sl23():
    return smallgroups.binary_tetrahedral_group()


def test_eigenprojectors_resolve_identity(q8):
    g = 1    # some element of order 4
    n = q8.order(g)
    projs = unitary.eigenprojectors(q8.rep(g), n)
    total = sum(p for _, p in projs)
    assert np.allclose(total, np.eye(q8.m), atol=1e-10)
    assert [j for j, _ in projs] == sorted({j for j, _ in projs})
    for j, p in projs:
        assert j in range(n)
        lam = np.exp(2j * np.pi * j / n)
        assert np.allclose(p @ p, p, atol=1e-9)
        assert np.allclose(q8.rep(g) @ p, lam * p, atol=1e-9)


def test_eigenprojector_multiplicities_integer(sl23):
    # ranks of the projectors are whole numbers summing to the degree
    for g in (1, 5, 11):
        n = sl23.order(g)
        projs = unitary.eigenprojectors(sl23.rep(g), n)
        ranks = [np.trace(p).real for _, p in projs]
        assert all(abs(r - round(r)) < 1e-8 for r in ranks)
        assert round(sum(ranks)) == sl23.m


def test_assert_unitary_rejects():
    with pytest.raises(unitary.ToleranceError):
        unitary.assert_unitary(np.diag([1.0, 2.0]))


def _svd_commutant_dim(mats: list[np.ndarray]) -> int:
    """Reference: nullity of the stacked maps X -> AX - XA, by SVD."""
    m = mats[0].shape[0]
    eye = np.eye(m)
    stacked = np.vstack([np.kron(a, eye) - np.kron(eye, a.T) for a in mats])
    sv = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(sv <= 1e-8 * max(sv[0], 1.0)))


@pytest.mark.parametrize("make", [smallgroups.quaternion_group,
                                  smallgroups.dihedral_group])
def test_intersection_count_matches_svd_rank(make):
    group = make()
    for g1 in range(group.n):
        for g2 in range(group.n):
            a1, a2, inter, _ = unitary.lemma21_construct(group, g1, g2)
            d1 = a1 @ group.rep(g1) @ a1.conj().T
            d2 = a2 @ group.rep(g2) @ a2.conj().T
            assert inter == _svd_commutant_dim([d1, d2])


def _relabelled_q8(ids: dict[str, str], twin: str | None = None):
    """Q8 with some rep_ids renamed; `twin` renames the second 2-dim copy."""
    group = smallgroups.quaternion_group()
    blocks = [dataclasses.replace(b, rep_id=ids.get(b.rep_id, b.rep_id))
              for b in group.blocks]
    if twin is not None:
        blocks[-1] = dataclasses.replace(blocks[-1], rep_id=twin)
    group.blocks = blocks
    return group


@pytest.mark.parametrize("group", [
    _relabelled_q8({"chi_j": "chi_i"}),     # inequivalent blocks, one id
    _relabelled_q8({}, twin="two_b"),       # equivalent blocks, two ids
], ids=["one-id-for-two-irreps", "two-ids-for-one-irrep"])
def test_mislabelled_blocks_raise_on_every_pair(group):
    for g1 in range(group.n):
        for g2 in range(group.n):
            with pytest.raises(unitary.ToleranceError):
                unitary.lemma21_construct(group, g1, g2)


def test_lemma21_q8_pair(q8):
    rng = np.random.default_rng(5)
    a1, a2, inter, bound = unitary.lemma21_construct(q8, 1, 2, rng=rng)
    m = q8.m
    # both conjugated commutant algebras contain the identity
    assert inter >= 1
    assert inter >= math.ceil(bound)
    for a in (a1, a2):
        assert np.allclose(a @ a.conj().T, np.eye(m), atol=1e-8)


def test_lemma21_identity_pair(q8):
    rng = np.random.default_rng(6)
    e = q8.identity
    _, _, inter, bound = unitary.lemma21_construct(q8, e, e, rng=rng)
    # trivial pair: both commutants are the full commutant of rho(G)
    assert inter >= math.ceil(bound)


def test_lemma21_reseed_stability(sl23):
    # the witnesses depend on no seed: rng= is accepted and does nothing
    ref = unitary.lemma21_construct(sl23, 3, 17)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a1, a2, inter, bound = unitary.lemma21_construct(sl23, 3, 17, rng=rng)
        assert np.array_equal(a1, ref[0]) and np.array_equal(a2, ref[1])
        assert (inter, bound) == ref[2:]


def test_diagonalizers_built_once_per_element(monkeypatch):
    group = smallgroups.quaternion_group()
    calls = []
    real = unitary.eigenprojectors
    monkeypatch.setattr(unitary, "eigenprojectors",
                        lambda m, n: calls.append(n) or real(m, n))
    for g1 in range(group.n):
        for g2 in range(group.n):
            unitary.lemma21_construct(group, g1, g2)
    assert len(calls) <= group.n * len({b.rep_id for b in group.blocks})


def test_memo_dies_with_its_group():
    group = smallgroups.quaternion_group()
    unitary.lemma21_construct(group, 1, 2)
    ref = weakref.ref(group)
    del group
    gc.collect()
    assert ref() is None


def test_memo_rebuilt_when_blocks_replaced():
    group = smallgroups.quaternion_group()
    unitary.lemma21_construct(group, 1, 2)
    group.blocks = _relabelled_q8({"chi_j": "chi_i"}).blocks
    with pytest.raises(unitary.ToleranceError):
        unitary.lemma21_construct(group, 1, 2)


# sha256 of the 848 lines "{group} {g1} {g2} {inter} {bound}" over every
# ordered pair of the four test groups, joined by newlines
LEMMA21_DIGEST = \
    "f4c60b8546f66b11b1d68985090f81af4daefb856aaa77b4fcd98ac92fadbfe0"
# sha256 of the lines "{name} {passed} {detail}" of degree_inequality_sweep(200)
SWEEP_DIGEST = \
    "4bb86a81d0c49011506279a77c26be2da49c04fcd7f340372f874459b550bb23"


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_lemma21_pairs_are_pinned():
    lines = []
    for group in smallgroups.all_test_groups():
        for g1 in range(group.n):
            for g2 in range(group.n):
                _, _, inter, bound = unitary.lemma21_construct(group, g1, g2)
                lines.append(f"{group.name} {g1} {g2} {inter} {bound}")
    assert len(lines) == 848
    assert _sha256(lines) == LEMMA21_DIGEST


def test_degree_sweep_is_pinned():
    results = verify.degree_inequality_sweep(200)
    assert _sha256(f"{r.name} {r.passed} {r.detail}" for r in results) \
        == SWEEP_DIGEST


@given(st.lists(st.integers(1, 6), min_size=1, max_size=5),
       st.lists(st.integers(1, 6), min_size=1, max_size=5))
@settings(max_examples=100)
def test_amqm_bound_rational(ns, ks):
    # AM-QM: (sum n_i k_i)^2 / (k1 k2) <= ... rearranged form used by the
    # intersection bound: sum of squares >= square of sum / count
    vals = ns + ks
    s = sum(Fraction(v) for v in vals)
    sq = sum(Fraction(v) ** 2 for v in vals)
    assert sq >= s * s / len(vals)
