import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2cert import smallgroups, unitary


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
    for lam, p in projs:
        assert abs(abs(lam) - 1) < 1e-10
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


def test_commutant_dim_of_abelian_regular():
    c12 = smallgroups.cyclic_group(12)
    mats = [c12.rep(i) for i in range(c12.n)]
    # twelve 1-dim blocks, one repeated: commutant dim = sum over
    # distinct irreps of multiplicity^2
    dim = unitary.commutant_dim(mats)
    mult = {}
    for b in c12.blocks:
        key = b.rep_id
        mult[key] = mult.get(key, 0) + 1
    assert dim == sum(m * m for m in mult.values())


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
    vals = set()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        _, _, inter, bound = unitary.lemma21_construct(sl23, 3, 17, rng=rng)
        vals.add((inter, round(bound, 6)))
    assert len(vals) == 1     # intersection dim independent of the seed


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
