"""Known-answer tests of the benchmark's own checkers (oracle.py).

Every benchmark run calls run_all() before it measures anything; it takes a
fraction of a second.  Run it alone with `python3 certbench/selftest.py`.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

import oracle


def test_primes() -> None:
    assert [n for n in range(30) if oracle.is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert oracle.valid_q_below(110) == [13, 29, 37, 53, 61, 101, 109]
    assert oracle.is_prime(2147483647) and not oracle.is_prime(1 << 30)
    assert oracle.primes_above(100, 3, avoid=(103,)) == [101, 107, 109]


def test_determinants() -> None:
    rng = random.Random(7)
    p = 2147483629                       # prime, below 2^31
    assert oracle.is_prime(p)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        want = oracle.det_fraction(rows)
        assert want.denominator == 1
        mat = np.array(rows, dtype=np.int64)
        assert oracle.symmetric(oracle.det_mod(mat, p), p) == want
        assert want * want <= oracle.hadamard_square(mat)
    # a singular matrix, and an exact unimodular one
    assert oracle.det_mod(np.array([[2, 4], [1, 2]]), p) == 0
    uni = np.array([[2, 3], [1, 2]])
    assert oracle.check_determinant(uni, 1, [101, 103], "acyclic-over-Z",
                                    [107, 109]) == []
    # wrong determinant, wrong verdict, too few primes, reused prime
    assert oracle.check_determinant(uni, 3, [101, 103], "not-acyclic", [107])
    assert oracle.check_determinant(uni, 1, [101, 103], "not-acyclic", [107])
    assert oracle.check_determinant(uni, 1, [3], "acyclic-over-Z", [107])
    assert oracle.check_determinant(uni, 1, [101, 103], "acyclic-over-Z", [101])
    big = np.array([[3, 1], [1, 2]])
    assert oracle.check_determinant(big, 5, [101, 103], "not-acyclic",
                                    [107]) == []
    assert oracle.check_determinant(big, 5, [101, 103], "acyclic-over-Z", [107])


def test_components() -> None:
    assert oracle.components(5, [(0, 1), (1, 2), (3, 4)]) == 2
    assert oracle.components(3, [(0, 0)]) == 3
    assert oracle.components(4, [(0, 1), (2, 3), (1, 2), (3, 0)]) == 1


def test_group_algebra() -> None:
    q = 13
    one = (1, 0, 0, 1)
    k = (0, 1, 12, 0)                     # order 4 in SL2(13), 2 in PSL2(13)
    kc = oracle.psl_canon(k, q)
    half = Fraction(1, 2)
    # PSL: stabilizer {1, k} on orbit e, trivial on orbit f, walk e + k.f:
    # 1/2 (1 + k) + k (1/2 k^-1 - 1/2) = 1
    norms = {"e": {one: Fraction(1), kc: Fraction(1)}, "f": {one: Fraction(1)}}
    k_inv = oracle.psl_canon((0, 12, 1, 0), q)
    x = {"e": {one: half}, "f": {k_inv: half, one: -half}}
    steps = [("e", one, 1), ("f", kc, 1)]
    assert oracle.check_partition(q, steps, norms, x) == []
    assert oracle.check_partition(q, steps, norms,
                                  {**x, "e": {one: Fraction(1, 3)}})
    assert oracle.check_partition(q, steps[:1], norms, x)
    # SL: stabilizer {1, z}, x = 1/2, delta = 1/2: (1-z)/2 + (1+z)/2 = 1
    z = (12, 0, 0, 12)
    norms = {"e": {one: Fraction(1), z: Fraction(1)}}
    x = {"e": {one: half}}
    assert oracle.check_lift(q, [("e", one, 1)], norms, x, {one: half}) == []
    assert oracle.check_lift(q, [("e", one, 1)], norms, x, {z: half})
    assert oracle.check_lift(q, [("e", one, -1)], norms, x, {one: half})


def test_lemma21() -> None:
    # diag(1, 1, i) and diag(1, -1, -1): pairs (1,1), (1,-1), (i,-1) -> dim 3
    rep1 = np.diag([1, 1, 1j])
    rep2 = np.diag([1, -1, -1])
    eye = np.eye(3)
    assert oracle.joint_commutant_dim(rep1, rep2) == (3, 2, 2)
    margin, errors = oracle.check_lemma21(rep1, rep2, eye, eye, 3)
    assert margin == 3 - 3 and errors == []        # ceil(9 / 4) = 3
    assert oracle.check_lemma21(rep1, rep2, eye, eye, 4)[1]
    # a diagonalizer that does not diagonalize is caught
    swap = np.array([[1, 1, 0], [1, -1, 0], [0, 0, np.sqrt(2)]]) / np.sqrt(2)
    try:
        oracle.check_lemma21(np.diag([1, -1, 1]), rep2, swap, eye, 3)
    except ValueError:
        pass
    else:
        raise AssertionError("non-diagonal image accepted")


def run_all() -> None:
    test_primes()
    test_determinants()
    test_components()
    test_group_algebra()
    test_lemma21()


if __name__ == "__main__":
    run_all()
    print("selftest: ok")
