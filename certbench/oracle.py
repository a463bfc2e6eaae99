"""Independent checks of the program's outputs.

Nothing here imports sl2cert.  Every function works on plain integers,
Fractions, tuples and NumPy arrays that the workloads extract from the
program's results, so a fault in the program cannot also hide in its check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

Mat2 = tuple[int, int, int, int]


def is_prime(n: int) -> bool:
    """Trial division; the benchmark only asks about numbers below 2^31."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def valid_q_below(bound: int) -> list[int]:
    """Primes 5 < q < bound with q = 5 or 13 (mod 24)."""
    return [q for q in range(7, bound) if q % 24 in (5, 13) and is_prime(q)]


def primes_above(start: int, count: int, avoid=()) -> list[int]:
    """The first `count` primes >= start that are not in `avoid`."""
    out: list[int] = []
    n = start | 1
    while len(out) < count:
        if n not in avoid and is_prime(n):
            out.append(n)
        n += 2
    return out


# -- determinants -------------------------------------------------------------


def det_mod(mat: np.ndarray, p: int) -> int:
    """Determinant of a square integer matrix modulo a prime p < 2^31.

    Gaussian elimination touching only the rows that have a nonzero in the
    pivot column and the columns right of it; entries stay below p, so
    every product fits in int64.
    """
    if p >= 1 << 31:
        raise ValueError("p must be below 2^31")
    a = np.asarray(mat, dtype=np.int64) % p
    n = a.shape[0]
    det = 1
    for k in range(n):
        nz = np.flatnonzero(a[k:, k])
        if nz.size == 0:
            return 0
        r = k + int(nz[0])
        if r != k:
            a[[k, r]] = a[[r, k]]
            det = -det
        piv = int(a[k, k])
        det = det * piv % p
        rows = k + 1 + np.flatnonzero(a[k + 1:, k])
        if rows.size:
            f = a[rows, k] * pow(piv, p - 2, p) % p
            a[rows, k:] = (a[rows, k:] - np.outer(f, a[k, k:]) % p) % p
    return det % p


def symmetric(a: int, p: int) -> int:
    """Representative of a mod p in (-p/2, p/2]."""
    a %= p
    return a - p if 2 * a > p else a


def det_fraction(rows) -> Fraction:
    """Exact determinant by elimination over the rationals (reference)."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        r = next((i for i in range(k, n) if a[i][k] != 0), None)
        if r is None:
            return Fraction(0)
        if r != k:
            a[k], a[r] = a[r], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def hadamard_square(mat: np.ndarray) -> int:
    """Product of the squared row norms: det^2 never exceeds it."""
    out = 1
    for row in np.asarray(mat, dtype=np.int64):
        out *= int(np.dot(row, row))
    return out


def check_determinant(mat: np.ndarray, det: int, primes_used: list[int],
                      verdict: str, check_primes: list[int]) -> list[str]:
    """Errors found in a claimed exact determinant and its verdict."""
    errors = []
    for p in check_primes:
        if p in primes_used:
            errors.append(f"check prime {p} was also used by the program")
            continue
        mine = det_mod(mat, p)
        if mine != det % p:
            errors.append(f"det mod {p}: program {det % p}, benchmark {mine}")
    h2 = hadamard_square(mat)
    if det * det > h2:
        errors.append(f"|det| exceeds the Hadamard bound ({det.bit_length()} "
                      f"bits > {h2.bit_length() / 2:.1f})")
    modulus = math.prod(primes_used)
    if modulus * modulus <= 4 * h2 and det != 0:
        errors.append(f"CRT modulus of {len(primes_used)} primes does not "
                      "cover twice the Hadamard bound")
    want = "acyclic-over-Z" if det in (1, -1) else "not-acyclic"
    if verdict != want:
        errors.append(f"det {det} gives verdict {want!r}, program says {verdict!r}")
    return errors


# -- graphs --------------------------------------------------------------------


def components(n_vertices: int, edges) -> int:
    """Connected components by union-find with path halving."""
    parent = list(range(n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n_vertices
    for s, t in edges:
        rs, rt = find(int(s)), find(int(t))
        if rs != rt:
            parent[rs] = rt
            count -= 1
    return count


# -- group algebra over 2x2 matrices mod q ---------------------------------------


def mat_mul(x: Mat2, y: Mat2, q: int) -> Mat2:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % q, (a * f + b * h) % q,
            (c * e + d * g) % q, (c * f + d * h) % q)


def psl_canon(m: Mat2, q: int) -> Mat2:
    """One representative of {m, -m}: the lexicographically smaller tuple."""
    return min(m, tuple((-x) % q for x in m))


def alg_mul(x: dict, y: dict, q: int, psl: bool) -> dict:
    """Product in Q[SL2(q)] (psl=False) or Q[PSL2(q)] (psl=True)."""
    out: dict = {}
    for g, c in x.items():
        for h, d in y.items():
            k = mat_mul(g, h, q)
            if psl:
                k = psl_canon(k, q)
            out[k] = out.get(k, 0) + c * d
    return {k: v for k, v in out.items() if v}


def alg_add(x: dict, y: dict, scale=1) -> dict:
    out = dict(x)
    for g, c in y.items():
        out[g] = out.get(g, 0) + scale * c
    return {k: v for k, v in out.items() if v}


def walk_sum(q: int, steps, norms: dict, x: dict, psl: bool) -> dict:
    """sum_i eps_i a_i N(G_{e_i}) x_{e_i} for steps (orbit, a, eps)."""
    total: dict = {}
    for orbit, a, sign in steps:
        term = alg_mul({a: Fraction(1)}, alg_mul(norms[orbit], x[orbit], q, psl),
                       q, psl)
        total = alg_add(total, term, sign)
    return total


def check_partition(q: int, steps, norms: dict, x: dict) -> list[str]:
    """1 = sum_i eps_i a_i N(G_{e_i}) x_{e_i} in Q[PSL2(q)]."""
    one = {psl_canon((1, 0, 0, 1), q): Fraction(1)}
    total = walk_sum(q, steps, norms, x, psl=True)
    return [] if total == one else ["partition identity fails in Q[PSL2(q)]"]


def check_lift(q: int, steps, norms: dict, x: dict, delta: dict) -> list[str]:
    """1 = (1 - z) delta + sum_i eps_i a_i N(G^_{e_i}) x_{e_i} in Q[SL2(q)]."""
    ident, z = (1, 0, 0, 1), (q - 1, 0, 0, q - 1)
    one_minus_z = {ident: Fraction(1), z: Fraction(-1)}
    total = alg_add(alg_mul(one_minus_z, delta, q, psl=False),
                    walk_sum(q, steps, norms, x, psl=False))
    return [] if total == {ident: Fraction(1)} else [
        "lifted identity fails in Q[SL2(q)]"]


# -- unitary diagonalizers -------------------------------------------------------


def root_of_unity_exponent(z: complex, n: int = 24) -> int:
    """k with z = exp(2 pi i k / n); raises if z is not such a root."""
    k = round(np.angle(z) * n / (2 * np.pi)) % n
    if abs(z - np.exp(2j * np.pi * k / n)) > 1e-6:
        raise ValueError(f"{z} is not an {n}-th root of unity")
    return k


def joint_commutant_dim(d1: np.ndarray, d2: np.ndarray) -> tuple[int, int, int]:
    """(dim of the joint commutant, k1, k2) of two diagonal unitaries.

    The commutant of diagonal matrices is block diagonal over the positions
    sharing an eigenvalue pair, so its dimension is the sum of squared pair
    multiplicities; k1, k2 count the distinct eigenvalues.
    """
    for d in (d1, d2):
        if np.abs(d - np.diag(np.diag(d))).max() > 1e-6:
            raise ValueError("matrix is not diagonal")
    lam = [root_of_unity_exponent(z) for z in np.diag(d1)]
    mu = [root_of_unity_exponent(z) for z in np.diag(d2)]
    pairs: dict[tuple[int, int], int] = {}
    for pair in zip(lam, mu):
        pairs[pair] = pairs.get(pair, 0) + 1
    return sum(c * c for c in pairs.values()), len(set(lam)), len(set(mu))


def check_lemma21(rep1: np.ndarray, rep2: np.ndarray, a1: np.ndarray,
                  a2: np.ndarray, inter: int) -> tuple[int, list[str]]:
    """(margin, errors) for one element pair of the lemma 2.1 sweep.

    The margin is dim - ceil(m^2 / (k1 k2)) from the benchmark's own count.
    """
    errors = []
    m = rep1.shape[0]
    for a in (a1, a2):
        if np.abs(a.conj().T @ a - np.eye(m)).max() > 1e-8:
            errors.append("diagonalizer is not unitary")
    dim, k1, k2 = joint_commutant_dim(a1 @ rep1 @ a1.conj().T,
                                      a2 @ rep2 @ a2.conj().T)
    if dim != inter:
        errors.append(f"intersection dimension: program {inter}, benchmark {dim}")
    margin = dim - -(-m * m // (k1 * k2))
    if margin < 0:
        errors.append(f"margin {margin} < 0")
    return margin, errors
