"""Exact integer and modular linear algebra helpers.

Everything here is deterministic: prime streams are generated by scanning
downwards from a fixed start, eliminations use first-nonzero pivoting, and
all certified results (determinants, solution vectors) are reconstructed
exactly and never trusted to floating point.

`det_crt` first eliminates over Z (`unit_pivot_reduce`): for each leading
column in turn it takes the first +-1 entry in row order as pivot and
clears the column below.  A +-1 pivot divides every entry, so the step is
exact over Z, and after k steps the matrix is block upper triangular with
+-1 on the first k diagonal entries; hence det(A) = sign * det(S), with
sign collecting the pivots and row swaps and S the trailing Schur block.
The phase stops at the first column without a +-1 entry, or before it
would write an entry of absolute value 2^31 or more: with every entry
below 2^31, each product and difference fits in int64.  Only S is then
reduced modulo each prime.  The primes still follow from the Hadamard
bound of A, so the prime list does not depend on how far the phase got.
The modular kernels update only the trailing block m[rows, col:] of the
rows with a nonzero multiplier; the pivot row is zero left of col, so
the other entries would not change.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from sympy import isprime


def prime_stream(start: int = (1 << 30) - 1, avoid: int = 1):
    """Yield primes p <= start in decreasing order with p coprime to `avoid`."""
    p = start
    while p > 2:
        if isprime(p) and avoid % p != 0:
            yield p
        p -= 2 if p % 2 else 1


def crt_pair(a1: int, m1: int, a2: int, m2: int) -> tuple[int, int]:
    """Combine x = a1 (mod m1), x = a2 (mod m2) for coprime moduli."""
    inv = pow(m1 % m2, -1, m2)
    t = (a2 - a1) % m2 * inv % m2
    return a1 + m1 * t, m1 * m2


def crt(residues: list[int], moduli: list[int]) -> tuple[int, int]:
    a, m = residues[0] % moduli[0], moduli[0]
    for r, p in zip(residues[1:], moduli[1:]):
        a, m = crt_pair(a, m, r, p)
    return a, m


def symmetric_lift(a: int, m: int) -> int:
    """Representative of a mod m in (-m/2, m/2]."""
    a %= m
    return a - m if 2 * a > m else a


def rational_reconstruct(a: int, m: int) -> Fraction | None:
    """Recover n/d = a (mod m) with |n|, d <= sqrt(m/2), or None.

    Standard half-extended Euclidean algorithm (Wang's method).
    """
    a %= m
    if a == 0:
        return Fraction(0)
    bound = math.isqrt(m // 2)
    r0, r1 = m, a
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if r1 == 0 or abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def det_mod_p(mat: np.ndarray, p: int) -> int:
    """Determinant of a square integer matrix modulo p (p < 2^30)."""
    m = np.mod(mat, p).astype(np.int64)
    n = m.shape[0]
    det = 1
    for col in range(n):
        nz = np.flatnonzero(m[col:, col])
        if not nz.size:
            return 0
        piv = col + int(nz[0])
        if piv != col:
            m[[col, piv]] = m[[piv, col]]
            det = -det
        pv = int(m[col, col])
        det = det * pv % p
        rows = col + 1 + np.flatnonzero(m[col + 1:, col])
        if rows.size:
            # the pivot row is zero left of col, so only the trailing block moves
            factors = m[rows, col] * pow(pv, -1, p) % p
            m[rows, col:] = (m[rows, col:] - factors[:, None] * m[col, col:]) % p
    return det % p


def rref_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (rref, pivot column list)."""
    m = np.mod(mat, p).astype(np.int64)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for col in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(m[r:, col])
        if not nz.size:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r, col:] = m[r, col:] * pow(int(m[r, col]), -1, p) % p
        others = np.flatnonzero(m[:, col])
        others = others[others != r]
        if others.size:
            m[others, col:] = (m[others, col:]
                               - m[others, col][:, None] * m[r, col:]) % p
        pivots.append(col)
        r += 1
    return m, pivots


def _max_abs(m: np.ndarray) -> int:
    """Largest |entry| as a Python int (np.abs would wrap at -2^63)."""
    return max(-int(m.min()), int(m.max())) if m.size else 0


def hadamard_bound(mat: np.ndarray) -> int:
    """Integer upper bound on |det| via Hadamard's inequality (exact arithmetic).

    Row norms are summed in int64, so the entries must satisfy
    n * max|a|^2 < 2^63; OverflowError otherwise.
    """
    m = np.asarray(mat, dtype=np.int64)
    peak = _max_abs(m)
    if m.shape[1] * peak * peak >= 1 << 63:
        raise OverflowError("row norms of the matrix exceed int64")
    norms = (m * m).sum(axis=1)
    if not norms.all():
        return 0
    return math.isqrt(math.prod(int(s) for s in norms)) + 1


UNIT_PIVOT_LIMIT = 1 << 31
DIXON_MAX_DIGITS = 4000


def unit_pivot_reduce(mat: np.ndarray) -> tuple[int, np.ndarray]:
    """Eliminate over Z with +-1 pivots while entries stay below 2^31.

    Returns (sign, S) with det(mat) = sign * det(S), S the Schur complement
    of the eliminated leading columns.
    """
    m = np.array(mat, dtype=np.int64)
    if _max_abs(m) >= UNIT_PIVOT_LIMIT:
        return 1, m
    sign = 1
    col = 0
    while col < m.shape[0]:
        units = np.flatnonzero(np.abs(m[col:, col]) == 1)
        if not units.size:
            break
        piv = col + int(units[0])
        rows = np.flatnonzero(m[col:, col])
        rows = col + rows[rows != piv - col]
        if rows.size:
            # |entries| < 2^31, so every product and difference fits in int64
            factors = m[rows, col] * m[piv, col]
            block = m[rows, col:] - factors[:, None] * m[piv, col:]
            if _max_abs(block) >= UNIT_PIVOT_LIMIT:
                break
            m[rows, col:] = block
        if piv != col:
            m[[col, piv]] = m[[piv, col]]
            sign = -sign
        sign *= int(m[col, col])
        col += 1
    return sign, m[col:, col:].copy()


def det_crt(mat: np.ndarray) -> tuple[int, list[int], int]:
    """Exact determinant by multi-modular CRT under the Hadamard bound.

    The bound, and with it the primes, comes from `mat`; each prime then
    reduces only the Schur block left by `unit_pivot_reduce`.
    Returns (determinant, primes used, hadamard bound).
    """
    bound = hadamard_bound(mat)
    if bound == 0:
        return 0, [], 0
    sign, schur = unit_pivot_reduce(mat)
    target = 2 * bound + 1
    residues: list[int] = []
    primes: list[int] = []
    modulus = 1
    for p in prime_stream():
        residues.append(sign * det_mod_p(schur, p) % p)
        primes.append(p)
        modulus *= p
        if modulus >= target:
            break
    a, m = crt(residues, primes)
    return symmetric_lift(a, m), primes, bound


def dixon_solve(a_cols: list[dict[int, int]], n_rows: int, b: dict[int, int],
                p: int) -> list[Fraction] | None:
    """Solve A x = b over Q by p-adic (Dixon) lifting.

    `a_cols` gives A column-wise as sparse {row: value} dicts; the system must
    be square (len(a_cols) == n_rows) and nonsingular mod p.  Returns exact
    rational solution (verified by the caller) or None if reconstruction
    fails within `DIXON_MAX_DIGITS` lifting steps.
    """
    n = n_rows
    assert len(a_cols) == n
    dense = np.zeros((n, n), dtype=np.int64)
    for j, col in enumerate(a_cols):
        for i, v in col.items():
            dense[i, j] = v % p
    # LU-style inverse mod p (small n: explicit inverse is fine).
    inv = _inverse_mod_p(dense, p)
    if inv is None:
        return None
    b_vec = [b.get(i, 0) for i in range(n)]
    residual = list(b_vec)
    digits: list[np.ndarray] = []
    mod = 1
    for step in range(DIXON_MAX_DIGITS):
        r_mod = np.array([ri % p for ri in residual], dtype=np.int64)
        x_dig = inv.dot(r_mod) % p
        digits.append(x_dig)
        # residual <- (residual - A x_dig) / p  (exact integer division)
        delta = [0] * n
        for j, col in enumerate(a_cols):
            xv = int(x_dig[j])
            if xv:
                for i, v in col.items():
                    delta[i] += v * xv
        residual = [(residual[i] - delta[i]) // p for i in range(n)]
        mod *= p
        if step % 8 == 7 or all(r == 0 for r in residual):
            x_int = [0] * n
            pk = 1
            for dig in digits:
                for i in range(n):
                    x_int[i] += pk * int(dig[i])
                pk *= p
            sol = [rational_reconstruct(x_int[i], mod) for i in range(n)]
            if all(s is not None for s in sol):
                return sol  # caller verifies exactly
    return None


def _inverse_mod_p(mat: np.ndarray, p: int) -> np.ndarray | None:
    n = mat.shape[0]
    aug = np.concatenate([mat % p, np.eye(n, dtype=np.int64)], axis=1)
    red, piv = rref_mod_p(aug, p)
    if piv[:n] != list(range(n)):
        return None
    return red[:, n:]


def smith_normal_form(rows: dict[int, dict[int, int]], n_rows: int,
                      n_cols: int) -> list[int]:
    """Invariant factors of a sparse integer matrix.

    `rows` maps row index -> {col: value}.  Uses greedy pivoting that prefers
    +-1 pivots (keeps entries small on unimodular-equivalent inputs) and
    Euclidean reduction otherwise.  Returns the list of nonzero invariant
    factors d_1 | d_2 | ... (positive).
    """
    # Working sparse structure with column index for pivot search.
    rows = {i: dict(r) for i, r in rows.items() if r}
    cols: dict[int, set[int]] = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)

    def set_entry(i: int, j: int, v: int) -> None:
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
        else:
            if i in rows and j in rows[i]:
                del rows[i][j]
                if not rows[i]:
                    del rows[i]
            if j in cols and i in cols[j]:
                cols[j].discard(i)
                if not cols[j]:
                    del cols[j]

    diagonal: list[int] = []
    limit = min(n_rows, n_cols)
    while rows and len(diagonal) < limit:
        # Pick pivot: smallest |value|, ties by fewest row+col nonzeros.
        best = None
        for i, r in rows.items():
            for j, v in r.items():
                key = (abs(v), len(r) + len(cols[j]))
                if best is None or key < best[0]:
                    best = (key, i, j)
                    if key[0] == 1 and key[1] <= 4:
                        break
            if best is not None and best[0][0] == 1 and best[0][1] <= 4:
                break
        _, pi, pj = best
        # Euclidean phase: clear the pivot row/column gcd-style.
        while True:
            pv = rows[pi][pj]
            # Reduce column entries by the pivot row.
            changed = False
            for i in list(cols.get(pj, ())):
                if i == pi:
                    continue
                v = rows[i][pj]
                q = v // pv
                if q:
                    prow = list(rows[pi].items())
                    for j, w in prow:
                        set_entry(i, j, rows.get(i, {}).get(j, 0) - q * w)
                if rows.get(i, {}).get(pj, 0):
                    # Remainder nonzero and smaller: swap pivot into this row.
                    pi = i
                    changed = True
                    break
            if changed:
                continue
            # Column is clear besides pivot; now the row.
            pv = rows[pi][pj]
            changed = False
            for j in list(rows[pi].keys()):
                if j == pj:
                    continue
                v = rows[pi][j]
                q = v // pv
                if q:
                    # column operation: col_j -= q * col_pj
                    for i in list(cols.get(pj, ())):
                        set_entry(i, j, rows.get(i, {}).get(j, 0) - q * rows[i][pj])
                if rows.get(pi, {}).get(j, 0):
                    pj = j
                    changed = True
                    break
            if not changed:
                break
        pv = abs(rows[pi][pj])
        # Remove pivot row/column.
        for j in list(rows[pi].keys()):
            set_entry(pi, j, 0)
        for i in list(cols.get(pj, ())):
            set_entry(i, pj, 0)
        diagonal.append(pv)
    # Fix divisibility chain.
    diagonal.sort()
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            g = math.gcd(a, b)
            l = a // g * b
            diagonal[i], diagonal[j] = g, l
    return [d for d in diagonal if d != 0]
