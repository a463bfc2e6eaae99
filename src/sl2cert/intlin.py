"""Exact integer and modular linear algebra helpers.

Everything here is deterministic: prime streams are generated by scanning
downwards from a fixed start, eliminations pick their pivots by fixed
rules, and all certified results (determinants, solution vectors,
inverses) are reconstructed exactly and never trusted to floating point.

Every dense elimination modulo a prime is one kernel, the panel LU
`lu_mod_p` with first-nonzero pivoting: `det_mod_p` reads the determinant
off its factors, pivot-column selection in `module` reads its pivot
columns, and `integer_inverse` solves with its factors (`_lu_solve`).

`det_crt` and `dixon_solve` first eliminate over Z, once per matrix, by
one +-1 phase (`_unit_pivots`), which removes most of a sparse +-1 system
before the dense LU: columns are taken in order, and in each the pivot is
the +-1 entry whose row has the fewest nonzeros in the remaining columns
(the first such row on ties), which keeps the fill-in small.  A +-1
pivot divides every entry, so each step is exact over Z and stays exact
modulo every prime.  A column that is zero in every remaining row gets no
pivot.  The phase stops at the first column with nonzeros but no +-1
entry, or before it would write an entry of absolute value 2^31 or more:
with every entry below 2^31, each product and difference fits in int64.
Row swaps do not change which columns get pivots, so the pivot columns
are those of `lu_mod_p` on the whole matrix.

`det_crt` takes det(A) = sign * det(S) from the phase (`unit_pivot_reduce`),
S the trailing Schur block, and reduces only S modulo each prime; the
primes still follow from the Hadamard bound of A, so the prime list does
not depend on how far the phase got.  `dixon_solve` factors its wide
system once (`pivot_lu_mod_p`): the phase's multipliers and row swaps,
then `lu_mod_p` of the trailing block, merged into the factors of the
pivot-column subsystem.  `smith_normal_form` runs the same phase and
hands only the block it leaves to sympy's exact invariant factors.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from sympy import ZZ, isprime
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors


def prime_stream(start: int = (1 << 30) - 1):
    """Yield the primes p <= start in decreasing order."""
    p = start
    while p > 2:
        if isprime(p):
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


# columns per panel in lu_mod_p: 32 products below 2^30 * 2^16 sum below 2^51
_PANEL = 32


def _mod_float(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place, for integer-valued float64 entries with |x| < 2^52
    and p < 2^30.

    The quotient estimate q = floor(x * (1/p)) is within one of floor(x / p),
    so |q * p| <= |x| + 2p < 2^53: q * p is exact, and the remainder is off
    by at most one p, which the last two steps fix.
    """
    q = x * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    x -= q
    x[x < 0] += p
    x[x >= p] -= p
    return x


def _check_exact(a: np.ndarray, b: np.ndarray, inner: int) -> None:
    """Raise unless every partial sum of an integer product of a and b with
    this inner dimension stays below 2^53, so float64 computes it exactly."""
    bound = _max_abs(a) * _max_abs(b) * inner
    if bound >= 2 ** 53:
        raise OverflowError(f"integer product bound {bound} is not below 2^53")


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for integer-valued arrays, exact as one float64 product; the
    result has the dtype of a (int64 or float64)."""
    _check_exact(a, b, a.shape[-1])
    out = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
    return out.astype(a.dtype, copy=False)


def _sub_matmul_mod(c: np.ndarray, a: np.ndarray, b: np.ndarray,
                    p: int) -> np.ndarray:
    """c - a @ b mod p, as float64 residues, for residues below p < 2^30
    and at most _PANEL columns of a: one exact float64 product per 16-bit
    half of b, each entry a sum of at most _PANEL products below 2^46.  The
    high half is reduced before its shift, so the sum stays below 2^52.
    The sum is built in place, so at most two arrays of the shape of c are
    live besides c."""
    a = np.asarray(a, dtype=np.float64)
    out = _mod_float(_exact_matmul(a, b >> 16), p)
    out *= 65536.0
    out += _exact_matmul(a, b & 0xFFFF)
    np.subtract(c, out, out=out)
    return _mod_float(out, p)


def lu_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """P A = L U modulo p (p < 2^30) for any integer matrix A.

    Row echelon elimination with first-nonzero pivoting; a column with no
    nonzero entry at or below the next pivot row gets no pivot and is
    skipped.  Returns (lu, perm, pivots): row i of P A is row perm[i] of A,
    and pivots lists the pivot columns, which are those of every echelon
    form of A mod p.  The float64 array lu holds U on and above the pivot
    rows and, below row i, the multipliers of column i of L in column
    pivots[i].

    Right-looking, in panels of _PANEL columns.  A panel is eliminated in
    int64 (each update is one product below 2^60); the trailing block is
    kept in float64, where every residue below 2^30 is exact, and updated
    by exact float64 products (`_sub_matmul_mod`).
    """
    mat = np.asarray(mat)
    m = np.mod(mat, p, out=np.empty(mat.shape))   # int64 residues, cast per chunk
    rows, cols = m.shape
    perm = np.arange(rows)
    pivots: list[int] = []
    r = 0
    for k0 in range(0, cols, _PANEL):
        k1 = min(k0 + _PANEL, cols)
        r0 = r
        panel = m[r0:, k0:k1].astype(np.int64)
        for c in range(k1 - k0):
            if r == rows:
                break
            i = r - r0
            nz = np.flatnonzero(panel[i:, c])
            if not nz.size:
                continue
            piv = i + int(nz[0])
            if piv != i:
                panel[[i, piv]] = panel[[piv, i]]
                m[[r, r0 + piv]] = m[[r0 + piv, r]]
                perm[[r, r0 + piv]] = perm[[r0 + piv, r]]
            below = i + 1 + np.flatnonzero(panel[i + 1:, c])
            if below.size:
                factors = panel[below, c] * pow(int(panel[i, c]), -1, p) % p
                panel[below, c:] = (panel[below, c:] - factors[:, None] * panel[i, c:]) % p
                panel[below, c] = factors          # the multipliers, column i of L
            pivots.append(k0 + c)
            r += 1
        m[r0:, k0:k1] = panel
        if r == r0 or k1 == cols:
            continue
        # U12: the new pivot rows in the trailing columns, forward-substituted by L11
        lcols = np.array(pivots[r0:]) - k0
        u = m[r0:r, k1:].astype(np.int64)
        for t in range(r - r0 - 1):
            below = t + 1 + np.flatnonzero(panel[t + 1:r - r0, lcols[t]])
            if below.size:
                u[below] = (u[below] - panel[below, lcols[t]][:, None] * u[t]) % p
        m[r0:r, k1:] = u
        m[r:, k1:] = _sub_matmul_mod(m[r:, k1:], panel[r - r0:, lcols], u, p)
    return m, perm, pivots


def det_mod_p(mat: np.ndarray, p: int) -> int:
    """Determinant of a square integer matrix modulo p (p < 2^30), from
    the diagonal of U and the sign of the row permutation (`lu_mod_p`)."""
    lu, perm, pivots = lu_mod_p(mat, p)
    if len(pivots) < lu.shape[0]:
        return 0
    det = _perm_sign(perm)
    for v in lu.diagonal():
        det = det * int(v) % p
    return det % p


def _perm_sign(perm: np.ndarray) -> int:
    """The sign of a permutation, given as an index array."""
    sign = 1
    perm = perm.tolist()
    for i in range(len(perm)):
        while perm[i] != i:             # each swap puts one row in place
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


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


def _unit_pivots(m: np.ndarray) -> tuple[np.ndarray, list[int], int]:
    """The +-1 phase over Z (see the module docstring), in place on the
    int64 array m.

    Returns (perm, pivots, col): row i of m is row perm[i] of the input,
    pivots lists the eliminated columns, one per leading row, and col is
    the column the phase stopped at.  m is left in the layout of
    `lu_mod_p`: the pivot rows hold U, and below pivot row i column
    pivots[i] holds the multipliers of L, exact integers; rows len(pivots)
    on are the Schur complement in columns col on.  An input entry of
    absolute value 2^31 or more stops the phase before it starts.
    """
    rows, cols = m.shape
    perm = np.arange(rows)
    pivots: list[int] = []
    if _max_abs(m) >= UNIT_PIVOT_LIMIT:
        return perm, pivots, 0
    r = col = 0
    while r < rows and col < cols:
        nz = r + np.flatnonzero(m[r:, col])
        if not nz.size:
            col += 1                    # zero column: no pivot
            continue
        units = nz[np.abs(m[nz, col]) == 1]
        if not units.size:
            break
        # the sparsest +-1 row in the remaining columns, the first on ties
        piv = int(units[np.argmin(np.count_nonzero(m[units, col:], axis=1))])
        below = nz[nz != piv]
        if below.size:
            # the pivot row is zero left of col: update its nonzero columns
            span = col + 1 + np.flatnonzero(m[piv, col + 1:])
            factors = m[below, col] * m[piv, col]
            block = m[np.ix_(below, span)] - factors[:, None] * m[piv, span]
            if _max_abs(block) >= UNIT_PIVOT_LIMIT:
                break
            m[np.ix_(below, span)] = block
            m[below, col] = factors     # the multipliers, column r of L
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
            perm[[r, piv]] = perm[[piv, r]]
        pivots.append(col)
        r += 1
        col += 1
    return perm, pivots, col


def unit_pivot_reduce(mat: np.ndarray) -> tuple[int, np.ndarray]:
    """det(mat) = sign * det(S) for a square integer matrix, from the +-1
    phase (`_unit_pivots`), S the Schur complement of the eliminated
    leading columns.  A column without a pivot makes mat singular; then
    sign is 0 and S is empty.
    """
    m = np.array(mat, dtype=np.int64)
    perm, pivots, col = _unit_pivots(m)
    r = len(pivots)
    if col > r:
        return 0, m[:0, :0].copy()
    diag = m[np.arange(r), pivots]
    sign = _perm_sign(perm) * (-1) ** int(np.count_nonzero(diag < 0))
    return sign, m[r:, r:].copy()


def pivot_lu_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """P A[:, pivots] = L U modulo p (p < 2^30) for an integer matrix A.

    The +-1 phase (`_unit_pivots`) runs first over Z; `lu_mod_p` then
    factors only the trailing block it leaves, and its row swaps are
    applied to the phase's multipliers.  Returns (lu, perm, pivots) with
    pivots and perm as from `lu_mod_p` (same pivot columns, possibly other
    row swaps) and lu the pivot columns of that layout, float64 residues:
    U on and above the diagonal and L's multipliers below it.
    """
    m = np.array(mat, dtype=np.int64)
    perm, pivots, col = _unit_pivots(m)
    r = len(pivots)
    trail, perm2, piv2 = lu_mod_p(m[r:, col:], p)
    pivots += [col + j for j in piv2]
    perm[r:] = perm[r:][perm2]
    lu = np.empty((m.shape[0], len(pivots)))
    np.mod(m[:r, pivots], p, out=lu[:r])
    np.mod(m[r:, pivots[:r]][perm2], p, out=lu[r:, :r])
    lu[r:, r:] = trail[:, piv2]
    return lu, perm, pivots


def det_crt(mat: np.ndarray) -> tuple[int, list[int], int]:
    """Exact determinant by multi-modular CRT under the Hadamard bound.

    The bound, and with it the primes, comes from `mat`; each prime then
    reduces only the Schur block left by the +-1 phase (`unit_pivot_reduce`).
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


def dixon_solve(a: np.ndarray, b: np.ndarray, p: int) -> list[Fraction] | None:
    """Solve A x = b over Q by p-adic (Dixon) lifting.

    A is an n x m integer matrix of rank n mod p (ArithmeticError, naming
    the rank, otherwise) and b a length-n integer vector.  A is factored
    once (`pivot_lu_mod_p`): the +-1 phase over Z, then `lu_mod_p` of the
    trailing block only, which gives the factors of the square subsystem
    A[:, pivots].
    Returns the exact rational x, zero off the pivot columns and checked
    against the system, or None if no checked reconstruction appears within
    `DIXON_MAX_DIGITS` lifting steps.  The solution is reconstructed after
    1, 2, 4, 8, ... steps (and once the residual vanishes), and the first
    reconstruction that `_solves` accepts is returned: the square pivot
    system has exactly one solution.  Each step updates the residual with
    one int64 product A x_digit: with x_digit < p < 2^30 and
    n max|A| < 2^32 every entry stays below 2^62.
    """
    a = np.asarray(a, dtype=np.int64)
    n, m = a.shape
    if n * max(_max_abs(a), 1) >= 1 << 32:
        raise OverflowError("entries too large for int64 lifting")
    lu = pivot_lu_mod_p(a, p)
    pivots = lu[2]
    if len(pivots) < n:
        raise ArithmeticError(
            f"column span has rank {len(pivots)} < {n} mod {p}")
    a = a[:, pivots]
    residual = np.array(b, dtype=np.int64)
    x_int = [0] * n
    pk = 1
    for step in range(1, DIXON_MAX_DIGITS + 1):
        x_dig = _lu_solve(lu, residual % p, p)
        for i in np.flatnonzero(x_dig):
            x_int[i] += pk * int(x_dig[i])
        pk *= p
        # residual <- (residual - A x_dig) / p  (exact integer division)
        residual = (residual - a @ x_dig) // p
        if step & (step - 1) == 0 or not residual.any():
            sol = [rational_reconstruct(x_int[i], pk) for i in range(n)]
            # the pivot-column solution is unique, so a checked one is it
            if all(s is not None for s in sol) and _solves(a, sol, b):
                x = [Fraction(0)] * m
                for j, s in zip(pivots, sol):
                    x[j] = s
                return x
    return None


def _solves(a: np.ndarray, sol: list[Fraction], b: np.ndarray) -> bool:
    """Exact check A sol = b, in integers after clearing denominators.

    A reconstruction from too small a modulus can succeed with wrong
    values, so the lifting continues until the check passes.
    """
    den = 1
    for x in sol:
        den = den * x.denominator // math.gcd(den, x.denominator)
    acc = [0] * a.shape[0]
    for j, x in enumerate(sol):
        if x:
            xv = x.numerator * (den // x.denominator)
            rows = np.flatnonzero(a[:, j])
            for i, v in zip(rows.tolist(), a[rows, j].tolist()):
                acc[i] += v * xv
    return acc == [den * v for v in np.asarray(b).tolist()]


def _lu_solve(lu, b: np.ndarray, p: int) -> np.ndarray:
    """X with A X = B mod p from the factors of a nonsingular A (`lu_mod_p`).

    B is a vector or a matrix.  Both triangular solves run in blocks of
    _PANEL rows: int64 inside a block, where each update is one product of
    two residues below 2^30, and `_sub_matmul_mod` for the other rows.
    """
    m, perm, _ = lu
    n = m.shape[0]
    y = np.mod(np.asarray(b, dtype=np.int64)[perm], p).reshape(n, -1)
    starts = range(0, n, _PANEL)
    for k0 in starts:                   # L Z = P B, L unit lower triangular
        k1 = min(k0 + _PANEL, n)
        blk, diag = y[k0:k1], m[k0:k1, k0:k1].astype(np.int64)
        for j in range(k1 - k0 - 1):
            blk[j + 1:] = (blk[j + 1:] - diag[j + 1:, j, None] * blk[j]) % p
        if k1 < n:
            y[k1:] = _sub_matmul_mod(y[k1:], m[k1:, k0:k1], blk, p)
    for k0 in reversed(starts):         # U X = Z
        k1 = min(k0 + _PANEL, n)
        blk, diag = y[k0:k1], m[k0:k1, k0:k1].astype(np.int64)
        for j in range(k1 - k0 - 1, -1, -1):
            blk[j] = blk[j] * pow(int(diag[j, j]), -1, p) % p
            blk[:j] = (blk[:j] - diag[:j, j, None] * blk[j]) % p
        if k0:
            y[:k0] = _sub_matmul_mod(y[:k0], m[:k0, k0:k1], blk, p)
    return y.reshape(np.shape(b))


def integer_inverse(mat: np.ndarray) -> np.ndarray:
    """The integer inverse X of a square integer matrix M, with M X = I
    verified exactly.

    X is solved modulo one prime p < 2^30 (`lu_mod_p`, `_lu_solve`) and each
    entry is lifted to (-p/2, p/2].  An integer inverse exists exactly when
    det M = +-1, and then the lift is it if its entries lie in that range.
    The check M X = I is one float64 product (`_exact_matmul`), exact while
    max|M| * n * p/2 < 2^53 (OverflowError otherwise).  Raises
    ArithmeticError when M is singular mod p, so det M != +-1, or when the
    lift fails the check: M is not unimodular, or its inverse has an entry
    beyond p/2.
    """
    m = np.asarray(mat, dtype=np.int64)
    n = m.shape[0]
    p = next(prime_stream())
    lu = lu_mod_p(m, p)
    if len(lu[2]) < n:
        raise ArithmeticError(
            f"singular mod {p} (rank {len(lu[2])} of {n}): det is not +-1")
    x = _lu_solve(lu, np.eye(n, dtype=np.int64), p)
    del lu
    x[2 * x > p] -= p
    if not np.array_equal(_exact_matmul(m, x), np.eye(n, dtype=np.int64)):
        raise ArithmeticError(
            f"the inverse mod {p}, lifted to (-p/2, p/2], fails M X = I: "
            f"det is not +-1, or the inverse has an entry beyond p/2")
    return x


def smith_normal_form(rows: dict[int, dict[int, int]], n_rows: int,
                      n_cols: int) -> list[int]:
    """The nonzero invariant factors d_1 | d_2 | ... (positive) of an integer
    matrix A, given sparse as `rows`: row index -> {col: value}.

    With every entry below 2^31 the +-1 phase (`_unit_pivots`) runs on a
    dense int64 copy.  Its row operations are unimodular and leave the rows
    after its r pivots zero left of the stop column col (m keeps L there);
    column operations on the +-1 pivots clear the pivot rows without
    touching those rows, so A ~ I_r + S with S = m[r:, col:], and the
    factors are r ones and those of S.  S, or all of A when an entry is
    larger, goes to sympy's exact `invariant_factors`.
    The copy takes 8 n_rows n_cols bytes, 3 MB for the q = 13 vertex-edge
    boundary, the one size at which the CLI runs the Smith cross-check.
    """
    small = all(abs(v) < UNIT_PIVOT_LIMIT for r in rows.values() for v in r.values())
    m = np.zeros((n_rows, n_cols), dtype=np.int64 if small else object)
    for i, r in rows.items():
        m[i, list(r)] = list(r.values())
    pivots, col = _unit_pivots(m)[1:] if small else ([], 0)
    rest = m[len(pivots):, col:]
    factors = invariant_factors(DomainMatrix(
        [[ZZ(int(v)) for v in row] for row in rest.tolist()], rest.shape, ZZ))
    return [1] * len(pivots) + [abs(int(d)) for d in factors if d]
