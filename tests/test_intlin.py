import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from sl2cert import intlin


def test_prime_stream_yields_distinct_primes():
    ps = intlin.prime_stream()
    first = [next(ps) for _ in range(5)]
    assert len(set(first)) == 5
    assert all(p < 1 << 31 for p in first)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_crt_pair_reconstructs(a, b):
    m1, m2 = 1000003, 999983
    x, m = intlin.crt_pair(a % m1, m1, b % m2, m2)
    assert m == m1 * m2
    assert x % m1 == a % m1 and x % m2 == b % m2


@given(st.integers(-500, 500))
def test_symmetric_lift_roundtrip(x):
    m = 1009
    assert intlin.symmetric_lift(x % m, m) == x if abs(x) <= m // 2 else True


@given(st.fractions(min_value=-10**4, max_value=10**4, max_denominator=100))
@settings(max_examples=200)
def test_rational_reconstruct_recovers(fr):
    m = (1 << 61) - 1    # prime, far larger than 2*num*den
    if fr.denominator % m == 0:
        return
    a = fr.numerator * pow(fr.denominator, -1, m) % m
    assert intlin.rational_reconstruct(a, m) == fr


def _det_mod_p_reference(mat, p):
    """Full-width elimination: every step rewrites whole rows."""
    m = np.mod(mat, p).astype(np.int64)
    n = m.shape[0]
    det = 1
    for col in range(n):
        piv = col + int(np.argmax(m[col:, col] != 0))
        if m[piv, col] == 0:
            return 0
        if piv != col:
            m[[col, piv]] = m[[piv, col]]
            det = -det
        pv = int(m[col, col])
        det = det * pv % p
        inv = pow(pv, -1, p)
        rows = m[col + 1:, col] != 0
        if rows.any():
            factors = m[col + 1:, col][rows] * inv % p
            m[col + 1:][rows] = (m[col + 1:][rows]
                                 - factors[:, None] * m[col][None, :]) % p
    return det % p


def _rref_mod_p_reference(mat, p):
    """Full-width reduction: every step rewrites whole rows."""
    m = np.mod(mat, p).astype(np.int64)
    rows, cols = m.shape
    pivots = []
    r = 0
    for col in range(cols):
        if r == rows:
            break
        piv = r + int(np.argmax(m[r:, col] != 0))
        if m[piv, col] == 0:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] * pow(int(m[r, col]), -1, p) % p
        nz = m[:, col] != 0
        nz[r] = False
        if nz.any():
            m[nz] = (m[nz] - m[nz, col][:, None] * m[r][None, :]) % p
        pivots.append(col)
        r += 1
    return m, pivots


def _sparse_unit(rng, rows, cols, density=0.15):
    signs = rng.choice([-1, 1], size=(rows, cols))
    return signs * (rng.random((rows, cols)) < density)


def _kernel_inputs():
    """Square matrices for both kernels: sparse +-1, singular mod p, swaps."""
    rng = np.random.default_rng(4)
    mats = [_sparse_unit(rng, n, n) for n in (5, 12, 30)]
    mats += [rng.integers(-9, 10, size=(n, n)) for n in (6, 15)]
    singular = rng.integers(-5, 6, size=(8, 8))
    singular[5] = 2 * singular[1] - singular[3]       # singular over Z
    mats.append(singular)
    mats.append(np.array([[98, 1], [1, 1]]))          # det 97: singular mod 97
    mats.append(np.array([[97, 1], [1, 1]]))          # row swap mod 97
    mats.append(np.array([[0, 1, 2], [0, 0, 3], [4, 5, 6]]))    # row swaps
    mats.append(np.zeros((3, 3), dtype=np.int64))
    return mats


def test_det_mod_p_matches_numpy():
    rng = np.random.default_rng(0)
    p = 1000003
    for _ in range(5):
        mat = rng.integers(-9, 10, size=(6, 6))
        want = round(np.linalg.det(mat.astype(float)))
        assert intlin.det_mod_p(mat, p) == want % p


@pytest.mark.parametrize("p", [97, 1073741789])
def test_det_mod_p_matches_reference(p):
    for mat in _kernel_inputs():
        assert intlin.det_mod_p(mat, p) == _det_mod_p_reference(mat, p)
    assert intlin.det_mod_p(np.array([[98, 1], [1, 1]]), 97) == 0


def _wide_and_tall():
    """Matrices wider or taller than two panels, with a zero column, a
    dependent column and dependent rows, so some columns get no pivot."""
    rng = np.random.default_rng(7)
    wide = rng.integers(-3, 4, size=(70, 100))
    wide[:, 5] = 0
    wide[:, 40] = wide[:, 3] - 2 * wide[:, 7]
    wide[50] = wide[48] + wide[49]                  # rows 48..50 in one panel
    wide[60] = 3 * wide[2]
    tall = rng.integers(-3, 4, size=(100, 70))
    tall[:, 33] = tall[:, 32] + tall[:, 1]
    tall[:, 64] = 0
    return [wide, tall, wide.T]


def _rebuild(lu, perm, pivots, p):
    """L U from the factors of lu_mod_p, as exact integers mod p."""
    rows, cols = lu.shape
    lower = np.eye(rows, dtype=object)
    upper = np.zeros((rows, cols), dtype=object)
    for i, c in enumerate(pivots):
        lower[i + 1:, i] = lu[i + 1:, c].astype(np.int64)
        upper[i, c:] = lu[i, c:].astype(np.int64)
    return lower.dot(upper) % p


def _front_end_cases():
    """name -> (matrix, column the +-1 phase stops at): inputs on which
    `pivot_lu_mod_p` eliminates over Z before its dense LU."""
    rng = np.random.default_rng(9)
    cases = {}
    wide = _sparse_unit(rng, 40, 70, 0.06)
    wide[:, 30:] += np.eye(40, dtype=np.int64)
    cases["sparse-wide"] = (wide, None)
    cases["sparse-tall"] = (_sparse_unit(rng, 70, 40, 0.1), 40)
    # column 1 is twice column 0 and column 3 is zero: no pivot in either
    skip = _sparse_unit(rng, 30, 50, 0.1)
    skip[:, 20:] += np.eye(30, dtype=np.int64)
    skip[:, 0] = 0
    skip[[3, 8, 17], 0] = [1, -1, 1]
    skip[:, 1] = 2 * skip[:, 0]
    skip[:, 3] = 0
    cases["zero-columns"] = (skip, None)
    # column 5 has nonzeros but no +-1 entry: the dense LU takes the rest
    stop = _sparse_unit(rng, 30, 45, 0.1)
    stop[:, 15:] += np.eye(30, dtype=np.int64)
    stop[:5, :5] = np.eye(5, dtype=np.int64)
    stop[5:, :5] = 0
    stop[:, 5] = 2 * rng.integers(-2, 3, size=30)
    stop[6, 5] = 3
    cases["no-unit-column"] = (stop, 5)
    # column 0 eliminates; column 1 would write 5 - 2^30 (2^30 + 1)
    big = 1 << 30
    cases["stop-at-2^31"] = (np.array([[1, 2, -1, 0, 1], [1, 3, big, 1, 0],
                                       [0, big, 5, 1, -1]]), 1)
    # rank 36 of 40: four rows are sums of two others
    deficient = _sparse_unit(rng, 40, 60, 0.08)
    deficient[:, 20:] += np.eye(40, dtype=np.int64)
    deficient[[10, 21, 32, 39]] = deficient[[1, 2, 3, 4]] + deficient[[5, 6, 7, 8]]
    cases["rank-deficient"] = (deficient, None)
    return cases


FRONT_END_CASES = _front_end_cases()


@pytest.mark.parametrize("p", [97, 1073741789])
def test_lu_mod_p_pivots_match_reference(p):
    rng = np.random.default_rng(5)
    mats = _kernel_inputs()
    mats += [_sparse_unit(rng, r, c) for r, c in ((7, 20), (25, 10), (40, 55))]
    mats.append(np.array([[0, 0, 2, 1], [0, 3, 1, 1], [0, 6, 2, 2]]))
    mats += _wide_and_tall()
    mats += [mat for mat, _ in FRONT_END_CASES.values()]
    for mat in mats:
        lu, perm, pivots = intlin.lu_mod_p(mat, p)
        assert pivots == _rref_mod_p_reference(mat, p)[1]
        assert np.array_equal(_rebuild(lu, perm, pivots, p),
                              np.mod(mat[perm], p).astype(object))
        n = mat.shape[0]
        if len(pivots) == n:
            # full row rank: lu[:, pivots] factors the pivot-column subsystem
            assert np.array_equal(_rebuild(lu[:, pivots], perm, range(n), p),
                                  np.mod(mat[perm][:, pivots], p).astype(object))
        # the +-1 phase first: the same pivot columns, P A[:, pivots] = L U
        lu, perm, front_pivots = intlin.pivot_lu_mod_p(mat, p)
        assert front_pivots == pivots
        assert np.array_equal(_rebuild(lu, perm, range(len(pivots)), p),
                              np.mod(mat[perm][:, pivots], p).astype(object))
    # the zero column, the dependent column and two dependent rows
    pivots = intlin.lu_mod_p(_wide_and_tall()[0], p)[2]
    assert len(pivots) == 68 and 5 not in pivots and 40 not in pivots
    # rank-deficient 3x3: the second row is twice the first
    _, _, pivots = intlin.lu_mod_p(np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), p)
    assert pivots == [0, 1]


@pytest.mark.parametrize("name", FRONT_END_CASES)
def test_unit_pivots_stop_column(name):
    mat, stop = FRONT_END_CASES[name]
    _, pivots, col = intlin._unit_pivots(np.array(mat, dtype=np.int64))
    assert pivots, "the +-1 phase eliminated nothing"
    if stop is not None:
        assert col == stop


def test_front_end_zero_columns_and_rank():
    mat = FRONT_END_CASES["zero-columns"][0]
    _, phase_pivots, col = intlin._unit_pivots(mat.astype(np.int64))
    # the phase passes the two columns without a pivot
    assert phase_pivots[:3] == [0, 2, 4] and col > 4
    pivots = intlin.pivot_lu_mod_p(mat, 1000003)[2]
    assert 1 not in pivots and 3 not in pivots and len(pivots) == 30
    pivots = intlin.pivot_lu_mod_p(FRONT_END_CASES["rank-deficient"][0], 1000003)[2]
    assert len(pivots) == 36


@pytest.mark.parametrize("name", FRONT_END_CASES)
def test_dixon_solve_on_front_end_inputs(name):
    mat = FRONT_END_CASES[name][0]
    p = 1000003
    n = mat.shape[0]
    b = np.random.default_rng(10).integers(-5, 6, size=n)
    pivots = _rref_mod_p_reference(mat, p)[1]
    if len(pivots) < n:
        with pytest.raises(ArithmeticError, match=f"rank {len(pivots)} < {n}"):
            intlin.dixon_solve(mat, b, p)
        return
    sol = intlin.dixon_solve(mat, b, p)
    assert all(x == 0 for j, x in enumerate(sol) if j not in pivots)
    den = math.lcm(*(x.denominator for x in sol))
    ax = np.asarray(mat).astype(object).dot([x * den for x in sol])
    assert ax.tolist() == [den * int(v) for v in b]


def test_integer_inverse_of_elementary_product():
    # (I - 2N)(I + 3N^T) with N the upper shift, rows rotated: the inverse
    # has entries near 2^24
    n = 10
    shift = np.eye(n, k=1, dtype=np.int64)
    mat = np.roll((np.eye(n, dtype=np.int64) - 2 * shift)
                  @ (np.eye(n, dtype=np.int64) + 3 * shift.T), 3, axis=0)
    x = intlin.integer_inverse(mat)
    assert np.array_equal(mat @ x, np.eye(n, dtype=np.int64))
    assert np.abs(x).max() > 1 << 15
    assert x.tolist() == sympy.Matrix(mat.tolist()).inv().tolist()


def test_integer_inverse_refuses_det_2():
    mat = np.array([[3, 1, 0], [1, 1, 0], [5, -2, 1]])    # det 2
    with pytest.raises(ArithmeticError, match="fails M X = I"):
        intlin.integer_inverse(mat)


def test_integer_inverse_refuses_singular_mod_p():
    p = next(intlin.prime_stream())
    mat = np.array([[p + 1, 1], [1, 1]])                 # det p
    with pytest.raises(ArithmeticError, match=f"singular mod {p}"):
        intlin.integer_inverse(mat)


def test_det_crt_exact():
    rng = np.random.default_rng(1)
    mat = rng.integers(-50, 50, size=(12, 12))
    det, primes, bound = intlin.det_crt(mat)
    # float64 det would lose the low digits here; sympy is exact
    assert det == sympy.Matrix(mat.tolist()).det()
    assert abs(det) <= bound
    assert len(primes) >= 1


def test_det_crt_singular():
    mat = np.ones((4, 4), dtype=np.int64)
    det, _, _ = intlin.det_crt(mat)
    assert det == 0


def _crt_cases():
    """name -> (matrix, columns the unit-pivot phase eliminates or None)."""
    rng = np.random.default_rng(6)
    cases = {"no-unit-pivot": (2 * rng.integers(-20, 21, size=(9, 9))
                               + 2 * np.eye(9, dtype=int), 0)}
    for n, density in ((10, 0.3), (16, 0.2), (24, 0.15)):
        cases[f"unit-{n}"] = (_sparse_unit(rng, n, n, density)
                              + np.eye(n, dtype=int), None)
    # column 0 eliminates; column 1 would write 5 - 2^30 (2^30 + 1)
    big = 1 << 30
    cases["stop-at-2^31"] = (np.array([[1, 2, -1], [1, 3, big], [0, big, 5]]), 1)
    # column 0's first +-1 lies in the densest row; pivoting on it leaves no
    # +-1 in column 1, while the sparsest row (3) lets all four eliminate
    cases["sparsest-pivot"] = (np.array([[-1, 2, 2, -1], [2, 1, 0, 1],
                                         [2, 1, 1, 0], [1, 1, 1, 0]]), 4)
    # column 1 is zero below the first pivot: singular, sign 0
    cases["skipped-column"] = (np.array([[1, 2, 0], [2, 4, 1], [0, 0, 1]]), 3)
    return cases


CRT_CASES = _crt_cases()


@pytest.mark.parametrize("name", CRT_CASES)
def test_det_crt_matches_sympy(name):
    mat, eliminated = CRT_CASES[name]
    want = sympy.Matrix(mat.tolist()).det()
    det, _, bound = intlin.det_crt(mat)
    assert det == want and abs(det) <= bound
    sign, schur = intlin.unit_pivot_reduce(mat)
    assert sign * sympy.Matrix(schur.tolist()).det() == want
    if eliminated is not None:
        assert schur.shape == (mat.shape[0] - eliminated,) * 2
    assert schur.size == 0 or np.abs(schur).max() < intlin.UNIT_PIVOT_LIMIT


def test_unit_pivot_reduce_refuses_large_input():
    mat = np.array([[1, 1 << 31], [0, 1]])
    sign, schur = intlin.unit_pivot_reduce(mat)
    assert sign == 1 and np.array_equal(schur, mat)


def test_hadamard_bound_is_a_bound():
    rng = np.random.default_rng(2)
    for _ in range(5):
        mat = rng.integers(-20, 20, size=(8, 8))
        det = round(np.linalg.det(mat.astype(float)))
        assert abs(det) <= intlin.hadamard_bound(mat)


def test_hadamard_bound_overflow_raises():
    peak = math.isqrt((1 << 63) // 4) + 1       # 4 * peak^2 >= 2^63
    mat = np.eye(4, dtype=np.int64)
    assert intlin.hadamard_bound(mat * (peak - 1)) == (peak - 1) ** 4 + 1
    mat[2, 3] = -peak
    with pytest.raises(OverflowError):
        intlin.hadamard_bound(mat)


def test_dixon_solve_rational_system():
    # [[2,0],[1,3]] against b = (1, 0): x = (1/2, -1/6)
    a = np.array([[2, 0], [1, 3]])
    sol = intlin.dixon_solve(a, np.array([1, 0]), 1000003)
    assert sol == [Fraction(1, 2), Fraction(-1, 6)]


def test_dixon_solve_rejects_early_reconstructions(monkeypatch):
    # numerators near 2*10^9 exceed sqrt(p/2) and sqrt(p^2/2), so the
    # reconstructions after one and two lifting steps fail or are wrong
    p = 1000003
    a = np.array([[3, 1], [1, 2]])
    want = [Fraction(1999999993, 5), Fraction(-999999979, 5)]
    for k in (1, 2):
        early = [intlin.rational_reconstruct(
            x.numerator * pow(x.denominator, -1, p ** k), p ** k) for x in want]
        assert early != want
    checks = []
    real = intlin._solves
    monkeypatch.setattr(intlin, "_solves",
                        lambda *args: checks.append(real(*args)) or checks[-1])
    assert intlin.dixon_solve(a, np.array([10 ** 9, 7]), p) == want
    assert checks == [False, False, True]     # after steps 1, 2 and 4


def test_dixon_solve_singular_raises():
    a = np.array([[1, 2], [1, 2]])
    with pytest.raises(ArithmeticError, match="rank 1 < 2 mod 1000003"):
        intlin.dixon_solve(a, np.array([1, 0]), 1000003)


def test_dixon_solve_wide_system_on_pivot_columns():
    # a zero column and a dependent column among the first n, so the
    # pivot columns are not a prefix
    rng = np.random.default_rng(8)
    n = 40
    a = rng.integers(-3, 4, size=(n, 60))
    a[:, 2] = 0
    a[:, 9] = a[:, 4] - 2 * a[:, 6]
    b = rng.integers(-5, 6, size=n)
    p = 1000003
    pivots = intlin.lu_mod_p(a, p)[2]
    assert len(pivots) == n and pivots != list(range(n))
    assert 2 not in pivots and 9 not in pivots
    sol = intlin.dixon_solve(a, b, p)
    assert len(sol) == a.shape[1]
    assert all(x == 0 for j, x in enumerate(sol) if j not in pivots)
    den = math.lcm(*(x.denominator for x in sol))
    ax = a.astype(object).dot([x * den for x in sol])
    assert ax.tolist() == [den * int(v) for v in b]


def _dict_rows(mat):
    return {i: {j: int(v) for j, v in enumerate(r) if v}
            for i, r in enumerate(mat.tolist())}


# each matrix's shape is its array's, so empty and zero rows or columns count
@pytest.mark.parametrize("mat,want", [
    ([[2, 0], [0, 3]], [1, 6]),
    ([[1, 0], [0, 1]], [1, 1]),
    ([[2, 4], [6, 8]], [2, 4]),
    # a zero row and a zero column ahead of the only +-1 entry
    ([[0, 0, 0], [0, 1, 2], [0, 3, 4]], [1, 2]),
    # one +-1 pivot, then a column with no +-1 entry
    ([[1, 1, 0], [1, 3, 2]], [1, 2]),
    # rank 2: the second row is twice the first
    ([[1, 2, 3], [2, 4, 6], [1, 0, 5]], [1, 2]),
    ([[4, 6, 0, 10]], [2]),
    ([[4], [6], [0]], [2]),
    ([[0, 0], [0, 0]], []),
    (np.zeros((0, 0), dtype=np.int64), []),
    (np.zeros((0, 3), dtype=np.int64), []),
    (np.zeros((2, 0), dtype=np.int64), []),
    # beyond int64: the whole matrix goes to the exact fallback
    (np.array([[2 ** 70, 3], [6, 9]], dtype=object), [1, 9 * 2 ** 70 - 18]),
])
def test_smith_normal_form_small(mat, want):
    mat = np.array(mat, dtype=object) if isinstance(mat, list) else mat
    assert intlin.smith_normal_form(_dict_rows(mat), *mat.shape) == want


def _sympy_invariant_factors(mat):
    dm = DomainMatrix.from_list_sympy(*mat.shape, mat.tolist()).convert_to(
        sympy.ZZ)
    return [abs(int(d)) for d in invariant_factors(dm) if d]


def test_smith_divisibility_chain():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        rows, cols = (int(x) for x in rng.integers(1, 13, size=2))
        if seed % 2:
            mat = (_sparse_unit(rng, rows, cols, 0.3)
                   * rng.integers(1, 4, size=(rows, cols)))
        else:
            mat = rng.integers(-6, 7, size=(rows, cols))
        if seed % 5 == 0:
            mat *= 2                                    # no +-1 entry
        if seed % 3 == 0:
            mat[:, rng.integers(cols)] = 0              # a zero column
        factors = intlin.smith_normal_form(_dict_rows(mat), rows, cols)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        assert factors == _sympy_invariant_factors(mat)
