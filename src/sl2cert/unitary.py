"""Numerical unitary toolkit: finite-order eigenprojectors, commutant
dimensions, and the constructive two-element diagonalizer with its
m^2/(k1 k2) intersection bound.

Everything here is float (complex128) with explicit tolerances; the exact
counterparts live in the character-table module and serve as oracles.
"""

from __future__ import annotations

import numpy as np

from .smallgroups import SmallGroup

TOL = 1e-8
UNITARY_TOL = 1e-10


class ToleranceError(Exception):
    pass


def assert_unitary(m: np.ndarray, tol: float = UNITARY_TOL * 100) -> None:
    err = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
    if err > tol:
        raise ToleranceError(f"matrix is not unitary (defect {err:.2e})")


def eigenprojectors(m: np.ndarray, n: int) -> list[tuple[complex, np.ndarray]]:
    """Spectral projectors of a unitary with m^n = 1.

    P_j = (1/n) sum_k zeta_n^{-jk} m^k.  Only projectors of nonzero rank are
    returned, in increasing order of j.
    """
    dim = m.shape[0]
    powers = [np.eye(dim, dtype=complex)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ m)
    if np.abs(powers[-1] @ m - powers[0]).max() > 1e-9:
        raise ToleranceError("matrix does not have the stated finite order")
    zeta = np.exp(2j * np.pi / n)
    out = []
    for j in range(n):
        p = sum(zeta ** (-j * k) * powers[k] for k in range(n)) / n
        rank = round(p.trace().real)
        if rank == 0:
            continue
        if np.abs(p @ p - p).max() > TOL:
            raise ToleranceError("projector is not idempotent within tolerance")
        out.append((zeta ** j, p))
    total = sum(p for _, p in out)
    if np.abs(total - np.eye(dim)).max() > TOL:
        raise ToleranceError("projectors do not resolve the identity")
    return out


def _range_basis(p: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Orthonormal basis (rows) of the range of a projector.

    Modified Gram-Schmidt over the projector columns with largest-norm
    pivoting; an optional rng pre-shuffles the columns (the result space is
    the same either way).
    """
    rank = round(p.trace().real)
    cols = [p[:, i].copy() for i in range(p.shape[0])]
    if rng is not None:
        rng.shuffle(cols)
    basis: list[np.ndarray] = []
    while len(basis) < rank:
        norms = [np.linalg.norm(c) for c in cols]
        i = int(np.argmax(norms))
        if norms[i] < UNITARY_TOL:
            raise ToleranceError("projector rank deficient under tolerance")
        v = cols.pop(i) / norms[i]
        basis.append(v)
        cols = [c - (v.conj() @ c) * v for c in cols]
    # rows are bra vectors: A rho A^* is then diagonal
    return np.array(basis).conj()


def commutant_dim(mats: list[np.ndarray]) -> int:
    """Complex dimension of {X : XA = AX for all A}, via stacked SVD."""
    m = mats[0].shape[0]
    eye = np.eye(m)
    ops = [np.kron(a, eye) - np.kron(eye, a.T) for a in mats]
    stacked = np.vstack(ops)
    sv = np.linalg.svd(stacked, compute_uv=False)
    cutoff = TOL * max(sv[0], 1.0)
    return int(np.sum(sv <= cutoff))


def commutant_basis(mats: list[np.ndarray]) -> list[np.ndarray]:
    """Matrices spanning the joint commutant (from SVD null vectors)."""
    m = mats[0].shape[0]
    eye = np.eye(m)
    ops = [np.kron(a, eye) - np.kron(eye, a.T) for a in mats]
    stacked = np.vstack(ops)
    _, sv, vh = np.linalg.svd(stacked)
    cutoff = TOL * max(sv[0] if len(sv) else 1.0, 1.0)
    null_rows = [i for i in range(vh.shape[0])
                 if i >= len(sv) or sv[i] <= cutoff]
    return [vh[i].conj().reshape(m, m) for i in null_rows]


def _group_commutant_basis(group: SmallGroup) -> list[np.ndarray]:
    basis = getattr(group, "_commutant_basis", None)
    if basis is None:
        basis = commutant_basis([group.rep(i) for i in range(group.n)])
        group._commutant_basis = basis
    return basis


def _block_diagonalizer(group: SmallGroup, g: int,
                        rng: np.random.Generator | None = None) -> np.ndarray:
    """Unitary A with A rho(g) A^-1 diagonal, computed block by block with
    the same diagonalizer reused on identical blocks."""
    n = group.order(g)
    per_rep: dict[str, np.ndarray] = {}
    parts = []
    for block in group.blocks:
        if block.rep_id not in per_rep:
            rows = []
            for _, proj in eigenprojectors(block.matrices[g], n):
                rows.append(_range_basis(proj, rng))
            per_rep[block.rep_id] = np.vstack(rows)
        parts.append(per_rep[block.rep_id])
    m = group.m
    out = np.zeros((m, m), dtype=complex)
    at = 0
    for part in parts:
        d = part.shape[0]
        out[at:at + d, at:at + d] = part
        at += d
    assert_unitary(out)
    return out


def lemma21_construct(group: SmallGroup, g1: int, g2: int,
                      rng: np.random.Generator | None = None):
    """Diagonalizers A1, A2 for rho(g1), rho(g2) with the intersection bound.

    Returns (A1, A2, intersection_dim, bound) where intersection_dim is the
    complex dimension of the joint commutant of the two diagonalized images
    and bound = m^2/(k1 k2) with k_i the eigenvalue counts.  The bound must
    hold; a violation raises.
    """
    a1 = _block_diagonalizer(group, g1, rng)
    a2 = _block_diagonalizer(group, g2, rng)
    r1 = group.rep(g1)
    r2 = group.rep(g2)
    d1 = a1 @ r1 @ a1.conj().T
    d2 = a2 @ r2 @ a2.conj().T
    if np.abs(d1 - np.diag(np.diag(d1))).max() > TOL:
        raise ToleranceError("A1 does not diagonalize rho(g1)")
    if np.abs(d2 - np.diag(np.diag(d2))).max() > TOL:
        raise ToleranceError("A2 does not diagonalize rho(g2)")
    k1 = len(eigenprojectors(r1, group.order(g1)))
    k2 = len(eigenprojectors(r2, group.order(g2)))
    # A1^-1 A2 must commute with the commutant of the whole image
    w = a1.conj().T @ a2
    for x in _group_commutant_basis(group):
        if np.abs(w @ x - x @ w).max() > TOL * 10:
            raise ToleranceError("A1^-1 A2 does not commute with the commutant")
    inter = commutant_dim([d1, d2])
    bound = group.m ** 2 / (k1 * k2)
    if inter + 1e-9 < bound:
        raise ToleranceError(
            f"intersection dim {inter} below bound {bound}")
    return a1, a2, inter, bound

