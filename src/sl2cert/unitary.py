"""Numerical unitary toolkit: finite-order eigenprojectors and the
constructive two-element diagonalizer with its m^2/(k1 k2) intersection
bound.

The diagonalizers are float (complex128) witnesses with explicit
tolerances; the intersection dimension is an exact count of exponent pairs.
Each element's diagonalizer and the group's commutant basis are built and
checked once per group, in a memo that lives as long as the group and is
rebuilt when its blocks are replaced; a pair then costs one product and one
commutation check.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import Counter
from fractions import Fraction

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


def eigenprojectors(m: np.ndarray, n: int) -> list[tuple[int, np.ndarray]]:
    """Spectral projectors of a unitary with m^n = 1, as (j, P_j).

    P_j = (1/n) sum_k zeta_n^{-jk} m^k projects onto the eigenvalue
    zeta_n^j.  Only projectors of nonzero rank are returned, in increasing
    order of j.
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
        out.append((j, p))
    total = sum(p for _, p in out)
    if np.abs(total - np.eye(dim)).max() > TOL:
        raise ToleranceError("projectors do not resolve the identity")
    return out


def _range_basis(p: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the range of a projector.

    Modified Gram-Schmidt over the projector columns with largest-norm
    pivoting.
    """
    rank = round(p.trace().real)
    cols = [p[:, i].copy() for i in range(p.shape[0])]
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


def _commutant_basis(group: SmallGroup) -> np.ndarray:
    """E_st (x) I_d, stacked (k, m, m), for every pair of blocks s, t sharing
    a rep_id: by Schur's lemma the commutant of rho(G), once blocks sharing
    an id are checked equal and the character norm (1/|G|) sum_g
    |tr rho(g)|^2 equal to sum mult_id^2 (so no block is reducible or
    equivalent to one with another id)."""
    first: dict[str, np.ndarray] = {}
    starts: dict[str, list[int]] = {}
    at = 0
    for b in group.blocks:
        if not np.array_equal(first.setdefault(b.rep_id, b.matrices), b.matrices):
            raise ToleranceError(f"blocks sharing rep_id {b.rep_id!r} differ")
        starts.setdefault(b.rep_id, []).append(at)
        at += b.dim
    traces = sum(np.trace(b.matrices, axis1=1, axis2=2) for b in group.blocks)
    norm = np.sum(np.abs(traces) ** 2) / group.n
    if abs(norm - sum(len(s) ** 2 for s in starts.values())) > TOL:
        raise ToleranceError(f"character norm {norm:.6f}: a block is reducible "
                             "or equivalent to one with another rep_id")
    basis = []
    for rep_id, ss in starts.items():
        d = first[rep_id].shape[1]
        for s, t in itertools.product(ss, ss):
            x = np.zeros((group.m, group.m))
            x[s:s + d, t:t + d] = np.eye(d)
            basis.append(x)
    return np.array(basis)


def _block_diagonalizer(group: SmallGroup, g: int) -> tuple[np.ndarray, list[int]]:
    """Unitary A with A rho(g) A^-1 = diag(zeta_n^{e_i}) and the exponents e,
    computed block by block with the same diagonalizer reused on identical
    blocks."""
    n = group.order(g)
    per_rep: dict[str, tuple[np.ndarray, list[int]]] = {}
    out = np.zeros((group.m, group.m), dtype=complex)
    exps: list[int] = []
    at = 0
    for block in group.blocks:
        if block.rep_id not in per_rep:
            spaces = [(j, _range_basis(p))
                      for j, p in eigenprojectors(block.matrices[g], n)]
            per_rep[block.rep_id] = (np.vstack([rows for _, rows in spaces]),
                                     [j for j, rows in spaces for _ in rows])
        part, block_exps = per_rep[block.rep_id]
        out[at:at + block.dim, at:at + block.dim] = part
        exps += block_exps
        at += block.dim
    assert_unitary(out)
    want = np.diag(np.exp(2j * np.pi * np.array(exps) / n))
    if np.abs(out @ group.rep(g) @ out.conj().T - want).max() > TOL:
        raise ToleranceError(f"A does not diagonalize rho({g}) to its exponents")
    out.flags.writeable = False      # shared by every pair through the memo
    return out, exps


class _Witnesses:
    """A group's checked commutant basis and the checked diagonalizer of
    each element asked for so far.  Holds the group's block list, not the
    group, so the memo entry dies with its group."""

    def __init__(self, group: SmallGroup):
        self.blocks = group.blocks
        self.commutant = _commutant_basis(group)
        self.diagonalizers: dict[int, tuple[np.ndarray, list[int]]] = {}

    def diagonalizer(self, group: SmallGroup, g: int) -> tuple[np.ndarray, list[int]]:
        if g not in self.diagonalizers:
            self.diagonalizers[g] = _block_diagonalizer(group, g)
        return self.diagonalizers[g]


_WITNESSES: weakref.WeakKeyDictionary[SmallGroup, _Witnesses] = \
    weakref.WeakKeyDictionary()


def _witnesses(group: SmallGroup) -> _Witnesses:
    """The group's memo entry, rebuilt when `group.blocks` was replaced.  A
    build that raises stores nothing, so every later pair raises again."""
    wit = _WITNESSES.get(group)
    if wit is None or wit.blocks is not group.blocks:
        wit = _WITNESSES[group] = _Witnesses(group)
    return wit


def lemma21_construct(group: SmallGroup, g1: int, g2: int,
                      rng: np.random.Generator | None = None):
    """Diagonalizers A1, A2 for rho(g1), rho(g2) with the intersection bound.

    Returns (A1, A2, intersection_dim, bound): intersection_dim is the
    dimension of the joint commutant of the two diagonalized images, the sum
    of squared multiplicities of their eigenvalue pairs, and bound =
    Fraction(m^2, k1 k2) with k_i the eigenvalue counts.  A violation raises.
    A1 and A2 are read-only and shared with every other pair of the group.
    `rng` does nothing: the witnesses depend on no seed.
    """
    wit = _witnesses(group)
    a1, e1 = wit.diagonalizer(group, g1)
    a2, e2 = wit.diagonalizer(group, g2)
    # A1^-1 A2 must commute with the commutant of the whole image
    w = a1.conj().T @ a2
    if np.abs(w @ wit.commutant - wit.commutant @ w).max() > TOL * 10:
        raise ToleranceError("A1^-1 A2 does not commute with the commutant")
    inter = sum(c * c for c in Counter(zip(e1, e2)).values())
    bound = Fraction(group.m ** 2, len(set(e1)) * len(set(e2)))
    if inter < math.ceil(bound):
        raise ToleranceError(f"intersection dim {inter} below bound {bound}")
    return a1, a2, inter, bound
