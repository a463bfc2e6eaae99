"""Small test groups with explicit unitary irreducible blocks.

Four surrogate groups (Q8, SL2(3) as the Hurwitz units, the dihedral group
of order 8, and C12) are supplied with hand-built unitary irreps from
standard constructions: the 2-dim quaternion irrep of SU(2), abelian
characters, the rotation action on the imaginary quaternions, and induced
dihedral 2-dim irreps.  Whenever a block is repeated in a BlockRep the
repeats are the *same* matrices, which is the alignment needed by the
diagonalizer construction.

Quaternions are stored as integer 4-tuples (2a, 2b, 2c, 2d) so that the
Hurwitz half-integer units stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Quat = tuple[int, int, int, int]


def quat_mul2(p: Quat, q: Quat) -> Quat:
    """Product of doubled quaternions, result again doubled."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    a = a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2
    b = a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2
    c = a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2
    d = a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2
    assert a % 2 == b % 2 == c % 2 == d % 2 == 0
    return (a // 2, b // 2, c // 2, d // 2)


def _quat_su2(p: Quat) -> np.ndarray:
    """a+bi+cj+dk -> [[a+bi, c+di], [-c+di, a-bi]] in SU(2)."""
    a, b, c, d = (x / 2 for x in p)
    return np.array([[a + 1j * b, c + 1j * d],
                     [-c + 1j * d, a - 1j * b]])


def _quat_rotation(p: Quat) -> np.ndarray:
    """Rotation of span{i,j,k} by unit quaternion conjugation (real 3x3)."""
    a, b, c, d = (x / 2 for x in p)
    return np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ], dtype=complex)


@dataclass
class Block:
    rep_id: str
    dim: int
    matrices: np.ndarray    # shape (n, dim, dim)


class SmallGroup:
    """Index-based group table with a list of unitary irreducible blocks."""

    def __init__(self, name: str, elements, mul_fn, blocks: list[Block]):
        self.name = name
        self.elements = list(elements)
        self.n = len(self.elements)
        index = {e: i for i, e in enumerate(self.elements)}
        self.table = np.array(
            [[index[mul_fn(x, y)] for y in self.elements] for x in self.elements],
            dtype=np.int32)
        self.identity = next(i for i in range(self.n)
                             if all(self.table[i, j] == j for j in range(self.n)))
        self.blocks = blocks
        self.m = sum(b.dim for b in blocks)

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(np.nonzero(self.table[i] == self.identity)[0][0])

    def order(self, i: int) -> int:
        n, j = 1, i
        while j != self.identity:
            j = self.mul(j, i)
            n += 1
        return n

    def rep(self, i: int) -> np.ndarray:
        """Block-diagonal unitary for element i."""
        m = self.m
        out = np.zeros((m, m), dtype=complex)
        at = 0
        for b in self.blocks:
            out[at:at + b.dim, at:at + b.dim] = b.matrices[i]
            at += b.dim
        return out


LIPSCHITZ: list[Quat] = [
    (2, 0, 0, 0), (-2, 0, 0, 0), (0, 2, 0, 0), (0, -2, 0, 0),
    (0, 0, 2, 0), (0, 0, -2, 0), (0, 0, 0, 2), (0, 0, 0, -2),
]

HURWITZ: list[Quat] = LIPSCHITZ + [
    (sa, sb, sc, sd)
    for sa in (1, -1) for sb in (1, -1) for sc in (1, -1) for sd in (1, -1)
]


def _char_matrices(values) -> np.ndarray:
    return np.array(values, dtype=complex).reshape(-1, 1, 1)


def quaternion_group() -> SmallGroup:
    """Q8 with blocks (4 abelian characters, the 2-dim irrep twice); m = 8."""
    elems = LIPSCHITZ
    # sign characters through the C2 x C2 quotient: chi(i) = s, chi(j) = t
    exps = {1: (1, 0), 2: (0, 1), 3: (1, 1)}   # exponents of (s, t) per axis

    def char(s, t):
        vals = []
        for q in elems:
            axis = next(i for i, x in enumerate(q) if x != 0)
            if axis == 0:
                vals.append(1)
            else:
                e1, e2 = exps[axis]
                vals.append((s ** e1) * (t ** e2))
        return vals

    two = np.stack([_quat_su2(q) for q in elems])
    blocks = [Block("triv", 1, _char_matrices(char(1, 1))),
              Block("chi_i", 1, _char_matrices(char(-1, 1))),
              Block("chi_j", 1, _char_matrices(char(1, -1))),
              Block("chi_k", 1, _char_matrices(char(-1, -1))),
              Block("two", 2, two), Block("two", 2, two)]
    return SmallGroup("Q8", elems, quat_mul2, blocks)


def binary_tetrahedral_group() -> SmallGroup:
    """SL2(3) as the 24 Hurwitz units; blocks of dims 1,1,1,2,2,2,3; m = 12."""
    elems = HURWITZ
    index = {q: i for i, q in enumerate(elems)}
    lipschitz = set(LIPSCHITZ)
    w = (1, 1, 1, 1)     # order-6 element; its square generates the C3 quotient
    # coset exponent in the C3 quotient SL2(3)/Q8
    coset = {}
    for q in elems:
        cur = q
        for t in range(3):
            if cur in lipschitz:
                coset[q] = t
                break
            cur = quat_mul2(cur, (-1, -1, -1, -1))   # shift coset by one
    omega = np.exp(2j * np.pi / 3)
    char_vals = [[omega ** (t * coset[q]) for q in elems] for t in range(3)]
    su2 = np.stack([_quat_su2(q) for q in elems])
    twos = [np.stack([su2[i] * char_vals[t][i] for i in range(24)])
            for t in range(3)]
    rot = np.stack([_quat_rotation(q) for q in elems])
    blocks = [Block("triv", 1, _char_matrices(char_vals[0])),
              Block("omega", 1, _char_matrices(char_vals[1])),
              Block("omega2", 1, _char_matrices(char_vals[2])),
              Block("su2", 2, twos[0]),
              Block("su2w", 2, twos[1]),
              Block("su2w2", 2, twos[2]),
              Block("rot", 3, rot)]
    g = SmallGroup("SL2_3", elems, quat_mul2, blocks)
    assert g.order(index[w]) == 6
    return g


def dihedral_group() -> SmallGroup:
    """D4 of order 8 with the 2-dim irrep duplicated; m = 8."""
    elems = [(a, b) for b in (0, 1) for a in range(4)]

    def mul(x, y):
        a1, b1 = x
        a2, b2 = y
        return ((a1 + (a2 if b1 == 0 else -a2)) % 4, (b1 + b2) % 2)

    def char(sr, ss):
        return [(sr ** a) * (ss ** b) for a, b in elems]

    r_mat = np.array([[1j, 0], [0, -1j]])
    s_mat = np.array([[0, 1], [1, 0]])
    two = np.stack([np.linalg.matrix_power(r_mat, a) @
                    np.linalg.matrix_power(s_mat, b) for a, b in elems])
    blocks = [Block("triv", 1, _char_matrices(char(1, 1))),
              Block("sgn_s", 1, _char_matrices(char(1, -1))),
              Block("sgn_r", 1, _char_matrices(char(-1, 1))),
              Block("sgn_rs", 1, _char_matrices(char(-1, -1))),
              Block("two", 2, two), Block("two", 2, two)]
    return SmallGroup("D4", elems, mul, blocks)


def cyclic_group(n: int = 12) -> SmallGroup:
    """C_n with all n characters; m = n."""
    elems = list(range(n))
    zeta = np.exp(2j * np.pi / n)
    blocks = [Block(f"chi{j}", 1, _char_matrices([zeta ** (j * k) for k in elems]))
              for j in range(n)]
    return SmallGroup(f"C{n}", elems, lambda x, y: (x + y) % n, blocks)


def all_test_groups() -> list[SmallGroup]:
    return [quaternion_group(), binary_tetrahedral_group(),
            dihedral_group(), cyclic_group(12)]
