"""Exact Z[G]-module layer of H1 of the orbit graph (G = PSL2(q)).

Write Lambda = Z[G] and A = Q[G] = sum_C A_C over the Galois classes C of
irreducible characters of G; A_C is the simple component of a class, a
matrix algebra M_d(K) over the character field K of its members.  For a
class vector y of H1 = H1(Gamma; Z), the pairing matrix M(y) is the matrix
of Lambda -> H1, a -> a.y, and y generates H1 exactly when det M(y) = +-1.

Block determinants.  Let x = sum_{h in H} psi(h) h for a stabilizer H and
a linear character psi: H -> {+-1} whose induced character contains every
non-trivial irreducible exactly once (`rank_one_element`).  Then
eps_C = e_C x has K-rank one in A_C (eps_C = e_C for the trivial class),
and the Z-lattices eps_C Lambda and eps_C H1 have rank m = d [K:Q].  The
map T_y: eps_C Lambda -> eps_C H1, u -> u.y has an integer determinant
s_C(y) (`Block.det`), the norm of the reduced norm of the C-block of y,
and

    det M(y) = +- prod_C s_C(y)^d_C,

so y generates H1 exactly when every s_C(y) is +-1.  Each s_C is an exact
determinant of an m x m integer matrix (m <= 36 at q = 13); the lattice
determinants that normalize it are computed once per graph.

Repair (`repair`).  For a class y with every s_C(y) prime to |G| and
winding +-1, the moves y -> y + x.h (h in H1) change every non-trivial
block by a K-rank-one matrix with a common row, so every reduced norm is
affine in the move: nrd_C(y + sum_j t_j x.e_j) = nrd_C(y) (1 + sum_j t_j
w_{C,j}) with w_{C,j} in K_C.  In the coordinates of the fractional ideal
generated by these values the achievable norms form one lattice L in
Z^D, D = sum_C [K_C:Q], and y + x.H1 holds a generator exactly when some
tuple of units (+-1 for rational classes, a box of products of small
units of O_K otherwise) lands in the target class of Z^D / L.  A search
over the finite group Z^D / L finds the tuple; a short integer solution t
is read off an LLL-reduced basis (sympy's exact LLL).  No floating point
takes part: every matrix, ideal and unit is exact, and float64 appears only
in sums and products of integer arrays that are checked to stay below 2^53
(`_scatter`, `intlin._exact_matmul`).

Exact linear algebra.  Determinants, solves, inverses and characteristic
polynomials over Z and Q use sympy's DomainMatrix (domains ZZ and QQ).  The
lattice code stays here: Hermite bases (`hnf_rows`), covolumes modulo a
bound (`lattice_det`: int64 generator rows, deduplicated, then one
gcd-pivot array step per column modulo a multiple of the covolume) and the
LLL reduction in the trace form of K, which sympy's LLL (standard inner
product only) does not cover.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from sympy import QQ, ZZ
from sympy.polys.euclidtools import dup_discriminant
from sympy.polys.matrices import DomainMatrix

from .cyclo import Cyclo
from .groups import ClassLabel, _closure
from .intlin import _exact_matmul, _mod_float, lu_mod_p

_PRIME = 1000003          # independence tests mod p
_SCATTER_COLUMNS = 256    # columns per bincount in _scatter


# -- small exact linear algebra ---------------------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def hnf_rows(vectors) -> list[list[int] | None]:
    """Upper-triangular basis (positive pivots) of the Z-span of integer vectors.

    Entry i is the basis row with pivot in column i, or None when the span
    has no such row.  Repeated rows and negatives of earlier rows are
    dropped first; the reduced basis is unique, so it does not change.
    """
    distinct: dict[tuple[int, ...], None] = {}
    for key in (tuple(int(a) for a in vec) for vec in vectors):
        if tuple(-a for a in key) not in distinct:
            distinct.setdefault(key)
    if not distinct:
        return []
    k = len(next(iter(distinct)))
    basis: list[list[int] | None] = [None] * k
    for key in distinct:
        v = list(key)
        for i in range(k):
            if v[i] == 0:
                continue
            if basis[i] is None:
                basis[i] = v if v[i] > 0 else [-a for a in v]
                break
            a, b = basis[i][i], v[i]
            g, s, t = _xgcd(a, b)
            row = basis[i]
            basis[i] = [s * p + t * q for p, q in zip(row, v)]
            v = [(a // g) * q - (b // g) * p for p, q in zip(row, v)]
    for i in range(k):
        if basis[i] is None:
            continue
        for j in range(i):
            if basis[j] is not None:
                q = basis[j][i] // basis[i][i]
                if q:
                    basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
    return basis


def lattice_det(gens, bound: int) -> int:
    """Covolume of the full-rank lattice spanned by the rows of an int64 array.

    `bound` must be a multiple of the covolume (the determinant of any full
    sublattice): the elimination runs modulo it, valid as bound * Z^m then
    lies in the lattice.  Zero rows are dropped, rows signed to a positive
    first nonzero entry and repeated rows removed (`np.unique`); only the
    distinct rows are reduced modulo `bound`, into an object array.  Column i
    takes one step of the modular Hermite elimination (Cohen, Alg. 2.4.8):
    rows are merged by `_xgcd` into the pivot bound * e_i (a merged row keeps
    its cofactor combination) until its entry is g = gcd(bound, column i);
    one outer-product update modulo `bound` clears column i in the other
    rows; g multiplies the covolume.
    """
    a = np.asarray(gens, dtype=np.int64)
    a = a[np.any(a != 0, axis=1)]
    lead = a[np.arange(len(a)), np.argmax(a != 0, axis=1)]
    a = np.unique(a * np.sign(lead)[:, None], axis=0).astype(object) % bound
    det = 1
    for _ in range(a.shape[1]):
        g = math.gcd(bound, *a[:, 0])
        pivot = np.zeros(a.shape[1], dtype=object)
        pivot[0] = bound
        for r in np.flatnonzero(a[:, 0]):
            if pivot[0] == g:
                break
            p, v = pivot[0], a[r, 0]
            h, s, t = _xgcd(p, v)
            pivot, a[r] = ((s * pivot + t * a[r]) % bound,
                           ((p // h) * a[r] - (v // h) * pivot) % bound)
        a = (a[:, 1:] - np.outer(a[:, 0] // g, pivot[1:])) % bound
        a = a[np.any(a != 0, axis=1)]
        det *= g
    return det


def _compress(mat: np.ndarray, count: int) -> np.ndarray:
    """mat @ mix mod p, as float64 residues, for the fixed pseudo-random
    matrix mix (seed 0) of count + 4 columns: one exact float64 product."""
    mix = np.random.default_rng(0).integers(0, _PRIME, size=(mat.shape[1], count + 4))
    return _mod_float(_exact_matmul(np.asarray(mat, dtype=np.float64), mix), _PRIME)


def _translates(layer: "ModuleLayer", eps: np.ndarray, gs, hs) -> np.ndarray:
    """(eps.g)[h] = eps[h g^-1] for g in gs (rows) and h in hs (columns)."""
    return eps[layer.graph.psl.products(np.asarray(hs)[None, :], layer.inv[gs][:, None])]


def _independent_rows(rows, count: int, n: int, size: int) -> np.ndarray:
    """Least `count` indices i < n of rows that are independent mod p, on
    prefixes of size, 2 size, ... rows: rows(s) gives the first s rows
    compressed (`_compress`).  First-nonzero pivoting picks the least
    independent rows of a prefix, the least of all rows restricted to it."""
    while True:
        piv = lu_mod_p(rows(min(size, n)).T, _PRIME)[2]
        if len(piv) >= count or size >= n:
            break
        size *= 2
    if len(piv) < count:
        raise ArithmeticError(f"only {len(piv)} of {count} independent rows")
    return np.array(piv[:count])


def _scatter(layer: "ModuleLayer", cols: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Columns sum_g weights[g] e_{rows[g, c]} (c in cols), n_edges x len(cols).

    float64 sums of integers, exact while sum |weights| < 2^53.  One
    bincount per _SCATTER_COLUMNS columns bounds its index and weight
    temporaries.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if np.abs(weights).sum() >= 2 ** 53:
        raise OverflowError("scatter weights are not below 2^53")
    out = np.empty((layer.n_edges, len(cols)))
    for c0 in range(0, len(cols), _SCATTER_COLUMNS):
        part = cols[c0:c0 + _SCATTER_COLUMNS]
        w = len(part)
        flat = layer.rows[:, part].astype(np.intp) * w + np.arange(w)
        out[:, c0:c0 + w] = np.bincount(flat.ravel(), np.repeat(weights, w),
                                        minlength=layer.n_edges * w).reshape(-1, w)
    return out


# -- characters, idempotents and the rank-one element ----------------------------


@dataclass
class GaloisClass:
    """Galois orbit of irreducible characters of PSL2(q)."""
    members: tuple[str, ...]
    degree: int

    @property
    def name(self) -> str:
        return "+".join(self.members)

    @property
    def field_degree(self) -> int:
        return len(self.members)


def _galois(v: Cyclo, a: int) -> Cyclo:
    v = v.reduce()
    return Cyclo(v.n, {e * a % v.n: c for e, c in v.coeffs.items()})


def galois_classes(table) -> list[GaloisClass]:
    """Characters trivial on z, grouped into orbits of Gal(Q(zeta_N)/Q)."""
    z = ClassLabel("z")
    chars = [ch for ch in table.characters if ch.values[z] == ch.degree]
    conductor = 1
    for ch in chars:
        for v in ch.values.values():
            conductor = conductor * v.n // math.gcd(conductor, v.n)
    units = [a for a in range(2, 60) if math.gcd(a, conductor) == 1][:8]
    parent = list(range(len(chars)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i
    for i, ch in enumerate(chars):
        for a in units:
            image = {lab: _galois(v, a) for lab, v in ch.values.items()}
            for j, other in enumerate(chars):
                if all(image[lab] == other.values[lab] for lab in table.labels):
                    parent[find(j)] = find(i)
                    break
    orbits: dict[int, list[str]] = {}
    for i, ch in enumerate(chars):
        orbits.setdefault(find(i), []).append(ch.name)
    return [GaloisClass(tuple(names), table[names[0]].degree)
            for names in orbits.values()]


def central_element(table, labels, gclass: GaloisClass, inv) -> np.ndarray:
    """Primitive integer vector proportional to the central idempotent e_C.

    n e_C = sum_g (sum_{chi in C} chi(1) chi(g^-1)) g has rational integer
    coefficients; the vector is divided by their content.
    """
    n = len(labels)
    cache: dict[ClassLabel, int] = {}
    out = np.empty(n, dtype=np.int64)
    for g in range(n):
        lab = labels[int(inv[g])]
        if lab not in cache:
            s = Cyclo.zero()
            for name in gclass.members:
                s = s + table[name].values[lab] * gclass.degree
            cache[lab] = s.as_int()
        out[g] = cache[lab]
    return out // math.gcd(*(int(v) for v in out))


def group_product(table, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b in Z[G] on coefficient arrays indexed by `table`, exact at any size
    on object arrays: a loop over the support of the sparser factor, with one
    permutation from `table.left_mul` or `table.right_mul` per term."""
    dtype = np.result_type(a, b)
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    out = np.zeros(len(a), dtype=dtype)
    if np.count_nonzero(a) < np.count_nonzero(b):      # sum_g a(g) b(g^-1 w)
        for g in np.flatnonzero(a):
            out += a[g] * b[table.left_mul(table.inv(int(g)))]
    else:                                               # sum_h a(w h^-1) b(h)
        for h in np.flatnonzero(b):
            out += b[h] * a[table.right_mul(table.inv(int(h)))]
    return out


def rank_one_element(graph, table, labels) -> np.ndarray:
    """x = sum_{h in H} psi(h) h inducing every non-trivial irreducible once.

    H runs over the vertex and edge stabilizers (as PSL subgroups), psi over
    the trivial character and the sign characters of index-2 subgroups.
    """
    psl = graph.psl
    z = ClassLabel("z")
    chars = [ch for ch in table.characters if ch.values[z] == ch.degree]
    subgroups = [stab.elements for stab in graph.vertex_stabs.values()]
    subgroups += [eo.stabilizer.elements for eo in graph.edge_orbits.values()]
    for sl_elems in subgroups:
        h = sorted({graph.proj(i) for i in sl_elems})
        squares = set(_closure(psl, sorted({psl.mul(a, a) for a in h})))
        kernels, seen = [set(h)], set()
        for a in h:
            if a not in seen:           # one candidate per coset aS
                coset = {psl.mul(a, s) for s in squares}
                seen |= coset
                k = squares | coset     # <S, a>: S is normal in H and holds a^2
                if 2 * len(k) == len(h) and k not in kernels:
                    kernels.append(k)
        for kernel in kernels:
            mults = []
            for ch in chars:
                s = Cyclo.zero()
                for a in h:
                    v = ch.values[labels[a]]
                    s = s + (v if a in kernel else -v)
                mults.append(s.as_rational() / len(h))
            if all(m == (0 if ch.degree == 1 else 1) for m, ch in zip(mults, chars)):
                x = np.zeros(len(labels), dtype=np.int64)
                for a in h:
                    x[a] = 1 if a in kernel else -1
                return x
    raise ValueError("no stabilizer character induces every irreducible once")


# -- blocks ---------------------------------------------------------------------


class Block:
    """Block determinant s_C for one Galois class (see the module docstring).

    T_y is written in the coordinates J of eps.H1 and the rows eps.g_k: the
    translates (eps.g)[h] = eps[h g^-1] of the least m elements g_k whose
    translates are independent mod p, found on prefixes of G."""

    def __init__(self, layer: "ModuleLayer", gclass: GaloisClass, eps: np.ndarray):
        self.gclass = gclass
        self.name = gclass.name
        self.k = gclass.field_degree
        self.d = gclass.degree
        self.m = gclass.degree * self.k if gclass.degree > 1 else 1
        self.eps = eps
        n, every = layer.n, np.arange(layer.n)
        # coordinates J of eps.H1: rows i of P with P[i, j] = (eps.e_j)[i];
        # P = B^T fund^T with B the scatter of eps, compressed as B^T (fund^T mix)
        y = _compress(layer.fund_f.T, self.m)
        z = _mod_float(_exact_matmul(_scatter(layer, every, eps).T, y), _PRIME)
        self.J = _independent_rows(lambda s: z[:s], self.m, n, n)
        # the m x b1 rows P[J] themselves
        pj = _exact_matmul(layer.fund_f, _scatter(layer, self.J, eps)).astype(np.int64).T
        # g_k on prefixes of G of 4m, 8m, ... elements
        self.gk = _independent_rows(lambda s: _compress(
            _translates(layer, eps, every[:s], every), self.m), self.m, n, 4 * self.m)
        self.egk = _translates(layer, eps, self.gk, every)
        cols = lu_mod_p(self.egk, _PRIME)[2]
        d_lam = abs(DomainMatrix.from_list(self.egk[:, cols].tolist(), ZZ).det())
        det_lam = lattice_det(_translates(layer, eps, every, cols), d_lam)
        jk = lu_mod_p(pj, _PRIME)[2]
        d_h = abs(DomainMatrix.from_list(pj[:, jk].tolist(), ZZ).det())
        det_h = lattice_det(pj.T, d_h)
        self.kappa = Fraction(det_h * d_lam, det_lam)
        self._moves = None

    def x0(self, layer: "ModuleLayer", edge_vec: np.ndarray) -> np.ndarray:
        """Matrix of T_y in the rows eps.g_k and the coordinates J."""
        return self.egk @ edge_vec[layer.rows[:, self.J]]

    def moves(self, layer: "ModuleLayer"):
        """(bm, F, C), the parts of the repair's moves that do not depend on
        the class y, built on the first call: bm the first k independent
        rows of ex = (eps.g_k) x, F = ex[:, cols] bm[:, cols]^-1 over QQ, and
        the n x k x m integer array C_j[i, :] = sum_x bm[i, x] fund[j, rows[x, J]].
        """
        if self._moves is None:
            k, m = self.k, self.m
            psl, x = layer.graph.psl, layer.x
            # ex = (eps.g_k) x, row by row (a x)[w] = sum_h a[w h^-1] x[h]
            ex = sum(x[h] * self.egk[:, psl.right_mul(psl.inv(int(h)))]
                     for h in np.flatnonzero(x))
            idx = lu_mod_p(ex.T, _PRIME)[2]
            if len(idx) != k:
                raise RepairFailed(f"block {self.name}: x has rank {len(idx)}, not {k}")
            bm = ex[idx]
            cols = lu_mod_p(bm, _PRIME)[2]
            binv = DomainMatrix.from_list(bm[:, cols].tolist(), QQ).inv()
            f = DomainMatrix.from_list(ex[:, cols].tolist(), QQ) * binv
            call = np.empty((layer.n, k, m), dtype=np.int64)
            for i in range(k):
                call[:, i, :] = _exact_matmul(layer.fund_f,
                                              _scatter(layer, self.J, bm[i]))
            self._moves = bm, f, call
        return self._moves

    def det(self, layer: "ModuleLayer", edge_vec: np.ndarray) -> int:
        x0 = DomainMatrix.from_list(self.x0(layer, edge_vec).tolist(), ZZ)
        v = Fraction(x0.det()) / self.kappa
        if v.denominator != 1:
            raise ArithmeticError(f"block {self.name}: non-integral determinant {v}")
        return v.numerator


class ModuleLayer:
    """Galois classes, idempotents and block determinants for one graph."""

    def __init__(self, graph, cycles, table):
        self.graph = graph
        psl = graph.psl
        self.n = psl.n
        self.n_edges = graph.n_edges
        self.inv = cycles.inv
        self.rows = cycles.pairing_rows
        self.trans = cycles.trans
        self.fund = np.array([cycles.fundamental_cycle(int(e))
                              for e in cycles.non_tree])
        self.fund_f = self.fund.astype(np.float64)
        self.labels = [graph.sl.labels[graph.proj.lift(i)] for i in range(self.n)]
        self.table = table
        self.classes = galois_classes(table)
        self.x = rank_one_element(graph, table, self.labels)
        self.blocks: list[Block] = []
        for gc in self.classes:
            ce = central_element(table, self.labels, gc, self.inv)
            if gc.degree == 1:
                eps = ce
            else:
                eps = group_product(psl, ce, self.x)
                eps //= math.gcd(*(int(v) for v in eps))
            self.blocks.append(Block(self, gc, eps))
        self._fields: dict[str, _FieldData] = {}

    def edge_vector(self, cls: np.ndarray) -> np.ndarray:
        return cls @ self.fund

    def dets(self, cls: np.ndarray) -> dict[str, int]:
        vec = self.edge_vector(cls)
        return {b.name: b.det(self, vec) for b in self.blocks}

    def log_abs_det(self, dets: dict[str, int]) -> float:
        """log|det M(y)| = sum_C d_C log|s_C(y)| (a diagnostic, not a decision)."""
        total = 0.0
        for b in self.blocks:
            s = dets[b.name]
            if s == 0:
                return float("inf")
            total += b.d * math.log(abs(s))
        return total

    def non_units(self, dets: dict[str, int]) -> list[str]:
        return [name for name, s in dets.items() if abs(s) != 1]

    def act(self, a: np.ndarray, cls: np.ndarray) -> np.ndarray:
        """Class of a.y for a in Z[G]."""
        return a @ self.edge_vector(cls)[self.rows]

    def conjugacy_classes(self) -> list[np.ndarray]:
        """The conjugacy classes of G, each sorted, in order of their least element."""
        if not hasattr(self, "_classes"):
            psl, every = self.graph.psl, np.arange(self.n)
            least = np.full(self.n, -1)
            for g in range(self.n):
                if least[g] < 0:
                    least[psl.products(psl.products(every, g), self.inv)] = g
            self._classes = [np.flatnonzero(least == g) for g in np.unique(least)]
        return self._classes

    def field(self, block: Block, charpoly) -> _FieldData:
        if block.name not in self._fields:
            self._fields[block.name] = _field_data(charpoly)
        return self._fields[block.name]


# -- repair: one affine family of moves for all blocks ---------------------------


def _krylov(mat: DomainMatrix, vec) -> DomainMatrix:
    """The matrix over QQ with columns vec, mat vec, ..., mat^(k-1) vec."""
    cols = [DomainMatrix.from_list([[v] for v in vec], QQ)]
    for _ in range(mat.shape[0] - 1):
        cols.append(mat * cols[-1])
    return cols[0].hstack(*cols[1:])


@dataclass
class _FieldData:
    """Intrinsic data of a character field K = Q(eta), O_K = Z[eta]."""
    powers: np.ndarray     # (k, k, k) ints: multiplication by eta^j in eta-coordinates
    gram: np.ndarray       # (k, k) ints: the trace form Tr(eta^(i+j))
    units: list            # eta-coordinates of units, small products first

    def matrices(self, a) -> np.ndarray:
        """Matrices of multiplication by each row a = sum_j a_j eta^j."""
        return np.tensordot(np.asarray(a, dtype=object), self.powers, axes=1)

    def matrix(self, a) -> DomainMatrix:
        """Matrix of multiplication by a (columns a eta^j), over QQ."""
        return DomainMatrix.from_list(self.matrices([a])[0].tolist(), QQ)

    def norms(self, a) -> np.ndarray:
        """N(a) = det of the matrix of a, for each integer row a."""
        return np.array([DomainMatrix.from_list(m.tolist(), ZZ).det()
                         for m in self.matrices(a)], dtype=object)

    def trace_form(self, a, b) -> Fraction:
        """Tr(a b) = sum_ij a_i b_j Tr(eta^(i+j))."""
        return Fraction(np.asarray(a, dtype=object) @ self.gram
                        @ np.asarray(b, dtype=object))


def _field_data(charpoly) -> _FieldData:
    """Field data for the characteristic polynomial of eta, listed from t^k down."""
    k = len(charpoly) - 1
    mult = np.array([[int(i == j + 1) for j in range(k)] for i in range(k)], dtype=object)
    mult[:, k - 1] = [-int(charpoly[k - i]) for i in range(k)]
    eta_powers = [np.eye(k, dtype=np.int64).astype(object)]
    for _ in range(2 * k - 2):
        eta_powers.append(mult.dot(eta_powers[-1]))
    gram = np.array([[np.trace(eta_powers[i + j]) for j in range(k)] for i in range(k)],
                    dtype=object)
    fd = _FieldData(np.array(eta_powers[:k]), gram, [])
    if k == 1:
        fd.units = [(1,), (-1,)]
        return fd
    # generators: the smallest units (up to sign) with coordinates in [-2, 2]
    cands = np.array(list(itertools.product(range(-2, 3), repeat=k)), dtype=object)
    cands = cands[cands[:, 1:].any(axis=1)]
    cands = cands[np.abs(fd.norms(cands)) == 1]
    gens = []
    for _, co in sorted((fd.trace_form(co, co), co) for co in map(tuple, cands.tolist())):
        if all(co != g and tuple(-c for c in co) != g for g in gens):
            gens.append(co)
        if len(gens) == k:
            break
    # box of exponents: (2E+1)^k products, both signs
    span = {2: 12, 3: 5}.get(k, 3)
    # unit matrices are integral with integral inverses: int64 products suffice
    powers = []
    for g in gens:
        mat = fd.matrix(g)
        inv = np.array(mat.inv().convert_to(ZZ).to_list(), dtype=np.int64)
        mat = np.array(mat.convert_to(ZZ).to_list(), dtype=np.int64)
        table = {0: np.eye(k, dtype=np.int64)}
        for e in range(1, span + 1):
            table[e] = table[e - 1] @ mat
            table[-e] = table[-e + 1] @ inv
        powers.append(table)
    units = []
    for ex in sorted(itertools.product(range(-span, span + 1), repeat=len(gens)),
                     key=lambda e: sum(abs(t) for t in e)):
        mat = np.eye(k, dtype=np.int64)
        for table, e in zip(powers, ex):
            mat = mat @ table[e]
        a = tuple(int(v) for v in mat[:, 0])
        units += [a, tuple(-c for c in a)]
    fd.units = units
    return fd


def _lll(basis, gram):
    """Exact LLL (delta = 3/4) of a few rational vectors."""
    b = [list(r) for r in basis]
    k = len(b)

    def gso():
        bs, mu, norms = [], [[Fraction(0)] * k for _ in range(k)], []
        for i in range(k):
            v = list(b[i])
            for j in range(i):
                mu[i][j] = gram(b[i], bs[j]) / norms[j]
                v = [x - mu[i][j] * y for x, y in zip(v, bs[j])]
            bs.append(v)
            norms.append(gram(v, v))
        return mu, norms
    i = 1
    while i < k:
        mu, norms = gso()
        for j in range(i - 1, -1, -1):
            q = round(mu[i][j])
            if q:
                # b_i -= q b_j leaves the orthogonalized vectors unchanged
                b[i] = [x - q * y for x, y in zip(b[i], b[j])]
                for l in range(j):
                    mu[i][l] -= q * mu[j][l]
                mu[i][j] -= q
        if norms[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * norms[i - 1]:
            i += 1
        else:
            b[i], b[i - 1] = b[i - 1], b[i]
            i = max(i - 1, 1)
    return b


class RepairFailed(Exception):
    """The affine family through this class holds no generator."""


def _block_moves(layer: "ModuleLayer", block: Block, vec_y: np.ndarray):
    """W_j (k x k) with nrd(y + t x.e_j) = nrd(y) det(I + t W_j), and W(h)."""
    k, m = block.k, block.m
    bm, f, call = block.moves(layer)
    x0 = DomainMatrix.from_list(block.x0(layer, vec_y).tolist(), QQ)
    sf = x0.lu_solve(f)                                       # S^-1 F, m x k
    den, sfi = sf.clear_denoms(convert=True)
    den, sfi = den.element, np.array(sfi.to_list(), dtype=object)
    wall = call.reshape(layer.n * k, m).astype(object).dot(sfi).reshape(layer.n, k, k)

    def w_of(edge_vec):
        # |bm| and |edge_vec| stay far below 2^20 here, so int64 is exact
        c = bm @ edge_vec[layer.rows[:, block.J]]
        return DomainMatrix.from_list(c.tolist(), QQ) * sf
    # first columns W_j e1 as integer numerators over den
    return wall[:, :, 0], den, w_of


def _eta_matrix(layer, block, w_of):
    """The matrix of eta = chi(c) for the class c giving the smallest discriminant."""
    if block.k == 1:
        return DomainMatrix.eye(1, QQ), [QQ(1), QQ(-1)]
    ch = layer.table[block.gclass.members[0]]
    base = None
    for j in range(layer.n):
        w = w_of(layer.fund[j])
        if w.det() != 0:
            base, w0inv = j, w.inv()
            break
    best = None
    for cls in layer.conjugacy_classes():
        acc = np.zeros(layer.n_edges, dtype=np.int64)
        for g in cls:
            acc += layer.fund[base][layer.trans[int(layer.inv[g])]]
        eta = w0inv * w_of(acc) * QQ(ch.degree, len(cls))
        cp = eta.charpoly()
        if any(c.denominator != 1 for c in cp):
            continue
        disc = dup_discriminant(cp, QQ)
        if disc != 0 and (best is None or abs(disc) < abs(best[0])):
            best = (disc, eta, cp)
    if best is None:
        raise RepairFailed(f"block {block.name}: no class sum generates the field")
    return best[1], best[2]


def _ideal_coordinates(fd: _FieldData, w_cols, w_den: int, eta):
    """Integer coordinates of the W_j e1 in the basis z0 eta^t of O_K Lambda_z.

    Lambda_z = span{1, W_j}; its O_K-hull is (1/alpha) O_K when nrd(y) =
    alpha is prime to the moves, and z0 generates it.
    """
    k = eta.shape[0]
    # columns eta^t e1: the basis eta^t of K in the coordinates of the W_j
    basis_eta = _krylov(eta, [1] + [0] * (k - 1))
    bo_den, bo_inv = basis_eta.inv().clear_denoms(convert=True)
    # eta-coordinates of W_j e1, as integer numerators over den
    den = bo_den.element * w_den
    coords = w_cols.astype(object).dot(np.array(bo_inv.to_list(), dtype=object).T)
    block = np.concatenate([np.array([[den] + [0] * (k - 1)], dtype=object), coords])
    hb = hnf_rows(np.concatenate([block.dot(pw.T) for pw in fd.powers]).tolist())
    if any(r is None for r in hb):
        raise RepairFailed("moves do not span the field")
    norm = Fraction(math.prod(r[i] for i, r in enumerate(hb)), den ** k)
    # the basis is hb / den; LLL is unchanged by the common scale
    basis = np.array(_lll(hb, fd.trace_form), dtype=object)
    # candidates a = co . basis / den: |N(a)| = norm, least Tr(a^2) first found
    cands = np.array([co for co in itertools.product(range(-3, 4), repeat=k) if any(co)],
                     dtype=object).dot(basis)
    best = None
    for a in cands[np.abs(fd.norms(cands)) == norm * den ** k]:
        tr = fd.trace_form(a, a)
        if best is None or tr < best[0]:
            best = (tr, [Fraction(int(v), den) for v in a])
    if best is None:
        raise RepairFailed("no generator of the ideal found")
    # the columns of the matrix of z0 are z0 eta^t
    nb_inv = fd.matrix(best[1]).inv()
    nb_den, nb_num = nb_inv.clear_denoms(convert=True)
    nb_den = nb_den.element
    scaled = coords.dot(np.array(nb_num.to_list(), dtype=object).T)
    if any(int(v) % (nb_den * den) for v in scaled.flat):
        raise RepairFailed("move outside the ideal")
    lg = (scaled // (nb_den * den)).tolist()
    one = [int(r[0]) for r in nb_inv.to_list()]
    return lg, one, norm


def _short_solution(gens: list[list[int]], target: list[int], index: int) -> dict[int, int]:
    """Small integer t with sum_j t_j gens[j] = target (target in the span).

    The shortest distinct generators that already span the lattice enter an
    exact LLL reduction of the embedding [e_j | K gens_j], [0, 1 | -K target];
    a reduced vector with zero tail gives the solution.
    """
    distinct: dict[tuple[int, ...], int] = {}
    for j, g in enumerate(gens):
        key = tuple(g)
        if any(key) and key not in distinct and tuple(-a for a in key) not in distinct:
            distinct[key] = j
    ordered = sorted(distinct.items(), key=lambda kv: sum(abs(a) for a in kv[0]))
    dim = len(target)
    sub: list[int] = []
    for size in range(30, len(ordered) + 30, 30):
        sub = [j for _, j in ordered[:size]]
        hb = hnf_rows(gens[j] for j in sub)
        if all(r is not None for r in hb) and math.prod(hb[i][i] for i in range(dim)) == index:
            break
    big = 10 ** 8 * (1 + max(abs(a) for g in gens for a in g))
    width = len(sub)
    rows = [[ZZ(int(i == r)) for i in range(width)] + [ZZ(0)]
            + [ZZ(big * a) for a in gens[j]] for r, j in enumerate(sub)]
    rows.append([ZZ(0)] * width + [ZZ(1)] + [ZZ(-big * a) for a in target])
    red = DomainMatrix(rows, (width + 1, width + 1 + dim), ZZ).lll().to_Matrix()
    zero_tail = [[int(a) for a in red.row(r)][:width + 1] for r in range(red.rows)
                 if all(int(a) == 0 for a in red.row(r)[width + 1:])]
    kernel = [r for r in zero_tail if r[width] == 0]
    acc = None
    for r in zero_tail:
        if r[width] == 0:
            continue
        if acc is None:
            acc = r
        else:
            g, s, t = _xgcd(acc[width], r[width])
            acc = [s * a + t * b for a, b in zip(acc, r)]
    if acc is None or abs(acc[width]) != 1:
        raise RepairFailed("no integer solution in the reduced basis")
    sol = [acc[width] * a for a in acc[:width]]
    for _ in range(3):
        for kv in kernel:
            q = round(Fraction(sum(a * b for a, b in zip(sol, kv)), sum(a * a for a in kv[:width])))
            if q:
                sol = [a - q * b for a, b in zip(sol, kv)]
    return {sub[i]: t for i, t in enumerate(sol) if t}


def _unit_tuple(hb, choices, target) -> tuple[list[int] | None, int]:
    """One vector from each list in choices, summing into the class of target
    in Z^dim / L, L spanned by the full HNF basis hb.

    Returns the indices of the picks (None if no tuple reaches the class)
    and the number of classes reached.  Each step keeps, for every class,
    the first tuple that reaches it, with earlier tuples varying slowest:
    the tuple a breadth-first search over dicts finds.  Classes are rows
    reduced by hb and keyed in mixed radix.
    """
    dim = len(target)
    index = math.prod(hb[i][i] for i in range(dim))
    # reduced entries lie in [0, hb[i][i]); with index < 2^40 the reduction
    # of a sum of two of them, and every key, fits in int64
    dtype = np.int64 if index < 2 ** 40 else object
    basis = np.array(hb, dtype=object)
    radix = np.array([math.prod(hb[j][j] for j in range(i)) for i in range(dim)],
                     dtype=object).astype(dtype)

    def classes(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reduced rows of v, their keys and row indices, first occurrences
        only, in order of first occurrence."""
        b = basis.astype(v.dtype)
        for i in range(dim):
            v -= (v[:, i] // b[i, i])[:, None] * b[i]
        v = v.astype(dtype, copy=False)
        key = v.dot(radix)
        first = np.sort(np.unique(key, return_index=True)[1])
        return v[first], key[first], first

    def exact(vectors) -> np.ndarray:
        return np.array(vectors, dtype=object).reshape(-1, dim)
    target_key = classes(exact([target]))[1][0]
    reach, keys, _ = classes(exact([[0] * dim]))
    steps = []
    for vectors in choices:
        reps, _, pick = classes(exact(vectors))
        reach, keys, first = classes((reach[:, None] + reps[None]).reshape(-1, dim))
        steps.append((first // len(reps), pick[first % len(reps)]))
    hit = np.flatnonzero(keys == target_key)
    if not hit.size:
        return None, len(reach)
    row, picks = int(hit[0]), []
    for parent, pick in reversed(steps):
        picks.insert(0, int(pick[row]))
        row = int(parent[row])
    return picks, len(reach)


def repair(layer: ModuleLayer, cls: np.ndarray) -> np.ndarray:
    """A generator in cls + x.H1, or RepairFailed when the family has none.

    cls must have winding +-1 and every block determinant prime to |G|.
    """
    vec_y = layer.edge_vector(cls)
    parts = []
    for block in layer.blocks:
        if block.d == 1:
            continue                       # x kills the trivial block
        w_cols, w_den, w_of = _block_moves(layer, block, vec_y)
        eta, charpoly = _eta_matrix(layer, block, w_of)
        fd = layer.field(block, charpoly)
        lg, one, norm = _ideal_coordinates(fd, w_cols, w_den, eta)
        if norm * abs(block.det(layer, vec_y)) != 1:
            # nrd(y) shares a prime with every move: no unit is reachable
            raise RepairFailed(f"block {block.name}: the moves keep a common factor")
        parts.append((block, fd, lg, one))
    offsets, dim = [], 0
    for block, *_ in parts:
        offsets.append(dim)
        dim += block.k
    gens = [sum((lg[j] for _, _, lg, _ in parts), []) for j in range(layer.n)]
    hb = hnf_rows(gens)
    if any(r is None for r in hb):
        raise RepairFailed("the moves do not reach every block")
    index = math.prod(hb[i][i] for i in range(dim))

    def embed(pos: int, a) -> list[int]:
        v = [0] * dim
        v[offsets[pos]:offsets[pos] + len(a)] = [int(c) for c in a]
        return v
    target = [0] * dim
    for pos, (_, _, _, one) in enumerate(parts):
        target = [u + v for u, v in zip(target, embed(pos, one))]
    # search Z^dim / L for one unit per block summing to the target class
    picks, count = _unit_tuple(hb, [[embed(pos, u) for u in fd.units]
                                    for pos, (_, fd, _, _) in enumerate(parts)], target)
    if picks is None:
        raise RepairFailed(f"no unit tuple in the target class ({count} of "
                           f"{index} classes reached)")
    units = [fd.units[i] for i, (_, fd, _, _) in zip(picks, parts)]
    want = [0] * dim
    for pos, u in enumerate(units):
        one = parts[pos][3]
        want = [a + b for a, b in zip(want, embed(pos, [c - o for c, o in zip(u, one)]))]
    coeffs = _short_solution(gens, want, index)
    reached = [sum(t * gens[j][i] for j, t in coeffs.items()) for i in range(dim)]
    if reached != want:
        raise ArithmeticError("short solution does not solve the system")
    out = cls.copy()
    for j, t in coeffs.items():
        out += t * layer.act(layer.x, np.eye(1, layer.n, j, dtype=np.int64)[0])
    return out
