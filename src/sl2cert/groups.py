"""Enumeration of SL2(q) and PSL2(q) over a prime field.

Elements are 2x2 matrices stored as 4-tuples (a, b, c, d) of residues mod q
and addressed by their position in a fixed list sorted by the row-major
base-q integer encoding.  All generator and subgroup searches scan elements
in encoding order, so every construction is reproducible.  No
multiplication table is built: a product is located by its matrix's
encoding (`GroupTable.locate`).

Conjugacy classes carry the labels 1, z, c, d, zc, zd, a^l, b^m:

* a = diag(eps, eps^-1) for the least primitive root eps generates the
  split torus; a^l labels the split semisimple classes (l and q-1-l are
  identified, canonical l <= (q-3)/2).
* b is the order-(q+1) element of the non-split torus
  {(x, delta*y; y, x) : x^2 - delta*y^2 = 1} with least encoding, for the
  least non-square delta; b^m labels the non-split classes (canonical
  m <= (q-1)/2).
* The four trace +-2 non-central classes c, d, zc, zd are separated by the
  quadratic character of det([Nv | v]) with N = M - 1 (resp. N = -M - 1)
  and v any vector with Nv != 0; this is an O(1) conjugation invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from sympy import isprime

Mat2 = tuple[int, int, int, int]

IDENT: Mat2 = (1, 0, 0, 1)

SUBGROUP_NAMES = ("B", "Cq-1", "2Dq-1", "2Dq+1", "C4", "Q8", "C6", "SL2_3", "Z")


class GroupBuildError(Exception):
    """A deterministic generator/subgroup search failed (bug or invalid q)."""


@dataclass(frozen=True)
class ClassLabel:
    kind: str          # one of "1", "z", "c", "d", "zc", "zd", "a", "b"
    param: int = 0     # l for a^l, m for b^m

    def __str__(self) -> str:
        if self.kind in ("a", "b"):
            return f"{self.kind}^{self.param}"
        return self.kind


def valid_q(q: int) -> bool:
    return q > 5 and isprime(q) and q % 24 in (5, 13)


def require_valid_q(q: int) -> None:
    if not valid_q(q):
        raise ValueError(f"q={q} must be a prime > 5 with q = 5 or 13 (mod 24)")


def legendre(x: int, q: int) -> int:
    """Quadratic character: +1 for nonzero squares, 0 for 0, -1 otherwise."""
    x %= q
    if x == 0:
        return 0
    r = pow(x, (q - 1) // 2, q)
    return 1 if r == 1 else -1


def least_primitive_root(q: int) -> int:
    order = q - 1
    prime_factors = []
    m = order
    p = 2
    while p * p <= m:
        if m % p == 0:
            prime_factors.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        prime_factors.append(m)
    for g in range(2, q):
        if all(pow(g, order // f, q) != 1 for f in prime_factors):
            return g
    raise GroupBuildError(f"no primitive root mod {q}")


def least_nonsquare(q: int) -> int:
    for d in range(2, q):
        if legendre(d, q) == -1:
            return d
    raise GroupBuildError(f"no non-square mod {q}")


def mat_mul(m: Mat2, n: Mat2, q: int) -> Mat2:
    a, b, c, d = m
    e, f, g, h = n
    return ((a * e + b * g) % q, (a * f + b * h) % q,
            (c * e + d * g) % q, (c * f + d * h) % q)


def mat_inv(m: Mat2, q: int) -> Mat2:
    a, b, c, d = m  # det = 1
    return (d % q, -b % q, -c % q, a % q)


def mat_neg(m: Mat2, q: int) -> Mat2:
    return tuple((-x) % q for x in m)  # type: ignore[return-value]


def encode(m: Mat2, q: int) -> int:
    a, b, c, d = m
    return ((a * q + b) * q + c) * q + d


def _encode_rows(mats: np.ndarray, q: int) -> np.ndarray:
    """Encodings of a (..., 4) int64 array of matrices."""
    a, b, c, d = np.moveaxis(mats, -1, 0)
    return ((a * q + b) * q + c) * q + d


def _mul_rows(x: np.ndarray, y: np.ndarray, q: int) -> np.ndarray:
    """Broadcast products x * y mod q of (..., 4) int64 arrays of matrices."""
    a, b, c, d = np.moveaxis(x, -1, 0)
    e, f, g, h = np.moveaxis(y, -1, 0)
    return np.stack([(a * e + b * g) % q, (a * f + b * h) % q,
                     (c * e + d * g) % q, (c * f + d * h) % q], axis=-1)


class GroupTable:
    """An enumerated copy of SL2(q) or PSL2(q) with index-level operations."""

    def __init__(self, q: int, flavor: str, elements: list[Mat2]):
        if flavor not in ("SL", "PSL"):
            raise ValueError("flavor must be 'SL' or 'PSL'")
        self.q = q
        self.flavor = flavor
        self.elements = elements
        self.index: dict[Mat2, int] = {m: i for i, m in enumerate(elements)}
        if flavor == "PSL":
            self.index.update({(-a % q, -b % q, -c % q, -d % q): i
                               for i, (a, b, c, d) in enumerate(elements)})
        self.n = len(elements)
        self.identity = self.index[IDENT]
        self.labels: list[ClassLabel] | None = None
        # generator indices; populated by enumerate_group for the SL flavor
        self.gen_a: int | None = None
        self.gen_b: int | None = None
        self.gen_alpha: int | None = None
        self.eps: int | None = None
        self.delta: int | None = None
        # the unipotents (1 1; 0 1) and (1 0; 1 1), which generate SL2(F_q)
        self.generators = (self.index[(1, 1, 0, 1)], self.index[(1, 0, 1, 1)])
        self._encodings: np.ndarray | None = None

    # -- basic operations ----------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.index[mat_mul(self.elements[i], self.elements[j], self.q)]

    def inv(self, i: int) -> int:
        return self.index[mat_inv(self.elements[i], self.q)]

    def power(self, i: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(i), -k)
        result = self.identity
        base = i
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def order(self, i: int) -> int:
        n = 1
        j = i
        while j != self.identity:
            j = self.mul(j, i)
            n += 1
        return n

    def conj(self, i: int, g: int) -> int:
        """g^-1 * i * g."""
        return self.mul(self.mul(self.inv(g), i), g)

    @property
    def z(self) -> int:
        """Index of the central element -1 (equals identity in PSL)."""
        return self.index[mat_neg(IDENT, self.q)]

    def trace(self, i: int) -> int:
        m = self.elements[i]
        return (m[0] + m[3]) % self.q

    # -- array operations ------------------------------------------------------

    @property
    def encodings(self) -> np.ndarray:
        """Encodings of the elements, an increasing int64 array."""
        if self._encodings is None:
            flat = np.fromiter(chain.from_iterable(self.elements), dtype=np.int64,
                               count=4 * self.n)
            self._encodings = _encode_rows(flat.reshape(self.n, 4), self.q)
        return self._encodings

    def matrices(self) -> np.ndarray:
        """The elements as a new (n, 4) int64 array, decoded from the encodings."""
        out = np.empty((self.n, 4), dtype=np.int64)
        rest = self.encodings
        for col in (3, 2, 1):
            rest, out[:, col] = np.divmod(rest, self.q)
        out[:, 0] = rest
        return out

    def locate(self, mats: np.ndarray) -> np.ndarray:
        """Element indices of a (..., 4) integer array of matrices mod q.

        For PSL a matrix and its negative locate the same element.  Raises
        GroupBuildError when a matrix is not in the table.
        """
        mats = np.mod(mats, self.q)
        enc = _encode_rows(mats, self.q)
        if self.flavor == "PSL":
            enc = np.minimum(enc, _encode_rows(-mats % self.q, self.q))
        encs = self.encodings
        pos = np.minimum(np.searchsorted(encs, enc), self.n - 1)
        if not np.array_equal(encs[pos], enc):
            raise GroupBuildError(f"matrix not in {self.flavor}2({self.q})")
        return pos

    def products(self, a, b) -> np.ndarray:
        """Indices of a[i] * b[i] for broadcastable index arrays a and b."""
        mats = self.matrices()
        return self.locate(_mul_rows(mats[np.asarray(a)], mats[np.asarray(b)], self.q))

    def inverses(self) -> np.ndarray:
        """The permutation g -> g^-1 of all element indices."""
        return self.locate(self.matrices()[:, [3, 1, 2, 0]] * np.array([1, -1, -1, 1]))

    def right_mul(self, h: int) -> np.ndarray:
        """The permutation g -> g * h of all element indices."""
        return self.locate(_mul_rows(self.matrices(), np.array(self.elements[h]), self.q))

    def left_mul(self, h: int) -> np.ndarray:
        """The permutation g -> h * g of all element indices."""
        return self.locate(_mul_rows(np.array(self.elements[h]), self.matrices(), self.q))


@dataclass
class SubgroupHandle:
    name: str
    elements: tuple[int, ...]          # sorted element indices
    generators: tuple[int, ...]
    elem_set: frozenset[int] = field(init=False)

    def __post_init__(self):
        self.elem_set = frozenset(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, idx: int) -> bool:
        return idx in self.elem_set


def _closure(table: GroupTable, gens: list[int]) -> tuple[int, ...]:
    seen = {table.identity}
    frontier = [table.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = table.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def enumerate_group(q: int, flavor: str = "SL") -> GroupTable:
    """Full element table of SL2(q) or PSL2(q) with class labels and generators.

    The PSL table stores one coset representative per element, the one with
    the least integer encoding.
    """
    require_valid_q(q)
    # the least of +-m is the one whose first nonzero entry is <= (q-1)/2
    # (negation maps x to q - x), so PSL keeps the first half of those values
    first = range((q + 1) // 2) if flavor == "PSL" else range(q)
    elements: list[Mat2] = []
    inv_mod = [0] + [pow(x, -1, q) for x in range(1, q)]
    for a in first:
        if a:
            inv_a = inv_mod[a]
            for b in range(q):
                for c in range(q):
                    elements.append((a, b, c, (1 + b * c) * inv_a % q))
        else:
            for b in first[1:]:
                c = (-inv_mod[b]) % q
                for d in range(q):
                    elements.append((a, b, c, d))
    if flavor == "PSL":
        return GroupTable(q, "PSL", elements)

    table = GroupTable(q, "SL", elements)
    eps = least_primitive_root(q)
    delta = least_nonsquare(q)
    table.eps = eps
    table.delta = delta
    table.gen_a = table.index[(eps, 0, 0, pow(eps, -1, q))]
    table.gen_alpha = table.index[(0, 1, q - 1, 0)]
    table.gen_b = _find_nonsplit_generator(table)
    table.labels = _classify_all(table)
    return table


def _find_nonsplit_generator(table: GroupTable) -> int:
    """Order-(q+1) element of the standard non-split torus with least encoding."""
    q, delta = table.q, table.delta
    torus = []
    for y in range(q):
        dy2 = delta * y * y % q
        for x in range(q):
            if (x * x - dy2) % q == 1:
                torus.append((x, delta * y % q, y, x))
    torus.sort(key=lambda m: encode(m, q))
    for m in torus:
        idx = table.index[m]
        if table.order(idx) == q + 1:
            return idx
    raise GroupBuildError("no generator of the non-split torus found")


def _unipotent_split(m: Mat2, q: int, negate: bool) -> int:
    """Quadratic character of det([Nv | v]) for N = M - 1 or N = -M - 1."""
    if negate:
        n00, n01, n10, n11 = ((-m[0] - 1) % q, (-m[1]) % q,
                              (-m[2]) % q, (-m[3] - 1) % q)
    else:
        n00, n01, n10, n11 = ((m[0] - 1) % q, m[1], m[2], (m[3] - 1) % q)
    if n00 or n10:
        nv, v = (n00, n10), (1, 0)
    else:
        nv, v = (n01, n11), (0, 1)
    det = (nv[0] * v[1] - nv[1] * v[0]) % q
    return legendre(det, q)


def _classify_all(table: GroupTable) -> list[ClassLabel]:
    """Trace-table classification of every element of the SL table."""
    q = table.q
    eps = table.eps
    # split classes: trace of a^l
    trace_label: dict[int, ClassLabel] = {}
    e_pow = 1
    inv_pow = 1
    inv_eps = pow(eps, -1, q)
    for l in range(1, (q - 1) // 2):
        e_pow = e_pow * eps % q
        inv_pow = inv_pow * inv_eps % q
        tr = (e_pow + inv_pow) % q
        if l <= (q - 3) // 2:
            trace_label[tr] = ClassLabel("a", l)
    # non-split classes: trace of b^m
    bm = table.elements[table.gen_b]
    bx, by = bm[0], bm[2]          # b = (x, delta y; y, x)
    delta = table.delta
    x_m, y_m = 1, 0
    for m in range(1, (q + 1) // 2):
        x_m, y_m = (x_m * bx + delta * y_m * by) % q, (x_m * by + y_m * bx) % q
        tr = 2 * x_m % q
        trace_label[tr] = ClassLabel("b", m)
    one, two = ClassLabel("1"), ClassLabel("z")
    lab_c, lab_d = ClassLabel("c"), ClassLabel("d")
    lab_zc, lab_zd = ClassLabel("zc"), ClassLabel("zd")
    labels: list[ClassLabel] = []
    neg_id = mat_neg(IDENT, q)
    for m in table.elements:
        tr = (m[0] + m[3]) % q
        if tr == 2:
            if m == IDENT:
                labels.append(one)
            else:
                labels.append(lab_c if _unipotent_split(m, q, False) == 1 else lab_d)
        elif tr == q - 2:
            if m == neg_id:
                labels.append(two)
            else:
                labels.append(lab_zc if _unipotent_split(m, q, True) == 1 else lab_zd)
        else:
            labels.append(trace_label[tr])
    return labels


def classify(table: GroupTable, idx: int) -> ClassLabel:
    """Conjugacy-class label of an element of the SL table."""
    if table.labels is None:
        raise ValueError("classification requires the SL flavor")
    return table.labels[idx]


def all_class_labels(q: int) -> list[ClassLabel]:
    labels = [ClassLabel("1"), ClassLabel("z"), ClassLabel("c"), ClassLabel("d"),
              ClassLabel("zc"), ClassLabel("zd")]
    labels += [ClassLabel("a", l) for l in range(1, (q - 1) // 2)]
    labels += [ClassLabel("b", m) for m in range(1, (q + 1) // 2)]
    return labels


def class_sizes(q: int) -> dict[ClassLabel, int]:
    sizes = {ClassLabel("1"): 1, ClassLabel("z"): 1}
    for kind in ("c", "d", "zc", "zd"):
        sizes[ClassLabel(kind)] = (q * q - 1) // 2
    for l in range(1, (q - 1) // 2):
        sizes[ClassLabel("a", l)] = q * (q + 1)
    for m in range(1, (q + 1) // 2):
        sizes[ClassLabel("b", m)] = q * (q - 1)
    return sizes


# -- the eight named subgroups -------------------------------------------------


def standard_subgroup(name: str, table: GroupTable) -> SubgroupHandle:
    """One of the named subgroups of SL2(q) from the vertex/edge stabilizer list."""
    if table.flavor != "SL":
        raise ValueError("standard subgroups are built over the SL flavor")
    q = table.q
    a, alpha, b = table.gen_a, table.gen_alpha, table.gen_b
    if name == "B":
        elems = []
        for u in range(1, q):
            inv_u = pow(u, -1, q)
            for v in range(q):
                elems.append(table.index[(u, v, 0, inv_u)])
        c_gen = table.index[(1, 1, 0, 1)]
        return SubgroupHandle("B", tuple(sorted(elems)), (a, c_gen))
    if name == "Cq-1":
        return SubgroupHandle(name, _closure(table, [a]), (a,))
    if name == "2Dq-1":
        return SubgroupHandle(name, _closure(table, [a, alpha]), (a, alpha))
    if name == "2Dq+1":
        beta = _find_beta(table)
        return SubgroupHandle(name, _closure(table, [b, beta]), (b, beta))
    if name == "C4":
        g = table.power(a, (q - 1) // 4)
        return SubgroupHandle(name, _closure(table, [g]), (g,))
    if name == "Q8":
        g = table.power(a, (q - 1) // 4)
        return SubgroupHandle(name, _closure(table, [g, alpha]), (g, alpha))
    if name == "C6":
        if q % 3 == 1:
            g = table.power(a, (q - 1) // 6)
        else:
            g = table.power(b, (q + 1) // 6)
        handle = SubgroupHandle(name, _closure(table, [g]), (g,))
        if len(handle) != 6:
            raise GroupBuildError("C6 construction produced wrong order")
        return handle
    if name == "SL2_3":
        q8 = standard_subgroup("Q8", table)
        t = _find_sl23_rotation(table, q8)
        handle = SubgroupHandle(name, _closure(table, [*q8.generators, t]),
                                (*q8.generators, t))
        if len(handle) != 24:
            raise GroupBuildError("SL2(3) closure has wrong order")
        return handle
    if name == "Z":
        return SubgroupHandle(name, tuple(sorted([table.identity, table.z])),
                              (table.z,))
    raise ValueError(f"unknown subgroup name {name!r}")


def _find_beta(table: GroupTable) -> int:
    """First element (encoding order) of order 4 inverting the non-split torus."""
    q, b = table.q, table.gen_b
    b_inv = table.inv(b)
    for idx, m in enumerate(table.elements):
        if (m[0] + m[3]) % q != 0:     # order 4 <=> trace 0 (then m^2 = -1)
            continue
        if table.conj(b, idx) == b_inv:
            return idx
    raise GroupBuildError("no inverting order-4 element for the non-split torus")


def _find_sl23_rotation(table: GroupTable, q8: SubgroupHandle) -> int:
    """First order-3 element (encoding order) normalizing Q8."""
    q = table.q
    target = q8.elem_set
    for idx, m in enumerate(table.elements):
        if (m[0] + m[3]) % q != q - 1:  # order 3 <=> trace -1
            continue
        if all(table.conj(g, idx) in target for g in q8.generators):
            if all(table.conj(x, idx) in target for x in q8.elements):
                return idx
    raise GroupBuildError("no order-3 element normalizing Q8")


def all_standard_subgroups(table: GroupTable) -> dict[str, SubgroupHandle]:
    return {name: standard_subgroup(name, table) for name in SUBGROUP_NAMES}


def edge_generators(table: GroupTable) -> tuple[int, int]:
    """(g1, g3): fixed generators of the C4 and C6 edge stabilizers."""
    if table.flavor != "SL":
        raise ValueError("edge generators live in the SL table")
    q = table.q
    g1 = table.power(table.gen_a, (q - 1) // 4)
    if q % 3 == 1:
        g3 = table.power(table.gen_a, (q - 1) // 6)
    else:
        g3 = table.power(table.gen_b, (q + 1) // 6)
    return g1, g3


# -- PSL projection -------------------------------------------------------------


class PSLProjection:
    """The projection pi: SL2(q) -> PSL2(q) with a least-encoding section."""

    def __init__(self, sl: GroupTable, psl: GroupTable):
        if (sl.flavor, psl.flavor, sl.q) != ("SL", "PSL", psl.q):
            raise ValueError(f"PSLProjection needs SL2(q) and PSL2(q) tables, got "
                             f"{sl.flavor}2({sl.q}) and {psl.flavor}2({psl.q})")
        self.sl = sl
        self.psl = psl
        self.proj = psl.locate(sl.matrices()).astype(np.int32)
        self.section = sl.locate(psl.matrices()).astype(np.int32)

    def __call__(self, sl_idx: int) -> int:
        return int(self.proj[sl_idx])

    def lift(self, psl_idx: int) -> int:
        """Least-encoding SL representative of a PSL element."""
        return int(self.section[psl_idx])
