"""The ordinary character table of SL2(q) for q = 1 (mod 4).

All values are exact cyclotomic numbers.  The table is indexed by the class
labels 1, z, c, d, zc, zd, a^l, b^m and contains the q+4 irreducible
characters

    triv, St,
    chi_i   (degree q+1, 1 <= i <= (q-3)/2),
    theta_j (degree q-1, 1 <= j <= (q-1)/2),
    xi1, xi2   (degree (q+1)/2),
    eta1, eta2 (degree (q-1)/2),

with rho = zeta_{q-1}, sigma = zeta_{q+1} and tau = sum_t leg(t) zeta_q^t the
quadratic Gauss sum (tau = +sqrt(q) here since q = 1 mod 4).  eta1 is the
half-discrete-series character with eta1(c) = (-1+tau)/2.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .cyclo import Cyclo, _reduction_rows, cyclo, gauss_sum_sqrt_q, totient
from .groups import (ClassLabel, GroupTable, SubgroupHandle, all_class_labels,
                     class_sizes, classify)
from .intlin import _check_exact, _exact_matmul

HALF = Fraction(1, 2)

# class kinds whose values lie in one field: Q, Q(zeta_q), Q(zeta_{q-1}),
# Q(zeta_{q+1}); the conductors are pairwise coprime up to 2, so the four
# fields are linearly disjoint over Q
_FAMILIES = (("1", "z"), ("c", "d", "zc", "zd"), ("a",), ("b",))
_BLOCK = 1 << 20          # entries per block of a cross-family product


@dataclass
class Character:
    name: str
    degree: int
    values: dict[ClassLabel, Cyclo]

    def __call__(self, label: ClassLabel) -> Cyclo:
        return self.values[label]


class CharacterTable:
    def __init__(self, q: int):
        if q % 4 != 1:
            raise ValueError("table is implemented for q = 1 (mod 4)")
        self.q = q
        self.labels = all_class_labels(q)
        self.sizes = class_sizes(q)
        self.group_order = q * (q - 1) * (q + 1)
        self.characters: list[Character] = _build_characters(q)
        self.by_name = {ch.name: ch for ch in self.characters}

    def __getitem__(self, name: str) -> Character:
        return self.by_name[name]

    def inner(self, chi: Character, psi: Character) -> Fraction:
        """<chi, psi> = (1/|G|) sum over classes of size * chi * conj(psi)."""
        acc = Cyclo.zero()
        for lab in self.labels:
            x = chi.values[lab]
            y = psi.values[lab]
            if x.is_zero() or y.is_zero():
                continue
            acc = acc + (x * y.conj()) * self.sizes[lab]
        return acc.as_rational() * Fraction(1, self.group_order)

    def verify_row_orthogonality(self) -> bool:
        """Exact first orthogonality: <chi, psi> = delta for every pair.

        The sum over classes splits into one sum per field family.  As the
        families' fields are linearly disjoint, the relation holds exactly
        when each family's sum is rational and these rationals add up to
        delta |G|.
        """
        den, families = self._families()
        total = 0
        for fam in families:
            w = np.array([self.sizes[lab] for lab in fam.labels], dtype=np.int64)
            s = _canonical(_correlate(fam.coeffs * w[:, None], fam.coeffs), fam.n)
            if s[..., 1:].any():
                return False
            total = total + s[..., 0]
        want = den * den * self.group_order * np.eye(len(self.characters),
                                                     dtype=np.int64)
        return bool((total == want).all())

    def verify_column_orthogonality(self) -> bool:
        """Exact second orthogonality: sum_chi chi(K) conj(chi(L)) =
        delta_{KL} |G|/|K| for every pair of classes.

        For K, L in one family the sum lies in that family's field and must
        be the rational on the right.  For K, L in two families it lies in
        Q(zeta_n1) (x) Q(zeta_n2), which is a field because the two are
        linearly disjoint, and must vanish there coordinate by coordinate.
        """
        den, families = self._families()
        for fam in families:
            per_class = fam.coeffs.transpose(1, 0, 2)
            s = _canonical(_correlate(per_class, per_class), fam.n)
            diag = s[..., 0].diagonal()
            if s[..., 1:].any() or (s[..., 0] - np.diag(diag)).any():
                return False
            if any(int(v) * self.sizes[lab] != den * den * self.group_order
                   for v, lab in zip(diag, fam.labels)):
                return False
        flat = []
        for fam in families:
            conj = fam.coeffs[..., (-np.arange(fam.n)) % fam.n]
            flat.append([_canonical(c, fam.n).reshape(len(c), -1)
                         for c in (fam.coeffs, conj)])
        for (left, _), (_, right) in combinations(flat, 2):
            step = max(1, _BLOCK // right.shape[1])
            for i in range(0, left.shape[1], step):
                if _exact_matmul(left[:, i:i + step].T, right).any():
                    return False
        return True

    def _families(self) -> tuple[int, list["_Family"]]:
        """The least common denominator of the table's coefficients, and
        the class columns grouped by field and scaled by it to integers."""
        chars = self.characters
        den = math.lcm(*(c.denominator for ch in chars
                         for v in ch.values.values() for c in v.coeffs.values()))
        families = []
        for kinds in _FAMILIES:
            labels = [lab for lab in self.labels if lab.kind in kinds]
            n = math.lcm(*(ch.values[lab].n for ch in chars for lab in labels))
            coeffs = np.zeros((len(chars), len(labels), n), dtype=np.int64)
            for i, ch in enumerate(chars):
                for j, lab in enumerate(labels):
                    for e, c in ch.values[lab].promote(n).coeffs.items():
                        coeffs[i, j, e] = int(c * den)
            families.append(_Family(n, labels, coeffs))
        return den, families

    def verify_degrees(self) -> bool:
        total = sum(ch.degree * ch.degree for ch in self.characters)
        if total != self.group_order:
            return False
        return all(ch.values[ClassLabel("1")].as_int() == ch.degree
                   for ch in self.characters)

    def dumps(self) -> str:
        """One line per character: name, then serialized class values."""
        lines = ["# classes: " + " ".join(str(l) for l in self.labels)]
        for ch in self.characters:
            vals = "\t".join(ch.values[lab].serialize() for lab in self.labels)
            lines.append(f"{ch.name}\t{vals}")
        return "\n".join(lines)


@dataclass
class _Family:
    """The class columns whose values lie in Q(zeta_n)."""
    n: int
    labels: list[ClassLabel]
    coeffs: np.ndarray   # [character, class, e]: scaled coefficient of zeta_n^e


def _correlate(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """out[i, j, f] = sum over k and e of x[i, k, e] y[j, k, e - f mod n].

    With x and y the coefficients of powers of zeta_n, out[i, j] holds the
    coefficients of the sum over k of x_ik conj(y_jk); one float64 product
    per f.
    """
    m, r, n = x.shape
    _check_exact(x, y, r * n)
    xf = x.reshape(m, r * n).astype(np.float64)
    yf = y.astype(np.float64)
    out = np.empty((m, len(y), n))
    for f in range(n):
        out[:, :, f] = xf @ np.roll(yf, f, axis=2).reshape(len(y), r * n).T
    return out.astype(np.int64)


def _canonical(x: np.ndarray, n: int) -> np.ndarray:
    """Reduce coefficients of zeta_n^0 .. zeta_n^(n-1), last axis, modulo
    Phi_n: the result holds coordinates in the power basis of Q(zeta_n)."""
    phi = totient(n)
    rows = np.array(_reduction_rows(n)[:n - phi], dtype=np.int64)
    return x[..., :phi] + _exact_matmul(x[..., phi:], rows.reshape(n - phi, phi))


def _const(x) -> Cyclo:
    return Cyclo.rational(Fraction(x))


def _character(labels: list[ClassLabel], name: str, degree: int,
               vals: list) -> Character:
    return Character(name, degree, dict(zip(
        labels, [v if isinstance(v, Cyclo) else _const(v) for v in vals])))


def _build_characters(q: int) -> list[Character]:
    labels = all_class_labels(q)
    ls = range(1, (q - 1) // 2)
    ms = range(1, (q + 1) // 2)
    tau = gauss_sum_sqrt_q(q)

    def make(name, degree, vals):
        return _character(labels, name, degree, vals)

    chars = [
        make("triv", 1, [1] * len(labels)),
        make("St", q, [q, q, 0, 0, 0, 0] + [1 for _ in ls] + [-1 for _ in ms]),
    ]
    for i in range(1, (q - 1) // 2):
        s = (-1) ** i
        vals = [q + 1, s * (q + 1), 1, 1, s, s]
        vals += [cyclo(q - 1, i * l) + cyclo(q - 1, -i * l) for l in ls]
        vals += [0 for _ in ms]
        chars.append(make(f"chi_{i}", q + 1, vals))
    for j in range(1, (q + 1) // 2):
        s = (-1) ** j
        vals = [q - 1, s * (q - 1), -1, -1, -s, -s]
        vals += [0 for _ in ls]
        vals += [-(cyclo(q + 1, j * m) + cyclo(q + 1, -j * m)) for m in ms]
        chars.append(make(f"theta_{j}", q - 1, vals))
    one = _const(1)
    for name, t in (("xi1", tau), ("xi2", -tau)):
        plus = (one + t) * HALF
        minus = (one - t) * HALF
        vals = [(q + 1) // 2, (q + 1) // 2, plus, minus, plus, minus]
        vals += [(-1) ** l for l in ls]
        vals += [0 for _ in ms]
        chars.append(make(name, (q + 1) // 2, vals))
    return chars + eta_characters(q)


def eta_characters(q: int) -> list[Character]:
    """eta1 and eta2, the two characters of degree (q-1)/2."""
    labels = all_class_labels(q)
    tau = gauss_sum_sqrt_q(q)
    one, neg_one = _const(1), _const(-1)
    chars = []
    for name, t in (("eta1", tau), ("eta2", -tau)):
        vals = [(q - 1) // 2, -((q - 1) // 2),
                (neg_one + t) * HALF, (neg_one - t) * HALF,
                (one - t) * HALF, (one + t) * HALF]
        vals += [0 for _ in range(1, (q - 1) // 2)]
        vals += [(-1) ** (m + 1) for m in range(1, (q + 1) // 2)]
        chars.append(_character(labels, name, (q - 1) // 2, vals))
    return chars


def eta_on_tori(q: int) -> Character:
    """eta1 on the classes 1, z, a^l and b^m only, where eta1 and eta2 agree.

    These are the values the degree sweep reads.  They are integers, so no
    Gauss sum is built.
    """
    m = (q - 1) // 2
    labels = [lab for lab in all_class_labels(q) if lab.kind in ("1", "z", "a", "b")]
    vals = [m, -m] + [0] * (m - 1) + [(-1) ** (j + 1) for j in range(1, m + 1)]
    shared = {v: _const(v) for v in set(vals)}      # Cyclo values are immutable
    return _character(labels, "eta1", m, [shared[v] for v in vals])


def subgroup_census(table: GroupTable, elements) -> Counter[ClassLabel]:
    """Class census of a subset of the SL table."""
    if table.labels is None:
        raise ValueError("census requires the SL flavor")
    return Counter(table.labels[i] for i in elements)


def centralizer_dim(chi: Character, handle: SubgroupHandle,
                    table: GroupTable) -> int:
    """dim of the commutant of chi restricted to a subgroup.

    Equals <chi|_H, chi|_H> = (1/|H|) sum_{h in H} |chi(h)|^2, computed
    exactly from the class census of H.
    """
    census = subgroup_census(table, handle.elements)
    acc = Cyclo.zero()
    for lab, cnt in census.items():
        v = chi.values[lab]
        if v.is_zero():
            continue
        acc = acc + (v * v.conj()) * cnt
    val = acc.as_rational() * Fraction(1, len(handle))
    if val.denominator != 1:
        raise ValueError(f"non-integral commutant dimension {val}")
    return int(val)


def eigenvalue_multiplicities(chi: Character, g: int,
                              table: GroupTable) -> dict[int, int]:
    """Multiplicity of zeta_n^j as an eigenvalue of chi at g, for each j.

    n is the order of g; mult_j = (1/n) sum_k chi(g^k) zeta_n^{-jk}.
    """
    n = table.order(g)
    powers = []
    x = table.identity
    for _ in range(n):
        powers.append(classify(table, x))
        x = table.mul(x, g)
    return multiplicities_from_power_labels(chi, powers)


def multiplicities_from_power_labels(chi: Character,
                                     powers: list[ClassLabel]) -> dict[int, int]:
    """Eigenvalue multiplicities given the class labels of g^0, ..., g^{n-1}."""
    n = len(powers)
    out: dict[int, int] = {}
    for j in range(n):
        acc = Cyclo.zero()
        for k, lab in enumerate(powers):
            v = chi.values[lab]
            if v.is_zero():
                continue
            acc = acc + v * cyclo(n, -j * k)
        val = acc.as_rational() * Fraction(1, n)
        if val.denominator != 1 or val < 0:
            raise ValueError(f"invalid multiplicity {val} for exponent {j}")
        out[j] = int(val)
    if sum(out.values()) != chi.degree:
        raise ValueError("eigenvalue multiplicities do not sum to the degree")
    return out


def eigenvalue_support(chi: Character, g: int, table: GroupTable) -> set[int]:
    """Exponents j with zeta_n^j an eigenvalue of chi at g."""
    return {j for j, m in eigenvalue_multiplicities(chi, g, table).items() if m > 0}


def split_power_label(q: int, j: int) -> ClassLabel:
    """Class label of a^j for the order-(q-1) split torus generator a."""
    j %= q - 1
    if j == 0:
        return ClassLabel("1")
    if 2 * j == q - 1:
        return ClassLabel("z")
    return ClassLabel("a", min(j, q - 1 - j))


def nonsplit_power_label(q: int, j: int) -> ClassLabel:
    """Class label of b^j for the order-(q+1) non-split torus generator b."""
    j %= q + 1
    if j == 0:
        return ClassLabel("1")
    if 2 * j == q + 1:
        return ClassLabel("z")
    return ClassLabel("b", min(j, q + 1 - j))


def edge_generator_power_labels(q: int) -> tuple[list[ClassLabel], list[ClassLabel]]:
    """Labels of the powers of the fixed C4 and C6 edge-stabilizer generators.

    g1 = a^{(q-1)/4} always; g3 = a^{(q-1)/6} when q = 1 (mod 3), else
    b^{(q+1)/6}.  No group enumeration is needed, so this scales to large q.
    """
    g1 = [split_power_label(q, k * (q - 1) // 4) for k in range(4)]
    if q % 3 == 1:
        g3 = [split_power_label(q, k * (q - 1) // 6) for k in range(6)]
    else:
        g3 = [nonsplit_power_label(q, k * (q + 1) // 6) for k in range(6)]
    return g1, g3
