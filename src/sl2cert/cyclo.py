"""Exact arithmetic in cyclotomic fields Q(zeta_N) with rational coefficients.

Values are stored as sparse polynomials in zeta_N.  Reduction to the
canonical power basis (degree < phi(N), modulo the N-th cyclotomic
polynomial) is performed lazily: sums and products keep exponents in
Z[x]/(x^N - 1) and only equality tests, rationality tests and serialization
force the canonical form.  This keeps long inner-product loops cheap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


class NotRational(Exception):
    """Raised when a value expected to be rational is not."""


def totient(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic up to sign)."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    lead = den[-1]
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[k + dd]
        if c % lead != 0:
            raise ArithmeticError("inexact cyclotomic polynomial division")
        q = c // lead
        quot[k] = q
        if q:
            for i, dv in enumerate(den):
                num[k + i] -= q * dv
    if any(num):
        raise ArithmeticError("inexact cyclotomic polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial.

    Computed by iterated exact division of x^n - 1 by Phi_d for proper
    divisors d, which doubles as a self-check (division must be exact).
    """
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> list[tuple[int, ...]]:
    """Row e - phi(n) gives the canonical coordinates of zeta_n^e, e in [phi, n)."""
    phi = totient(n)
    cyc = cyclotomic_poly(n)
    if len(cyc) != phi + 1 or cyc[-1] != 1:
        raise ArithmeticError(f"Phi_{n} is not monic of degree phi({n}) = {phi}")
    rows: list[list[int]] = []
    first = [-c for c in cyc[:phi]]
    rows.append(first)
    for _ in range(phi + 1, n):
        prev = rows[-1]
        top = prev[phi - 1]
        nxt = [0] + prev[:-1]
        if top:
            nxt = [a + top * b for a, b in zip(nxt, first)]
        rows.append(nxt)
    return [tuple(r) for r in rows]


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


class Cyclo:
    """An exact element of Q(zeta_N)."""

    __slots__ = ("n", "coeffs", "_reduced")

    def __init__(self, n: int, coeffs: dict[int, Fraction], *, _reduced: bool = False):
        self.n = n
        self.coeffs = {e % n: v for e, v in coeffs.items() if v != 0}
        self._reduced = _reduced and all(e < totient(n) for e in self.coeffs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(value) -> "Cyclo":
        v = Fraction(value)
        return Cyclo(1, {0: v}, _reduced=True)

    @staticmethod
    def zero() -> "Cyclo":
        return Cyclo(1, {}, _reduced=True)

    @staticmethod
    def root(n: int, k: int = 1) -> "Cyclo":
        """zeta_n^k, stored at its minimal conductor."""
        if n < 1:
            raise ValueError("conductor must be positive")
        k %= n
        g = math.gcd(k, n)
        n, k = n // g, k // g
        return Cyclo(n, {k: Fraction(1)})

    # -- canonical form ----------------------------------------------------

    def reduce(self) -> "Cyclo":
        """Canonical representative: exponents below phi(n), reduced mod Phi_n."""
        if self._reduced:
            return self
        phi = totient(self.n)
        out: dict[int, Fraction] = {}
        rows = None
        for e, v in self.coeffs.items():
            if e < phi:
                out[e] = out.get(e, Fraction(0)) + v
            else:
                if rows is None:
                    rows = _reduction_rows(self.n)
                for i, r in enumerate(rows[e - phi]):
                    if r:
                        out[i] = out.get(i, Fraction(0)) + v * r
        self.coeffs = {e: v for e, v in out.items() if v != 0}
        self._reduced = True
        return self

    def promote(self, m: int) -> "Cyclo":
        """Same value viewed in Q(zeta_m); requires n | m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError("can only promote to a multiple conductor")
        step = m // self.n
        return Cyclo(m, {e * step: v for e, v in self.coeffs.items()})

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Cyclo":
        if isinstance(x, Cyclo):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclo.rational(x)
        return NotImplemented

    def __add__(self, other) -> "Cyclo":
        other = Cyclo._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = _lcm(self.n, other.n)
        a, b = self.promote(n), other.promote(n)
        out = dict(a.coeffs)
        for e, v in b.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + v
        return Cyclo(n, out)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.n, {e: -v for e, v in self.coeffs.items()},
                     _reduced=self._reduced)

    def __sub__(self, other) -> "Cyclo":
        other = Cyclo._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Cyclo":
        return Cyclo._coerce(other) + (-self)

    def __mul__(self, other) -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Cyclo(self.n, {e: v * f for e, v in self.coeffs.items()},
                         _reduced=self._reduced)
        if not isinstance(other, Cyclo):
            return NotImplemented
        n = _lcm(self.n, other.n)
        a, b = self.promote(n), other.promote(n)
        out: dict[int, Fraction] = {}
        for e1, v1 in a.coeffs.items():
            for e2, v2 in b.coeffs.items():
                e = e1 + e2
                if e >= n:
                    e -= n
                out[e] = out.get(e, Fraction(0)) + v1 * v2
        return Cyclo(n, out)

    __rmul__ = __mul__

    def conj(self) -> "Cyclo":
        """Complex conjugation zeta -> zeta^{-1}."""
        return Cyclo(self.n, {(-e) % self.n: v for e, v in self.coeffs.items()})

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.reduce().coeffs

    def __eq__(self, other) -> bool:
        other = Cyclo._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = _lcm(self.n, other.n)
        return self.promote(n).reduce().coeffs == other.promote(n).reduce().coeffs

    __hash__ = None

    def try_rational(self) -> Fraction | None:
        c = self.reduce().coeffs
        if not c:
            return Fraction(0)
        if set(c) == {0}:
            return c[0]
        return None

    def as_rational(self) -> Fraction:
        r = self.try_rational()
        if r is None:
            raise NotRational(f"not a rational number: {self!r}")
        return r

    def as_int(self) -> int:
        r = self.as_rational()
        if r.denominator != 1:
            raise NotRational(f"not an integer: {r}")
        return r.numerator

    def __repr__(self) -> str:
        self.reduce()
        if not self.coeffs:
            return "Cyclo(0)"
        terms = ", ".join(f"{v}*z{self.n}^{e}" for e, v in sorted(self.coeffs.items()))
        return f"Cyclo({terms})"


def cyclo(n: int, k: int = 1) -> Cyclo:
    """Convenience constructor: the root of unity zeta_n^k in canonical form."""
    return Cyclo.root(n, k).reduce()


def gauss_sum_sqrt_q(q: int) -> Cyclo:
    """sqrt(q) as the quadratic Gauss sum in Q(zeta_q); requires q = 1 mod 4."""
    if q % 4 != 1:
        raise ValueError("gauss_sum_sqrt_q needs q = 1 (mod 4)")
    squares = {pow(t, 2, q) for t in range(1, q)}
    coeffs = {t: Fraction(1 if t in squares else -1) for t in range(1, q)}
    return Cyclo(q, coeffs)
