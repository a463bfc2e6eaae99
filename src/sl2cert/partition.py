"""Group-algebra partition of unity along an attaching path, and its lift
through the central extension.

Given a certified closed path xi = (a_1 e_1^{eps_1}, ..., a_n e_n^{eps_n}),
solve for elements x~_e of Q[G] with

    1 = sum_i eps_i a_i N(G_{e_i}) x~_{e_i}        (G = PSL2(q))

and lift with x_e = x~_e / 2 (any section), r = 1 - sum eps_i a^_i N(G^_e) x_e,
delta = r/2, giving the exact identity

    1 = (1 - z) delta + sum_i eps_i a^_i N(G^_{e_i}) x_{e_i}

in Q[G^] (G^ = SL2(q)).  The solve is modular (Dixon lifting + rational
reconstruction); the final identities are re-verified in exact rational
arithmetic — numerics never certify.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import intlin
from .acyclic import EdgePath
from .groups import GroupTable
from .orbit_graph import OrbitGraph


class Inconsistent(Exception):
    pass


class GroupAlgElt:
    """Sparse element of Q[G] for an enumerated group table."""

    __slots__ = ("table", "coeffs")

    def __init__(self, table: GroupTable, coeffs: dict[int, Fraction] | None = None):
        self.table = table
        self.coeffs = {i: c for i, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def one(cls, table: GroupTable) -> "GroupAlgElt":
        return cls(table, {table.identity: Fraction(1)})

    @classmethod
    def basis(cls, table: GroupTable, g: int) -> "GroupAlgElt":
        return cls(table, {g: Fraction(1)})

    @classmethod
    def norm_element(cls, table: GroupTable, elements) -> "GroupAlgElt":
        return cls(table, {int(g): Fraction(1) for g in elements})

    def __add__(self, other: "GroupAlgElt") -> "GroupAlgElt":
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, Fraction(0)) + c
        return GroupAlgElt(self.table, out)

    def __sub__(self, other: "GroupAlgElt") -> "GroupAlgElt":
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, Fraction(0)) - c
        return GroupAlgElt(self.table, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GroupAlgElt(self.table,
                               {g: c * other for g, c in self.coeffs.items()})
        mul = self.table.mul
        out: dict[int, Fraction] = {}
        for g, c in self.coeffs.items():
            for h, d in other.coeffs.items():
                k = mul(g, h)
                out[k] = out.get(k, Fraction(0)) + c * d
        return GroupAlgElt(self.table, out)

    __rmul__ = __mul__

    def __neg__(self) -> "GroupAlgElt":
        return self * -1

    def __eq__(self, other) -> bool:
        return self.table is other.table and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def translate_left(self, g: int) -> "GroupAlgElt":
        mul = self.table.mul
        return GroupAlgElt(self.table,
                           {mul(g, h): c for h, c in self.coeffs.items()})

    def dumps(self) -> str:
        return "\n".join(f"{g} {c.numerator}/{c.denominator}"
                         for g, c in sorted(self.coeffs.items()))

    @classmethod
    def parse(cls, table: GroupTable, text: str) -> "GroupAlgElt":
        coeffs = {}
        for line in text.strip().splitlines():
            g, frac = line.split()
            coeffs[int(g)] = Fraction(frac)
        return cls(table, coeffs)


def project(elt: GroupAlgElt, graph: OrbitGraph) -> GroupAlgElt:
    """Ring homomorphism pi: Q[SL] -> Q[PSL]."""
    out: dict[int, Fraction] = {}
    for g, c in elt.coeffs.items():
        h = graph.proj(g)
        out[h] = out.get(h, Fraction(0)) + c
    return GroupAlgElt(graph.psl, out)


def lift_section(elt: GroupAlgElt, graph: OrbitGraph) -> GroupAlgElt:
    """Section lift Q[PSL] -> Q[SL] on the least-encoding representatives."""
    return GroupAlgElt(graph.sl,
                       {graph.proj.lift(g): c for g, c in elt.coeffs.items()})


def _stabilizer_psl(graph: OrbitGraph, orbit: str) -> list[int]:
    eo = graph.edge_orbits[orbit]
    return sorted(set(graph.proj(i) for i in eo.stabilizer.elements))


def solve_partition_of_unity(graph: OrbitGraph,
                             path: EdgePath) -> dict[str, GroupAlgElt]:
    """Exact x~_e with 1 = sum_i eps_i a_i N(G_{e_i}) x~_{e_i} in Q[G].

    The unknown N(G_e) x~_e lies in the span of {N(G_e) r : r coset rep}, so
    the system has one column per expanded edge of a traversed orbit.  A
    nonsingular square subsystem is selected mod p and solved by Dixon
    lifting; the identity is then verified exactly.
    """
    psl = graph.psl
    n = psl.n
    # group the path steps by orbit: s_e = sum eps_i a_i
    steps_by_orbit: dict[str, list[tuple[int, int]]] = {}
    for orbit, a, sign in path.steps:
        steps_by_orbit.setdefault(orbit, []).append((a, sign))

    columns: list[dict[int, int]] = []
    col_meta: list[tuple[str, int]] = []     # (orbit, coset rep)
    for orbit, steps in steps_by_orbit.items():
        stab = _stabilizer_psl(graph, orbit)
        lo = graph.edge_offset[orbit]
        hi = lo
        while hi < len(graph.edge_rep) and graph.edge_rep[hi][0] == orbit:
            hi += 1
        for idx in range(hi - lo):
            _, rep = graph.edge_rep[lo + idx]
            support = [psl.mul(h, rep) for h in stab]
            col: dict[int, int] = {}
            for a, sign in steps:
                for x in support:
                    k = psl.mul(a, x)
                    col[k] = col.get(k, 0) + sign
            col = {k: v for k, v in col.items() if v}
            if col:
                columns.append(col)
                col_meta.append((orbit, rep))

    b = {psl.identity: 1}
    p = next(intlin.prime_stream(start=(1 << 30) - 105))
    dense = np.zeros((n, len(columns)), dtype=np.int64)
    for j, col in enumerate(columns):
        for i, v in col.items():
            dense[i, j] = v % p
    _, pivots = intlin.rref_mod_p(dense, p)
    if len(pivots) < n:
        raise Inconsistent(
            f"column span has rank {len(pivots)} < {n} mod {p}")
    sub_cols = [columns[j] for j in pivots]
    sol = intlin.dixon_solve(sub_cols, n, b, p)
    if sol is None:
        raise Inconsistent("p-adic lifting failed to reconstruct a solution")

    # assemble x~_e = (1/|K_e|) N(K_e) (sum_c u_c rep_c) and verify exactly
    parts: dict[str, GroupAlgElt] = {}
    for j, u in zip(pivots, sol):
        if u == 0:
            continue
        orbit, rep = col_meta[j]
        cur = parts.get(orbit)
        term = GroupAlgElt(psl, {rep: u})
        parts[orbit] = term if cur is None else cur + term
    solution: dict[str, GroupAlgElt] = {}
    for orbit in steps_by_orbit:
        stab = _stabilizer_psl(graph, orbit)
        norm = GroupAlgElt.norm_element(psl, stab)
        inner = parts.get(orbit, GroupAlgElt(psl))
        solution[orbit] = (norm * inner) * Fraction(1, len(stab))
    verify_partition(graph, path, solution)
    return solution


def verify_partition(graph: OrbitGraph, path: EdgePath,
                     solution: dict[str, GroupAlgElt]) -> None:
    """Exact substitution check of the G-level identity."""
    psl = graph.psl
    total = GroupAlgElt(psl)
    norms = {orbit: GroupAlgElt.norm_element(psl, _stabilizer_psl(graph, orbit))
             for orbit in solution}
    nx = {orbit: norms[orbit] * solution[orbit] for orbit in solution}
    for orbit, a, sign in path.steps:
        total = total + sign * nx[orbit].translate_left(a)
    if total != GroupAlgElt.one(psl):
        raise Inconsistent("partition identity failed exact verification")


def lift_partition(graph: OrbitGraph, path: EdgePath,
                   solution: dict[str, GroupAlgElt]
                   ) -> tuple[dict[str, GroupAlgElt], GroupAlgElt]:
    """Lift to Q[SL2(q)]: x_e = lift(x~_e)/2 and delta with the exact identity
    1 = (1-z) delta + sum_i eps_i a^_i N(G^_{e_i}) x_{e_i}."""
    sl = graph.sl
    x = {orbit: lift_section(elt, graph) * Fraction(1, 2)
         for orbit, elt in solution.items()}
    norms = {orbit: GroupAlgElt.norm_element(
        sl, graph.edge_orbits[orbit].stabilizer.elements) for orbit in x}
    nx = {orbit: norms[orbit] * x[orbit] for orbit in x}
    total = GroupAlgElt(sl)
    for orbit, a, sign in path.steps:
        a_hat = graph.proj.lift(a)
        total = total + sign * nx[orbit].translate_left(a_hat)
    r = GroupAlgElt.one(sl) - total
    z_r = r.translate_left(sl.z)
    if z_r != -r:
        raise Inconsistent("z.r != -r: the residue is not in the kernel ideal")
    delta = r * Fraction(1, 2)
    one_minus_z = GroupAlgElt.one(sl) - GroupAlgElt.basis(sl, sl.z)
    if one_minus_z * delta + total != GroupAlgElt.one(sl):
        raise Inconsistent("lifted identity failed exact verification")
    return x, delta
