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

from . import intlin, module
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


def _steps_by_orbit(table: GroupTable, path: EdgePath,
                    lift=None) -> dict[str, GroupAlgElt]:
    """s_e = sum_i eps_i a_i over the steps through orbit e (a_i lifted by `lift`)."""
    out: dict[str, dict[int, Fraction]] = {}
    for orbit, a, sign in path.steps:
        key = a if lift is None else lift(a)
        coeffs = out.setdefault(orbit, {})
        coeffs[key] = coeffs.get(key, Fraction(0)) + sign
    return {orbit: GroupAlgElt(table, c) for orbit, c in out.items()}


def solve_partition_of_unity(graph: OrbitGraph,
                             path: EdgePath) -> dict[str, GroupAlgElt]:
    """Exact x~_e with 1 = sum_i eps_i a_i N(G_{e_i}) x~_{e_i} in Q[G].

    Group the steps per orbit into s_e = sum_i eps_i a_i.  The unknown
    N(G_e) x~_e lies in the span of {N(G_e) g : G_e g a right coset}, since
    N(G_e) g depends on the right coset of g; the system has one column
    s_e N(G_e) g per right coset of a traversed orbit's stabilizer.  Dixon
    lifting solves it on the pivot columns of one LU mod p
    (`intlin.dixon_solve`); the identity is then verified exactly.
    """
    psl = graph.psl
    n = psl.n
    psl.build_cayley()
    mul, inv = psl._cayley, psl._inv
    s_by_orbit = _steps_by_orbit(psl, path)

    blocks: list[np.ndarray] = []
    col_meta: list[tuple[str, int]] = []     # (orbit, right coset rep)
    for orbit, s_e in s_by_orbit.items():
        stab = _stabilizer_psl(graph, orbit)
        s_vec = np.zeros(n, dtype=np.int64)
        for g, c in s_e.coeffs.items():
            s_vec[g] = int(c)
        norm = np.zeros(n, dtype=np.int64)
        norm[stab] = 1
        u = module.group_product(mul, inv, s_vec, norm)     # s_e N(K)
        covered = np.zeros(n, dtype=bool)
        reps = []
        for g in range(n):
            if not covered[g]:
                reps.append(g)
                covered[mul[stab, g]] = True
        # column for the coset K g: (u g)(z) = u(z g^-1)
        cols = u[mul[:, inv[reps]]]
        keep = cols.any(axis=0)
        blocks.append(cols[:, keep])
        col_meta += [(orbit, r) for r, k in zip(reps, keep) if k]

    b = np.zeros(n, dtype=np.int64)
    b[psl.identity] = 1
    p = next(intlin.prime_stream(start=(1 << 30) - 105))
    a = np.concatenate(blocks, axis=1)
    del blocks                  # one copy of the wide system through the LU
    try:
        sol = intlin.dixon_solve(a, b, p)
    except ArithmeticError as exc:
        raise Inconsistent(str(exc)) from exc
    if sol is None:
        raise Inconsistent("p-adic lifting failed to reconstruct a solution")

    # assemble x~_e = (1/|K_e|) N(K_e) (sum_c u_c rep_c) and verify exactly
    parts: dict[str, dict[int, Fraction]] = {orbit: {} for orbit in s_by_orbit}
    for (orbit, rep), u_c in zip(col_meta, sol):
        if u_c:
            parts[orbit][rep] = u_c
    solution: dict[str, GroupAlgElt] = {}
    for orbit, coeffs in parts.items():
        stab = _stabilizer_psl(graph, orbit)
        norm = GroupAlgElt.norm_element(psl, stab)
        solution[orbit] = (norm * GroupAlgElt(psl, coeffs)) * Fraction(1, len(stab))
    verify_partition(graph, path, solution)
    return solution


def verify_partition(graph: OrbitGraph, path: EdgePath,
                     solution: dict[str, GroupAlgElt]) -> None:
    """Exact substitution check of the G-level identity."""
    psl = graph.psl
    total = GroupAlgElt(psl)
    for orbit, s_e in _steps_by_orbit(psl, path).items():
        norm = GroupAlgElt.norm_element(psl, _stabilizer_psl(graph, orbit))
        total = total + s_e * (norm * solution[orbit])
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
    total = GroupAlgElt(sl)
    for orbit, s_hat in _steps_by_orbit(sl, path, graph.proj.lift).items():
        total = total + s_hat * (norms[orbit] * x[orbit])
    r = GroupAlgElt.one(sl) - total
    z_r = r.translate_left(sl.z)
    if z_r != -r:
        raise Inconsistent("z.r != -r: the residue is not in the kernel ideal")
    delta = r * Fraction(1, 2)
    one_minus_z = GroupAlgElt.one(sl) - GroupAlgElt.basis(sl, sl.z)
    if one_minus_z * delta + total != GroupAlgElt.one(sl):
        raise Inconsistent("lifted identity failed exact verification")
    return x, delta
