"""Group-algebra partition of unity along an attaching path, and its lift
through the central extension.

Given a certified closed path xi = (a_1 e_1^{eps_1}, ..., a_n e_n^{eps_n}),
solve for elements x~_e of Q[G] with

    1 = sum_i eps_i a_i N(G_{e_i}) x~_{e_i}        (G = PSL2(q))

and lift with x_e = x~_e / 2 (any section), r = 1 - sum eps_i a^_i N(G^_e) x_e,
delta = r/2, giving the exact identity

    1 = (1 - z) delta + sum_i eps_i a^_i N(G^_{e_i}) x_{e_i}

in Q[G^] (G^ = SL2(q)).  The solve is modular (Dixon lifting + rational
reconstruction).  Its system is sparse with +-1 entries on short walks, so
`intlin.dixon_solve` eliminates most of it over Z with +-1 pivots and runs
the dense LU mod p only on the block left over.  The assembly and both
identities run on integer coefficient arrays over one common denominator
per identity, with every group-ring product taken by `module.group_product`;
the SL2(q) products take their permutations from `GroupTable.locate`, so no
SL2(q) multiplication table is built.  Numerics never certify.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import intlin, module
from .acyclic import EdgePath
from .groups import GroupTable
from .orbit_graph import OrbitGraph


class Inconsistent(Exception):
    pass


class GroupAlgElt:
    """An element of Q[G] as a record: sparse coefficients over a group
    table, with a text form.  Arithmetic runs on coefficient arrays
    (`module.group_product`)."""

    __slots__ = ("table", "coeffs")

    def __init__(self, table: GroupTable, coeffs: dict[int, Fraction] | None = None):
        self.table = table
        self.coeffs = {i: c for i, c in (coeffs or {}).items() if c != 0}

    def __eq__(self, other) -> bool:
        return self.table is other.table and self.coeffs == other.coeffs

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


def _stabilizer_psl(graph: OrbitGraph, orbit: str) -> list[int]:
    eo = graph.edge_orbits[orbit]
    return sorted(set(graph.proj(i) for i in eo.stabilizer.elements))


def _indicator(n: int, elements) -> np.ndarray:
    """The int64 coefficient array of sum_{g in elements} g."""
    out = np.zeros(n, dtype=np.int64)
    out[list(elements)] = 1
    return out


def _step_sums(path: EdgePath, n: int) -> dict[str, np.ndarray]:
    """s_e = sum_i eps_i a_i over the steps through orbit e, in Z[PSL2(q)]."""
    out: dict[str, np.ndarray] = {}
    for orbit, a, sign in path.steps:
        out.setdefault(orbit, np.zeros(n, dtype=np.int64))[a] += sign
    return out


def _arrays(elements: dict[str, GroupAlgElt],
            n: int) -> tuple[dict[str, np.ndarray], int]:
    """Integer numerator arrays of the elements over their least common
    denominator."""
    den = math.lcm(*(c.denominator for elt in elements.values()
                     for c in elt.coeffs.values()))
    out = {}
    for orbit, elt in elements.items():
        num = np.zeros(n, dtype=object)
        for g, c in elt.coeffs.items():
            num[g] = c.numerator * (den // c.denominator)
        out[orbit] = num
    return out, den


def _element(table: GroupTable, num: np.ndarray, den: int) -> GroupAlgElt:
    return GroupAlgElt(table, {int(g): Fraction(int(num[g]), den)
                               for g in np.flatnonzero(num)})


def solve_partition_of_unity(graph: OrbitGraph,
                             path: EdgePath) -> dict[str, GroupAlgElt]:
    """Exact x~_e with 1 = sum_i eps_i a_i N(G_{e_i}) x~_{e_i} in Q[G].

    Group the steps per orbit into s_e = sum_i eps_i a_i.  The unknown
    N(G_e) x~_e lies in the span of {N(G_e) g : G_e g a right coset}, since
    N(G_e) g depends on the right coset of g; the system has one column
    s_e N(G_e) g per right coset of a traversed orbit's stabilizer.  Dixon
    lifting solves it on the pivot columns of one factorization mod p
    (`intlin.dixon_solve`); the identity is then verified exactly.
    """
    psl = graph.psl
    n = psl.n
    psl.build_cayley()
    mul, inv = psl._cayley, psl._inv
    s_by_orbit = _step_sums(path, n)

    blocks: list[np.ndarray] = []
    col_meta: list[tuple[str, int]] = []     # (orbit, right coset rep)
    for orbit, s_e in s_by_orbit.items():
        stab = _stabilizer_psl(graph, orbit)
        u = module.group_product(psl, s_e, _indicator(n, stab))    # s_e N(K)
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

    # assemble x~_e = N(K_e) (sum_c u_c rep_c) / |K_e| over one denominator
    den = math.lcm(*(u_c.denominator for u_c in sol))
    parts = {orbit: np.zeros(n, dtype=object) for orbit in s_by_orbit}
    for (orbit, rep), u_c in zip(col_meta, sol):
        parts[orbit][rep] = u_c.numerator * (den // u_c.denominator)
    solution: dict[str, GroupAlgElt] = {}
    for orbit, v in parts.items():
        stab = _stabilizer_psl(graph, orbit)
        x_num = module.group_product(psl, _indicator(n, stab), v)
        solution[orbit] = _element(psl, x_num, den * len(stab))
    verify_partition(graph, path, solution)
    return solution


def verify_partition(graph: OrbitGraph, path: EdgePath,
                     solution: dict[str, GroupAlgElt]) -> None:
    """Exact substitution check of the G-level identity."""
    psl, n = graph.psl, graph.psl.n
    num, den = _arrays(solution, n)
    total = sum(module.group_product(psl, s_e, module.group_product(
        psl, _indicator(n, _stabilizer_psl(graph, orbit)), num[orbit]))
        for orbit, s_e in _step_sums(path, n).items())
    if not np.array_equal(total, den * _indicator(n, [psl.identity]).astype(object)):
        raise Inconsistent("partition identity failed exact verification")


def lift_partition(graph: OrbitGraph, path: EdgePath,
                   solution: dict[str, GroupAlgElt]
                   ) -> tuple[dict[str, GroupAlgElt], GroupAlgElt]:
    """Lift to Q[SL2(q)]: x_e = lift(x~_e)/2 and delta with the exact identity
    1 = (1-z) delta + sum_i eps_i a^_i N(G^_{e_i}) x_{e_i}.

    x_e and the sum carry the denominator d = 2 lcm(den x~_e), r the
    numerators of d (1 - sum), and delta = r / 2d.
    """
    sl, section = graph.sl, graph.proj.section

    def lifted(v: np.ndarray) -> np.ndarray:
        out = np.zeros(sl.n, dtype=v.dtype)
        out[section] = v
        return out

    num, den = _arrays(solution, graph.psl.n)
    den *= 2
    x_num = {orbit: lifted(v) for orbit, v in num.items()}
    total = sum(module.group_product(sl, lifted(s_e), module.group_product(
        sl, _indicator(sl.n, graph.edge_orbits[orbit].stabilizer.elements),
        x_num[orbit])) for orbit, s_e in _step_sums(path, graph.psl.n).items())
    one = _indicator(sl.n, [sl.identity]).astype(object)
    r = den * one - total
    z = _indicator(sl.n, [sl.z])
    if not np.array_equal(module.group_product(sl, z, r), -r):
        raise Inconsistent("z.r != -r: the residue is not in the kernel ideal")
    # 2d ((1 - z) delta + sum) = 2d . 1, with delta = r / 2d
    if not np.array_equal(module.group_product(sl, one - z, r) + 2 * total,
                          2 * den * one):
        raise Inconsistent("lifted identity failed exact verification")
    x = {orbit: _element(sl, v, den) for orbit, v in x_num.items()}
    return x, _element(sl, r, 2 * den)
