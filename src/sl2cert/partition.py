"""Group-algebra partition of unity along an attaching path, and its lift
through the central extension.

Given a certified closed path xi = (a_1 e_1^{eps_1}, ..., a_n e_n^{eps_n})
with edge chain y, solve for elements x~_e of Q[G] with

    1 = sum_i eps_i a_i N(G_{e_i}) x~_{e_i}        (G = PSL2(q))

from the pairing matrix M of the acyclicity certificate (row g = class of
g.y).  Let f be the edge vector with M f = e_1 on the non-tree edges and
zero on the tree edges.  Then phi(c) = sum_h f(h^-1 c) h is a G-map from
edge chains to Q[G] with phi(y)[h] = (M f)[h^-1], so phi(y) = 1.  The
stabilizer K_e of the base edge b_e fixes it, so x~_e = phi(b_e) / |K_e|
has N(K_e) x~_e = phi(b_e), and the sum over the steps is phi(y) = 1.

The lift is x_e = x~_e / 2 (any section) and delta = (1 - z)/4, with the
exact identity

    1 = (1 - z) delta + sum_i eps_i a^_i N(G^_{e_i}) x_{e_i}

in Q[G^] (G^ = SL2(q)): z lies in every lifted stabilizer, so the lifted
sum is fixed by z and projects to 1, hence equals (1 + z)/2.  The solve is
Dixon lifting (`intlin.dixon_solve`).  Both identities are checked exactly
on integer coefficient arrays over one common denominator, with every
group-ring product taken by `module.group_product`; the products take
their permutations from `GroupTable.locate`, so no multiplication table
is built, for SL2(q) or PSL2(q).  Numerics never certify.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import intlin, module
from .acyclic import CycleSpace, EdgePath, path_edge_vector
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

    def dumps(self) -> str:
        return "\n".join(f"{g} {c.numerator}/{c.denominator}"
                         for g, c in sorted(self.coeffs.items()))


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

    Solve M f = e_1 on the path's pairing matrix M (`CycleSpace`) by Dixon
    lifting; f lives on the non-tree edges and is zero on the tree edges.
    Each traversed orbit reads x~_e[h] = f(h^-1 b_e) / |K_e| off f, with
    b_e its base edge and K_e = G_e its stabilizer (see the module
    docstring).  M f = e_1 has one solution when M is nonsingular, and
    none otherwise (Inconsistent); the identity is then verified exactly.
    """
    psl = graph.psl
    cyc = CycleSpace(graph)
    mat = cyc.pairing_matrix(path_edge_vector(graph, path))
    b = _indicator(psl.n, [psl.identity])
    p = next(intlin.prime_stream(start=(1 << 30) - 105))
    try:
        f = intlin.dixon_solve(mat, b, p)
    except ArithmeticError as exc:
        raise Inconsistent(str(exc)) from exc
    if f is None:
        raise Inconsistent("p-adic lifting failed to reconstruct a solution")

    den = math.lcm(*(c.denominator for c in f))
    f_num = np.zeros(graph.n_edges, dtype=object)
    f_num[cyc.non_tree] = [c.numerator * (den // c.denominator) for c in f]
    solution: dict[str, GroupAlgElt] = {}
    for orbit in dict.fromkeys(orbit for orbit, _, _ in path.steps):
        base = graph.edge_of(orbit, psl.identity)
        order = len(_stabilizer_psl(graph, orbit))
        solution[orbit] = _element(psl, f_num[cyc.trans[cyc.inv, base]],
                                   den * order)
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
    """Lift to Q[SL2(q)]: x_e = lift(x~_e)/2 and delta = (1 - z)/4 with the
    exact identity 1 = (1-z) delta + sum_i eps_i a^_i N(G^_{e_i}) x_{e_i}.

    The lifted sum S carries the denominator d = 2 lcm(den x~_e).  The one
    check is 2 d S = d (1 + z) in integers; with (1 - z)^2 / 4 = (1 - z)/2
    it gives the identity.
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
    one_plus_z = _indicator(sl.n, [sl.identity, sl.z]).astype(object)
    if not np.array_equal(2 * total, den * one_plus_z):
        raise Inconsistent("the lifted sum is not (1 + z)/2: "
                           "lifted identity failed exact verification")
    x = {orbit: _element(sl, v, den) for orbit, v in x_num.items()}
    return x, GroupAlgElt(sl, {sl.identity: Fraction(1, 4),
                               sl.z: Fraction(-1, 4)})
