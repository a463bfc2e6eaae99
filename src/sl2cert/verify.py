"""Quantitative checks: class censuses, commutant dimensions, eigenvalue
sets, the moduli dimension identity, the two degree inequalities and the
lemma 2.1 intersection bound.

Every check recomputes both sides from the group/character machinery and
reports them in a CheckResult; nothing numeric is hardcoded beyond the
closed-form targets being verified.  Each result is produced by `_timed`,
which records its wall time and turns an exception into a failed result.
"""

from __future__ import annotations

import math
from fractions import Fraction
import time
from dataclasses import dataclass

from . import chartab, groups, smallgroups, unitary
from .groups import ClassLabel

# stabilizers of the four vertex orbits and four edge orbits
VERTEX_STABILIZERS = {"v0": "B", "v1": "2Dq-1", "v2": "2Dq+1", "v3": "SL2_3"}
EDGE_STABILIZERS = {"eta0": "Cq-1", "eta1": "C4", "eta2": "Q8", "eta3": "C6"}


@dataclass
class CheckResult:
    name: str
    passed: bool
    expected: object
    computed: object
    elapsed: float = 0.0
    detail: str = ""


def _check(name: str, expected, computed, detail: str = "") -> CheckResult:
    return CheckResult(name, expected == computed, expected, computed, detail=detail)


def _timed(name: str, fn, *args) -> CheckResult:
    """fn(*args) with its wall time; an exception becomes a failed result."""
    t0 = time.perf_counter()
    try:
        res = fn(*args)
    except Exception as exc:      # aborted check -> failed result with diagnostics
        res = CheckResult(name, False, "no exception",
                          f"{type(exc).__name__}: {exc}",
                          detail=str(getattr(exc, "diagnostics", "")))
    res.elapsed = time.perf_counter() - t0
    return res


class Session:
    """Caches the group, subgroups and character table for one q."""

    def __init__(self, q: int):
        groups.require_valid_q(q)
        self.q = q
        self.sl = groups.enumerate_group(q, "SL")
        self.subgroups = groups.all_standard_subgroups(self.sl)
        self.table = chartab.CharacterTable(q)
        self.eta1 = self.table["eta1"]
        self._dims: dict[str, int] = {}

    def dim(self, name: str) -> int:
        """Commutant dimension of the degree-(q-1)/2 representation on a subgroup."""
        if name not in self._dims:
            self._dims[name] = chartab.centralizer_dim(
                self.eta1, self.subgroups[name], self.sl)
        return self._dims[name]

    @property
    def dim_g(self) -> int:
        return ((self.q - 1) // 2) ** 2


def _expected_censuses(q: int) -> dict[str, dict[ClassLabel, int]]:
    """Closed-form censuses of the eight subgroups."""
    one, z = ClassLabel("1"), ClassLabel("z")
    a4 = ClassLabel("a", (q - 1) // 4)
    if q % 3 == 1:
        six = [ClassLabel("a", (q - 1) // 3), ClassLabel("a", (q - 1) // 6)]
    else:
        six = [ClassLabel("b", (q + 1) // 3), ClassLabel("b", (q + 1) // 6)]
    exp: dict[str, dict[ClassLabel, int]] = {}
    exp["Cq-1"] = {one: 1, z: 1, **{ClassLabel("a", l): 2
                                    for l in range(1, (q - 1) // 2)}}
    exp["C4"] = {one: 1, z: 1, a4: 2}
    exp["Q8"] = {one: 1, z: 1, a4: 6}
    exp["C6"] = {one: 1, z: 1, six[0]: 2, six[1]: 2}
    borel = {one: 1, z: 1}
    for kind in ("c", "d", "zc", "zd"):
        borel[ClassLabel(kind)] = (q - 1) // 2
    for l in range(1, (q - 1) // 2):
        borel[ClassLabel("a", l)] = 2 * q
    exp["B"] = borel
    d_minus = {one: 1, z: 1, **{ClassLabel("a", l): 2
                                for l in range(1, (q - 1) // 2)}}
    d_minus[a4] += q - 1          # the q-1 reflections land in a^{(q-1)/4}
    exp["2Dq-1"] = d_minus
    exp["2Dq+1"] = {one: 1, z: 1, a4: q + 1,
                    **{ClassLabel("b", m): 2 for m in range(1, (q + 1) // 2)}}
    exp["SL2_3"] = {one: 1, z: 1, a4: 6, six[0]: 8, six[1]: 8}
    return exp


def _expected_dims(q: int) -> dict[str, int]:
    """Closed-form commutant dimensions of the eight subgroups."""
    return {
        "Cq-1": (q - 1) // 2,
        "C4": (q - 1) ** 2 // 8,
        "Q8": (q - 1) ** 2 // 16,
        "C6": (q - 1) ** 2 // 12 if q % 3 == 1 else (q * q - 2 * q + 9) // 12,
        "B": 1,
        "2Dq-1": (q - 1) // 4,
        "2Dq+1": (q - 1) // 4,
        "SL2_3": ((q - 1) ** 2 // 48 if q % 3 == 1
                  else ((q - 1) ** 2 + 32) // 48),
    }


def verify_prop31(q: int, session: Session | None = None) -> list[CheckResult]:
    """Census of each stabilizer subgroup against its closed form."""
    ses = session or Session(q)
    # the two q mod 3 branches are tied to the residue mod 24
    if (q % 24 == 13) != (q % 3 == 1) or (q % 24 == 5) != (q % 3 == 2):
        raise ValueError(f"q={q}: q mod 3 = {q % 3} does not match q mod 24 = "
                         f"{q % 24}; the census needs q = 5 or 13 (mod 24)")
    order = ("Cq-1", "C4", "Q8", "C6", "B", "2Dq-1", "2Dq+1", "SL2_3")
    expected = _expected_censuses(q)

    def by_str(counts) -> dict[str, int]:
        return {str(k): v for k, v in sorted(counts.items(),
                                             key=lambda kv: str(kv[0]))}

    def check(name: str) -> CheckResult:
        got = chartab.subgroup_census(ses.sl, ses.subgroups[name].elements)
        return _check(f"census[{name}]", by_str(expected[name]), by_str(got))
    return [_timed(f"census[{name}]", check, name) for name in order]


def verify_commutant_dims(q: int, session: Session | None = None) -> list[CheckResult]:
    """Commutant dimensions of the degree-(q-1)/2 stabilizer restrictions."""
    ses = session or Session(q)
    expect_dims = _expected_dims(q)

    def check(name: str) -> CheckResult:
        return _check(f"commutant_dim[{name}]", expect_dims[name], ses.dim(name))
    return [_timed(f"commutant_dim[{name}]", check, name) for name in expect_dims]


def verify_eigenvalues(q: int, session: Session | None = None) -> list[CheckResult]:
    """Eigenvalue supports and multiplicity sums of the edge generators."""
    ses = session or Session(q)
    sl = ses.sl

    def support(g: int, label: str, conductor: int, want: set) -> CheckResult:
        return _check(f"eigenvalues[{label}]", want,
                      chartab.eigenvalue_support(ses.eta1, g, sl),
                      detail=f"exponents of zeta_{conductor}")

    def mult_sum(g: int, label: str) -> CheckResult:
        mults = chartab.eigenvalue_multiplicities(ses.eta1, g, sl)
        return _check(f"eigenvalue_mult_sum[{label}]", (q - 1) // 2,
                      sum(mults.values()))
    out = []
    g1, g3 = groups.edge_generators(sl)
    for g, label, conductor, want in ((g1, "g1", 4, {1, 3}),
                                      (g3, "g3", 6, {1, 3, 5})):
        out.append(_timed(f"eigenvalues[{label}]", support,
                          g, label, conductor, want))
        out.append(_timed(f"eigenvalue_mult_sum[{label}]", mult_sum, g, label))
    return out


def moduli_dimension_identity(q: int, k: int,
                              session: Session | None = None) -> CheckResult:
    """Edge commutant sum + k dim(G) - vertex commutant sum = (k+1) dim(G)."""
    ses = session or Session(q)

    def check() -> CheckResult:
        edge_sum = sum(ses.dim(EDGE_STABILIZERS[e])
                       for e in ("eta0", "eta1", "eta2", "eta3"))
        vertex_sum = sum(ses.dim(VERTEX_STABILIZERS[v]) for v in ("v1", "v2", "v3"))
        lhs = edge_sum + k * ses.dim_g - vertex_sum
        return _check(f"moduli_dim[k={k}]", (k + 1) * ses.dim_g, lhs,
                      detail=f"edges {edge_sum} - vertices {vertex_sum} + {k}*{ses.dim_g}")
    return _timed(f"moduli_dim[k={k}]", check)


def degree_inequalities(q: int, session: Session | None = None) -> list[CheckResult]:
    """Strict dimension-count inequalities forcing degree 0."""
    ses = session or Session(q)
    sl = ses.sl
    dim_g = ses.dim_g
    m = (q - 1) // 2
    floor = Fraction((q - 1) ** 2, 24)
    ks: list[int] = []

    def counts() -> CheckResult:
        ks.extend(len(chartab.eigenvalue_support(ses.eta1, g, sl))
                  for g in groups.edge_generators(sl))
        return _check("eigenvalue_counts", (2, 3), tuple(ks))
    out = [_timed("eigenvalue_counts", counts)]
    if len(ks) != 2:          # the counts raised; the bounds below need them
        return out
    # AM-QM bound for the intersection of conjugated commutants
    bound = Fraction(m * m, ks[0] * ks[1])
    out.append(_timed("amqm_floor", _check, "amqm_floor", floor, bound))

    def degree13() -> CheckResult:
        val = dim_g - ses.dim("C4") + ses.dim("2Dq+1")
        return CheckResult("degree[13mod24]", val < dim_g, f"< {dim_g}", val,
                           detail=f"{dim_g} - {ses.dim('C4')} + {ses.dim('2Dq+1')}")

    def degree5() -> CheckResult:
        val_real = dim_g + ses.dim("2Dq+1") - bound
        val_ceil = dim_g + ses.dim("2Dq+1") - math.ceil(bound)
        return CheckResult("degree[5mod24]",
                           val_real < dim_g and val_ceil < dim_g,
                           f"< {dim_g}", val_ceil,
                           detail=f"{dim_g} + {ses.dim('2Dq+1')} - ceil({bound})")
    if q % 24 == 13:
        out.append(_timed("degree[13mod24]", degree13))
    else:
        out.append(_timed("degree[5mod24]", degree5))
    return out


def degree_inequality_sweep(q_max: int = 200) -> list[CheckResult]:
    """Both strict inequalities for every valid prime q < q_max.

    The eigenvalue counts k1, k2 are recomputed from the character eta1 via
    closed-form power labels, so no group enumeration is needed.  The edge
    generators lie in the tori, so eta1 is needed only there, where its
    values are integers (`chartab.eta_on_tori`) and no Gauss sum is built.
    Every comparison is made in integers and Fractions.
    """
    def check(q: int) -> CheckResult:
        eta1 = chartab.eta_on_tori(q)
        p1, p3 = chartab.edge_generator_power_labels(q)
        m1 = chartab.multiplicities_from_power_labels(eta1, p1)
        m3 = chartab.multiplicities_from_power_labels(eta1, p3)
        k1 = sum(1 for v in m1.values() if v > 0)
        k2 = sum(1 for v in m3.values() if v > 0)
        dim_g = ((q - 1) // 2) ** 2
        m = (q - 1) // 2
        floor = Fraction((q - 1) ** 2, 24)
        amqm = Fraction(m * m, k1 * k2)
        dims = _expected_dims(q)
        val13 = dim_g - dims["C4"] + dims["2Dq+1"]
        val5 = dim_g + dims["2Dq+1"] - math.ceil(floor)
        ok = (k1 == 2 and k2 == 3 and amqm == floor
              and val13 < dim_g and val5 < dim_g)
        return CheckResult(f"degree_sweep[q={q}]", ok, f"< {dim_g}",
                           (val13, val5),
                           detail=f"k1={k1} k2={k2} amqm={amqm}")
    return [_timed(f"degree_sweep[q={q}]", check, q)
            for q in range(7, q_max) if groups.valid_q(q)]


def verify_lemma21() -> list[CheckResult]:
    """Lemma 2.1 on every ordered pair of elements of each small test group.

    The conjugated commutants of a pair must meet in dimension at least
    ceil(m^2 / (k1 k2)); the result names the worst pair.
    """
    def sweep(group: smallgroups.SmallGroup) -> CheckResult:
        n = len(group.elements)
        worst = None
        for g1 in range(n):
            for g2 in range(n):
                _, _, inter, bound = unitary.lemma21_construct(group, g1, g2)
                margin = inter - math.ceil(bound)
                if worst is None or margin < worst[0]:
                    worst = (margin, g1, g2)
        margin, g1, g2 = worst
        return _check(f"lemma21[{group.name}]", True, margin >= 0,
                      detail=f"worst intersection margin {margin} "
                             f"at pair ({g1},{g2})")
    return [_timed(f"lemma21[{group.name}]", sweep, group)
            for group in smallgroups.all_test_groups()]
