import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from sympy import QQ, Matrix
from sympy.polys.matrices import DomainMatrix
from sympy.matrices.normalforms import hermite_normal_form

from sl2cert import acyclic, intlin, module
from sl2cert.acyclic import CycleSpace, EdgePath, NoPathFound

from test_acyclic import FIXED_WALK


@pytest.fixture(scope="module")
def cyc(graph13):
    return CycleSpace(graph13)


@pytest.fixture(scope="module")
def layer(graph13, cyc, table13):
    return module.ModuleLayer(graph13, cyc, table13)


@pytest.fixture(scope="module")
def fixed_vec(graph13):
    psl = graph13.psl
    path = EdgePath(0, [(o, psl.index[m], s) for o, m, s in FIXED_WALK])
    return acyclic.path_edge_vector(graph13, path)


def test_blocks_at_13(layer):
    got = [(b.name, b.m, b.d) for b in layer.blocks]
    assert got == [("triv", 1, 1), ("St", 13, 13), ("chi_2", 14, 14),
                   ("chi_4", 14, 14), ("theta_2+theta_4+theta_6", 36, 12),
                   ("xi1+xi2", 14, 7)]
    # the blocks account for every rational dimension of Q[G]
    assert sum(b.m * b.d for b in layer.blocks) == layer.n


# per block: sha256 of J.tobytes(), of gk.tobytes() (int64) and str(kappa)
BLOCK_SETUP_13 = {
    "triv": ("af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
             "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
             "6"),
    "St": ("c23608228f3242f4daf862f5eff9d07b06f17cff9d7d156b883fa599559d76b1",
           "f35216076140f952046434e5d6ac908459399301a785be8c9ef36c184a59e67c",
           "31799040"),
    "chi_2": ("5a2f7360331c3938877d444b38f104cd87586da0c88032acc26fe593a838a852",
              "fe5c6d36c15c8b59baf71bace05fbc66a00babd6ba716c8acc299604d4e813e1",
              "499703256"),
    "chi_4": ("0f52b00fb04590d91e90cce8221758b10ddc89115f603a055a28db2e196da0ba",
              "0f28bbd64ed05561e0b90b9f352cd47a900f2f4dc99f7f472f7914f40e88e038",
              "8911032"),
    "theta_2+theta_4+theta_6": (
        "bd901e151994eb75f7ff1d8576066c59fcf03c36a44ac57946e2635635e025c8",
        "3e232ecb168a85872e88ced6b47e1b7464f95551ab2e337f0e842f7e5d3fbf3b",
        "248007520233473984302813566409394199207217152"),
    "xi1+xi2": ("c964833bf720c538d56355a51ba5a10a1ca717f099f424b75988859e0e472b34",
                "aa0a22f46e8bd80792d8a8236423324a924e46574a3beaa978da7d36d3b6f21d",
                "3293544160296"),
}


def test_block_setup_is_pinned(layer):
    got = {b.name: (hashlib.sha256(b.J.astype(np.int64).tobytes()).hexdigest(),
                    hashlib.sha256(b.gk.astype(np.int64).tobytes()).hexdigest(),
                    str(b.kappa)) for b in layer.blocks}
    assert got == BLOCK_SETUP_13


def test_repairs_in_seed_1_search(graph13, monkeypatch):
    outcomes = []
    repair = module.repair

    def recording(layer, cls):
        try:
            out = repair(layer, cls)
        except module.RepairFailed as exc:
            outcomes.append(str(exc))
            raise
        outcomes.append("generator")
        return out
    monkeypatch.setattr(module, "repair", recording)
    with pytest.raises(NoPathFound) as info:
        acyclic.search_attaching_path(graph13, seed=1, budget=150)
    unreached = "no unit tuple in the target class (54960 of 26574912 classes reached)"
    assert outcomes == [unreached, "block chi_2: the moves keep a common factor",
                        unreached]
    diag = info.value.diagnostics
    assert diag["evaluations"] == 150
    assert diag["best_abs_logdet"] == pytest.approx(367.7863852103786, rel=1e-12)
    assert diag["non_units"] == ["St", "chi_2", "chi_4", "xi1+xi2",
                                 "theta_2+theta_4+theta_6"]


def test_block_determinants_on_fixed_walk(layer, cyc, fixed_vec):
    dets = layer.dets(cyc.class_of(fixed_vec))
    assert dets == {"triv": -1, "St": 1, "chi_2": 36, "chi_4": 2,
                    "theta_2+theta_4+theta_6": -281, "xi1+xi2": -9}
    assert layer.non_units(dets) == ["chi_2", "chi_4",
                                     "theta_2+theta_4+theta_6", "xi1+xi2"]


def test_block_determinants_match_det_crt(layer, cyc, fixed_vec):
    # det M(y) = +- prod_C s_C^d_C
    dets = layer.dets(cyc.class_of(fixed_vec))
    product = math.prod(abs(dets[b.name]) ** b.d for b in layer.blocks)
    assert product == 2 ** 42 * 3 ** 42 * 281 ** 12
    det, _, _ = intlin.det_crt(cyc.pairing_matrix(fixed_vec))
    assert abs(det) == product
    assert layer.log_abs_det(dets) == pytest.approx(math.log(product))


def _random_lattices(count: int):
    rng = random.Random(3)
    while count:
        k = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) * rng.choice((1, 2, 3)) for _ in range(k)]
                for _ in range(rng.randint(k, k + 3))]
        if Matrix(rows).rank() == k:
            count -= 1
            yield rows


def test_hnf_rows_matches_sympy():
    for rows in _random_lattices(60):
        # sympy's HNF spans the columns with pivots last; reverse coordinates
        w = hermite_normal_form(Matrix([r[::-1] for r in rows]).T)
        want = sorted(list(w[:, j])[::-1] for j in range(w.cols))
        assert sorted(module.hnf_rows(rows)) == want
        # repeated rows and negated rows span the same lattice
        padded = rows + [[-a for a in r] for r in rows] + rows[::-1]
        assert sorted(module.hnf_rows(iter(padded))) == want


def test_hnf_rows_marks_missing_pivots():
    assert module.hnf_rows([[4, 6], [6, 9]]) == [[2, 3], None]
    assert module.hnf_rows([]) == []


def test_lattice_det_matches_sympy():
    # the first lattice reaches its first column's gcd 1 at the third row only:
    # with 6 | bound the pivot entry runs bound, 6, 2, 1
    for rows in [[[6, 1], [10, 4], [15, 6]], *_random_lattices(60)]:
        covolume = abs(hermite_normal_form(Matrix(rows).T).det())
        k = len(rows[0])
        bound = abs(Matrix(rows).T.det()) if len(rows) == k else covolume * 6
        assert module.lattice_det(rows, bound) == covolume
        # repeated, negated and bound-shifted rows span the same lattice mod bound
        a = np.array(rows, dtype=np.int64)
        shift = bound * np.resize(np.arange(-2, 3), a.shape)
        padded = np.vstack([a, -a, a[::-1], a + shift, -a - shift, np.zeros_like(a)])
        assert module.lattice_det(padded, bound) == covolume
    # generators that vanish modulo the bound leave bound * Z^m
    assert module.lattice_det(np.array([[5, -10], [0, 15], [0, 0]]), 5) == 25
    assert module.lattice_det(np.array([[7, 0, -14]]), 7) == 7 ** 3
    # one column
    assert module.lattice_det(np.array([[4], [-6], [10], [-6]]), 12) == 2
    assert module.lattice_det(np.array([[9], [0]]), 9) == 9
    assert module.lattice_det(np.array([[0]]), 9) == 9


# (bound, covolume) of each lattice_det call in one q = 13 layer build, in block
# order: eps Lambda, then eps H1, per block
COVOLUMES_13 = [
    (1, 1), (6, 6),
    (399854, 2366), (12794880, 188160),
    (812017791, 62462907), (8302761792, 38438712),
    (1113879, 1113879), (53466192, 8911032),
    (12717236448436079650886676316227568571226432,
     5082974589371108861200912382861364744),
    (1265425896147160449802506432449849912735907840,
     99126561689015025333588163372165065984),
    (548924026716, 548924026716), (19761264961776, 3293544160296),
]


def test_lattice_covolumes_at_13_are_pinned(graph13, cyc, table13, monkeypatch):
    # BLOCK_SETUP_13 pins only the ratio kappa of each block's two covolumes
    calls = []
    lattice_det = module.lattice_det

    def recording(gens, bound):
        out = lattice_det(gens, bound)
        calls.append((bound, out))
        return out
    monkeypatch.setattr(module, "lattice_det", recording)
    module.ModuleLayer(graph13, cyc, table13)
    assert calls == COVOLUMES_13


# characteristic polynomials (t^k first) of the eta that repair picks for the
# two irrational blocks at q = 13, and the length and sha256 of repr(units)
FIELDS_13 = {2: ((1, -1, -3), 1250,
                 "1a56674c37b15261d5c75230cb48329c87b57f33e139e19ee67846c106f15d9a"),
             3: ((1, -1, -2, 1), 2662,
                 "cbce50939de8cd2575488e66e67a19843bd0cf73e5d5aeb67dacb9d8cd813846")}


@pytest.mark.parametrize("k", sorted(FIELDS_13))
def test_field_data_matches_krylov_route(k):
    charpoly, count, digest = FIELDS_13[k]
    fd = module._field_data([QQ(c) for c in charpoly])
    # reference: multiplication by eta over QQ, and the matrix of a as the
    # Krylov matrix a, eta a, ..., eta^(k-1) a
    mult = [[int(i == j + 1) for j in range(k)] for i in range(k)]
    for i in range(k):
        mult[i][k - 1] = -charpoly[k - i]
    mult = DomainMatrix.from_list(mult, QQ)
    rng = random.Random(k)
    vecs = [[0] * k] + [[rng.randint(-60, 60) for _ in range(k)] for _ in range(199)]
    norms = fd.norms(np.array(vecs))
    for a, b, norm in zip(vecs, vecs[1:] + vecs[:1], norms):
        ma, mb = module._krylov(mult, a), module._krylov(mult, b)
        assert norm == ma.det()
        assert fd.trace_form(a, b) == sum((ma * mb).diagonal())
    for _ in range(20):
        a = [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(k)]
        b = [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(k)]
        ma, mb = module._krylov(mult, a), module._krylov(mult, b)
        assert fd.matrix(a) == ma
        assert fd.trace_form(a, b) == sum((ma * mb).diagonal())
    assert len(fd.units) == count
    assert all(type(c) is int for u in fd.units for c in u)
    assert hashlib.sha256(repr(fd.units).encode()).hexdigest() == digest


def _reduce(v, basis):
    v = list(v)
    for i, row in enumerate(basis):
        q = v[i] // row[i]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


def _unit_tuple_by_dicts(hb, choices, target):
    """Reference: breadth-first search over dicts of reduced class vectors."""
    reach = {_reduce([0] * len(target), hb): []}
    for vectors in choices:
        classes = {}
        for i, v in enumerate(vectors):
            classes.setdefault(_reduce(v, hb), i)
        nxt = {}
        for r, path in reach.items():
            for c, i in classes.items():
                key = _reduce([a + b for a, b in zip(r, c)], hb)
                if key not in nxt:
                    nxt[key] = path + [i]
        reach = nxt
    return reach.get(_reduce(target, hb)), len(reach)


@pytest.mark.parametrize("scale", [1, 1 << 16])
def test_unit_tuple_matches_dict_search(scale):
    # scale 1 keeps the index below 2^40 (int64 keys); 2^16 lifts it above
    rng = random.Random(scale)
    found = 0
    for _ in range(40):
        dim = rng.randint(1, 4) if scale == 1 else rng.randint(3, 4)
        diag = [rng.randint(1, 9) * scale for _ in range(dim)]
        hb = [[0] * i + [diag[i]] + [rng.randrange(d) for d in diag[i + 1:]]
              for i in range(dim)]
        assert (math.prod(diag) >= 2 ** 40) == (scale > 1)
        choices = [[[rng.randint(-10 ** 12, 10 ** 12) for _ in range(dim)]
                    for _ in range(rng.randint(1, 12))] for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            target = [sum(c) for c in zip(*(rng.choice(v) for v in choices))]
        else:
            target = [rng.randint(-99, 99) for _ in range(dim)]
        want = _unit_tuple_by_dicts(hb, choices, target)
        assert module._unit_tuple(hb, choices, target) == want
        found += want[0] is not None
    assert 0 < found < 40
