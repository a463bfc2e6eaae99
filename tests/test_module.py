import math
import random

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form

from sl2cert import acyclic, intlin, module
from sl2cert.acyclic import CycleSpace, EdgePath

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


def test_hnf_rows_marks_missing_pivots():
    assert module.hnf_rows([[4, 6], [6, 9]]) == [[2, 3], None]
    assert module.hnf_rows([]) == []


def test_lattice_det_matches_sympy():
    for rows in _random_lattices(60):
        covolume = abs(hermite_normal_form(Matrix(rows).T).det())
        k = len(rows[0])
        bound = abs(Matrix(rows).T.det()) if len(rows) == k else covolume * 6
        assert module.lattice_det(rows, bound) == covolume
