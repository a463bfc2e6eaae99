import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2cert import groups
from sl2cert.groups import ClassLabel


def test_valid_q():
    assert groups.valid_q(13) and groups.valid_q(29)
    assert groups.valid_q(37) and groups.valid_q(53)
    assert not groups.valid_q(5)      # excluded explicitly
    assert not groups.valid_q(7)      # 7 mod 24
    assert not groups.valid_q(25)     # not prime
    with pytest.raises(ValueError):
        groups.require_valid_q(11)


def test_least_primitive_root_and_nonsquare():
    assert groups.least_primitive_root(13) == 2
    assert groups.least_nonsquare(13) == 2
    assert groups.least_primitive_root(29) == 2
    assert groups.least_nonsquare(37) == 2


def test_group_orders(sl13):
    assert sl13.n == 13 * 12 * 14
    psl = groups.enumerate_group(13, "PSL")
    assert psl.n == sl13.n // 2


def test_generator_orders(sl13):
    assert sl13.order(sl13.gen_a) == 12          # split torus generator
    assert sl13.order(sl13.gen_b) == 14          # nonsplit torus generator
    assert sl13.order(sl13.gen_alpha) == 4
    assert sl13.order(sl13.z) == 2


def test_class_label_str():
    assert str(ClassLabel("a", 3)) == "a^3"
    assert str(ClassLabel("zc")) == "zc"


def test_class_count(sl13):
    labels = set(groups.all_class_labels(13))
    # 1, z, c, d, zc, zd, a^1..a^5, b^1..b^6
    assert len(labels) == 6 + 5 + 6


def test_class_sizes_sum_to_group_order():
    sizes = groups.class_sizes(13)
    assert sum(sizes.values()) == 2184
    assert sizes[ClassLabel("1")] == 1
    assert sizes[ClassLabel("z")] == 1
    assert sizes[ClassLabel("c")] == (13 * 13 - 1) // 2


@given(st.integers(0, 2183), st.integers(0, 2183))
@settings(max_examples=100, deadline=None)
def test_classification_conjugation_invariant(sl13, i, g):
    assert groups.classify(sl13, i) == groups.classify(sl13, sl13.conj(i, g))


def test_subgroup_orders(sl13, subgroups13):
    q = 13
    want = {"B": q * (q - 1), "Cq-1": q - 1, "2Dq-1": 2 * (q - 1),
            "2Dq+1": 2 * (q + 1), "C4": 4, "Q8": 8, "C6": 6,
            "SL2_3": 24, "Z": 2}
    assert {k: len(v) for k, v in subgroups13.items()} == want


def test_subgroups_closed(sl13, subgroups13):
    for handle in subgroups13.values():
        elems = set(handle.elements)
        sample = handle.elements[:6]
        for x in sample:
            for y in sample:
                assert sl13.mul(x, y) in elems


def test_z_in_every_standard_subgroup(sl13, subgroups13):
    for name, handle in subgroups13.items():
        assert sl13.z in handle


def test_edge_generators(sl13):
    g1, g3 = groups.edge_generators(sl13)
    assert sl13.order(g1) == 4
    assert sl13.order(g3) == 6


def test_psl_projection_is_homomorphism(sl13):
    psl = groups.enumerate_group(13, "PSL")
    proj = groups.PSLProjection(sl13, psl)
    for i in (3, 77, 500, 2001):
        for j in (1, 13, 999):
            assert proj(sl13.mul(i, j)) == psl.mul(proj(i), proj(j))
    # section lifts back into the right fiber
    for h in (0, 5, 400):
        assert proj(proj.lift(h)) == h


def test_enumeration_deterministic():
    a = groups.enumerate_group(13, "SL")
    b = groups.enumerate_group(13, "SL")
    assert a.elements == b.elements


def test_psl_projection_rejects_swapped_tables(sl13):
    # a named error, not an assert: it must hold under python -O too
    psl = groups.enumerate_group(13, "PSL")
    with pytest.raises(ValueError, match="PSL2\\(13\\) and SL2\\(13\\)"):
        groups.PSLProjection(psl, sl13)


# -- the array operations against per-element reference loops -------------------


def _psl_reference(sl):
    """PSL elements and index by the +-m filter on the SL list."""
    q = sl.q
    enc = lambda m: groups.encode(m, q)
    keep = sorted((m for m in sl.elements if enc(m) < enc(groups.mat_neg(m, q))),
                  key=enc)
    index = {m: i for i, m in enumerate(keep)}
    for m in keep:
        index.setdefault(groups.mat_neg(m, q), index[m])
    return keep, index


@pytest.fixture(scope="module", params=[13, 29, 37, 53])
def sl_psl(request):
    q = request.param
    return groups.enumerate_group(q, "SL"), groups.enumerate_group(q, "PSL")


def test_psl_enumeration_matches_filter(sl_psl):
    sl, psl = sl_psl
    elements, index = _psl_reference(sl)
    assert psl.elements == elements
    assert psl.index == index


def test_psl_projection_matches_loops(sl_psl):
    sl, psl = sl_psl
    q = sl.q
    proj = groups.PSLProjection(sl, psl)
    least = lambda m: min(m, groups.mat_neg(m, q), key=lambda x: groups.encode(x, q))
    assert proj.proj.tolist() == [psl.index[least(m)] for m in sl.elements]
    assert proj.section.tolist() == [sl.index[m] for m in psl.elements]


@pytest.mark.parametrize("flavor", ["SL", "PSL"])
def test_products_and_inverses_match_scalar_ops(sl13, flavor):
    table = sl13 if flavor == "SL" else groups.enumerate_group(13, "PSL")
    rng = np.random.default_rng(5)
    a, b = rng.integers(table.n, size=(6, 1)), rng.integers(table.n, size=(1, 9))
    assert table.products(a, b).tolist() == [[table.mul(int(x), int(y)) for y in b[0]]
                                             for x in a[:, 0]]
    g = int(b[0, 0])
    assert table.products(a[:, 0], g).tolist() == [table.mul(int(x), g) for x in a[:, 0]]
    assert table.inverses().tolist() == [table.inv(i) for i in range(table.n)]
    assert [table.elements[s] for s in table.generators] == [(1, 1, 0, 1), (1, 0, 1, 1)]


def test_locate_rejects_matrix_outside_table(sl13):
    psl = groups.enumerate_group(13, "PSL")
    good = np.array([sl13.elements[5], sl13.elements[700]], dtype=np.int64)
    assert sl13.locate(good).tolist() == [5, 700]
    assert sl13.locate(good - 13).tolist() == [5, 700]      # entries mod q
    bad = np.array([sl13.elements[5], (2, 0, 0, 2)], dtype=np.int64)   # det 4
    for table in (sl13, psl):
        with pytest.raises(groups.GroupBuildError):
            table.locate(bad)
