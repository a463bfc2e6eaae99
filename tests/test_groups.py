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


def test_dump_group_format(sl13):
    line = groups.dump_group(sl13).splitlines()[0]
    assert len(line.split()) == 5    # index + four matrix entries
