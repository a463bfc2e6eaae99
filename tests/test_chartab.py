from fractions import Fraction

import pytest

from sl2cert import chartab, cyclo, groups
from sl2cert.groups import ClassLabel


def test_degrees_and_count(table13):
    q = 13
    degs = sorted(c.degree for c in table13.characters)
    want = sorted([1, q] + [q + 1] * 5 + [q - 1] * 6
                  + [(q + 1) // 2] * 2 + [(q - 1) // 2] * 2)
    assert degs == want
    assert table13.verify_degrees()


def test_row_orthogonality(table13):
    assert table13.verify_row_orthogonality()


def test_column_orthogonality(table13):
    assert table13.verify_column_orthogonality()


def _rows_reference(table):
    """The first relation by Cyclo inner products, one pair at a time."""
    chars = table.characters
    try:
        return all(table.inner(chi, psi) == (1 if chi is psi else 0)
                   for i, chi in enumerate(chars) for psi in chars[i:])
    except cyclo.NotRational:
        return False


def _columns_reference(table):
    """The second relation summed one Cyclo at a time."""
    for i, lab1 in enumerate(table.labels):
        for lab2 in table.labels[i:]:
            acc = cyclo.Cyclo.zero()
            for ch in table.characters:
                acc = acc + ch.values[lab1] * ch.values[lab2].conj()
            want = (Fraction(table.group_order, table.sizes[lab1])
                    if lab1 == lab2 else 0)
            if acc.try_rational() != want:
                return False
    return True


@pytest.mark.parametrize("q", [13, 29])
def test_orthogonality_matches_cyclo_reference(q):
    table = chartab.CharacterTable(q)
    assert table.verify_row_orthogonality() is _rows_reference(table) is True
    assert (table.verify_column_orthogonality()
            is _columns_reference(table) is True)


def _swap(name1, name2, label):
    def perturb(table):
        v1, v2 = table[name1].values, table[name2].values
        assert not (v1[label] - v2[label]).is_zero()
        v1[label], v2[label] = v2[label], v1[label]
    return perturb


def _negate(table):
    vals = table["chi_1"].values
    vals[ClassLabel("a", 1)] = -vals[ClassLabel("a", 1)]


def _flip_tau(table):
    # eta1(c) = (-1 + tau)/2 and eta1(d) = (-1 - tau)/2
    vals = table["eta1"].values
    vals[ClassLabel("c")] = vals[ClassLabel("d")]


PERTURBATIONS = {
    "swap-at-1": _swap("triv", "St", ClassLabel("1")),
    "swap-at-c": _swap("eta1", "eta2", ClassLabel("c")),
    "swap-at-a": _swap("chi_1", "chi_2", ClassLabel("a", 1)),
    "swap-at-b": _swap("theta_1", "theta_2", ClassLabel("b", 1)),
    "negate-at-a": _negate,
    "flip-tau-at-c": _flip_tau,
}


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
@pytest.mark.parametrize("q", [13, 29])
def test_broken_table_fails_both_relations(q, name):
    table = chartab.CharacterTable(q)
    PERTURBATIONS[name](table)
    assert table.verify_row_orthogonality() is False
    assert table.verify_column_orthogonality() is False


def test_orthogonality_refuses_inexact_products():
    table = chartab.CharacterTable(13)
    table["St"].values[ClassLabel("a", 1)] = chartab._const(2 ** 40)
    with pytest.raises(OverflowError):
        table.verify_row_orthogonality()
    with pytest.raises(OverflowError):
        table.verify_column_orthogonality()


def test_steinberg_values(table13):
    st = table13["St"]
    assert st(ClassLabel("1")).as_int() == 13
    assert st(ClassLabel("c")).as_int() == 0
    assert st(ClassLabel("a", 2)).as_int() == 1
    assert st(ClassLabel("b", 3)).as_int() == -1


def test_eta1_unipotent_value(table13):
    # eta1 is pinned by its value (-1 + sqrt(q))/2 on the first unipotent class
    val = table13["eta1"](ClassLabel("c"))
    two_val_plus_one = val + val + chartab._const(1)
    assert ((two_val_plus_one * two_val_plus_one)
            - chartab._const(13)).is_zero()


@pytest.mark.parametrize("q", [13, 29, 37, 53, 61])
def test_eta_on_tori_matches_table(q):
    # the degree sweep's Gauss-sum-free eta1 agrees with the table's eta1
    # and eta2 on every label it holds, and holds every label the sweep reads
    torus = chartab.eta_on_tori(q)
    table = chartab.CharacterTable(q)
    p1, p3 = chartab.edge_generator_power_labels(q)
    assert set(p1) | set(p3) <= set(torus.values)
    for name in ("eta1", "eta2"):
        assert torus.degree == table[name].degree
        for lab, v in torus.values.items():
            assert v == table[name](lab), (name, str(lab))


def test_inner_product_is_kronecker(table13):
    names = ["triv", "St", "eta1", "eta2", "xi1", "theta_1"]
    for i, a in enumerate(names):
        for b in names[i:]:
            want = Fraction(1) if a == b else Fraction(0)
            assert table13.inner(table13[a], table13[b]) == want


def test_sum_of_degree_squares(table13):
    assert sum(c.degree ** 2 for c in table13.characters) == 2184


def test_central_character_signs(table13):
    z = ClassLabel("z")
    one = ClassLabel("1")
    for c in table13.characters:
        ratio = c(z) - c(one)
        neg = c(z) + c(one)
        assert ratio.is_zero() or neg.is_zero()


@pytest.mark.parametrize("q", [13, 29])
def test_power_labels_match_group(q):
    sl = groups.enumerate_group(q, "SL")
    a, b = sl.gen_a, sl.gen_b
    x = sl.identity
    for j in range(1, q - 1):
        x = sl.mul(x, a)
        assert groups.classify(sl, x) == chartab.split_power_label(q, j)
    x = sl.identity
    for j in range(1, q + 1):
        x = sl.mul(x, b)
        assert groups.classify(sl, x) == chartab.nonsplit_power_label(q, j)


def test_eigenvalue_multiplicities_sum(table13, sl13):
    g1, g3 = groups.edge_generators(sl13)
    for g in (g1, g3):
        mults = chartab.eigenvalue_multiplicities(table13["eta1"], g, sl13)
        assert sum(mults.values()) == 6
        assert all(m >= 0 for m in mults.values())


def test_census_matches_subgroup_size(sl13, subgroups13):
    for handle in subgroups13.values():
        census = chartab.subgroup_census(sl13, handle.elements)
        assert sum(census.values()) == len(handle)
