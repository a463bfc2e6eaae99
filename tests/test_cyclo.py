from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2cert import cyclo as cyclo_module
from sl2cert.cyclo import Cyclo, NotRational, cyclo, gauss_sum_sqrt_q

small = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def elt(n):
    return st.lists(small, min_size=1, max_size=4).map(
        lambda cs: sum((Cyclo.root(n, k) * c for k, c in enumerate(cs)),
                       Cyclo.zero()))


@given(elt(12), elt(12), elt(12))
@settings(max_examples=60)
def test_ring_axioms_conductor_12(a, b, c):
    assert ((a + b) + c - (a + (b + c))).is_zero()
    assert (a * b - b * a).is_zero()
    assert ((a * b) * c - a * (b * c)).is_zero()
    assert (a * (b + c) - (a * b + a * c)).is_zero()


@given(elt(8), elt(6))
@settings(max_examples=40)
def test_mixed_conductor_arithmetic(a, b):
    # lcm merge must agree with embedding both into conductor 24
    s = a + b
    assert (s - b - a).is_zero()


def test_roots_of_unity_relations():
    i = cyclo(4)
    assert (i * i + Cyclo.rational(1)).is_zero()
    w = cyclo(6)
    assert (w * w - w + Cyclo.rational(1)).is_zero()     # zeta_6^2 = zeta_6 - 1
    total = sum((cyclo(7, k) for k in range(1, 7)), Cyclo.zero())
    assert (total + Cyclo.rational(1)).is_zero()


def test_conj_is_involution_and_fixes_rationals():
    x = cyclo(5) + Cyclo.rational(Fraction(2, 3))
    assert (x.conj().conj() - x).is_zero()
    r = Cyclo.rational(Fraction(-7, 2))
    assert (r.conj() - r).is_zero()


def test_gauss_sum_squares_to_q():
    for q in (13, 29, 37, 53):
        tau = gauss_sum_sqrt_q(q)
        assert (tau * tau - Cyclo.rational(q)).is_zero()


def test_as_rational_raises_on_irrational():
    try:
        cyclo(5).as_rational()
    except NotRational:
        pass
    else:
        raise AssertionError("expected NotRational")


def test_reduction_rows_reject_a_wrong_degree(monkeypatch):
    # Phi_12 has degree 4; a wrong totient must raise, also under python -O
    monkeypatch.setattr(cyclo_module, "totient", lambda n: 3)
    with pytest.raises(ArithmeticError, match="Phi_12 is not monic of degree"):
        cyclo_module._reduction_rows.__wrapped__(12)
