import pytest

from sl2cert import verify


@pytest.fixture(scope="module")
def session13():
    return verify.Session(13)


def test_census_checks_pass(session13):
    results = verify.verify_prop31(13, session13)
    assert results and all(r.passed for r in results)


def test_commutant_dims(session13):
    results = verify.verify_commutant_dims(13, session13)
    assert {r.name: r.computed for r in results} == {
        "commutant_dim[Cq-1]": 6,
        "commutant_dim[C4]": 18,
        "commutant_dim[Q8]": 9,
        "commutant_dim[C6]": 12,
        "commutant_dim[B]": 1,
        "commutant_dim[2Dq-1]": 3,
        "commutant_dim[2Dq+1]": 3,
        "commutant_dim[SL2_3]": 3,
    }
    assert all(r.passed for r in results)


def test_eigenvalue_checks(session13):
    results = verify.verify_eigenvalues(13, session13)
    assert all(r.passed for r in results)
    by_name = {r.name: r for r in results}
    assert by_name["eigenvalues[g1]"].computed == {1, 3}
    assert by_name["eigenvalues[g3]"].computed == {1, 3, 5}


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_moduli_identity(session13, k):
    assert verify.moduli_dimension_identity(13, k, session13).passed


def test_degree_inequalities(session13):
    results = verify.degree_inequalities(13, session13)
    assert results and all(r.passed for r in results)


def test_amqm_value(session13):
    # (q-1)^2/24 must equal m^2/(k1 k2) with k1 k2 = 6 recomputed
    results = verify.degree_inequalities(13, session13)
    floor_checks = [r for r in results if "amqm" in r.name]
    assert floor_checks and all(r.passed for r in floor_checks)


def test_sweep_covers_all_valid_primes():
    results = verify.degree_inequality_sweep(q_max=60)
    qs = sorted({int(r.name.split("q=")[1].rstrip("]"))
                 for r in results if "q=" in r.name})
    assert qs == [13, 29, 37, 53]
    assert all(r.passed for r in results)


def test_check_result_failure_shape():
    res = verify._check("toy", 1, 2, detail="mismatch on purpose")
    assert not res.passed
    assert res.expected == 1 and res.computed == 2


def test_census_rejects_q_outside_the_residues(session13):
    # 7 = 1 (mod 3) but 7 (mod 24): the census's q mod 3 branch does not apply
    with pytest.raises(ValueError, match="q=7: q mod 3 = 1 does not match"):
        verify.verify_prop31(7, session13)
