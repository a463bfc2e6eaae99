"""Acceptance gate: one test per top-level criterion, each with a time cap.

Run with -v to get one pass/fail line per criterion.  These are end-to-end
runs against real groups at q in {13, 29, 37, 53}; nothing is mocked and
every comparison is exact.
"""

import contextlib
import hashlib
import json
import signal
import time
from fractions import Fraction

import pytest

from sl2cert import acyclic, cli, orbit_graph, partition
from sl2cert.report import RunConfig
from sl2cert.verify import (Session, degree_inequalities,
                            degree_inequality_sweep, moduli_dimension_identity,
                            verify_commutant_dims, verify_eigenvalues,
                            verify_lemma21, verify_prop31)

QS = (13, 29, 37, 53)

_sessions: dict[int, Session] = {}


def session(q: int) -> Session:
    if q not in _sessions:
        _sessions[q] = Session(q)
    return _sessions[q]


@contextlib.contextmanager
def time_limit(seconds: float, what: str):
    """Raise TimeoutError in the main thread once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"{what} exceeded {seconds:g} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _all_pass(results):
    bad = [r for r in results if not r.passed]
    assert not bad, "failed: " + ", ".join(
        f"{r.name} (expected {r.expected}, got {r.computed}; {r.detail})"
        for r in bad)


def test_criterion_01_subgroup_census():
    for q in QS:
        t0 = time.monotonic()
        _all_pass(verify_prop31(q, session(q)))
        assert time.monotonic() - t0 < 60, f"census at q={q} exceeded 60s"


def test_criterion_02_commutant_dimensions():
    for q in QS:
        results = verify_commutant_dims(q, session(q))
        _all_pass(results)
        borel = [r for r in results if "[B]" in r.name]
        assert borel and borel[0].computed == 1


def test_criterion_03_eigenvalue_supports():
    for q in QS:
        _all_pass(verify_eigenvalues(q, session(q)))


def test_criterion_04_moduli_dimension_identity():
    for q in QS:
        _all_pass([moduli_dimension_identity(q, k, session(q))
                   for k in range(4)])


def test_criterion_05_degree_inequalities_sweep():
    from sl2cert import groups
    results = degree_inequality_sweep(q_max=200)
    qs = {int(r.name.split("q=")[1].rstrip("]")) for r in results}
    assert qs == {q for q in range(7, 200) if groups.valid_q(q)}
    _all_pass(results)
    for q in QS:
        per_q = degree_inequalities(q, session(q))
        _all_pass(per_q)
        assert any(r.name == "amqm_floor" for r in per_q)


def test_criterion_06_commutant_intersection_bound():
    t0 = time.monotonic()
    # every pair of every test group is checked against ceil(bound)
    _all_pass(verify_lemma21())
    assert time.monotonic() - t0 < 300, "pair sweep exceeded 5 minutes"


@pytest.fixture(scope="module")
def graph13():
    return orbit_graph.build_graph(13, "13mod24")


@pytest.fixture(scope="module")
def path13(graph13):
    # The search ends at its budget or at the time limit, whichever is first:
    # run to the full budget without finding a path, it took 460-820 s.
    with time_limit(120, "attaching-path search at q=13"):
        return acyclic.search_attaching_path(graph13, seed=1, budget=20000)


def test_seed_1_walk_is_pinned(path13):
    # the walk the exact search constructs at q = 13, seed 1
    assert len(path13) == 37539
    digest = hashlib.sha256(path13.dumps().encode()).hexdigest()
    assert digest == ("5d8e1378a0dc7f4a2b40765be50b2a17"
                      "32d961043fb22b2f4aad59894ea7297b")


def test_criterion_07_partition_of_unity_and_lift(graph13, path13,
                                                  check_partition_witness):
    t0 = time.monotonic()
    solution = partition.solve_partition_of_unity(graph13, path13)
    # solve_partition_of_unity verifies the identity exactly in dim 1092
    check_partition_witness(graph13, path13, solution)
    # det M = -1, so f = M^-1 e_1 is integral: x~_e = f(h^-1 b_e) / |K_e|
    for orbit, elt in solution.items():
        order = len(graph13.edge_orbits[orbit].stabilizer) // 2
        assert all(order % c.denominator == 0 for c in elt.coeffs.values()), orbit
    x, delta = partition.lift_partition(graph13, path13, solution)
    # lift_partition checks 2 S = 1 + z exactly in dim 2184
    assert delta.coeffs, "lift produced an empty correction term"
    # z lies in every lifted stabilizer, so delta = (1 - z)/4
    sl = graph13.sl
    assert delta.coeffs == {sl.identity: Fraction(1, 4), sl.z: Fraction(-1, 4)}
    assert time.monotonic() - t0 < 600, "partition + lift exceeded 10 minutes"


def test_criterion_08_acyclicity_certificate(graph13, path13):
    t0 = time.monotonic()
    cert = acyclic.certify_acyclicity(graph13, path13)
    assert cert.verdict == "acyclic-over-Z"
    assert cert.determinant in (1, -1)
    hom = acyclic.smith_cross_check(graph13, path13)
    assert hom == {"H0": "Z", "H1": "0"}
    assert time.monotonic() - t0 < 1800, "certification exceeded 30 minutes"


def test_criterion_09_character_orthogonality():
    for q in QS:
        table = session(q).table
        assert table.verify_row_orthogonality(), f"rows q={q}"
        assert table.verify_column_orthogonality(), f"columns q={q}"
        assert table.verify_degrees(), f"degree sum q={q}"


def test_criterion_10_deterministic_reports():
    config = RunConfig(q=13, checks=("census", "moduli-dim", "degree"),
                       seed=7, budget=100, fmt="json", out=None)
    first = cli.run(config).render()
    second = cli.run(config).render()
    assert first.encode() == second.encode()
    json.loads(first)   # well-formed
