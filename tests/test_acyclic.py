import time

import numpy as np
import pytest

from sl2cert import acyclic, intlin, orbit_graph
from sl2cert.acyclic import CycleSpace, EdgePath, NoPathFound


@pytest.fixture(scope="module")
def cyc(graph13):
    return CycleSpace(graph13)


def test_validate_rejects_broken_walk(graph13):
    bad = EdgePath(0, [("eta1", 0, 1)])      # eta1 does not start at vertex 0
    with pytest.raises(ValueError):
        acyclic.validate_path(graph13, bad)


def test_fundamental_cycles_are_cycles(graph13, cyc):
    # signed endpoint sums vanish
    for pos in (0, 5, 400, 1000):
        vec = cyc.fundamental_cycle(int(cyc.non_tree[pos]))
        sums = np.zeros(graph13.n_vertices, dtype=np.int64)
        for e, c in enumerate(vec):
            if c:
                sums[int(graph13.edge_tgt[e])] += c
                sums[int(graph13.edge_src[e])] -= c
        assert not sums.any()


def test_class_of_fundamental_cycle_is_basis_vector(cyc):
    vec = cyc.fundamental_cycle(int(cyc.non_tree[7]))
    cls = cyc.class_of(vec)
    want = np.zeros(len(cyc.non_tree), dtype=np.int64)
    want[7] = 1
    assert np.array_equal(cls, want)


def test_translate_is_module_action(graph13, cyc):
    rng = np.random.default_rng(0)
    vec = cyc.fundamental_cycle(int(cyc.non_tree[3]))
    for _ in range(10):
        g, h = (int(x) for x in rng.integers(graph13.psl.n, size=2))
        lhs = cyc.translate(g, cyc.translate(h, vec))
        rhs = cyc.translate(graph13.psl.mul(g, h), vec)
        assert np.array_equal(lhs, rhs)


def _trans_by_definition(graph, gs):
    """Rows gs of the edge action g.e = edge_of(orbit, g rep_e), one
    `products` call per edge orbit."""
    psl, gs = graph.psl, np.asarray(gs)
    orbits = np.array([orbit for orbit, _ in graph.edge_rep])
    reps = np.array([rep for _, rep in graph.edge_rep])
    out = np.empty((len(gs), graph.n_edges), dtype=np.int64)
    for orbit, offset in graph.edge_offset.items():
        cols = np.flatnonzero(orbits == orbit)
        prods = psl.products(gs[:, None], reps[cols][None, :])
        out[:, cols] = graph.edge_coset[orbit][prods] + offset
    return out


def test_trans_matches_the_edge_action(graph13, cyc):
    # the table composed from two generators is g.e at every g
    n = graph13.psl.n
    assert np.array_equal(cyc.trans, _trans_by_definition(graph13, np.arange(n)))


def test_cycle_space_names_generators_that_do_not_generate(graph13, monkeypatch):
    # (1 1; 0 1) alone generates a subgroup of order 13
    psl = graph13.psl
    monkeypatch.setattr(psl, "generators", psl.generators[:1])
    with pytest.raises(ArithmeticError, match="reach 13 of 1092 elements"):
        CycleSpace(graph13)


def test_cycle_space_at_29():
    # q = 29 is 5 (mod 24): b1 = n, and the edge action needs no n x n table
    graph = orbit_graph.build_graph(29, "5mod24")
    cyc = CycleSpace(graph)
    n = graph.psl.n
    assert orbit_graph.homology_ranks(graph) == (1, n) == (1, len(cyc.non_tree))
    gs = np.random.default_rng(0).choice(n, 16, replace=False)
    assert np.array_equal(cyc.trans[gs], _trans_by_definition(graph, gs))


def test_pairing_matrix_identity_row(graph13, cyc):
    vec = cyc.fundamental_cycle(int(cyc.non_tree[2]))
    mat = cyc.pairing_matrix(vec)
    ident = graph13.psl.identity
    assert np.array_equal(mat[ident], cyc.class_of(vec))


def test_realize_matches_class(graph13, cyc):
    rng = np.random.default_rng(1)
    cls = np.zeros(len(cyc.non_tree), dtype=np.int64)
    for pos in rng.integers(len(cls), size=4):
        cls[pos] += int(rng.integers(-2, 3))
    path = cyc.realize(cls)
    vec = acyclic.path_edge_vector(graph13, path)
    assert np.array_equal(cyc.class_of(vec), cls)


def test_zero_budget_raises(graph13):
    with pytest.raises(NoPathFound):
        acyclic.search_attaching_path(graph13, budget=0)


def test_search_stays_within_budget(graph13):
    # every sampled candidate and every repair costs one evaluation
    with pytest.raises(NoPathFound) as info:
        acyclic.search_attaching_path(graph13, seed=1, budget=2)
    assert info.value.diagnostics["evaluations"] <= 2


# a closed walk at vertex 0: (edge orbit, PSL2(13) matrix, sign)
FIXED_WALK = (("eta3", (1, 11, 8, 11), -1), ("eta2", (1, 6, 6, 11), -1),
              ("eta1", (2, 3, 12, 12), 1), ("eta1", (0, 1, 12, 1), -1),
              ("eta0", (0, 1, 12, 1), -1))


def test_det_crt_on_fixed_walk(graph13, cyc):
    psl = graph13.psl
    path = EdgePath(0, [(o, psl.index[m], s) for o, m, s in FIXED_WALK])
    mat = cyc.pairing_matrix(acyclic.path_edge_vector(graph13, path))
    det, primes, bound = intlin.det_crt(mat)
    assert det == -(2 ** 42 * 3 ** 42 * 281 ** 12)
    ps = intlin.prime_stream()
    assert primes == [next(ps) for _ in range(35)]
    assert bound.bit_length() == 1043
    # the sparsest +-1 pivots leave a Schur block of at most 171 x 171
    sign, schur = intlin.unit_pivot_reduce(mat)
    assert sign in (1, -1) and schur.shape[0] == schur.shape[1] <= 171


def test_smith_cross_check_refuses_fixed_walk(graph13, cyc):
    # det M = -2^42 3^42 281^12: no integer inverse, and a prompt refusal
    psl = graph13.psl
    path = EdgePath(0, [(o, psl.index[m], s) for o, m, s in FIXED_WALK])
    t0 = time.monotonic()
    with pytest.raises(ArithmeticError, match="fails M X = I"):
        acyclic.smith_cross_check(graph13, path, cyc)
    assert time.monotonic() - t0 < 60


def test_smith_cross_check_names_open_translate(graph13, cyc, monkeypatch):
    # a 2-cell whose boundary is one non-loop edge, not a cycle
    psl = graph13.psl
    path = EdgePath(0, [(o, psl.index[m], s) for o, m, s in FIXED_WALK])
    edge = int(np.flatnonzero(graph13.edge_src != graph13.edge_tgt)[0])
    chain = np.zeros(graph13.n_edges, dtype=np.int64)
    chain[edge] = 1
    monkeypatch.setattr(acyclic, "path_edge_vector", lambda graph, path: chain)
    with pytest.raises(ArithmeticError, match="translated by 0 is not a cycle"):
        acyclic.smith_cross_check(graph13, path, cyc)


def test_certificate_verdict():
    path = EdgePath(0, [])
    for det, verdict in ((-1, "acyclic-over-Z"), (1, "acyclic-over-Z"),
                         (6, "not-acyclic")):
        cert = acyclic.AcyclicityCertificate(
            path, b0=1, b1=1092, determinant=det, hadamard_bound=10, primes=[7])
        assert cert.verdict == verdict


def test_vertex_edge_boundary_smith_form_13(graph13):
    # the connected q = 13 graph: rank V - 1 with every invariant factor 1
    rows = {}
    for e, (s, t) in enumerate(zip(graph13.edge_src.tolist(),
                                   graph13.edge_tgt.tolist())):
        if s != t:
            rows.setdefault(t, {})[e] = 1
            rows.setdefault(s, {})[e] = -1
    factors = intlin.smith_normal_form(rows, graph13.n_vertices, graph13.n_edges)
    assert factors == [1] * 273
