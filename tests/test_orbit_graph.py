import copy
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from sl2cert import groups, orbit_graph
from sl2cert.orbit_graph import build_graph, flavor_of, homology_ranks, y0_word


def test_flavor_of():
    assert flavor_of(13) == "13mod24"
    assert flavor_of(37) == "13mod24"
    assert flavor_of(29) == "5mod24"
    assert flavor_of(53) == "5mod24"


def test_flavor_mismatch_rejected():
    with pytest.raises(ValueError):
        build_graph(13, "5mod24")


def test_cell_counts_q13(graph13):
    assert graph13.n_vertices == 14 + 91 + 78 + 91
    assert graph13.n_edges == 182 + 546 + 273 + 364


def test_free_orbits_add_regular_edges():
    g = build_graph(13, "13mod24", k=2)
    assert g.n_edges == 1365 + 2 * 1092


def test_edge_pattern_13mod24(graph13):
    eo = graph13.edge_orbits
    assert (eo["eta0"].source, eo["eta0"].target) == ("v0", "v1")
    assert (eo["eta1"].source, eo["eta1"].target) == ("v1", "v2")
    assert (eo["eta2"].source, eo["eta2"].target) == ("v1", "v3")
    assert (eo["eta3"].source, eo["eta3"].target) == ("v3", "v0")


def test_twist_containment(graph13):
    sl = graph13.sl
    for name, eo in graph13.edge_orbits.items():
        src_stab = graph13.vertex_stabs[eo.source]
        tgt_stab = graph13.vertex_stabs[eo.target]
        g = eo.twist
        for s in eo.stabilizer.elements[:8]:
            assert s in src_stab
            assert sl.mul(sl.mul(sl.inv(g), s), g) in tgt_stab


def test_broken_twist_is_named(graph13):
    # eta3 needs a twist into the target B; the identity does not do, and
    # the check must raise under python -O as well
    graph = copy.copy(graph13)
    eta3 = graph13.edge_orbits["eta3"]
    assert eta3.twist != graph.sl.identity
    graph.edge_orbits = {**graph13.edge_orbits,
                         "eta3": dataclasses.replace(eta3, twist=graph.sl.identity)}
    with pytest.raises(groups.GroupBuildError, match="eta3: twist"):
        orbit_graph._check_invariants(graph)
    orbit_graph._check_invariants(graph13)


def test_homology_ranks_q13(graph13):
    assert homology_ranks(graph13) == (1, 1092)


def test_spanning_tree(graph13):
    parent, in_tree, non_tree = orbit_graph.spanning_tree(graph13)
    assert in_tree.sum() == graph13.n_vertices - 1
    assert len(non_tree) == graph13.n_edges - in_tree.sum()
    assert (parent < 0).sum() == 1    # single root


def test_edge_endpoints_consistent(graph13):
    # expanded endpoints agree with orbit-level incidence via cosets
    for e in (0, 200, 800, 1300):
        orbit, rep = graph13.edge_rep[e]
        eo = graph13.edge_orbits[orbit]
        src = graph13.vertex_of(eo.source, rep)
        assert int(graph13.edge_src[e]) == src


def test_dump_format(graph13):
    lines = graph13.dumps().splitlines()
    v_lines = [l for l in lines if l.startswith("V ")]
    e_lines = [l for l in lines if l.startswith("E ")]
    assert len(v_lines) == graph13.n_vertices
    assert len(e_lines) == graph13.n_edges
    assert len(e_lines[0].split()) == 6    # E orbit rep src tgt twist


def test_y0_word_13mod24(graph13):
    data = y0_word(graph13)
    assert [o for o, _ in data["word"]] == ["eta0", "eta2", "eta3"]
    assert all(sign == -1 for _, sign in data["word"])
    assert data["non_tree_edge"] == "eta3"
    assert data["tree_edges"] == ("eta0", "eta1", "eta2")
    # constant resolves to a concrete matrix with determinant 1 mod q
    a, b, c, d = data["constant"]
    assert (a * d - b * c) % 13 == 1


# -- the array expansion against per-element reference loops --------------------


def _coset_table_reference(psl, elems_psl):
    """Left-coset index of every PSL element and least reps, one element at a time."""
    coset = np.full(psl.n, -1, dtype=np.int32)
    reps = []
    for g in range(psl.n):
        if coset[g] >= 0:
            continue
        reps.append(g)
        for h in elems_psl:
            coset[psl.mul(g, h)] = len(reps) - 1
    return coset, reps


@pytest.mark.parametrize("q", [13, 29, 37, 53])
def test_expansion_matches_reference_loops(q):
    graph = build_graph(q, flavor_of(q))
    psl, proj = graph.psl, graph.proj
    psl_elems = lambda handle: sorted({proj(i) for i in handle.elements})
    for v, stab in graph.vertex_stabs.items():
        coset, reps = _coset_table_reference(psl, psl_elems(stab))
        assert np.array_equal(graph.vertex_coset[v], coset)
        assert [r for o, r in graph.vertex_rep if o == v] == reps
    srcs, tgts = [], []
    for name, eo in graph.edge_orbits.items():
        coset, reps = _coset_table_reference(psl, psl_elems(eo.stabilizer))
        assert np.array_equal(graph.edge_coset[name], coset)
        assert [r for o, r in graph.edge_rep if o == name] == reps
        twist = proj(eo.twist)
        for r in reps:
            srcs.append(graph.vertex_of(eo.source, r))
            tgts.append(graph.vertex_of(eo.target, psl.mul(r, twist)))
    assert graph.edge_src.tolist() == srcs
    assert graph.edge_tgt.tolist() == tgts


def test_coset_table_rejects_proper_subgroup(graph13):
    q8 = groups.standard_subgroup("Q8", graph13.sl)
    psl, proj = graph13.psl, graph13.proj
    order = len({proj(i) for i in q8.elements})
    perms = [psl.right_mul(proj(g)) for g in q8.generators]
    coset, reps = orbit_graph._coset_table(perms, order)
    assert len(reps) * order == psl.n
    with pytest.raises(groups.GroupBuildError):
        orbit_graph._coset_table(perms[:1], order)


def _b0_union_find(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for s, t in edges:
        parent[find(s)] = find(t)
    return sum(1 for x in range(n) if find(x) == x)


@pytest.mark.parametrize("seed", range(5))
def test_homology_ranks_matches_union_find(seed):
    rng = np.random.default_rng(seed)
    n, m = 60, 45
    src = rng.integers(n, size=m).astype(np.int32)
    tgt = rng.integers(n, size=m).astype(np.int32)
    stub = SimpleNamespace(n_vertices=n, n_edges=m, edge_src=src, edge_tgt=tgt)
    b0 = _b0_union_find(n, zip(src.tolist(), tgt.tolist()))
    assert b0 > 1
    assert homology_ranks(stub) == (b0, m - n + b0)
