"""The equivariant orbit graph: four vertex orbits (B, 2D_{q-1}, 2D_{q+1},
SL2(3)) and 4+k edge orbits (C_{q-1}, C4, Q8, C6, k free orbits), expanded
to an explicit PSL2(q)-graph of cosets.

The incidence pattern depends on the residue of q mod 24:

  13 mod 24:  v0 -eta0-> v1, v1 -eta1-> v2, v1 -eta2-> v3, v3 -eta3-> g.v0
  5 mod 24:   v0 -eta0-> v1, v1 -eta2-> v3, v3 -eta3-> v2, v2 -eta1-> g.v0

plus k free loops at v0.  Each edge stabilizer is realized as a concrete
subgroup of the source vertex stabilizer; a twist element g is found by a
deterministic scan so that the stabilizer also lies in g G_target g^-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import groups
from .groups import GroupTable, PSLProjection, SubgroupHandle

VERTEX_NAMES = ("v0", "v1", "v2", "v3")
VERTEX_SUBGROUPS = {"v0": "B", "v1": "2Dq-1", "v2": "2Dq+1", "v3": "SL2_3"}


class TwistSearchError(Exception):
    pass


def flavor_of(q: int) -> str:
    groups.require_valid_q(q)
    return "13mod24" if q % 24 == 13 else "5mod24"


def _cyclic_in(table: GroupTable, handle: SubgroupHandle, order: int,
               name: str) -> SubgroupHandle:
    """First cyclic subgroup of the given order inside handle, by generator
    scan in element-index order."""
    for idx in handle.elements:
        if table.order(idx) == order:
            return SubgroupHandle(name, groups._closure(table, [idx]), (idx,))
    raise groups.GroupBuildError(f"no order-{order} element in {handle.name}")


@dataclass
class EdgeOrbit:
    name: str                      # eta0..eta3 or free_i
    source: str                    # vertex orbit name
    target: str
    stabilizer: SubgroupHandle     # subgroup of the SL table, inside G_source
    twist: int                     # SL element index g: stab <= g G_target g^-1


@dataclass
class OrbitGraph:
    q: int
    flavor: str
    k: int
    sl: GroupTable
    psl: GroupTable
    proj: PSLProjection
    vertex_stabs: dict[str, SubgroupHandle]
    edge_orbits: dict[str, EdgeOrbit]
    # expanded PSL-level cells
    vertex_coset: dict[str, np.ndarray] = field(default_factory=dict)
    vertex_offset: dict[str, int] = field(default_factory=dict)
    vertex_rep: list[tuple[str, int]] = field(default_factory=list)
    edge_coset: dict[str, np.ndarray] = field(default_factory=dict)
    edge_offset: dict[str, int] = field(default_factory=dict)
    edge_rep: list[tuple[str, int]] = field(default_factory=list)
    edge_src: np.ndarray | None = None
    edge_tgt: np.ndarray | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_rep)

    @property
    def n_edges(self) -> int:
        return len(self.edge_rep)

    def vertex_of(self, orbit: str, g: int) -> int:
        """Global vertex id of the coset pi(g) * G_orbit (g a PSL index)."""
        return self.vertex_offset[orbit] + int(self.vertex_coset[orbit][g])

    def edge_of(self, orbit: str, g: int) -> int:
        return self.edge_offset[orbit] + int(self.edge_coset[orbit][g])

    def translate_edge(self, g: int, edge: int) -> int:
        """Image of an expanded edge under left translation by g (PSL index)."""
        orbit, rep = self.edge_rep[edge]
        return self.edge_of(orbit, self.psl.mul(g, rep))

    def dumps(self) -> str:
        lines = []
        for v, (orbit, rep) in enumerate(self.vertex_rep):
            lines.append(f"V {orbit} {rep}")
        for e, (orbit, rep) in enumerate(self.edge_rep):
            lines.append(f"E {orbit} {rep} {self.edge_src[e]} "
                         f"{self.edge_tgt[e]} {self.edge_orbits[orbit].twist}")
        return "\n".join(lines)


def _find_twist(sl: GroupTable, stab: SubgroupHandle,
                target: SubgroupHandle) -> int:
    """First SL element g (encoding order) with g^-1 * stab * g <= target."""
    gens = stab.generators
    for g in range(sl.n):
        if all(sl.conj(x, g) in target for x in gens):
            if all(sl.conj(x, g) in target for x in stab.elements):
                return g
    raise TwistSearchError(
        f"no conjugator of {stab.name} into {target.name}")


def _edge_orbits(q: int, sl: GroupTable,
                 vstabs: dict[str, SubgroupHandle], k: int) -> dict[str, EdgeOrbit]:
    flavor = flavor_of(q)
    out: dict[str, EdgeOrbit] = {}

    def add(name, src, tgt, stab):
        target = vstabs[tgt]
        assert all(x in vstabs[src] for x in stab.elements), \
            f"{name}: stabilizer not inside source {src}"
        if all(x in target for x in stab.elements):
            twist = sl.identity
        else:
            twist = _find_twist(sl, stab, target)
        out[name] = EdgeOrbit(name, src, tgt, stab, twist)

    c_q1 = groups.standard_subgroup("Cq-1", sl)
    q8 = groups.standard_subgroup("Q8", sl)
    c4 = groups.standard_subgroup("C4", sl)          # inside 2D_{q-1}
    if flavor == "13mod24":
        add("eta0", "v0", "v1", c_q1)
        add("eta1", "v1", "v2", c4)
        add("eta2", "v1", "v3", q8)
        # C6 chosen inside SL2(3), the source stabilizer
        c6 = _cyclic_in(sl, vstabs["v3"], 6, "C6")
        add("eta3", "v3", "v0", c6)
    else:
        add("eta0", "v0", "v1", c_q1)
        add("eta2", "v1", "v3", q8)
        c6 = _cyclic_in(sl, vstabs["v3"], 6, "C6")
        add("eta3", "v3", "v2", c6)
        # C4 chosen inside 2D_{q+1}, the source stabilizer
        c4b = _cyclic_in(sl, vstabs["v2"], 4, "C4")
        add("eta1", "v2", "v0", c4b)
    z_handle = groups.standard_subgroup("Z", sl)
    for i in range(1, k + 1):
        out[f"free{i}"] = EdgeOrbit(f"free{i}", "v0", "v0", z_handle, sl.identity)
    return out


def _coset_table(psl: GroupTable, elems_psl: tuple[int, ...]) -> tuple[np.ndarray, list[int]]:
    """Left-coset index of every PSL element, plus least reps per coset."""
    coset = np.full(psl.n, -1, dtype=np.int32)
    reps: list[int] = []
    for g in range(psl.n):
        if coset[g] >= 0:
            continue
        cid = len(reps)
        reps.append(g)
        for h in elems_psl:
            coset[psl.mul(g, h)] = cid
    return coset, reps


def build_graph(q: int, flavor: str, k: int = 0) -> OrbitGraph:
    """Expanded PSL2(q)-graph with the flavor's incidence pattern."""
    if flavor != flavor_of(q):
        raise ValueError(f"q={q} has flavor {flavor_of(q)}, not {flavor}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    sl = groups.enumerate_group(q, "SL")
    psl = groups.enumerate_group(q, "PSL")
    if q <= 13:
        psl.build_cayley()
    proj = groups.PSLProjection(sl, psl)
    vstabs = {v: groups.standard_subgroup(VERTEX_SUBGROUPS[v], sl)
              for v in VERTEX_NAMES}
    eorbits = _edge_orbits(q, sl, vstabs, k)
    graph = OrbitGraph(q, flavor, k, sl, psl, proj, vstabs, eorbits)

    for v in VERTEX_NAMES:
        elems_psl = sorted(set(proj(i) for i in vstabs[v].elements))
        coset, reps = _coset_table(psl, tuple(elems_psl))
        graph.vertex_offset[v] = len(graph.vertex_rep)
        graph.vertex_coset[v] = coset
        graph.vertex_rep.extend((v, r) for r in reps)
        assert len(reps) * len(elems_psl) == psl.n

    srcs, tgts = [], []
    for name, eo in eorbits.items():
        elems_psl = sorted(set(proj(i) for i in eo.stabilizer.elements))
        coset, reps = _coset_table(psl, tuple(elems_psl))
        graph.edge_offset[name] = len(graph.edge_rep)
        graph.edge_coset[name] = coset
        graph.edge_rep.extend((name, r) for r in reps)
        assert len(reps) * len(elems_psl) == psl.n
        twist_psl = proj(eo.twist)
        for r in reps:
            srcs.append(graph.vertex_of(eo.source, r))
            tgts.append(graph.vertex_of(eo.target, psl.mul(r, twist_psl)))
    graph.edge_src = np.array(srcs, dtype=np.int32)
    graph.edge_tgt = np.array(tgts, dtype=np.int32)
    _check_invariants(graph)
    return graph


def _check_invariants(graph: OrbitGraph) -> None:
    sl = graph.sl
    for eo in graph.edge_orbits.values():
        src = graph.vertex_stabs[eo.source]
        assert all(x in src for x in eo.stabilizer.elements)
        tgt = graph.vertex_stabs[eo.target]
        for x in eo.stabilizer.elements:
            assert sl.conj(x, eo.twist) in tgt
        assert sl.z in eo.stabilizer
    # expanded cell counts match index sums at the PSL level
    n = graph.psl.n
    total_v = sum(2 * n // len(graph.vertex_stabs[v]) for v in VERTEX_NAMES)
    total_e = sum(2 * n // len(eo.stabilizer)
                  for eo in graph.edge_orbits.values())
    assert graph.n_vertices == total_v and graph.n_edges == total_e


def homology_ranks(graph: OrbitGraph) -> tuple[int, int]:
    """(b0, b1) of the expanded graph; b1 from the Euler characteristic.

    The boundary matrix of a graph has rank V - b0, so b1 = E - V + b0; b0
    is computed by union-find over the expanded edges.
    """
    parent = list(range(graph.n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, t in zip(graph.edge_src, graph.edge_tgt):
        rs, rt = find(int(s)), find(int(t))
        if rs != rt:
            parent[rs] = rt
    b0 = sum(1 for x in range(graph.n_vertices) if find(x) == x)
    b1 = graph.n_edges - graph.n_vertices + b0
    return b0, b1


def y0_word(graph: OrbitGraph) -> dict:
    """Symbolic boundary word of the attached 2-cell orbit, as data.

    The word runs through the orbit-level tree edges inverted, ends with the
    non-tree edge inverted, and closes up with the constant twist element of
    the non-tree edge.  Cell labels: x0 is the attached 2-cell orbit, y0 the
    non-tree 1-cell orbit.
    """
    if graph.flavor == "13mod24":
        letters = [("eta0", -1), ("eta2", -1), ("eta3", -1)]
        non_tree = "eta3"
        tree = ("eta0", "eta1", "eta2")
    else:
        letters = [("eta0", -1), ("eta2", -1), ("eta3", -1), ("eta1", -1)]
        non_tree = "eta1"
        tree = ("eta0", "eta2", "eta3")
    twist = graph.edge_orbits[non_tree].twist
    return {
        "word": letters,
        "constant": graph.sl.elements[twist],
        "non_tree_edge": non_tree,
        "tree_edges": tree,
        "labels": {"x0": "attached 2-cell orbit",
                   "y0": f"1-cell orbit {non_tree}"},
    }


def spanning_tree(graph: OrbitGraph) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """BFS spanning tree.

    Returns (tree_parent_edge per vertex with -1 at the root, tree mask per
    edge, list of non-tree edge ids in increasing order).
    """
    from collections import deque

    n_v, n_e = graph.n_vertices, graph.n_edges
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_v)]
    for e in range(n_e):
        s, t = int(graph.edge_src[e]), int(graph.edge_tgt[e])
        adj[s].append((t, e))
        adj[t].append((s, e))
    parent_edge = np.full(n_v, -1, dtype=np.int64)
    in_tree = np.zeros(n_e, dtype=bool)
    seen = np.zeros(n_v, dtype=bool)
    order = deque([0])
    seen[0] = True
    while order:
        v = order.popleft()
        for w, e in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent_edge[w] = e
                in_tree[e] = True
                order.append(w)
    assert seen.all(), "graph is not connected"
    non_tree = [e for e in range(n_e) if not in_tree[e]]
    return parent_edge, in_tree, non_tree
