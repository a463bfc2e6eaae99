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
        _require(all(x in vstabs[src] for x in stab.elements),
                 f"{name}: stabilizer {stab.name} not inside source {src}")
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


def _component_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Least node of the connected component of each node in range(n).

    The edges are the pairs (src[i], dst[i]).  Min-label propagation: each
    round lowers every label to the least label across its edges, in both
    directions, then pointer-jumps (label = label[label]) until stable.
    """
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, src, label[dst])
        np.minimum.at(new, dst, label[src])
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, label):
            return label
        label = new


def _coset_table(perms: list[np.ndarray], order: int) -> tuple[np.ndarray, np.ndarray]:
    """Left-coset index of every PSL element, plus least reps per coset.

    `perms` are the right multiplications g -> g*s by generators s of a
    subgroup H of the given order; the cosets gH are their orbits.  Coset
    ids follow the order of the least representatives.
    """
    n = len(perms[0])
    ident = np.arange(n)
    label = _component_labels(n, np.tile(ident, len(perms)), np.concatenate(perms))
    reps = np.flatnonzero(label == ident)
    coset = np.searchsorted(reps, label).astype(np.int32)
    sizes = np.bincount(coset, minlength=len(reps))
    if not (sizes == order).all():
        raise groups.GroupBuildError(
            f"coset sizes {sorted(set(sizes.tolist()))}, expected {order}: "
            "the generators do not generate the subgroup")
    return coset, reps


def build_graph(q: int, flavor: str, k: int = 0,
                sl: GroupTable | None = None) -> OrbitGraph:
    """Expanded PSL2(q)-graph with the flavor's incidence pattern.

    `sl` is an enumerated SL2(q) table to reuse; by default one is built.
    """
    if flavor != flavor_of(q):
        raise ValueError(f"q={q} has flavor {flavor_of(q)}, not {flavor}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if sl is None:
        sl = groups.enumerate_group(q, "SL")
    elif sl.flavor != "SL" or sl.q != q:
        raise ValueError(f"expected the SL2({q}) table, got {sl.flavor}2({sl.q})")
    psl = groups.enumerate_group(q, "PSL")
    if q <= 13:
        psl.build_cayley()
    proj = groups.PSLProjection(sl, psl)
    vstabs = {v: groups.standard_subgroup(VERTEX_SUBGROUPS[v], sl)
              for v in VERTEX_NAMES}
    eorbits = _edge_orbits(q, sl, vstabs, k)
    graph = OrbitGraph(q, flavor, k, sl, psl, proj, vstabs, eorbits)

    # generators recur across stabilizers (a, alpha, the Q8 pair): one
    # permutation per distinct PSL element
    perms: dict[int, np.ndarray] = {}

    def right_mul(sl_idx: int) -> np.ndarray:
        h = proj(sl_idx)
        if h not in perms:
            perms[h] = psl.right_mul(h)
        return perms[h]

    def cosets(handle: SubgroupHandle) -> tuple[np.ndarray, np.ndarray]:
        order = len(np.unique(proj.proj[list(handle.elements)]))
        return _coset_table([right_mul(s) for s in handle.generators], order)

    for v in VERTEX_NAMES:
        coset, reps = cosets(vstabs[v])
        graph.vertex_offset[v] = len(graph.vertex_rep)
        graph.vertex_coset[v] = coset
        graph.vertex_rep.extend((v, int(r)) for r in reps)

    srcs, tgts = [], []
    for name, eo in eorbits.items():
        coset, reps = cosets(eo.stabilizer)
        graph.edge_offset[name] = len(graph.edge_rep)
        graph.edge_coset[name] = coset
        graph.edge_rep.extend((name, int(r)) for r in reps)
        srcs.append(graph.vertex_offset[eo.source]
                    + graph.vertex_coset[eo.source][reps])
        tgts.append(graph.vertex_offset[eo.target]
                    + graph.vertex_coset[eo.target][right_mul(eo.twist)[reps]])
    graph.edge_src = np.concatenate(srcs).astype(np.int32)
    graph.edge_tgt = np.concatenate(tgts).astype(np.int32)
    _check_invariants(graph)
    return graph


def _require(ok: bool, message: str) -> None:
    """Raise GroupBuildError(message) unless ok; unlike assert, this check
    stays under python -O."""
    if not ok:
        raise groups.GroupBuildError(message)


def _check_invariants(graph: OrbitGraph) -> None:
    sl = graph.sl
    for name, eo in graph.edge_orbits.items():
        src, tgt = graph.vertex_stabs[eo.source], graph.vertex_stabs[eo.target]
        _require(all(x in src for x in eo.stabilizer.elements),
                 f"{name}: stabilizer not inside source {eo.source}")
        _require(all(sl.conj(x, eo.twist) in tgt for x in eo.stabilizer.elements),
                 f"{name}: twist {eo.twist} does not conjugate the stabilizer "
                 f"into target {eo.target}")
        _require(sl.z in eo.stabilizer, f"{name}: stabilizer does not contain z")
    # expanded cell counts match index sums at the PSL level
    n = graph.psl.n
    total_v = sum(2 * n // len(graph.vertex_stabs[v]) for v in VERTEX_NAMES)
    total_e = sum(2 * n // len(eo.stabilizer)
                  for eo in graph.edge_orbits.values())
    _require((graph.n_vertices, graph.n_edges) == (total_v, total_e),
             f"{graph.n_vertices} vertices and {graph.n_edges} edges expanded, "
             f"{total_v} and {total_e} by the index sums")


def homology_ranks(graph: OrbitGraph) -> tuple[int, int]:
    """(b0, b1) of the expanded graph; b1 from the Euler characteristic.

    The boundary matrix of a graph has rank V - b0, so b1 = E - V + b0; b0
    counts the connected components, found by `_component_labels` over the
    expanded edges.
    """
    n_v = graph.n_vertices
    labels = _component_labels(n_v, graph.edge_src, graph.edge_tgt)
    b0 = int(np.count_nonzero(labels == np.arange(n_v)))
    b1 = graph.n_edges - n_v + b0
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
    _require(seen.all(), f"graph is not connected: vertex {int(np.argmin(seen))} "
             "is not reached from vertex 0")
    non_tree = [e for e in range(n_e) if not in_tree[e]]
    return parent_edge, in_tree, non_tree
