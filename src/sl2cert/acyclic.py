"""Attaching-path search and acyclicity certification.

Attaching one free orbit of 2-cells along a closed edge path xi kills H1 of
the orbit graph exactly when the pairing matrix M (row g = coordinates of
g.xi in the fundamental-cycle basis) is unimodular.  The certificate
computes det(M) exactly by multi-modular CRT under the Hadamard bound; an
independent cross-check (`smith_cross_check`) re-derives H0 from a Smith
form and H1 = 0 from an integer inverse of M, verified exactly.

Paths are constructed at the level of H1 classes: the class determines the
certificate, and any class is realized as a concrete closed path by
concatenating fundamental-cycle loops through the spanning tree.  The
search (`search_attaching_path`) is exact: it samples candidate classes,
tests them with the block determinants of `module`, and repairs a local
generator into a global one; no floating-point score takes part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import chartab, intlin, module, orbit_graph
from .orbit_graph import OrbitGraph


class NoPathFound(Exception):
    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class EdgePath:
    """Closed edge path (a_1 e_1^{eps_1}, ..., a_n e_n^{eps_n}).

    Each step is (edge orbit name, PSL element index a, sign).  The step
    traverses the expanded edge a * e_orbit, forward for sign +1.
    """
    base_vertex: int
    steps: list[tuple[str, int, int]]

    def __len__(self) -> int:
        return len(self.steps)

    def dumps(self) -> str:
        return "\n".join(f"{orbit} {a} {sign}" for orbit, a, sign in self.steps)


def validate_path(graph: OrbitGraph, path: EdgePath) -> None:
    """Check the path is a connected closed walk at its base vertex."""
    at = path.base_vertex
    for orbit, a, sign in path.steps:
        eo = graph.edge_orbits[orbit]
        twist = graph.proj(eo.twist)
        src = graph.vertex_of(eo.source, a)
        tgt = graph.vertex_of(eo.target, graph.psl.mul(a, twist))
        if sign == 1:
            if src != at:
                raise ValueError(f"step at {at} does not start there ({src})")
            at = tgt
        else:
            if tgt != at:
                raise ValueError(f"reverse step at {at} does not end there ({tgt})")
            at = src
    if at != path.base_vertex:
        raise ValueError("path is not closed")


def path_edge_vector(graph: OrbitGraph, path: EdgePath) -> np.ndarray:
    """Signed edge-traversal counts of the path (length n_edges)."""
    vec = np.zeros(graph.n_edges, dtype=np.int64)
    for orbit, a, sign in path.steps:
        vec[graph.edge_of(orbit, a)] += sign
    return vec


class CycleSpace:
    """Fundamental-cycle coordinates and the translation action on them.

    The table trans[g, e] of the edges g.e is composed from the group's two
    `generators`: s moves the edge rep.b to (s rep).b, and trans[s g] =
    s.trans[g], as (s g).e = s.(g.e), fills it breadth-first from the
    identity (Holt, Eick & O'Brien, Handbook of CGT, 2005, 4.1)."""

    def __init__(self, graph: OrbitGraph):
        self.graph = graph
        parent_edge, in_tree, non_tree = orbit_graph.spanning_tree(graph)
        self.parent_edge = parent_edge
        self.in_tree = in_tree
        self.non_tree = np.array(non_tree, dtype=np.int64)
        psl = graph.psl
        moves = [(left, np.array([graph.edge_of(orbit, int(left[rep]))
                                  for orbit, rep in graph.edge_rep]))
                 for left in map(psl.left_mul, psl.generators)]
        self.trans = np.empty((psl.n, graph.n_edges), dtype=np.int32)
        self.trans[psl.identity] = np.arange(graph.n_edges)
        order, reached = [psl.identity], {psl.identity}
        for g in order:                     # order grows while it is read: BFS
            for left, act in moves:
                if (h := int(left[g])) not in reached:
                    reached.add(h)
                    order.append(h)
                    self.trans[h] = act[self.trans[g]]
        if len(order) != psl.n:
            raise ArithmeticError(f"the generators {psl.generators} reach "
                                  f"{len(order)} of {psl.n} elements")
        self.inv = psl.inverses()

    def tree_path_to_root(self, v: int) -> list[tuple[int, int]]:
        """Edges (edge_id, sign) leading from v to the tree root."""
        graph = self.graph
        out = []
        while True:
            e = int(self.parent_edge[v])
            if e < 0:
                return out
            s, t = int(graph.edge_src[e]), int(graph.edge_tgt[e])
            if t == v:
                out.append((e, -1))     # traverse target -> source
                v = s
            else:
                out.append((e, 1))
                v = t

    def fundamental_cycle(self, e: int) -> np.ndarray:
        """Edge vector of the cycle: e followed by tree paths to the root."""
        graph = self.graph
        vec = np.zeros(graph.n_edges, dtype=np.int64)
        vec[e] += 1
        s, t = int(graph.edge_src[e]), int(graph.edge_tgt[e])
        for eid, sign in self.tree_path_to_root(t):
            vec[eid] += sign
        for eid, sign in self.tree_path_to_root(s):
            vec[eid] -= sign
        return vec

    def class_of(self, edge_vec: np.ndarray) -> np.ndarray:
        """H1 coordinates = restriction of a cycle vector to non-tree edges."""
        return edge_vec[self.non_tree]

    def translate(self, g: int, edge_vec: np.ndarray) -> np.ndarray:
        """(g.y)[e] = y[g^{-1}.e]."""
        return edge_vec[self.trans[int(self.inv[g])]]

    @property
    def pairing_rows(self) -> np.ndarray:
        """Index table: entry (g, i) is the edge id g^{-1}.non_tree[i]."""
        if not hasattr(self, "_pairing_rows"):
            self._pairing_rows = self.trans[self.inv][:, self.non_tree]
        return self._pairing_rows

    def pairing_matrix(self, edge_vec: np.ndarray) -> np.ndarray:
        """Rows g = class of g.y, over the whole group."""
        return edge_vec[self.pairing_rows]

    def realize(self, cls: np.ndarray) -> EdgePath:
        """A closed path at the root's vertex with the given H1 class.

        Concatenates, for each nonzero coordinate, |c| copies of the loop
        root -> source(e) -> target(e) -> root (reversed for negative c).
        """
        graph = self.graph
        steps: list[tuple[str, int, int]] = []

        def emit(e: int, sign: int):
            orbit, rep = graph.edge_rep[e]
            steps.append((orbit, rep, sign))

        for pos, c in enumerate(cls):
            c = int(c)
            if c == 0:
                continue
            e = int(self.non_tree[pos])
            s, t = int(graph.edge_src[e]), int(graph.edge_tgt[e])
            down = [(eid, -sg) for eid, sg in reversed(self.tree_path_to_root(s))]
            up = self.tree_path_to_root(t)
            loop = down + [(e, 1)] + up
            for _ in range(abs(c)):
                if c > 0:
                    for eid, sg in loop:
                        emit(eid, sg)
                else:
                    for eid, sg in reversed(loop):
                        emit(eid, -sg)
        root_vertex = 0
        path = EdgePath(root_vertex, steps)
        validate_path(graph, path)
        wrong = np.flatnonzero(self.class_of(path_edge_vector(graph, path)) != cls)
        if wrong.size:
            raise ArithmeticError(
                f"the realized walk's class is wrong at coordinates {wrong.tolist()}")
        return path


@dataclass
class AcyclicityCertificate:
    path: EdgePath
    b0: int
    b1: int
    determinant: int
    hadamard_bound: int
    primes: list[int]
    verdict: str = field(init=False)

    def __post_init__(self):
        self.verdict = ("acyclic-over-Z" if self.determinant in (1, -1)
                        else "not-acyclic")


def certify_acyclicity(graph: OrbitGraph, path: EdgePath,
                       cycles: CycleSpace | None = None) -> AcyclicityCertificate:
    """Exact CRT determinant of the pairing matrix of the path's orbit."""
    validate_path(graph, path)
    cyc = cycles or CycleSpace(graph)
    b0, b1 = orbit_graph.homology_ranks(graph)
    vec = path_edge_vector(graph, path)
    mat = cyc.pairing_matrix(vec)
    det, primes, bound = intlin.det_crt(mat)
    return AcyclicityCertificate(path, b0, b1, det, bound, primes)


def smith_cross_check(graph: OrbitGraph, path: EdgePath,
                      cycles: CycleSpace | None = None) -> dict:
    """Integer homology of the attached 2-complex, independent of the
    determinant route.

    H0 comes from the Smith form of the vertex-edge boundary.  H1 is the
    cokernel of the 2-cell boundary written in the fundamental-cycle basis,
    the pairing matrix M; an integer X with M X = I, verified exactly
    (`intlin.integer_inverse`), shows M unimodular and H1 = 0.  Returns
    {"H0": ..., "H1": "0"}, with "H0": "Z" on a connected graph; raises
    ArithmeticError, with the reason, when the inverse does not verify.
    """
    validate_path(graph, path)
    cyc = cycles or CycleSpace(graph)

    d1_rows: dict[int, dict[int, int]] = {}
    for e in range(graph.n_edges):
        s, t = int(graph.edge_src[e]), int(graph.edge_tgt[e])
        if s != t:
            d1_rows.setdefault(t, {})[e] = d1_rows.get(t, {}).get(e, 0) + 1
            d1_rows.setdefault(s, {})[e] = d1_rows.get(s, {}).get(e, 0) - 1
    d1_factors = intlin.smith_normal_form(d1_rows, graph.n_vertices,
                                          graph.n_edges)
    h0_rank = graph.n_vertices - len(d1_factors)
    h0_torsion = [d for d in d1_factors if d != 1]

    vec = path_edge_vector(graph, path)
    n, n_v = graph.psl.n, graph.n_vertices
    # boundaries of sampled 2-cells must be cycles; the float sums are exact,
    # since each is at most the path length in absolute value
    for g in range(0, n, max(1, n // 8)):
        chain = cyc.translate(g, vec)
        if (np.bincount(graph.edge_tgt, chain, n_v)
                != np.bincount(graph.edge_src, chain, n_v)).any():
            raise ArithmeticError(
                f"the boundary of the 2-cell translated by {g} is not a cycle")

    intlin.integer_inverse(cyc.pairing_matrix(vec))
    h0 = ["Z"] * h0_rank + [f"Z/{d}" for d in h0_torsion]
    return {"H0": " + ".join(h0) or "0", "H1": "0"}


# -- exact search -----------------------------------------------------------------


def search_attaching_path(graph: OrbitGraph, seed: int = 1,
                          budget: int = 20000,
                          progress=None) -> EdgePath:
    """A closed walk whose class generates H1, built in exact arithmetic.

    Candidates are sums of two to four translated fundamental cycles drawn
    by `seed`.  Each candidate costs one evaluation: its block determinants
    s_C (`module.ModuleLayer.dets`), whose product of powers is det M(y).
    A candidate that winds +-1 around the quotient loop and generates H1
    locally at every prime dividing |G| (every s_C prime to |G|) is passed
    to `module.repair`, which costs one more evaluation and either returns a
    generator in y + x.H1 or proves that this family holds none.  Every
    block determinant of the result must be +-1, so det M = +-1; the class
    is then realized as a walk.  The CRT certificate (`certify_acyclicity`)
    is left to the caller: at q = 13, seed 1, the generator's pairing
    matrix has entries up to 114 and a 9,876-bit Hadamard bound, so the
    certificate needs about 330 primes.

    `progress(evaluations, score)` is called whenever the best score
    improves; the score is log|det M(y)| of the best candidate so far among
    those that pass the local test (from the exact block determinants; the
    test stops at the first failing block).  NoPathFound carries the budget,
    the evaluations spent, that score and the Galois classes whose blocks
    are still non-units in the best candidate.
    """
    best = (float("inf"), [])
    if budget <= 0:
        raise NoPathFound("budget exhausted before any candidate",
                          {"budget": budget, "evaluations": 0,
                           "best_abs_logdet": best[0], "non_units": best[1]})
    cyc = CycleSpace(graph)
    layer = module.ModuleLayer(graph, cyc, chartab.CharacterTable(graph.q))
    blocks = sorted(layer.blocks, key=lambda b: b.m)
    rng = np.random.default_rng(seed)
    n = graph.psl.n
    evaluations = 0
    while evaluations < budget:
        vec = np.zeros(graph.n_edges, dtype=np.int64)
        for _ in range(int(rng.integers(2, 5))):
            pos, g = int(rng.integers(n)), int(rng.integers(n))
            cycle = layer.fund[pos][cyc.trans[int(cyc.inv[g])]]
            vec += cycle if rng.integers(2) else -cycle
        y = vec[cyc.non_tree]
        evaluations += 1
        # cheapest blocks first; stop at the first that is not a unit at |G|
        dets = {}
        for b in blocks:
            dets[b.name] = s = b.det(layer, vec)
            if math.gcd(s, n) != 1 or (b.d == 1 and abs(s) != 1):
                break
        if len(dets) < len(blocks):
            continue
        score = layer.log_abs_det(dets)
        if score < best[0]:
            best = (score, layer.non_units(dets))
            if progress is not None:
                progress(evaluations, score)
        if evaluations >= budget:
            break
        evaluations += 1
        try:
            y = module.repair(layer, y)
        except module.RepairFailed:
            continue
        dets = layer.dets(y)
        if layer.non_units(dets):
            raise ArithmeticError(f"repair left non-unit blocks: {dets}")
        best = (0.0, [])
        if progress is not None:
            progress(evaluations, best[0])
        return cyc.realize(y)
    raise NoPathFound(
        "no unimodular attaching class found within budget",
        {"budget": budget, "evaluations": evaluations,
         "best_abs_logdet": best[0], "non_units": best[1]})
