"""Attaching-path search and acyclicity certification.

Attaching one free orbit of 2-cells along a closed edge path xi kills H1 of
the orbit graph exactly when the pairing matrix M (row g = coordinates of
g.xi in the fundamental-cycle basis) is unimodular.  The certificate
computes det(M) exactly by multi-modular CRT under the Hadamard bound; an
independent Smith-form oracle re-derives H0/H1 of the attached 2-complex.

Paths are searched at the level of H1 classes: the class determines the
certificate, and any class is realized as a concrete closed path by
concatenating fundamental-cycle loops through the spanning tree.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import intlin, orbit_graph
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

    @staticmethod
    def parse(text: str, base_vertex: int) -> "EdgePath":
        steps = []
        for line in text.strip().splitlines():
            orbit, a, sign = line.split()
            steps.append((orbit, int(a), int(sign)))
        return EdgePath(base_vertex, steps)


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
    """Fundamental-cycle coordinates and the translation action on them."""

    def __init__(self, graph: OrbitGraph):
        self.graph = graph
        parent_edge, in_tree, non_tree = orbit_graph.spanning_tree(graph)
        self.parent_edge = parent_edge
        self.in_tree = in_tree
        self.non_tree = np.array(non_tree, dtype=np.int64)
        self.non_tree_pos = {int(e): i for i, e in enumerate(non_tree)}
        n = graph.psl.n
        # translation table: trans[g, e] = id of the edge g.e
        trans = np.empty((n, graph.n_edges), dtype=np.int32)
        graph.psl.build_cayley()
        cay = graph.psl._cayley
        for e in range(graph.n_edges):
            orbit, rep = graph.edge_rep[e]
            trans[:, e] = (graph.edge_coset[orbit][cay[:, rep]]
                           + graph.edge_offset[orbit])
        self.trans = trans
        self.inv = np.array([graph.psl.inv(g) for g in range(n)], dtype=np.int64)
        # root-to-vertex tree paths are resolved lazily
        self._depth_cache: dict[int, np.ndarray] = {}

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
        return out

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
        assert np.array_equal(self.class_of(path_edge_vector(graph, path)), cls)
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

    def to_json(self) -> str:
        return json.dumps({
            "determinant": str(self.determinant),
            "hadamard_bound": str(self.hadamard_bound),
            "primes": self.primes,
            "b0": self.b0,
            "b1": self.b1,
            "path_length": len(self.path),
            "verdict": self.verdict,
        }, indent=2, sort_keys=True)


def certify_acyclicity(graph: OrbitGraph, path: EdgePath,
                       cycles: CycleSpace | None = None,
                       progress=None) -> AcyclicityCertificate:
    """Exact CRT determinant of the pairing matrix of the path's orbit."""
    validate_path(graph, path)
    cyc = cycles or CycleSpace(graph)
    b0, b1 = orbit_graph.homology_ranks(graph)
    vec = path_edge_vector(graph, path)
    mat = cyc.pairing_matrix(vec)
    det, primes, bound = intlin.det_crt(mat, progress=progress)
    return AcyclicityCertificate(path, b0, b1, det, bound, primes)


def smith_cross_check(graph: OrbitGraph, path: EdgePath,
                      cycles: CycleSpace | None = None) -> dict:
    """Integer homology of the attached 2-complex via Smith forms.

    Independent of the determinant route: H0 from the invariant factors of
    the vertex-edge boundary, H1 from those of the 2-cell boundary written
    in the fundamental-cycle basis.  Returns {"H0": ..., "H1": ...} with "Z"
    and "0" on success.
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
    n = graph.psl.n
    # boundaries of the 2-cells must be cycles
    d2_check = cyc.pairing_matrix(vec)
    full = np.stack([cyc.translate(g, vec) for g in range(0, n, max(1, n // 8))])
    d1_dense = np.zeros((graph.n_vertices, graph.n_edges), dtype=np.int64)
    for i, r in d1_rows.items():
        for j, v in r.items():
            d1_dense[i, j] = v
    assert not (d1_dense @ full.T).any(), "2-cell boundary is not a cycle"

    m_rows = {i: {j: int(v) for j, v in enumerate(row) if v}
              for i, row in enumerate(d2_check)}
    m_factors = intlin.smith_normal_form(m_rows, n, len(cyc.non_tree))
    h1_rank = len(cyc.non_tree) - len(m_factors)
    h1_torsion = [d for d in m_factors if d != 1]

    def fmt(rank: int, torsion: list[int]) -> str:
        if rank == 0 and not torsion:
            return "0"
        parts = ["Z"] * rank + [f"Z/{d}" for d in torsion]
        return " + ".join(parts)

    return {"H0": fmt(h0_rank, h0_torsion), "H1": fmt(h1_rank, h1_torsion)}


# -- randomized search ----------------------------------------------------------


def _orbit_support_ok(graph: OrbitGraph, vec: np.ndarray) -> bool:
    for name in graph.edge_orbits:
        lo = graph.edge_offset[name]
        hi = lo + graph.psl.n * 2 // len(graph.edge_orbits[name].stabilizer)
        if not vec[lo:hi].any():
            return False
    return True


def _abs_logdet(mat: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(mat.astype(np.float64))
    if sign == 0 or not np.isfinite(logdet):
        return float("inf")
    return abs(logdet)


def search_attaching_path(graph: OrbitGraph, seed: int = 1,
                          budget: int = 20000,
                          progress=None) -> EdgePath:
    """Gradient-guided search for a class with unimodular pairing.

    State = an H1 class vector y in fundamental-cycle coordinates; the
    objective is |log|det M(y)|| (zero exactly at det = +-1).  Moves are
    integer coordinate steps ranked by the analytic gradient
    d log|det| / dy_j = tr(M^{-1} B_j), evaluated for every coordinate at
    once via a bincount over the shared index table.  Descent restarts
    from random sums of translated fundamental cycles, or from a
    perturbation of the incumbent.

    The float objective is only a guide: slogdet of an exactly singular
    integer matrix can report small finite noise, so low scores pass a
    residual test and candidates near zero are confirmed with exact
    modular determinants before the CRT certificate is attempted.
    """
    if budget <= 0:
        raise NoPathFound("budget exhausted before any candidate",
                          {"budget": budget, "evaluations": 0})
    cyc = CycleSpace(graph)
    rng = np.random.default_rng(seed)
    n = graph.psl.n
    n_cls = len(cyc.non_tree)
    rows = cyc.pairing_rows
    rows_flat = rows.ravel()
    fund = np.array([cyc.fundamental_cycle(int(e)) for e in cyc.non_tree])
    eye = np.eye(n_cls)
    evaluations = 0
    best = (float("inf"), None)

    def matrix_of(y: np.ndarray) -> np.ndarray:
        return (y @ fund)[rows].astype(np.float64)

    def score_of(mat: np.ndarray) -> float:
        s = _abs_logdet(mat)
        if s < 2.5:
            # guard against slogdet noise on exactly singular matrices
            try:
                inv = np.linalg.inv(mat)
            except np.linalg.LinAlgError:
                return float("inf")
            resid = np.abs(mat @ inv - eye).max()
            if not np.isfinite(resid) or resid > 1e-6:
                return float("inf")
        return s

    def gradient(mat: np.ndarray) -> np.ndarray | None:
        try:
            inv = np.linalg.inv(mat)
        except np.linalg.LinAlgError:
            return None
        sums = np.bincount(rows_flat, weights=inv.T.ravel(),
                           minlength=graph.n_edges)
        return fund @ sums

    def exact_small_det(y: np.ndarray) -> int | None:
        mat = (y @ fund)[rows]
        lifts = []
        for p in (1073741789, 1073741783):
            d = intlin.det_mod_p(mat, p) % p
            lifts.append(d - p if d > p // 2 else d)
        return lifts[0] if lifts[0] == lifts[1] else None

    def initial_y() -> np.ndarray:
        y = np.zeros(n_cls, dtype=np.int64)
        for _ in range(int(rng.integers(2, 5))):
            pos = int(rng.integers(n_cls))
            g = int(rng.integers(n))
            y = y + fund[pos][cyc.trans[int(cyc.inv[g])]][cyc.non_tree]
        return y

    while evaluations < budget:
        if best[1] is not None and best[0] < 20 and rng.integers(2):
            y = best[1].copy()
            for _ in range(int(rng.integers(1, 4))):
                y[int(rng.integers(n_cls))] += 1 if rng.integers(2) else -1
        else:
            y = initial_y()
        mat = matrix_of(y)
        score = score_of(mat)
        evaluations += 1
        stall = 0
        while evaluations < budget and stall < 80:
            grad = gradient(mat)
            improved = False
            if grad is not None:
                sign_ld = np.sign(np.linalg.slogdet(mat)[1]) or 1.0
                order = np.argsort(-np.abs(grad))[:12]
                cands = []
                for j in order:
                    step = -int(np.sign(grad[j]) * sign_ld) or 1
                    cands += [(int(j), step), (int(j), 2 * step),
                              (int(j), -step)]
                pick = (score, None)
                for j, t in cands:
                    if evaluations >= budget:
                        break
                    y[j] += t
                    cand_mat = matrix_of(y)
                    cand = score_of(cand_mat)
                    evaluations += 1
                    y[j] -= t
                    if cand < pick[0]:
                        pick = (cand, (j, t, cand_mat))
                if pick[1] is not None:
                    j, t, mat = pick[1]
                    y[j] += t
                    score = pick[0]
                    improved = True
                    stall = 0
            if not improved and evaluations < budget:
                # random kick; mild uphill moves keep the walk moving
                j = int(rng.integers(n_cls))
                t = 1 if rng.integers(2) else -1
                y[j] += t
                cand_mat = matrix_of(y)
                cand = score_of(cand_mat)
                evaluations += 1
                if cand < score + 2.0:
                    mat, score = cand_mat, cand
                else:
                    y[j] -= t
                stall += 1
            if score < best[0]:
                best = (score, y.copy())
                if progress is not None:
                    progress(evaluations, score)
            if score < 0.3:
                det = exact_small_det(y)
                if det in (1, -1) and _orbit_support_ok(graph, y @ fund):
                    path = cyc.realize(y.copy())
                    cert = certify_acyclicity(graph, path, cyc)
                    if cert.verdict == "acyclic-over-Z":
                        return path
                score = float("inf")     # near miss; restart from elsewhere
    raise NoPathFound(
        "no unimodular attaching class found within budget",
        {"budget": budget, "evaluations": evaluations,
         "best_abs_logdet": best[0]})
