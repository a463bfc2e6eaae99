"""Command-line entry point: run selected checks for a given q."""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import acyclic, chartab, groups, orbit_graph, partition, smallgroups
from . import unitary, verify
from .report import Report, RunConfig
from .verify import CheckResult, Session, _check

CHECK_ORDER = ("census", "centralizers", "eigenvalues", "moduli-dim",
               "degree", "lemma21", "chartable", "graph", "acyclicity",
               "partition", "lift")


class _Run:
    """Shared state across checks: session, graph, path, partition."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._session = None
        self._graph = None
        self._path = None
        self._search_error = None
        self._solution = None

    @property
    def session(self) -> Session:
        if self._session is None:
            self._session = Session(self.config.q)
        return self._session

    @property
    def graph(self) -> orbit_graph.OrbitGraph:
        if self._graph is None:
            q = self.config.q
            self._graph = orbit_graph.build_graph(q, orbit_graph.flavor_of(q))
        return self._graph

    def path(self) -> acyclic.EdgePath:
        # a failed search is kept too, so later checks do not repeat it
        if self._path is None and self._search_error is None:
            try:
                self._path = acyclic.search_attaching_path(
                    self.graph, seed=self.config.seed,
                    budget=self.config.budget)
            except acyclic.NoPathFound as exc:
                self._search_error = exc
        if self._search_error is not None:
            raise self._search_error
        return self._path

    def solution(self):
        if self._solution is None:
            self._solution = partition.solve_partition_of_unity(
                self.graph, self.path())
        return self._solution


def _timed(name: str, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        res = fn()
    except Exception as exc:      # aborted check -> failed result with diagnostics
        res = CheckResult(name, False, "no exception",
                          f"{type(exc).__name__}: {exc}")
    res.elapsed = time.perf_counter() - t0
    return res


def _run_lemma21(seed: int) -> list[CheckResult]:
    out = []
    for group in smallgroups.all_test_groups():
        def sweep(group=group):
            rng = np.random.default_rng(seed)
            worst = None
            for g1 in range(len(group.elements)):
                for g2 in range(len(group.elements)):
                    _, _, inter, bound = unitary.lemma21_construct(
                        group, g1, g2, rng=rng)
                    margin = inter - math.ceil(bound)
                    if worst is None or margin < worst:
                        worst = margin
            return _check(f"lemma21[{group.name}]", True, worst >= 0,
                          detail=f"worst intersection margin {worst}")
        out.append(_timed(f"lemma21[{group.name}]", sweep))
    return out


def _run_chartable(ses: Session) -> list[CheckResult]:
    table = ses.table
    return [
        _timed("chartable[rows]",
               lambda: _check("chartable[rows]", True,
                              table.verify_row_orthogonality())),
        _timed("chartable[columns]",
               lambda: _check("chartable[columns]", True,
                              table.verify_column_orthogonality())),
        _timed("chartable[degrees]",
               lambda: _check("chartable[degrees]", True,
                              table.verify_degrees())),
    ]


def _run_graph(run: _Run) -> list[CheckResult]:
    def build():
        graph = run.graph
        b0, b1 = orbit_graph.homology_ranks(graph)
        want = (1, graph.psl.n)
        return _check("graph[homology]", want, (b0, b1),
                      detail=f"{graph.n_vertices} vertices, {graph.n_edges} edges")
    return [_timed("graph[homology]", build)]


def _run_acyclicity(run: _Run) -> list[CheckResult]:
    def search():
        path = run.path()
        cert = acyclic.certify_acyclicity(run.graph, path)
        res = _check("acyclicity[certificate]", "acyclic-over-Z", cert.verdict,
                     detail=f"det={cert.determinant}, path length {len(path)}")
        return res
    out = [_timed("acyclicity[certificate]", search)]
    if run.config.q == 13 and out[0].passed:
        def smith():
            hom = acyclic.smith_cross_check(run.graph, run.path())
            return _check("acyclicity[smith]", {"H0": "Z", "H1": "0"}, hom)
        out.append(_timed("acyclicity[smith]", smith))
    return out


def _run_partition(run: _Run) -> list[CheckResult]:
    def solve():
        solution = run.solution()
        support = sum(len(x.coeffs) for x in solution.values())
        return _check("partition[identity]", True, True,
                      detail=f"{len(solution)} edge elements, support {support}")
    return [_timed("partition[identity]", solve)]


def _run_lift(run: _Run) -> list[CheckResult]:
    def lift():
        x, delta = partition.lift_partition(run.graph, run.path(),
                                            run.solution())
        return _check("lift[identity]", True, True,
                      detail=f"delta support {len(delta.coeffs)}")
    return [_timed("lift[identity]", lift)]


def run(config: RunConfig) -> Report:
    state = _Run(config)
    report = Report(config)
    for name in config.checks:
        if name == "census":
            report.results += verify.verify_prop31(config.q, state.session)
        elif name == "centralizers":
            report.results += verify.verify_commutant_dims(config.q,
                                                           state.session)
        elif name == "eigenvalues":
            report.results += verify.verify_eigenvalues(config.q,
                                                        state.session)
        elif name == "moduli-dim":
            report.results += [verify.moduli_dimension_identity(
                config.q, k, state.session) for k in (0, 1, 2, 3)]
        elif name == "degree":
            report.results += verify.degree_inequalities(config.q,
                                                         state.session)
        elif name == "lemma21":
            report.results += _run_lemma21(config.seed)
        elif name == "chartable":
            report.results += _run_chartable(state.session)
        elif name == "graph":
            report.results += _run_graph(state)
        elif name == "acyclicity":
            report.results += _run_acyclicity(state)
        elif name == "partition":
            report.results += _run_partition(state)
        elif name == "lift":
            report.results += _run_lift(state)
        else:
            raise ValueError(f"unknown check: {name}")
    return report


def _parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="sl2cert",
        description="exact verification checks for SL2(q) certificates")
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--checks", default="all",
                        help="comma-separated check names, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--budget", type=int, default=20000,
                        help="path search evaluation budget")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--out", default=None)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    if args.checks == "all":
        checks = CHECK_ORDER
    else:
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
        bad = [c for c in checks if c not in CHECK_ORDER]
        if bad:
            parser.error(f"unknown checks: {', '.join(bad)}")
    if not groups.valid_q(args.q):
        parser.error(f"q={args.q} is not a prime congruent to 5 or 13 mod 24 "
                     "exceeding 5")
    return RunConfig(q=args.q, checks=checks, seed=args.seed,
                     budget=args.budget, fmt=args.format, out=args.out,
                     jobs=args.jobs)


def main(argv=None) -> int:
    try:
        config = _parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    report = run(config)
    text = report.render()
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.verdict == "pass" else 1
