"""Command-line entry point: run selected checks for a given q."""

from __future__ import annotations

import argparse
import sys

from . import acyclic, groups, orbit_graph, partition, verify
from .report import Report, RunConfig
from .verify import CheckResult, Session, _check, _timed


class _Run:
    """Shared state across checks: session, graph, path, partition."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.q = config.q
        self._session = None
        self._graph = None
        self._path = None
        self._search_error = None
        self._solution = None

    @property
    def session(self) -> Session:
        if self._session is None:
            self._session = Session(self.q)
        return self._session

    @property
    def graph(self) -> orbit_graph.OrbitGraph:
        if self._graph is None:
            self._graph = orbit_graph.build_graph(
                self.q, orbit_graph.flavor_of(self.q))
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


def _run_chartable(run: _Run) -> list[CheckResult]:
    table = run.session.table

    def check(name: str, verified) -> CheckResult:
        return _check(name, True, verified())
    return [_timed(name, check, name, verified)
            for name, verified in (
                ("chartable[rows]", table.verify_row_orthogonality),
                ("chartable[columns]", table.verify_column_orthogonality),
                ("chartable[degrees]", table.verify_degrees))]


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
    if run.q == 13 and out[0].passed:
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


# check name -> handler, in the order `--checks all` runs them.  The verify
# functions are looked up when a handler runs, not here, so that a caller
# may replace them on the module (the benchmark's tracer does).
CHECKS = {
    "census": lambda run: verify.verify_prop31(run.q, run.session),
    "centralizers": lambda run: verify.verify_commutant_dims(run.q, run.session),
    "eigenvalues": lambda run: verify.verify_eigenvalues(run.q, run.session),
    "moduli-dim": lambda run: [verify.moduli_dimension_identity(
        run.q, k, run.session) for k in (0, 1, 2, 3)],
    "degree": lambda run: verify.degree_inequalities(run.q, run.session),
    "lemma21": lambda run: verify.verify_lemma21(run.config.seed),
    "chartable": _run_chartable,
    "graph": _run_graph,
    "acyclicity": _run_acyclicity,
    "partition": _run_partition,
    "lift": _run_lift,
}
CHECK_ORDER = tuple(CHECKS)


def run(config: RunConfig) -> Report:
    state = _Run(config)
    report = Report(config)
    for name in config.checks:
        report.results += CHECKS[name](state)
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
                     budget=args.budget, fmt=args.format, out=args.out)


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
