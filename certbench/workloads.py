"""The three workloads: their inputs, one pass through the program, and the
checks of that pass's outputs.

A pass is a fixed list of operations; `run_pass` returns one Outcome per
operation, always the same number, so a run attempts whole rounds.  Only
`run_pass` is timed.  `check` compares the outputs with the independent
computations in oracle.py and returns a list of errors.
"""

from __future__ import annotations

import json
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np

import oracle
from sl2cert import (acyclic, chartab, cli, groups, intlin, orbit_graph,
                     partition, report, smallgroups, unitary, verify)


@dataclass
class Outcome:
    name: str
    ok: bool
    value: object = None
    expected_failure: bool = False


def attempt(name: str, fn, expected: tuple = ()) -> Outcome:
    """Run one operation; an exception makes it a failed operation."""
    try:
        return Outcome(name, True, fn())
    except expected as exc:
        return Outcome(name, False, exc, expected_failure=True)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return Outcome(name, False, exc)


def install_wrappers(tracer) -> None:
    """Spans around the public calls of every layer the workloads reach."""
    w = tracer.wrap
    w(groups, "enumerate_group",
      lambda q, flavor="SL": f"groups.enumerate_{flavor.lower()}")
    w(groups, "all_standard_subgroups", "groups.subgroups")
    w(groups, "standard_subgroup", "groups.subgroups")
    w(verify.Session, "__init__", "verify.session")
    w(verify, "verify_prop31", "verify.census")
    w(verify, "verify_commutant_dims", "verify.commutant")
    w(verify, "verify_eigenvalues", "verify.eigen")
    w(verify, "degree_inequalities", "verify.degree")
    w(verify, "degree_inequality_sweep", "verify.sweep",
      counts=lambda res: {"verify.sweep_q": len(res)})
    w(chartab.CharacterTable, "__init__", "chartab.table")
    w(chartab.CharacterTable, "verify_row_orthogonality", "chartab.rows")
    w(chartab.CharacterTable, "verify_column_orthogonality", "chartab.columns")
    w(orbit_graph, "build_graph", "orbit_graph.build",
      counts=lambda g: {"orbit_graph.edges": g.n_edges})
    w(orbit_graph, "homology_ranks", "orbit_graph.homology")
    w(acyclic.CycleSpace, "__init__", "acyclic.cycle_space")
    w(acyclic, "certify_acyclicity", "acyclic.certify",
      counts=lambda c: {"intlin.crt_primes": len(c.primes),
                        "intlin.hadamard_bits": c.hadamard_bound.bit_length()})
    w(intlin, "det_crt", "intlin.det_crt")
    w(intlin, "hadamard_bound", "intlin.hadamard")
    w(intlin, "smith_normal_form", "intlin.smith")
    w(partition, "solve_partition_of_unity", "partition.solve")
    w(partition, "lift_partition", "partition.lift")
    w(acyclic, "search_attaching_path", "acyclic.search")
    w(cli, "run", "cli.run")
    w(report.Report, "render", "report.json")


_WALL = ("groups.enumerate_sl", "groups.enumerate_psl", "groups.subgroups",
         "verify.session", "verify.census", "verify.commutant", "verify.eigen",
         "verify.degree", "chartab.rows", "chartab.columns", "chartab.table",
         "verify.sweep", "unitary.lemma21", "orbit_graph.build",
         "orbit_graph.homology", "acyclic.cycle_space", "acyclic.certify",
         "intlin.det_crt", "intlin.det_mod_p", "intlin.hadamard",
         "intlin.smith", "partition.solve", "partition.lift", "acyclic.search",
         "cli.run", "report.json")

# per-layer metric -> how layer_metrics computes it from one traced pass
LAYER_RULES = {
    **{f"{name}_s": ("wall", name) for name in _WALL},
    "verify.sweep_q_per_s": ("rate", "verify.sweep_q", "verify.sweep"),
    "unitary.lemma21_cpu_s": ("cpu", "unitary.lemma21"),
    "unitary.lemma21_pairs_per_s": ("rate", "unitary.lemma21_pairs",
                                    "unitary.lemma21"),
    "orbit_graph.edges": ("count", "orbit_graph.edges"),
    "intlin.crt_primes": ("count", "intlin.crt_primes"),
    "intlin.hadamard_bits": ("count", "intlin.hadamard_bits"),
    "acyclic.search_evals": ("count", "acyclic.search_evals"),
    "acyclic.search_evals_per_s": ("rate", "acyclic.search_evals",
                                   "acyclic.search"),
    "acyclic.search_best_abs_logdet": ("count",
                                       "acyclic.search_best_abs_logdet"),
}


# -- checks-large-q ---------------------------------------------------------------


class ChecksLargeQ:
    """`sl2cert --checks ... --format json` once per congruence class."""

    QS = (61, 53)             # 61 = 13 (mod 24), 53 = 5 (mod 24)
    CHECKS = "census,centralizers,eigenvalues,moduli-dim,degree,chartable,graph"

    def __init__(self, out_dir: Path, seed: int):
        self.out_dir = out_dir
        self.seed = seed

    def report_path(self, q: int) -> Path:
        return self.out_dir / f"report-q{q}.json"

    def run_pass(self, tracer) -> list[Outcome]:
        out = []
        for q in self.QS:
            path = self.report_path(q)
            path.unlink(missing_ok=True)
            argv = ["--q", str(q), "--checks", self.CHECKS,
                    "--seed", str(self.seed), "--format", "json",
                    "--out", str(path)]
            tracer.context["q"] = q
            out.append(attempt(f"sl2cert --q {q}", lambda: cli.main(argv)))
        tracer.context.pop("q", None)
        for o in out:
            if o.ok and o.value != 0:
                o.ok = False          # exit status 1: some check failed
        return out

    def check(self, outcomes: list[Outcome]) -> list[str]:
        schema = json.loads((Path(cli.__file__).parent
                             / "report_schema.json").read_text())
        errors = []
        for q, o in zip(self.QS, outcomes):
            if not o.ok:
                continue
            doc = json.loads(self.report_path(q).read_text())
            try:
                jsonschema.validate(doc, schema)
            except jsonschema.ValidationError as exc:
                errors.append(f"q={q}: schema: {exc.message}")
                continue
            got = {r["name"]: r for r in doc["results"]}
            m = (q - 1) // 2
            want = {"graph[homology]": str((1, q * (q * q - 1) // 2)),
                    "commutant_dim[B]": "1",
                    **{f"moduli_dim[k={k}]": str((k + 1) * m * m)
                       for k in range(4)}}
            for name, value in want.items():
                if name not in got or got[name]["computed"] != value:
                    errors.append(f"q={q}: {name} computed "
                                  f"{got.get(name, {}).get('computed')}, "
                                  f"want {value}")
            if doc["config"]["q"] != q or doc["config"]["seed"] != self.seed:
                errors.append(f"q={q}: report config {doc['config']}")
            failed = [r["name"] for r in doc["results"] if not r["passed"]]
            if failed or doc["verdict"] != "pass":
                errors.append(f"q={q}: failed checks {failed}")
        return errors


# -- sweep-small-groups -------------------------------------------------------------


class SweepSmallGroups:
    """The closed-form degree sweep, then the lemma 2.1 pair sweep."""

    Q_MAX = 200

    def __init__(self, out_dir: Path, seed: int):
        self.seed = seed

    def _lemma21(self, group) -> list[tuple]:
        # one generator per group, seeded as `sl2cert --checks lemma21` does
        rng = np.random.default_rng(self.seed)
        n = len(group.elements)
        return [(g1, g2, unitary.lemma21_construct(group, g1, g2, rng=rng))
                for g1 in range(n) for g2 in range(n)]

    def run_pass(self, tracer) -> list[Outcome]:
        out = [attempt("degree_inequality_sweep",
                       lambda: verify.degree_inequality_sweep(q_max=self.Q_MAX))]
        pairs = 0
        with tracer.span("unitary.lemma21"):
            for group in smallgroups.all_test_groups():
                o = attempt(f"lemma21[{group.name}]",
                            lambda: (group, self._lemma21(group)))
                pairs += len(o.value[1]) if o.ok else 0
                out.append(o)
        tracer.count("unitary.lemma21_pairs", pairs)
        return out

    def check(self, outcomes: list[Outcome]) -> list[str]:
        errors = []
        sweep = outcomes[0]
        if sweep.ok:
            qs = sorted(int(r.name.split("q=")[1].rstrip("]"))
                        for r in sweep.value)
            if qs != oracle.valid_q_below(self.Q_MAX):
                errors.append(f"sweep covers q = {qs}")
            errors += [f"{r.name} failed" for r in sweep.value if not r.passed]
        for o in outcomes[1:]:
            if not o.ok:
                continue
            group, results = o.value
            for g1, g2, (a1, a2, inter, _bound) in results:
                _, errs = oracle.check_lemma21(group.rep(g1), group.rep(g2),
                                               a1, a2, inter)
                errors += [f"{o.name} pair ({g1},{g2}): {e}" for e in errs]
        return errors


# -- cert-q13 ------------------------------------------------------------------------


class CertQ13:
    """The certificate layer at q = 13 on one fixed closed walk."""

    Q = 13
    # (edge orbit, PSL2(13) element as a matrix, sign), based at vertex 0
    WALK = (("eta3", (1, 11, 8, 11), -1),
            ("eta2", (1, 6, 6, 11), -1),
            ("eta1", (2, 3, 12, 12), 1),
            ("eta1", (0, 1, 12, 1), -1),
            ("eta0", (0, 1, 12, 1), -1))
    SEARCH_SEED = 1
    SEARCH_BUDGET = 150

    def __init__(self, out_dir: Path, seed: int):
        self.seed = seed
        psl = groups.enumerate_group(self.Q, "PSL")
        self.path = acyclic.EdgePath(
            0, [(orbit, psl.index[m], sign) for orbit, m, sign in self.WALK])

    def run_pass(self, tracer) -> list[Outcome]:
        self.state = state = {}
        tracer.context["q"] = self.Q

        def graph():
            g = orbit_graph.build_graph(self.Q, "13mod24")
            state["graph"] = g
            return orbit_graph.homology_ranks(g)

        def cycles():
            state["cyc"] = acyclic.CycleSpace(state["graph"])
            return state["cyc"]

        def certify():
            return acyclic.certify_acyclicity(state["graph"], self.path,
                                              cycles=state["cyc"])

        def smith():
            g = state["graph"]
            rows: dict[int, dict[int, int]] = {}
            for e, (s, t) in enumerate(zip(g.edge_src, g.edge_tgt)):
                if s != t:
                    rows.setdefault(int(t), {})[e] = 1
                    rows.setdefault(int(s), {})[e] = -1
            return intlin.smith_normal_form(rows, g.n_vertices, g.n_edges)

        def solve_and_lift():
            sol = partition.solve_partition_of_unity(state["graph"], self.path)
            return sol, partition.lift_partition(state["graph"], self.path, sol)

        progress = []

        def search():
            try:
                return acyclic.search_attaching_path(
                    state["graph"], seed=self.SEARCH_SEED,
                    budget=self.SEARCH_BUDGET,
                    progress=lambda evals, best: progress.append((evals, best)))
            except acyclic.NoPathFound as exc:
                tracer.count("acyclic.search_evals",
                             exc.diagnostics["evaluations"])
                tracer.count("acyclic.search_best_abs_logdet",
                             float(exc.diagnostics["best_abs_logdet"]))
                raise

        ops = [("build_graph+homology_ranks", graph, (), ()),
               ("CycleSpace", cycles, ("graph",), ()),
               ("certify_acyclicity", certify, ("graph", "cyc"), ()),
               ("smith_normal_form[H0]", smith, ("graph",), ()),
               ("partition+lift", solve_and_lift, ("graph",),
                (partition.Inconsistent,)),
               ("search_attaching_path", search, ("graph",),
                (acyclic.NoPathFound,))]
        out = []
        for name, fn, needs, expected in ops:
            if all(k in state for k in needs):
                out.append(attempt(name, fn, expected))
            else:
                out.append(Outcome(name, False))    # its input was not built
        if out[-1].ok and progress:
            tracer.count("acyclic.search_evals", progress[-1][0])
            tracer.count("acyclic.search_best_abs_logdet", progress[-1][1])
        tracer.context.pop("q", None)
        return out

    def pairing_matrix(self, path) -> np.ndarray:
        g, cyc = self.state["graph"], self.state["cyc"]
        return cyc.pairing_matrix(acyclic.path_edge_vector(g, path))

    def check(self, outcomes: list[Outcome]) -> list[str]:
        res = {o.name: o for o in outcomes}
        errors = []
        if not res["build_graph+homology_ranks"].ok:
            return errors
        g = self.state["graph"]
        n_psl = self.Q * (self.Q ** 2 - 1) // 2
        b0 = oracle.components(g.n_vertices, zip(g.edge_src, g.edge_tgt))
        b1 = g.n_edges - g.n_vertices + b0
        homology = res["build_graph+homology_ranks"].value
        if homology != (b0, b1) or (b0, b1) != (1, n_psl):
            errors.append(f"homology: program {homology}, benchmark {(b0, b1)}, "
                          f"want {(1, n_psl)}")
        if res["CycleSpace"].ok:
            cyc = res["CycleSpace"].value
            if (len(cyc.non_tree) != b1
                    or int(cyc.in_tree.sum()) != g.n_vertices - b0):
                errors.append("cycle space: wrong tree or non-tree edge count")
        cert = res["certify_acyclicity"]
        if cert.ok:
            c = cert.value
            # two primes above the program's prime stream, chosen by the seed
            start = (1 << 30) + 4099 * self.seed % (1 << 29)
            check_primes = oracle.primes_above(start, 2, avoid=c.primes)
            errors += oracle.check_determinant(self.pairing_matrix(self.path),
                                               c.determinant, c.primes,
                                               c.verdict, check_primes)
            if (c.b0, c.b1) != (b0, b1):
                errors.append(f"certificate ranks {(c.b0, c.b1)}")
        smith = res["smith_normal_form[H0]"]
        if smith.ok:
            rank = g.n_vertices - b0
            if len(smith.value) != rank or any(d != 1 for d in smith.value):
                errors.append(f"Smith form of d1: {len(smith.value)} factors, "
                              f"{sum(d == 1 for d in smith.value)} units; "
                              f"want {rank} units")
        if res["partition+lift"].ok:
            sol, (x, delta) = res["partition+lift"].value
            errors += self.check_partition(sol, x, delta)
        search = res["search_attaching_path"]
        if search.ok:
            mat = self.pairing_matrix(search.value)
            dets = {oracle.symmetric(oracle.det_mod(mat, p), p)
                    for p in oracle.primes_above(1 << 30, 2)}
            if dets not in ({1}, {-1}):
                errors.append(f"found walk has det {dets} mod two primes")
        return errors

    def check_partition(self, sol, x, delta) -> list[str]:
        """Both identities, re-multiplied with the benchmark's own products."""
        g, q = self.state["graph"], self.Q
        psl_m = g.psl.elements
        sl_m = g.sl.elements

        def alg(elt, elements):
            return {tuple(elements[i]): Fraction(c)
                    for i, c in elt.coeffs.items()}

        norms_psl, norms_sl = {}, {}
        for orbit in sol:
            stab = [tuple(sl_m[i])
                    for i in g.edge_orbits[orbit].stabilizer.elements]
            norms_sl[orbit] = {m: Fraction(1) for m in stab}
            norms_psl[orbit] = {oracle.psl_canon(m, q): Fraction(1) for m in stab}
        steps_psl = [(o, oracle.psl_canon(tuple(psl_m[a]), q), s)
                     for o, a, s in self.path.steps]
        steps_sl = [(o, tuple(psl_m[a]), s) for o, a, s in self.path.steps]
        x_psl = {o: {oracle.psl_canon(m, q): c
                     for m, c in alg(e, psl_m).items()}
                 for o, e in sol.items()}
        return (oracle.check_partition(q, steps_psl, norms_psl, x_psl)
                + oracle.check_lift(q, steps_sl, norms_sl,
                                    {o: alg(e, sl_m) for o, e in x.items()},
                                    alg(delta, sl_m)))

    def traced_extras(self, tracer) -> None:
        """det_mod_p on one prime, called directly, outside the timed pass."""
        if "cyc" in self.state:
            mat = self.pairing_matrix(self.path)
            p = next(intlin.prime_stream())
            tracer.context["q"] = self.Q
            with tracer.span("intlin.det_mod_p"):
                intlin.det_mod_p(mat, p)
            tracer.context.pop("q", None)


WORKLOADS = {"checks-large-q": ChecksLargeQ,
             "sweep-small-groups": SweepSmallGroups,
             "cert-q13": CertQ13}
