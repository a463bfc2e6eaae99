"""Benchmark of the sl2cert certificate checker.

    python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) in this process, from
the checkout's own src/ tree, for about S seconds of whole passes; checks
every pass's outputs against independent computations; and prints, as the
last line of standard output, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones
of BENCHMARK.json; with --trace 1 they are its per-layer ones, taken from
the traced passes of a run that alternates untraced and traced passes.
Results and traces are written under certbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
SETUP_CODE = "import sl2cert.cli, sl2cert.report as r; r.load_schema()"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_setup(env: dict) -> float:
    """Wall time for a fresh interpreter to import the CLI and load the schema."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy

    blas = getattr(numpy.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
            "SL2V_CACHE_DIR": "unset"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sl2cert" / "__init__.py").is_file():
        print(f"error: no sl2cert package under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread unless the caller sets one: with the default of one
    # thread per core, spin-waiting threads on a shared machine made pass
    # times of the lemma 2.1 sweep spread by a fifth from run to run.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    # enumeration is measured: no group pickle is read or written
    os.environ.pop("SL2V_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

    import selftest
    selftest.run_all()
    setup = [measure_setup(env) for _ in range(SETUP_SAMPLES)]

    import sl2cert
    if Path(sl2cert.__file__).resolve().parent != (SRC / "sl2cert").resolve():
        print(f"error: sl2cert imported from {sl2cert.__file__}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](out_dir, args.seed)
    tracer = tracing.Tracer()
    untraced = tracing.NullTracer()

    walls: list[float] = []
    cpus: list[float] = []
    traced_walls: list[float] = []
    traced_passes: list[int] = []
    attempted = failed = 0
    errors: list[str] = []
    peak = None
    start = time.perf_counter()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        if traced:
            tracer.context = {"pass": i}
            workloads.install_wrappers(tracer)
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            outcomes = wl.run_pass(tracer if traced else untraced)
        finally:
            tracer.unwrap_all()
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        if peak is None:
            peak = peak_rss_mib()     # before any check of outputs has run
        if traced:
            traced_walls.append(wall)
            traced_passes.append(i)
            if hasattr(wl, "traced_extras"):
                wl.traced_extras(tracer)
        else:
            walls.append(wall)
            cpus.append(cpu)
        attempted += len(outcomes)
        failed += sum(not o.ok for o in outcomes)
        errors += [f"{o.name}: operation failed" for o in outcomes
                   if not o.ok and not o.expected_failure]
        errors += wl.check(outcomes)
        i += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls + traced_walls)
        if i >= 1 + args.trace and elapsed + typical > args.seconds:
            break

    env_facts = environment()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env_facts,
              "setup_samples_s": setup, "pass_wall_s": walls,
              "pass_cpu_s": cpus, "traced_pass_wall_s": traced_walls,
              "errors": errors}
    print(f"env: {json.dumps(env_facts)}")
    print(f"passes: {len(walls)} untraced {[round(w, 3) for w in walls]}"
          + (f", {len(traced_walls)} traced {[round(w, 3) for w in traced_walls]}"
             if args.trace else ""))
    for e in errors[:20]:
        print(f"error: {e}", file=sys.stderr)

    if args.trace:
        values = tracing.layer_metrics(tracer, traced_passes, workloads.LAYER_RULES)
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        print(f"tracing overhead: {overhead:+.3f} s per pass (traced pass_s "
              f"{statistics.median(traced_walls):.3f} - untraced "
              f"{statistics.median(walls):.3f})")
        record["trace_overhead_s"] = overhead
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl",
                     {**record, "layer_metrics": values})
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup),
                  "pass_s": statistics.median(walls),
                  "cpu_s": statistics.median(cpus),
                  "peak_rss_mib": peak}
        wanted = spec["end_to_end"]
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    record["result"] = result
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
