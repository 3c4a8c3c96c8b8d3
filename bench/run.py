"""syzkit benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload syzygy-deep --seed 1 --seconds 30 --trace 0

Workloads: syzygy-deep, order-reports, algebra-pool (see expected.json for
why each exists and which layer numbers each should move).

Each run makes one untimed warm-up pass (lazy imports such as sympy), then
cold passes until --seconds are spent.

--trace 0 prints the end-to-end metrics.  wall_s is the median pass time.  A
job is one CLI command or one pool algebra; its latency is its median over
the passes, job_p50_s / job_p90_s are quantiles of those latencies, and
jobs_per_s is jobs per pass over wall_s.  setup_s is the median time of
fresh interpreters that import syzkit and make a first sympy factoring call.
peak_rss_mb is the peak RSS of this process, which runs only the one
workload.  fail_frac is printed too; the last line carries it as "failed".
--trace 1 runs each pass's inputs untraced and then traced and prints the
per-layer metrics, each the median over traced passes; spans go to
bench/out/.

Every output is compared with its recorded answer (order-reports with
tests/golden, the others with expected.json).  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
is 0 only when every operation gave the recorded answer.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

SETUP_RUNS = 11
SETUP_CODE = ("import syzkit\n"
              "from fractions import Fraction\n"
              "from syzkit.decompose import factor_over_rationals\n"
              "factor_over_rationals([Fraction(-2), Fraction(0), Fraction(1)])\n")

# Per-layer metrics of --trace 1 that every workload exercises; the last
# line of output carries these (the per_layer list of BENCHMARK.json).
LAYER_METRICS = [
    ("algebra.build_s", "s"), ("algebra.build_calls", "count"),
    ("algebra.opposite_s", "s"), ("algebra.dim_total", "count"),
    ("ratmat.mul_calls", "count"), ("ratmat.mul_s", "s"),
    ("ratmat.echelon_insert_calls", "count"), ("ratmat.kernel_calls", "count"),
    ("modules.hom_basis_calls", "count"), ("modules.hom_basis_s", "s"),
    ("modules.hom_unknowns_max", "count"), ("modules.kernel_module_s", "s"),
    ("modules.projective_module_calls", "count"),
    ("decompose.end_ring_calls", "count"), ("decompose.end_ring_s", "s"),
    ("decompose.end_dim_max", "count"), ("decompose.gram_products", "count"),
    ("decompose.split_calls", "count"), ("decompose.factor_calls", "count"),
    ("decompose.register_calls", "count"), ("decompose.register_hits", "count"),
    ("decompose.register_hit_ratio", "ratio"),
    ("decompose.trace_pairing_calls", "count"),
    ("homology.cover_calls", "count"), ("homology.cover_s", "s"),
    ("homology.class_syzygy_calls", "count"),
    ("homology.class_syzygy_cache_hits", "count"),
    ("repetition.catalog_classes", "count"), ("formats.parse_s", "s"),
    ("trace.overhead_frac", "ratio"), ("trace.coverage_min", "ratio"),
]
# Self times of layers that some workload never enters, so they read 0.0 on
# every run of it: printed, but kept off the last line.
LAYER_EXTRA = [
    "decompose.split_s", "decompose.minpoly_s", "decompose.factor_s",
    "decompose.trace_pairing_s", "homology.pdim_s", "repetition.catalog_s",
    "repetition.findim_s", "orders.presentation_s", "orders.report_s",
    "orders.gldim_cert_s", "report.emit_s",
]
MIN_COVERAGE = 0.95


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["syzygy-deep", "order-reports", "algebra-pool"])
    p.add_argument("--seed", type=int, default=1,
                   help="draws the labelings and order of the algebra-pool inputs")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="time spent on timed passes")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--pool-seed", type=int, default=None,
                   help="which recorded algebra pool to run (default: the "
                        "default_pool_seed of expected.json)")
    return p.parse_args(argv)


def quantile(values, q):
    """Inclusive linear-interpolation quantile, q in [0, 1]."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def measure_setup():
    """Median wall time of a fresh interpreter that imports syzkit and makes
    a first factor_over_rationals call (which imports sympy)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def stale_algebras():
    """Algebras from earlier passes that are still alive with registries."""
    from syzkit.algebra import AlgebraPresentation

    gc.collect()
    return sum(1 for obj in gc.get_objects()
               if isinstance(obj, AlgebraPresentation)
               and hasattr(obj, "_syzkit_registries"))


class Runner:
    """Runs passes, checks every job, keeps the timings."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []          # one message per failed operation
        self.problems = []          # failed checks of the run itself

    def run_pass(self, inputs=None):
        stale = stale_algebras()
        if stale:
            self.problems.append(f"{stale} algebras from an earlier pass still alive")
        if inputs is None:
            inputs = self.workload.next_inputs()
        start = time.perf_counter()
        jobs = self.workload.run_pass(inputs)
        wall = time.perf_counter() - start
        for job in jobs:
            self.attempted += 1
            problem = job.error or self.workload.check(job)
            if problem:
                self.failures.append(problem)
        return wall, [(job.name, job.seconds) for job in jobs]


def build_workload(args, expected, sink):
    import workloads

    if args.workload == "syzygy-deep":
        return workloads.syzygy_deep(ROOT, expected, sink)
    if args.workload == "order-reports":
        return workloads.order_reports(ROOT, sink)
    spec = expected["algebra_pool"]
    pool_seed = spec["default_pool_seed"] if args.pool_seed is None else args.pool_seed
    answers = spec["answers"].get(str(pool_seed))
    if answers is None:
        raise SystemExit(f"error: pool seed {pool_seed} has no recorded answers")
    return workloads.PoolWorkload(pool_seed, spec["size"], args.seed, answers)


def end_to_end(runner, seconds, setup_s):
    """Median pass wall time, and the latency of each job (one CLI command,
    or one pool algebra) as its median over the passes."""
    walls, job_times = [], {}
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() + walls[-1] <= deadline:
        wall, times = runner.run_pass()
        walls.append(wall)
        for name, seconds_taken in times:
            job_times.setdefault(name, []).append(seconds_taken)
    per_job = [statistics.median(t) for t in job_times.values()]
    wall_s = statistics.median(walls)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "jobs_per_s": (len(per_job) / wall_s, "1/s"),
        "job_p50_s": (quantile(per_job, 0.5), "s"),
        "job_p90_s": (quantile(per_job, 0.9), "s"),
    }
    info = f"{len(walls)} timed passes of {len(per_job)} jobs"
    return metrics, info


def per_layer(runner, seconds, spans_path):
    import tracing

    tracer = tracing.Tracer()
    plain, traced, snapshots, coverage, passes = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() + plain[-1] + traced[-1] <= deadline:
        inputs = runner.workload.next_inputs()   # the same inputs, untraced then traced
        plain.append(runner.run_pass(inputs)[0])
        tracer.reset()
        tracer.install()
        try:
            wall = runner.run_pass(inputs)[0]
        finally:
            tracer.uninstall()
        traced.append(wall)
        snapshots.append(tracer.layer_metrics())
        coverage.append(tracer.top_s / wall)
        passes.append({"wall_s": wall, "spans": tracer.spans})
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump({"span": ["id", "name", "start", "end", "parent"],
                   "passes": passes}, fh)
    layer = {key: statistics.median(s[key] for s in snapshots) for key in snapshots[0]}
    layer["trace.overhead_frac"] = statistics.median(
        t / p for t, p in zip(traced, plain)) - 1
    layer["trace.coverage_min"] = min(coverage)
    if min(coverage) < MIN_COVERAGE:
        runner.problems.append(f"top-level spans cover {min(coverage):.3f} of a "
                               f"traced pass, below {MIN_COVERAGE}")
    info = (f"{len(traced)} traced and {len(plain)} untraced passes; "
            f"spans in {os.path.relpath(spans_path, ROOT)}")
    return layer, statistics.median(traced), info


def print_layers(layer, traced_wall):
    for name, unit in LAYER_METRICS + [(name, "s") for name in LAYER_EXTRA]:
        print(f"  {name:40s} {layer[name]:14.6f} {unit}")
    print(f"  {'span':28s} {'calls':>9s} {'self_s':>10s} {'incl_s':>10s} {'self %':>7s}")
    spans = sorted({key[:-len("_calls")] for key in layer if key.endswith("_calls")},
                   key=lambda name: -layer[name + "_s"])
    for name in spans:
        print(f"  {name:28s} {layer[name + '_calls']:9.0f} {layer[name + '_s']:10.4f} "
              f"{layer[name + '_incl_s']:10.4f} {100 * layer[name + '_s'] / traced_wall:7.2f}")


def main(argv=None):
    args = parse_args(argv)
    for needed in ("src/syzkit/__init__.py", "tests/test_report_golden.py",
                   "tests/randgen.py", "tests/golden", "tests/data"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"error: {needed} is missing; run from a syzkit checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), BENCH_DIR]
    with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
        expected = json.load(fh)

    setup_s = measure_setup() if args.trace == 0 else None
    with open(os.devnull, "w") as sink:
        runner = Runner(build_workload(args, expected, sink))
        runner.run_pass()   # warm-up: lazy imports and first-call costs
        if args.trace == 0:
            metrics, info = end_to_end(runner, args.seconds, setup_s)
        else:
            spans = os.path.join(BENCH_DIR, "out",
                                 f"spans-{args.workload}-seed{args.seed}.json")
            layer, traced_wall, info = per_layer(runner, args.seconds, spans)
            metrics = {name: (layer[name], unit) for name, unit in LAYER_METRICS}

    failed = len(runner.failures)
    print(f"workload {args.workload}, seed {args.seed}: {info}")
    if args.trace == 0:
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value:14.6f} {unit}")
    else:
        print_layers(layer, traced_wall)
    print(f"  {'fail_frac':40s} {failed / runner.attempted:14.6f} "
          f"({failed} of {runner.attempted} operations)")
    for problem in (runner.problems + runner.failures)[:10]:
        print(f"FAIL {problem}", file=sys.stderr)
    correct = failed == 0 and not runner.problems
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
