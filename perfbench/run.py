"""Benchmark of futuretube's seeded suites.

One process, one client, closed loop: each pass runs a workload's suite
configs through `futuretube.suites.run_suite` at the workload seed and
verifies every report before the next pass starts.

    python3 perfbench/run.py --workload pointwise --seed 7 --seconds 45 --trace 0

Workloads (see `WORKLOADS`): `pointwise`, `orbit-solvers`,
`real-translates`.  With `--trace 0` the passes run untraced and the last
line of stdout is a JSON object holding the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate, and the JSON holds
the per-layer metrics of the median traced pass.  A full record (the
environment, every pass time, work counters, report digests) goes to
`.perfbench_out/` at the repository root.

The default seed is 7; seed 11 is the held-out seed for checking a gain on
inputs not used while the change was written.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from tracer import LAYERS, Tracer, WorkCounters

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

DEFAULT_SEED = 7
MIN_PASSES = 3
# fresh processes that repeat the set-up, besides the benchmark process
# itself; setup_s is the median of all of them
SETUP_PROBES = 4
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (suite, n); n None is the suite's default.  Sample counts are the
# suites' defaults.
WORKLOADS = {
    # no solver iterations: per-call overhead of the 2x2 kernels and
    # seeded sampling
    "pointwise": (
        ("coordinate-identities", None),
        ("psh-levi", None),
        ("moment-oracle", None),
        ("flow-monotone", None),
        ("normal-form", None),
        ("boundary-weak-exhaustion", None),
    ),
    # well-conditioned solves: orbit_minimize (n=2 and a long n=32 tuple)
    # and the Kempf-Ness minimizer behind the quotient layer
    "orbit-solvers": (
        ("reduce-minimum", 2),
        ("reduce-minimum", 32),
        ("levi-identity", None),
        ("lagrangian", None),
        ("kempf-ness", None),
        ("saturation-probe", None),
    ),
    # orbit_minimize started far out along real orbits; its work varies
    # with the seed too much for the spread a listed workload must keep,
    # so BENCHMARK.json does not list it (see README.md)
    "real-translates": (("boundary-mod-greal", None),),
}

# per-layer metrics: (layer.function, statistic) read from the traced pass
FUNCTION_METRICS = (
    ("geometry.det_im", ("calls", "us_per_call")),
    ("geometry.tube_membership", ("calls", "us_per_call")),
    ("geometry.sample_tube_point", ("us_per_call",)),
    ("geometry.sample_tube_matrix", ("us_per_call",)),
    ("actions.expm_traceless", ("calls", "us_per_call")),
    ("actions.realize", ("us_per_call",)),
    ("actions.orbit_fields", ("calls", "us_per_call")),
    ("actions.act_real", ("us_per_call",)),
    ("psh.phi", ("calls", "us_per_call")),
    ("psh.moment_map", ("us_per_call",)),
    ("psh.levi_form_phi", ("calls", "us_per_call")),
    ("psh.dphi", ("us_per_call",)),
    ("psh.flow_monotonicity", ("us_per_call",)),
    ("reduction.orbit_minimize", ("calls", "p50_ms", "p90_ms")),
    ("quotient.kempf_ness_minimize", ("calls", "p50_ms", "p90_ms")),
    ("quotient.saturation_probe", ("calls",)),
    ("quotient.gram_map", ("us_per_call",)),
    ("boundary.boundary_scan", ("calls", "p50_ms")),
    ("boundary.normal_form", ("us_per_call",)),
    ("suites.run_suite", ("calls",)),
    ("serialize.canonical_bytes", ("us_per_call",)),
)
STAT_UNITS = {"calls": "count", "us_per_call": "us", "p50_ms": "ms", "p90_ms": "ms"}
# work counters that are per-layer metrics as well (the call counts come
# from the spans)
COUNTER_METRICS = (
    "solves",
    "reduction.orbit_minimize.iterations",
    "reduction.orbit_minimize.unconverged",
    "quotient.kempf_ness_minimize.iterations",
    "quotient.saturation_probe.margin_search_share",
)


class SetupError(RuntimeError):
    """The program could not be imported or set up."""


def load_futuretube():
    """Import futuretube from this checkout's `src`, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "futuretube", "__init__.py")):
        raise SetupError(f"no futuretube package under {SRC}")
    sys.path.insert(0, SRC)
    import futuretube
    import futuretube.suites

    if not os.path.abspath(futuretube.__file__).startswith(SRC + os.sep):
        raise SetupError(f"futuretube imported from {futuretube.__file__}, not {SRC}")
    return futuretube


def pin_blas_threads():
    """One BLAS thread, so that all load comes from this one process."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Bench:
    """One workload at one seed: set-up, passes and the correctness gate."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.configs = WORKLOADS[workload]
        self.ft = None
        self.counters = WorkCounters()
        self.digests = {}  # label -> sha256 of report_body_bytes
        self.records = {}  # label -> records in the report
        self.pass_counters = None
        self.attempted = 0
        self.failed = 0
        self.inconclusive = 0
        self.problems = []

    def setup(self):
        """Import the program and run the first, untimed pass; seconds."""
        t0 = time.perf_counter()
        self.ft = load_futuretube()
        self.counters.install(self.ft)
        self.run_pass(count=False)
        return time.perf_counter() - t0

    def run_pass(self, count=True):
        """Run every config once and verify its report.

        Checked for each report: its verdict, that its counts match the
        records' verdicts, and that its body is byte-identical to the
        first body of this run.  The solver counters must repeat those of
        the first pass.  Records of a report that fails a check, or of a
        suite that raised, count as failed.
        """
        suites = self.ft.suites
        self.counters.reset()
        attempted = failed = inconclusive = 0
        for suite, n in self.configs:
            label = suite if n is None else f"{suite}/n={n}"
            try:
                report = suites.run_suite(suites.ExperimentConfig(suite=suite, seed=self.seed, n=n))
                digest = hashlib.sha256(suites.report_body_bytes(report)).hexdigest()
            except Exception as exc:  # the suite's records are lost: all fail
                lost = self.records.get(label) or suites.ExperimentConfig(suite=suite, n=n).resolve()[1]
                attempted += lost
                failed += lost
                where = traceback.extract_tb(exc.__traceback__)[-1]
                self.problem(f"{label}: raised {exc!r} at {where.filename}:{where.lineno}")
                continue
            verdicts = [r.get("verdict", "inconclusive") for r in report.records]
            n_fail = verdicts.count("fail")
            n_pass = verdicts.count("pass")
            agg = report.aggregate
            consistent = (
                agg["fail_count"] == n_fail
                and agg["pass_count"] == n_pass
                and agg["inconclusive_count"] == len(verdicts) - n_fail - n_pass
                and report.verdict == ("pass" if n_fail == 0 else "fail")
            )
            self.records.setdefault(label, len(verdicts))
            first = self.digests.setdefault(label, digest)
            attempted += len(verdicts)
            inconclusive += len(verdicts) - n_fail - n_pass
            if not consistent:
                failed += len(verdicts)
                self.problem(f"{label}: counts do not match record verdicts")
            elif digest != first:
                failed += len(verdicts)
                self.problem(f"{label}: report body differs from the first pass")
            else:
                failed += n_fail
                if n_fail:
                    self.problem(f"{label}: {n_fail} record(s) with verdict fail")
        counts = dict(self.counters.counts)
        if self.pass_counters is None:
            self.pass_counters = counts
        elif counts != self.pass_counters:
            failed = attempted
            self.problem(f"work counters changed: {counts} != {self.pass_counters}")
        if count:
            self.attempted += attempted
            self.failed += failed
            self.inconclusive += inconclusive

    def problem(self, message):
        if message not in self.problems:
            self.problems.append(message)

    def timed_passes(self, seconds):
        """Passes until `seconds` have elapsed and at least MIN_PASSES ran;
        returns the wall time of each pass."""
        times = []
        deadline = time.perf_counter() + seconds
        while len(times) < MIN_PASSES or time.perf_counter() < deadline:
            gc.collect()
            t0 = time.perf_counter()
            self.run_pass()
            times.append(time.perf_counter() - t0)
        return times

    def work(self):
        """The deterministic work of one pass."""
        c = dict(self.pass_counters)
        margin = c.pop("quotient.saturation_probe.margin_search")
        sat = c["quotient.saturation_probe.calls"]
        c["quotient.saturation_probe.margin_search_share"] = margin / sat if sat else 0.0
        return c


def setup_probe(workload, seed):
    """Repeat the set-up in a fresh interpreter; returns its seconds."""
    code = (
        "import sys; sys.path.insert(0, {here!r}); import run; "
        "print(run.Bench({w!r}, {s!r}).setup())".format(here=HERE, w=workload, s=seed)
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=150
    )
    if done.returncode != 0:
        raise SetupError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


def source_digest():
    """sha256 over the program's source files and the workload table."""
    h = hashlib.sha256(repr(sorted(WORKLOADS.items())).encode())
    pkg = os.path.join(SRC, "futuretube")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the repository, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def openblas_threads():
    """Threads the loaded OpenBLAS reports, or None if none is found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(workload, seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": openblas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def check_across_runs(bench, digest):
    """Counters and report digests must repeat those of an earlier run of
    the same source, workload and seed in this checkout."""
    expect_dir = os.path.join(OUT, "expect")
    os.makedirs(expect_dir, exist_ok=True)
    path = os.path.join(expect_dir, f"{bench.workload}-seed{bench.seed}-{digest[:16]}.json")
    mine = {"counters": bench.pass_counters, "digests": bench.digests}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier != mine:
            bench.failed = bench.attempted
            bench.problem(f"work counters or report digests differ from the earlier run in {path}")
        return
    tmp = path + f".{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(mine, fh, sort_keys=True)
    os.replace(tmp, path)


def layer_metrics(summary, work):
    """Per-layer metrics of one traced pass."""
    out = {}
    funcs = summary["functions"]
    for qual, stats in FUNCTION_METRICS:
        f = funcs.get(qual)
        for stat in stats:
            if f is None:
                value = 0
            elif stat == "calls":
                value = f["calls"]
            elif stat == "us_per_call":
                value = f["total_s"] / f["calls"] * 1e6
            else:
                value = percentile(f["durations"], int(stat[1:3])) * 1e3
            out[f"{qual}.{stat}"] = (value, STAT_UNITS[stat])
    for name in COUNTER_METRICS:
        out[name] = (work[name], "ratio" if name.endswith("_share") else "count")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (summary["layer_self_s"][layer], "s")
    out["harness.self_s"] = (summary["harness_self_s"], "s")
    return out


def run_untraced(bench, seconds, record):
    setups = [bench.setup()]
    setups += [setup_probe(bench.workload, bench.seed) for _ in range(SETUP_PROBES)]
    times = bench.timed_passes(seconds)
    report_s = statistics.median(times)
    per_pass = sum(bench.records.values())
    record.update(setup_s=setups, pass_s=times)
    return {
        "report_s": (report_s, "s"),
        "samples_per_s": (per_pass / report_s, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_traced(bench, seconds, record):
    """Untraced and traced passes in turn, so that both see the same host;
    per-layer metrics from the traced pass of median duration."""
    bench.setup()
    tracer = Tracer()
    untraced, passes = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        gc.collect()
        t0 = time.perf_counter()
        bench.run_pass()
        untraced.append(time.perf_counter() - t0)
        gc.collect()
        tracer.install()
        try:
            tracer.begin_pass(len(passes))
            bench.run_pass()
            tracer.end_pass()
        finally:
            tracer.uninstall()
        summary = tracer.pass_summary()
        functions = {q: {k: v for k, v in f.items() if k != "durations"} for q, f in sorted(summary["functions"].items())}
        passes.append((summary["pass_s"], layer_metrics(summary, bench.work()), functions, summary["spans"]))
    traced = [p[0] for p in passes]
    median_pass = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    metrics = passes[median_pass][1]
    metrics["trace.pass_s"] = (traced[median_pass], "s")
    metrics["trace.overhead_s"] = (traced[median_pass] - statistics.median(untraced), "s")
    record.update(
        untraced_pass_s=untraced,
        traced_pass_s=traced,
        median_traced_pass=median_pass,
        functions=passes[median_pass][2],
        spans=passes[median_pass][3],
    )
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    bench = Bench(args.workload, args.seed)
    record = {}
    try:
        metrics = (run_traced if args.trace else run_untraced)(bench, args.seconds, record)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed)
    check_across_runs(bench, env["source_sha256"])
    work = bench.work()
    correct = bench.failed == 0 and not bench.problems

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    for key, value in env.items():
        print(f"  env {key} = {value}")
    for label, digest in bench.digests.items():
        print(f"  report {label}: {bench.records[label]} records, body sha256 {digest}")
    for name, value in work.items():
        print(f"  work {name} = {value:g} per pass")
    passes = record.get("pass_s") or record.get("untraced_pass_s")
    if args.trace:
        print(f"  traced passes {len(record['traced_pass_s'])}, untraced passes {len(passes)}")
    else:
        print(f"  setup_s from {len(record['setup_s'])} set-ups, report_s from {len(passes)} passes")
        tail = [q for q in (99, 95, 90, 80, 75) if len(passes) * (100 - q) / 100 >= 10]
        if tail:
            print(f"  report_s p{tail[0]} = {percentile(passes, tail[0]):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    attempted = max(bench.attempted, 1)
    print(f"  {'failed_ratio':48s} {bench.failed / attempted:14.6g} ratio ({bench.failed} of {bench.attempted} records)")
    print(f"  {'inconclusive_ratio':48s} {bench.inconclusive / attempted:14.6g} ratio")
    if args.trace:
        layers = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS) + metrics["harness.self_s"][0]
        print(f"  layer self times + harness.self_s = {layers:.6f} s; traced pass = {metrics['trace.pass_s'][0]:.6f} s")
    for problem in bench.problems:
        print(f"  PROBLEM {problem}")

    os.makedirs(OUT, exist_ok=True)
    record.update(
        environment=env,
        digests=bench.digests,
        records=bench.records,
        work=work,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        attempted=bench.attempted,
        failed=bench.failed,
        inconclusive=bench.inconclusive,
        problems=bench.problems,
    )
    out_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
