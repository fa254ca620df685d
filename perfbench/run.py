"""qnlab benchmark: one workload, one seed, one closed-loop client.

Usage (from the repository root):

    python3 perfbench/run.py --workload interp-search --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run sets up (imports qnlab and runs one warm-up op of
each kind on inputs outside the timed list), then runs rounds of library
ops back to back until the timed ops have taken ``--seconds`` and at least
five rounds have run, with one pass (interp-search) or three (first, halfway,
last) over the workload's harness experiments, and prints the end-to-end
metrics.  Set-up is repeated in two fresh processes and reported as the
median of three.

With ``--trace 1`` the run executes the harness experiments and a fixed
number of rounds twice, first untraced and then traced, and prints the
per-layer metrics of the traced pass plus the tracing overhead.  The round
count is fixed so that every count repeats exactly for a given seed.

Every op's output is checked (see workloads.py); the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One closed-loop client on one thread: BLAS worker threads only spin on
# matrices this small, and a spinning thread contends with the client.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
TRACE_ROUNDS = {"interp-search": 1, "certify": 1, "geometry-mc": 3}
SETUP_REPEATS = 3  # this process plus two fresh ones
MIN_ROUNDS = 5  # every template's mean latency is over at least five draws
# passes over the workload's harness experiments; one pass of suite:lemma5
# already takes longer than the timed ops
SUITE_PASSES = {"interp-search": 1, "certify": 3, "geometry-mc": 3}
# family-wise false-alarm rate of all Monte-Carlo checks in a run: that of
# one two-sided 4-standard-error test
MC_ALPHA = 2.0 * (1.0 - statistics.NormalDist().cdf(4.0))


def setup(workload, seed):
    """Import qnlab from this checkout and run one op of every kind on
    warm-up inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import qnlab

    if Path(qnlab.__file__).resolve().parent != ROOT / "src" / "qnlab":
        raise SystemExit(f"qnlab imported from {qnlab.__file__}, not from this checkout")
    import workloads

    _check_suite_coverage()
    seen = set()
    for op in workloads.build_round(workload, seed, 10**6):
        if op.kind not in seen:
            seen.add(op.kind)
            op.call()


def _check_suite_coverage():
    from qnlab import harness

    import workloads

    owned = [name for suites in workloads.SUITES.values() for name, _ in suites]
    registered = sorted(e["name"] for e in harness.list_experiments())
    if sorted(owned) != registered:
        raise SystemExit(f"workload suites {sorted(owned)} != registered experiments {registered}")


def run_suites(workload, seed, results, tracer=None):
    from qnlab import harness

    import workloads

    times = {}
    for name, cfg in workloads.SUITES[workload]:
        config = harness.ExperimentConfig(name, seed=seed, **cfg)
        token = tracer.begin_op(len(results), name) if tracer else None
        start = time.perf_counter()
        try:
            report = harness.run(config)
            err = None
        except Exception as exc:  # a raising experiment is a failed op
            report, err = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_op(token)
        times[name] = elapsed
        if err is None:
            if report.observational:
                err = None if report.records else "observational experiment returned no records"
            elif report.passed is not True:
                failing = [v["name"] for v in report.verdicts if not v["passed"]]
                err = f"failing verdicts: {failing}"
        results.append({"op": f"harness.{name}", "seconds": elapsed, "error": err, "suite": True})
    return times


def run_op(op, results, mc, tracer=None):
    token = tracer.begin_op(len(results), op.kind) if tracer else None
    start = time.perf_counter()
    try:
        out = op.call()
        err = None
    except Exception as exc:  # a raising op is a failed op
        out, err = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end_op(token)
    if err is None:
        try:
            err = op.check(out)
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
    if err is None and op.relerr is not None:
        mc.append((op, out, elapsed))
    results.append({"op": op.kind, "seconds": elapsed, "error": err, "suite": False})
    return elapsed


def mc_failures(mc):
    """Monte-Carlo checks of one run.

    Each estimate must lie within ``zmax`` standard errors of its exact
    reference, with ``zmax`` the Bonferroni threshold that gives all n
    checks together the false-alarm rate of one 4-standard-error test, and
    the standardized errors must not drift together (|sum z| / sqrt(n) <= 4).
    """
    zs = [(op, op.z(out)) for op, out, _ in mc if op.z is not None]
    if not zs:
        return []
    zmax = statistics.NormalDist().inv_cdf(1.0 - MC_ALPHA / (2.0 * len(zs)))
    bad = [f"{op.kind}: z = {z:.2f} beyond {zmax:.2f}" for op, z in zs if (z if op.one_sided else abs(z)) > zmax]
    two = [z for op, z in zs if not op.one_sided]
    if two and abs(sum(two)) / math.sqrt(len(two)) > 4.0:
        bad.append(f"Monte-Carlo errors drift together: sum z / sqrt n = {sum(two) / math.sqrt(len(two)):.2f}")
    return bad


def machine_block():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def _blas_threads():
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: the order statistics
    weighted by the Beta((n + 1) q, (n + 1)(1 - q)) mass of each 1/n step."""
    import numpy as np
    from scipy.special import betainc  # scipy.stats would add 20 MB to peak_rss_mb

    x = np.sort(values)
    n = len(x)
    w = np.diff(betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n))
    return float(w @ x)


def timed_run(workload, seed, seconds, own_setup):
    import workloads

    results, mc = [], []
    # suite passes are spread over the timed phase: first, (middle,) last
    n_passes = SUITE_PASSES[workload]
    passes = [run_suites(workload, seed, results)]
    lat = []
    by_kind = {}
    busy = 0.0
    rounds = 0
    while busy < seconds or rounds < MIN_ROUNDS:
        if len(passes) < n_passes - 1 and busy >= seconds * len(passes) / (n_passes - 1):
            passes.append(run_suites(workload, seed, results))
        ops = workloads.build_round(workload, seed, rounds)
        for j, op in enumerate(ops):
            dt = run_op(op, results, mc)
            busy += dt
            lat.append(dt)
            by_kind.setdefault(f"{j}:{op.kind}", []).append(dt * 1e3)
        rounds += 1
    while len(passes) < n_passes:
        passes.append(run_suites(workload, seed, results))
    suite_s = sum(statistics.median(p[name] for p in passes) for name in passes[0])
    mc_errors = mc_failures(mc)
    setups = [own_setup] + [_setup_probe(workload, seed) for _ in range(SETUP_REPEATS - 1)]
    # Latency percentiles over the op templates, each at its mean latency
    # over the rounds.  A mean moves in proportion to the share of a run the
    # host spends in a slow phase; a percentile of the raw latencies jumps
    # between the slow and the fast copies of the same template instead.
    # The Harrell-Davis estimate weighs several templates around each
    # percentile rather than the one or two next to it.
    kind_ms = {k: statistics.fmean(v) for k, v in by_kind.items()}
    p50, p90 = (hd_quantile(list(kind_ms.values()), q) for q in (0.5, 0.9))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "suite_s": (suite_s, "s"),
        "mc_relerr_sqrt_s": (
            statistics.median(op.relerr(out) * math.sqrt(dt) for op, out, dt in mc),
            "sqrt_s",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "rounds": rounds,
        "library_ops": len(lat),
        "latency_samples": len(lat),
        "latency_templates": len(by_kind),
        "samples_above_p90": sum(dt * 1e3 > p90 for dt in lat),
        "mc_ops": len(mc),
        "setup_samples_s": setups,
        "busy_s": busy,
        "suite_passes_s": passes,
        "kind_mean_ms": kind_ms,
        "kind_latencies_ms": by_kind,
    }
    return results, mc_errors, metrics, info


def traced_run(workload, seed):
    import tracing
    import workloads

    rounds = TRACE_ROUNDS[workload]
    walls = []
    results, mc = [], []
    for traced in (False, True):
        tracer = tracing.Tracer() if traced else None
        if traced:
            mods = [m for name, m in sys.modules.items() if name == "qnlab" or name.startswith("qnlab.")]
            tracer.install(mods)
        wall = sum(run_suites(workload, seed, results, tracer).values())
        for r in range(rounds):
            for op in workloads.build_round(workload, seed, r):
                wall += run_op(op, results, mc, tracer)
        if traced:
            tracer.uninstall()
        walls.append(wall)
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.untraced_s"] = (walls[0], "s")
    metrics["trace.traced_s"] = (walls[1], "s")
    metrics["trace.overhead_s"] = (walls[1] - walls[0], "s")
    info = {
        "rounds": rounds,
        "spans": len(tracer.spans),
        "leaf_records": len(tracer.leaves),
        "self_s": {name: secs for name, (_, secs) in sorted(tracer.totals().items())},
    }
    return results, mc_failures(mc), metrics, info, tracer


def _setup_probe(workload, seed):
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(TRACE_ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("seed must be an unsigned 64-bit integer")
    if args.seconds <= 0:
        ap.error("seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    start = time.perf_counter()
    setup(args.workload, args.seed)
    own_setup = time.perf_counter() - start
    if args.setup_probe:
        print(repr(own_setup))
        return 0

    if args.trace:
        results, mc_errors, metrics, info, tracer = traced_run(args.workload, args.seed)
    else:
        results, mc_errors, metrics, info = timed_run(args.workload, args.seed, args.seconds, own_setup)
        tracer = None
    failed = [r for r in results if r["error"]]
    attempted, n_failed = len(results), len(failed) + len(mc_errors)
    correct = n_failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_block(),
        "info": info,
        "failed_frac": n_failed / attempted,
        "failures": [r["op"] + ": " + r["error"] for r in failed] + mc_errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.dump(OUT / f"spans-{stem}.json", {"workload": args.workload, "seed": args.seed})

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print("info " + json.dumps({k: v for k, v in info.items() if not k.startswith(("kind_", "self_"))}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':44s} {record['failed_frac']:14.6g} ratio  ({n_failed} of {attempted} attempted)")
    for msg in record["failures"]:
        print(f"  FAILED {msg}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": n_failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
