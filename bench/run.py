"""Benchmark of the gridbargain pipeline: one workload, one closed loop.

    python3 bench/run.py --workload day_report --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One client runs the workload's job cycle back to back (each job
starts when the previous one has finished) in this process, with no
extra threads or processes, until ``--seconds`` have passed. Every job's
output is checked outside the timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics instead: every job then runs twice, once plain and
once with the span recorder of ``spans.py`` wrapped around the package's
public functions, alternating which goes first; the ratio of the two is
the tracing overhead. ``--smoke`` shrinks every input so that the
harness can be checked in a few seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before
it is a JSON record of the machine, the inputs and the details behind
the metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Set before numpy loads so that no BLAS pool starts extra threads.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# A traced run repeats only the first TRACE_CYCLE jobs of the workload's
# cycle, so that it completes whole cycles and its counts repeat exactly.
TRACE_CYCLE = 8

LAYERS = (
    "cli.main", "cli.report",
    "io.load_experiment", "io.load_model", "io.build_pools", "io.write",
    "rg_forecast.classify_scenarios", "rg_forecast.forecast_all",
    "model.validate_model",
    "scheduling.solve_social", "scheduling.individual_costs", "scheduling.solve_individual",
    "codes.run_codes",
    "consensus.metropolis_weights", "consensus.run_average_consensus",
    "consensus.allocate_from_consensus",
    "bargaining.allocate", "bargaining.resilience_report", "bargaining.region_probabilities",
    "highs.linprog.scheduling", "highs.linprog.codes",
)


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for checking the harness")
    return p.parse_args(argv)


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _run_job(job, tracer=None, index=-1):
    """Time one job; returns (seconds, problems). Checks run untimed and untraced."""
    if tracer is not None:
        tracer.job, tracer.on = index, True
    start = time.perf_counter()
    try:
        result = job.run()
        elapsed = time.perf_counter() - start
    except Exception:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.on = False
        return elapsed, [f"{job.label} raised:\n{traceback.format_exc()}"]
    if tracer is not None:
        tracer.on = False
    try:
        problems = job.check(result)
    except Exception:
        problems = [f"{job.label} check raised:\n{traceback.format_exc()}"]
    return elapsed, [f"{job.label}: {p}" for p in problems]


def _tail(latencies):
    """Highest percentile with TAIL_BEYOND samples beyond it, never below the median.

    Returns (seconds, percentile, samples beyond). Failed jobs carry an
    infinite latency, so they count as missing every limit.
    """
    lat = sorted(latencies)
    n = len(lat)
    idx = max(n - TAIL_BEYOND - 1, (n - 1) // 2)
    return lat[idx], 100.0 * (idx + 1) / n, n - idx - 1


def _untraced(jobs, seconds):
    """Returns each job's seconds, whether it failed, and the problems found."""
    times, failed, problems = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        elapsed, bad = _run_job(jobs[i % len(jobs)])
        times.append(elapsed)
        failed.append(bool(bad))
        problems += bad
        i += 1
    return times, failed, problems


def _traced(jobs, seconds, tracer):
    """Runs each job plain and traced; returns both timings, failures and problems."""
    plain, traced, problems, failures = [], [], [], 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        job = jobs[i % len(jobs)]
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            elapsed, bad = _run_job(job, tracer if with_trace else None, i)
            (traced if with_trace else plain).append(elapsed)
            failures += bool(bad)
            problems += bad
        i += 1
    return plain, traced, failures, problems


def _per_layer(tracer, jobs_done, cycle, plain, traced):
    """Per-job means of every layer over the complete job cycles that ran.

    Counts are exact and repeat run to run for a seed, because every
    complete cycle does the same work. Without a complete cycle (only
    possible with very short runs) the jobs that ran are used.
    """
    full = (jobs_done // cycle) * cycle or jobs_done
    layers, counts = tracer.summary(range(full))
    m = {}
    for name in LAYERS:
        row = layers.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        m[f"{name}.calls"] = (row["calls"] / full, "count/job")
        m[f"{name}.busy_s"] = (row["busy_s"] / full, "s/job")
        m[f"{name}.self_s"] = (row["self_s"] / full, "s/job")
    rounds = counts.get("codes.rounds", 0.0)
    codes_lp = layers.get("highs.linprog.codes", {"calls": 0})["calls"]
    draws = counts.get("bargaining.mc_draws", 0.0)
    mc_busy = layers.get("bargaining.region_probabilities", {"busy_s": 0.0})["busy_s"]
    m["codes.rounds.sum"] = (rounds * cycle / full, "count/cycle")
    m["codes.rounds.max"] = (tracer.per_job_max("codes.rounds", range(full)), "count")
    m["codes.lp_calls_per_round"] = (codes_lp / rounds if rounds else 0.0, "count/round")
    m["consensus.iterations"] = (counts.get("consensus.iterations", 0.0) / full, "count/job")
    m["scheduling.solve_social.outer_iterations"] = (
        counts["scheduling.solve_social.outer_iterations"] / full, "count/job")
    m["scheduling.lp_dense_mb"] = (
        tracer.per_job_max("scheduling.lp_dense_mb", range(full)), "MB-computed")
    m["bargaining.mc_draws"] = (draws / full, "count/job")
    m["bargaining.mc_draws_per_s"] = (draws / mc_busy if mc_busy else 0.0, "1/s")
    m["io.write.bytes"] = (counts.get("io.write.bytes", 0.0) / full, "bytes/job")
    m["trace.jobs_per_s_plain"] = (len(plain) / sum(plain), "1/s")
    m["trace.jobs_per_s_traced"] = (len(traced) / sum(traced), "1/s")
    m["trace.overhead_share"] = (sum(traced) / sum(plain) - 1.0, "share")
    return m


def main(argv=None):
    args = _args(argv)
    os.environ.update(THREAD_ENV)
    sys.dont_write_bytecode = True  # leave the source tree as it was
    if not os.path.isdir(os.path.join(SRC, "gridbargain")):
        print(f"no package source at {SRC}: run from the root of a gridbargain checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import scipy

    import gridbargain
    import spans
    import workloads
    if os.path.dirname(os.path.abspath(gridbargain.__file__)) != os.path.join(SRC, "gridbargain"):
        print(f"imported gridbargain from {gridbargain.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - T_START

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        prepare_s = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            jobs = wl.prepare(np.random.default_rng(args.seed), workdir, args.smoke)
            prepare_s.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(prepare_s)

        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                plain, traced, failed, problems = _traced(
                    jobs[:TRACE_CYCLE], args.seconds, tracer)
            finally:
                tracer.uninstall()
            attempted = len(plain) + len(traced)
            metrics = _per_layer(tracer, len(traced), min(len(jobs), TRACE_CYCLE), plain, traced)
            detail = {"spans": len(tracer.spans), "jobs_traced": len(traced),
                      "trace_cycle": min(len(jobs), TRACE_CYCLE)}
        else:
            times, fails, problems = _untraced(jobs, args.seconds)
            attempted, failed = len(times), sum(fails)
            # a failed job counts as missing every latency limit
            lat = [float("inf") if f else t for t, f in zip(times, fails)]
            tail, pct, beyond = _tail(lat)
            metrics = {
                "setup_s": (setup_s, "s"),
                "jobs_per_s": ((attempted - failed) / sum(times), "1/s"),
                "job_p50_s": (statistics.median(lat), "s"),
                "job_tail_s": (tail, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "ok_share": ((attempted - failed) / attempted, "share"),
            }
            detail = {"job_tail_percentile": pct, "job_tail_samples_beyond": beyond,
                      "jobs": attempted, "failed_share": failed / attempted}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass

    for p in problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "input_sizes": wl.sizes(args.smoke),
        "jobs_per_cycle": len(jobs), "loop": "closed, one client, one process",
        "setup": {"import_s": import_s, "prepare_s": prepare_s, "prepare_repeats": SETUP_REPEATS},
        **detail,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "platform": platform.platform(), "thread_env": THREAD_ENV,
                    "git_commit": _git_commit()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
