"""Re-measure the reference timings listed in ROADMAP.md and compare.

    python3 bench/baselines.py

Run from the root of a source checkout. Prints one line per baseline
with the reference figure, the figure measured here and their ratio,
then the same as one JSON object. README.md keeps the last
measurement and the cause of each difference.
"""

import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.dont_write_bytecode = True

import json  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from gridbargain import bargaining, codes, io, rg_forecast, scheduling  # noqa: E402
from gridbargain.fixtures import REFERENCE_ADVERSE, REFERENCE_FAVORABLE  # noqa: E402

# name -> (reference value, unit), as listed in ROADMAP.md
REFERENCE = {
    "local_lp_ms_per_call": (5.1, "ms"),
    "distributed_shipped_s": (1.2, "s"),
    "pooled_19x96_s": (1.17, "s"),
    "pooled_19x96_peak_rss_mb": (500.0, "MB"),
    "monte_carlo_1e7x2_s": (3.0, "s"),
}


def measure():
    out = {}
    config = io.load_experiment(io.data_path("experiment.yaml"))
    model = io.load_model(config.model_path)
    rg = rg_forecast.forecast_all(io.build_pools(config), config.forecast)

    tracer = spans.Tracer()
    tracer.install()
    tracer.on, tracer.job = True, 0
    try:
        start = time.perf_counter()
        codes.run_codes(model, rg)
        out["distributed_shipped_s"] = time.perf_counter() - start
    finally:
        tracer.on = False
        tracer.uninstall()
    lp = tracer.summary([0])[0]["highs.linprog.codes"]
    out["local_lp_ms_per_call"] = 1e3 * lp["busy_s"] / lp["calls"]

    start = time.perf_counter()
    for case in (REFERENCE_FAVORABLE, REFERENCE_ADVERSE):
        bargaining.region_probabilities(case.d, case.eps0, (), 10_000_000, seed=0)
    out["monte_carlo_1e7x2_s"] = time.perf_counter() - start

    # last, so that the process peak is the pooled LP's
    grid, gen = workloads.pooled_instance(np.random.default_rng(0), 19, 4, 0)
    start = time.perf_counter()
    scheduling.solve_social(grid, gen)
    out["pooled_19x96_s"] = time.perf_counter() - start
    out["pooled_19x96_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main():
    measured = measure()
    rows = {}
    for name, (ref, unit) in REFERENCE.items():
        rows[name] = {"reference": ref, "measured": measured[name], "unit": unit,
                      "ratio": measured[name] / ref}
        print(f"{name:28s} reference {ref:8.3f} {unit:3s} measured {measured[name]:8.3f} "
              f"ratio {measured[name] / ref:5.2f}")
    print(json.dumps({"nproc": os.cpu_count(), "baselines": rows}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
