"""Span recorder that times calls into gridbargain from outside the package.

``Tracer.install`` replaces public module attributes with timing
wrappers and ``uninstall`` puts the originals back; no file of the
package changes. A module's own functions look each other up through the
module globals, so a wrapped attribute also times calls made inside that
module. Names imported into another module (``validate_model`` in
``scheduling``, ``linprog`` in ``scheduling`` and ``codes``) are separate
bindings and are wrapped one by one.

Each span is (name, start, end, parent span index, job index). Spans stay
in memory until ``summary`` folds them into per-layer calls, busy time
and self time (busy time minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# (span name, module holding the binding, attribute)
TRACED = (
    ("cli.main", "cli", "main"),
    ("cli.report", "cli", "cmd_report"),
    ("io.load_experiment", "io", "load_experiment"),
    ("io.load_model", "io", "load_model"),
    ("io.build_pools", "io", "build_pools"),
    ("io.write", "io", "write_json"),
    ("io.write", "io", "write_csv"),
    ("rg_forecast.classify_scenarios", "io", "classify_scenarios"),
    ("rg_forecast.forecast_all", "rg_forecast", "forecast_all"),
    ("model.validate_model", "io", "validate_model"),
    ("model.validate_model", "scheduling", "validate_model"),
    ("model.validate_model", "codes", "validate_model"),
    ("scheduling.solve_social", "scheduling", "solve_social"),
    ("scheduling.individual_costs", "scheduling", "individual_costs"),
    ("scheduling.solve_individual", "scheduling", "solve_individual"),
    ("codes.run_codes", "codes", "run_codes"),
    ("consensus.metropolis_weights", "consensus", "metropolis_weights"),
    ("consensus.metropolis_weights", "codes", "metropolis_weights"),
    ("consensus.run_average_consensus", "consensus", "run_average_consensus"),
    ("consensus.allocate_from_consensus", "consensus", "allocate_from_consensus"),
    ("bargaining.allocate", "bargaining", "allocate"),
    ("bargaining.resilience_report", "bargaining", "resilience_report"),
    ("bargaining.region_probabilities", "bargaining", "region_probabilities"),
    ("highs.linprog.scheduling", "scheduling", "linprog"),
    ("highs.linprog.codes", "codes", "linprog"),
)


def _count_write(args, kwargs, result):
    return {"io.write.bytes": os.path.getsize(args[0])}


def _count_rounds(args, kwargs, result):
    return {"codes.rounds": result.iterations}


def _count_consensus(args, kwargs, result):
    return {"consensus.iterations": result.iterations}


def _count_draws(args, kwargs, result):
    return {"bargaining.mc_draws": int(args[3])}


def _count_dense(args, kwargs, result):
    """Bytes of the dense constraint matrices handed to HiGHS, in MB."""
    size = sum(kwargs[k].size for k in ("A_ub", "A_eq") if kwargs.get(k) is not None)
    return {"scheduling.lp_dense_mb": size * 8 / 1e6}


COUNTERS = {
    "io.write": _count_write,
    "codes.run_codes": _count_rounds,
    "consensus.run_average_consensus": _count_consensus,
    "bargaining.region_probabilities": _count_draws,
    "highs.linprog.scheduling": _count_dense,
}
# Counters whose per-job value is the largest single value, not the sum.
MAX_COUNTERS = {"scheduling.lp_dense_mb"}


class Tracer:
    """Records spans and counters while ``on`` is true."""

    def __init__(self):
        self.on = False
        self.job = -1
        self.spans = []
        self.counts = defaultdict(float)  # (job, counter) -> value
        self._stack = []
        self._saved = []

    def install(self):
        for name, mod_name, attr in TRACED:
            mod = importlib.import_module(f"gridbargain.{mod_name}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.job)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    if key in MAX_COUNTERS:
                        self.counts[self.job, key] = max(self.counts[self.job, key], value)
                    else:
                        self.counts[self.job, key] += value
            return result
        return traced

    def summary(self, jobs):
        """Per-layer totals over the given job indices.

        Returns {layer: {"calls", "busy_s", "self_s"}} and {counter: value},
        plus the number of LP calls made directly inside solve_social, which
        is its count of outer linearizations.
        """
        jobs = set(jobs)
        child = defaultdict(float)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        outer = 0
        for idx, (name, start, end, parent, job) in enumerate(self.spans):
            if job not in jobs:
                continue
            row = layers[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[idx]
            if name == "highs.linprog.scheduling" and parent >= 0 \
                    and self.spans[parent][0] == "scheduling.solve_social":
                outer += 1
        counts = defaultdict(float)
        for (job, key), value in self.counts.items():
            if job in jobs:
                counts[key] += value
        counts["scheduling.solve_social.outer_iterations"] = outer
        return dict(layers), dict(counts)

    def per_job_max(self, key, jobs):
        return max((v for (j, k), v in self.counts.items() if k == key and j in jobs),
                   default=0.0)
