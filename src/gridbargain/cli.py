"""Command line driver: run experiments end to end from config files.

Subcommands:
  forecast   expected generation profiles, one CSV per RG user
  schedule   social schedule with the selected solver
  bargain    cost allocation, solo bounds, profit intervals, gamma sweep
  region     Monte Carlo outcome-region probabilities
  report     the whole pipeline in one deterministic report

Users are numbered 1..r in model order everywhere a command talks
about them (--honest, gamma sweeps, report rows). bargain and region
take either an experiment or --d-vector/--jsoc, which excludes the
experiment argument and --solver. Exit codes: 0 ok, 2 bad input, 3
solver trouble, 4 the bargain fell through. A distributed schedule
that ends short of its certificate exits 3: schedule after writing its
diagnostics to schedule.json, report, bargain and region writing
nothing. schedule --verify-oracle also runs the other solver as an
oracle and adds its oracle_solver, oracle_j_soc and the cost_gap to
schedule.json; a distributed oracle adds oracle_converged and
oracle_certified_gap. Set GRIDBARGAIN_LOG=info (or debug) for progress
on stderr.

Reports are reproducible: identical config and seed give byte-identical
JSON; wall-clock timings go to a separate timings.json (on an
experiment, report, bargain and region record schedule_s and
individual_s, the solo costs).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import bargaining, codes, consensus, io, rg_forecast, scheduling
from .errors import (
    GridBargainError,
    Infeasible,
    InvariantViolation,
    LengthMismatch,
    NoConvergence,
    SolverStall,
)
from .model import Pv

log = logging.getLogger("gridbargain")


def _parse_floats(text, flag):
    try:
        values = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise InvariantViolation([f"{flag}: expected comma-separated numbers, got {text!r}"])
    if not np.all(np.isfinite(values)):
        raise InvariantViolation([f"{flag}: values must be finite, got {text!r}"])
    return values


def _position_problems(positions, r, what):
    """Complaints about 1-based user positions outside 1..r or listed twice."""
    outside = sorted({i for i in positions if not 1 <= i <= r})
    repeated = sorted({i for i in positions if positions.count(i) > 1})
    problems = []
    if outside:
        problems.append(f"{what}: positions {outside} are outside users 1..{r}")
    if repeated:
        problems.append(f"{what}: positions {repeated} are listed twice")
    return problems


def _parse_honest(text, r):
    """--honest as 1-based user positions, each within 1..r and listed once."""
    if text.strip() == "":
        return ()
    try:
        idx = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise InvariantViolation([f"--honest: expected comma-separated integers, got {text!r}"])
    problems = _position_problems(idx, r, "--honest")
    if problems:
        raise InvariantViolation(problems)
    return idx


def _check_users(config, model):
    """The experiment's per-user fields and scenario pools against the model.

    A pool must belong to a user with a generator of the pool's kind, and
    every generator needs a pool: ``solve_social`` would run a generator
    without one at zero output.
    """
    r = model.n_users
    rgs = {u.id: u.rg for u in model.users}
    problems = [f"user {uid} has a generator but no scenario pool"
                for uid, rg in rgs.items() if rg is not None and uid not in config.scenario_files]
    for uid, (_, kind) in sorted(config.scenario_files.items()):
        if uid not in rgs:
            problems.append(f"scenario {uid}: the model has no user {uid}")
        elif rgs[uid] is None:
            problems.append(f"scenario {uid}: user {uid} has no generator")
        elif kind != ("pv" if isinstance(rgs[uid], Pv) else "wt"):
            problems.append(f"scenario {uid}: kind {kind!r} does not match user {uid}'s "
                            f"generator, a {type(rgs[uid]).__name__}")
    if config.gamma is not None and config.gamma.shape[0] != r:
        problems.append(f"gamma has {config.gamma.shape[0]} entries but the model has "
                        f"{r} users")
    problems += _position_problems(config.mc_honest, r, "monte_carlo.honest")
    if config.gamma_sweep is not None:
        problems += _position_problems(config.gamma_sweep["users"], r, "gamma_sweep.users")
    if problems:
        raise InvariantViolation(problems)


def _out_dir(args, config):
    out = args.out or (config.out_dir if config else None) or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _load_bundle(args):
    """Experiment config plus model, pools and forecast profiles."""
    config = io.load_experiment(args.config)
    if args.seed is not None:
        config = replace(config, seed=int(args.seed), mc_seed=int(args.seed))
    model = io.load_model(config.model_path)
    _check_users(config, model)
    pools = io.build_pools(config)
    rgs = {u.id: u.rg for u in model.users}
    for uid, pool in pools.items():
        if pool.profiles.shape[1] != model.horizon.steps:
            raise LengthMismatch(f"scenario pool of {uid}: rows have {pool.profiles.shape[1]} "
                                 f"values but the horizon has {model.horizon.steps} steps")
        peak, size = float(pool.profiles.max()), rgs[uid].size_kw
        if peak > size + 4 * np.spacing(size):  # a few ulps: a pool may peak at its rating
            raise InvariantViolation([f"scenario pool of {uid}: largest value {peak:g} kW is "
                                      f"above the generator's rating of {size:g} kW"])
    rg = None
    if pools:
        if config.forecast is None:
            raise InvariantViolation(
                ["experiment lists scenario pools but no forecast vectors"])
        rg = rg_forecast.forecast_all(pools, config.forecast)
    return config, model, pools, rg


def _schedule(model, rg, solver):
    """Run one solver; returns (outcome, report fragment, codes run or None, seconds)."""
    t0 = time.perf_counter()
    if solver == "centralized":
        outcome, run = scheduling.solve_social(model, rg), None
        extra = {"outer_iterations": outcome.outer_iterations}
    else:
        run = codes.run_codes(model, rg)
        log.info("distributed run: %d rounds, %d probe steps", run.iterations, run.probe_steps)
        outcome = run.outcome
        extra = {"iterations": run.iterations, "converged": run.converged,
                 "certified_gap": run.gap}
    elapsed = time.perf_counter() - t0
    frag = {"solver": solver, "j_soc": outcome.social_cost,
            "trading_cost": outcome.trading_cost, "bdc_costs": outcome.bdc_costs, **extra}
    return outcome, frag, run, elapsed


def _write_decisions(out, model, outcome):
    T = int(model.horizon.steps)
    t = np.arange(T)
    io.write_csv(os.path.join(out, "schedule_grid.csv"),
                 np.column_stack([t, outcome.decision.grid_buy,
                                  outcome.decision.grid_sell]),
                 header="t,grid_buy_kw,grid_sell_kw")
    for uid, dis in outcome.decision.discharge.items():
        io.write_csv(os.path.join(out, f"schedule_{uid}.csv"),
                     np.column_stack([t, dis, outcome.decision.charge[uid],
                                      outcome.soc[uid]]),
                     header="t,discharge_kw,charge_kw,soc_kwh")


def _write_forecast(out, model, rg):
    T = int(model.horizon.steps)
    t = np.arange(T)
    index = {}
    for uid in sorted(rg.profiles):
        name = f"forecast_{uid}.csv"
        prof = rg.profiles[uid]
        io.write_csv(os.path.join(out, name),
                     np.column_stack([t, prof]), header="t,p_kw")
        index[uid] = {"csv": name, "energy_kwh": float(prof.sum()) * model.horizon.dt}
    return index


def cmd_forecast(args):
    config, model, pools, rg = _load_bundle(args)
    if rg is None:
        raise InvariantViolation(["experiment has no scenario pools to forecast from"])
    out = _out_dir(args, config)
    index = _write_forecast(out, model, rg)
    io.write_json(os.path.join(out, "forecast.json"), {
        "config": os.path.basename(config.path),
        "seed": config.seed,
        "users": index,
    })
    log.info("forecast written for %d users to %s", len(index), out)
    return 0


def cmd_schedule(args):
    config, model, pools, rg = _load_bundle(args)
    solver = args.solver or config.solver
    out = _out_dir(args, config)
    outcome, frag, run, elapsed = _schedule(model, rg, solver)
    runs, timings = [run], {"schedule_s": elapsed}
    if args.verify_oracle:
        other = "centralized" if solver == "distributed" else "distributed"
        _, frag2, run2, timings["oracle_s"] = _schedule(model, rg, other)
        frag.update(oracle_solver=other, oracle_j_soc=frag2["j_soc"],
                    cost_gap=frag["j_soc"] - frag2["j_soc"],
                    **{f"oracle_{k}": frag2[k] for k in ("converged", "certified_gap")
                       if k in frag2})
        runs.append(run2)
    io.write_json(os.path.join(out, "schedule.json"),
                  {"config": os.path.basename(config.path), "seed": config.seed, **frag})
    io.write_json(os.path.join(out, "timings.json"), timings)
    if args.full_decisions:
        _write_decisions(out, model, outcome)
    log.info("schedule done: J_soc = %.4f cents (%s)", frag["j_soc"], solver)
    gaps = [run.gap for run in runs if run is not None and not run.converged]
    if gaps:
        log.error("distributed solver left a gap of %.4f cents", gaps[0])
        return 3
    return 0


def _day(args):
    """Load, forecast, schedule and solo costs: the day up to the bargain.

    Returns (config, model, rg, outcome, schedule fragment, D vector,
    timings). A distributed run short of its certificate raises
    NoConvergence before any file is written.
    """
    config, model, pools, rg = _load_bundle(args)
    outcome, frag, run, elapsed = _schedule(model, rg, args.solver or config.solver)
    if run is not None and not run.converged:
        raise NoConvergence(f"distributed schedule left a gap of {run.gap:.4f} cents")
    t0 = time.perf_counter()
    individual = scheduling.individual_costs(model, rg)
    timings = {"schedule_s": elapsed, "individual_s": time.perf_counter() - t0}
    d = np.array([individual[u.id].cost for u in model.users])
    return config, model, rg, outcome, frag, d, timings


def _bargain_inputs(args):
    """(config, D, J_soc, schedule fragment, timings), either from
    --d-vector/--jsoc (config and fragment None) or from the day."""
    if args.d_vector is None:
        if args.config is None:
            raise InvariantViolation(["give an experiment config or --d-vector/--jsoc"])
        config, model, rg, outcome, frag, d, timings = _day(args)
        return config, d, float(outcome.social_cost), frag, timings
    if args.config is not None or args.solver is not None:
        raise InvariantViolation(["--d-vector excludes the experiment argument and --solver"])
    if args.jsoc is None:
        raise InvariantViolation(["--d-vector needs --jsoc"])
    if not np.isfinite(args.jsoc):
        raise InvariantViolation([f"--jsoc must be finite, got {args.jsoc}"])
    return None, _parse_floats(args.d_vector, "--d-vector"), float(args.jsoc), None, {}


def _monte_carlo(args, config, r, samples_default=0):
    """(honest positions, sample count, seed), each from its flag, else
    from the experiment, else from the default; report has no --honest
    or --samples flag."""
    honest = getattr(args, "honest", None)
    honest = _parse_honest(honest, r) if honest is not None else (
        config.mc_honest if config else ())
    samples = getattr(args, "samples", None)
    if samples is None:
        samples = (config.mc_samples if config else 0) or samples_default
    seed = args.seed if args.seed is not None else (config.mc_seed if config else 0)
    return honest, int(samples), int(seed)


def _timed(timings, key, func, *args, **kwargs):
    """func(*args, stats=timings, **kwargs), its seconds in timings[key]."""
    t0 = time.perf_counter()
    result = func(*args, stats=timings, **kwargs)
    timings[key] = time.perf_counter() - t0
    return result


def _gamma_sweep_csv(out, d, j_soc, sweep):
    """Lattice of gamma vectors -> success flag and discount, as CSV."""
    users = sweep["users"]
    r = d.shape[0]
    axes = [np.linspace(0.0, sweep["max"], sweep["num"])] * len(users)
    grid = np.meshgrid(*axes, indexing="ij")
    rows = []
    for combo in zip(*(g.ravel() for g in grid)):
        gamma = np.zeros(r)
        for pos, val in zip(users, combo):
            gamma[pos - 1] = val
        res = bargaining.allocate(bargaining.selfish_cost(d, gamma), j_soc)
        rows.append(list(combo) + [float(res.success), res.epsilon])
    header = ",".join([f"gamma_{i}" for i in users] + ["success", "epsilon"])
    io.write_csv(os.path.join(out, "gamma_sweep.csv"), np.array(rows), header=header)
    return len(rows)


def cmd_bargain(args):
    config, d, j_soc, frag, timings = _bargain_inputs(args)
    r = d.shape[0]
    gamma = config.gamma if config and config.gamma is not None else np.zeros(r)
    if args.gamma is not None:
        gamma = _parse_floats(args.gamma, "--gamma")
    if gamma.shape[0] != r:
        raise InvariantViolation(
            [f"gamma has {gamma.shape[0]} entries but there are {r} users"])
    sweep = config.gamma_sweep if config is not None else None
    bargaining.check_scale(d, j_soc, gamma.tolist() + ([sweep["max"]] if sweep else []))
    honest, samples, seed = _monte_carlo(args, config, r)

    out = _out_dir(args, config)
    ideal = bargaining.allocate(d, j_soc)
    resilience = _timed(timings, "monte_carlo_s", bargaining.resilience_report,
                        d, j_soc, gamma, honest=[i - 1 for i in honest],
                        mc_samples=samples, seed=seed)
    report = {
        "config": os.path.basename(config.path) if config else None,
        "d": d,
        "j_soc": j_soc,
        "ideal": ideal,
        "gamma": gamma,
        "resilience": resilience,
        "honest": list(honest),
        "mc_samples": samples,
        "mc_seed": seed,
    }
    if frag is not None:
        report["schedule"] = frag
    if sweep is not None:
        report["gamma_sweep_rows"] = _gamma_sweep_csv(out, d, j_soc, sweep)
    io.write_json(os.path.join(out, "bargain.json"), report)
    io.write_json(os.path.join(out, "timings.json"), timings)
    log.info("bargain: eps0 = %.4f, declared eps = %.4f, success = %s",
             resilience["eps0"], resilience["epsilon"], resilience["success"])
    if not resilience["success"]:
        log.error("declared selfishness exceeds the surplus budget")
        return 4
    return 0


def cmd_region(args):
    config, d, j_soc, _, timings = _bargain_inputs(args)
    r = d.shape[0]
    bargaining.check_scale(d, j_soc)
    honest, samples, seed = _monte_carlo(args, config, r, samples_default=1_000_000)
    eps0 = (float(d.sum()) - j_soc) / r

    out = _out_dir(args, config)
    regions = _timed(timings, "monte_carlo_s", bargaining.region_probabilities,
                     d, eps0, [i - 1 for i in honest], samples, seed=seed)
    io.write_json(os.path.join(out, "region.json"), {
        "config": os.path.basename(config.path) if config else None,
        "d": d,
        "j_soc": j_soc,
        "eps0": eps0,
        "honest": list(honest),
        "n_samples": samples,
        "seed": seed,
        "regions": regions,
    })
    io.write_json(os.path.join(out, "timings.json"), timings)
    for name in bargaining.PREDICATES:
        log.info("%s: %.4f%%", name, 100.0 * regions[name].probability)
    return 0


def cmd_report(args):
    config, model, rg, outcome, frag, d, timings = _day(args)
    out = _out_dir(args, config)
    forecast_index = _write_forecast(out, model, rg) if rg is not None else None
    j_soc = float(outcome.social_cost)
    ideal = bargaining.allocate(d, j_soc)
    gamma = config.gamma if config.gamma is not None else np.zeros(model.n_users)
    honest, samples, seed = _monte_carlo(args, config, model.n_users)
    resilience = _timed(timings, "bargain_s", bargaining.resilience_report,
                        d, j_soc, gamma, honest=[i - 1 for i in honest],
                        mc_samples=samples, seed=seed)

    report = {
        "config": os.path.basename(config.path),
        "seed": config.seed,
        "users": [u.id for u in model.users],
        "forecast": forecast_index,
        "schedule": frag,
        "d": d,
        "ideal": ideal,
        "gamma": gamma,
        "resilience": resilience,
        "mc": {"samples": samples, "honest": list(honest), "seed": seed},
    }

    # The distributed pipeline also settles the allocation by averaging
    # consensus on the communication graph: each active user starts
    # from its declared cost net of its own degradation bill, the grid
    # node from the negated trading cost, and the network average
    # recovers the common discount without anyone pooling the raw costs.
    if frag["solver"] == "distributed":
        n = model.n_users + 1
        W = consensus.metropolis_weights(model.graph, n)
        s = bargaining.selfish_cost(d, gamma)
        x0 = np.concatenate([
            [s[k] - outcome.bdc_costs.get(u.id, 0.0)
             for k, u in enumerate(model.users)],
            [-outcome.trading_cost],
        ])
        t0 = time.perf_counter()
        cons = consensus.run_average_consensus(x0, W)
        timings["consensus_s"] = time.perf_counter() - t0
        j_cons = consensus.allocate_from_consensus(
            s, cons.final[:model.n_users], model.n_users)
        report["consensus"] = {
            "iterations": cons.iterations,
            "j": j_cons,
            "max_dev_from_direct": float(np.max(np.abs(
                j_cons - bargaining.allocate(s, j_soc).j))),
        }

    if args.full_decisions:
        _write_decisions(out, model, outcome)
    io.write_json(os.path.join(out, "report.json"), report)
    io.write_json(os.path.join(out, "timings.json"), timings)
    log.info("report written to %s", os.path.join(out, "report.json"))
    if not resilience["success"]:
        return 4
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="gridbargain",
        description="Cooperative microgrid scheduling and bargaining experiments.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, solver=True, standalone=False):
        """A subcommand with the experiment argument, --out, --seed and,
        unless told otherwise, --solver; ``standalone`` adds the
        --d-vector group that replaces the experiment."""
        sp = sub.add_parser(name, help=help)
        if standalone:
            sp.add_argument("config", nargs="?", default=None,
                            help="experiment YAML (optional with --d-vector)")
        else:
            sp.add_argument("config", help="experiment YAML")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the experiment seed")
        if solver:
            sp.add_argument("--solver", choices=io.SOLVERS, default=None)
        if standalone:
            sp.add_argument("--d-vector", default=None,
                            help="comma-separated ideal costs in place of an experiment")
            sp.add_argument("--jsoc", type=float, default=None,
                            help="social cost to pair with --d-vector")
            sp.add_argument("--samples", type=int, default=None,
                            help="Monte Carlo samples (0 skips the region study in bargain)")
            sp.add_argument("--honest", default=None,
                            help="comma-separated 1-based positions kept honest")
        sp.set_defaults(func=func)
        return sp

    command("forecast", cmd_forecast, "write expected RG profiles per user", solver=False)
    sp = command("schedule", cmd_schedule, "solve the day-ahead social schedule")
    sp.add_argument("--verify-oracle", action="store_true",
                    help="also run the other solver and report the cost gap")
    sp.add_argument("--full-decisions", action="store_true",
                    help="write per-agent schedule CSVs")
    sp = command("bargain", cmd_bargain, "allocate costs and probe selfishness",
                 standalone=True)
    sp.add_argument("--gamma", default=None,
                    help="comma-separated selfishness coefficients")
    command("region", cmd_region, "Monte Carlo outcome-region probabilities", standalone=True)
    sp = command("report", cmd_report, "full pipeline, one report")
    sp.add_argument("--full-decisions", action="store_true")
    return p


def main(argv=None):
    level = os.environ.get("GRIDBARGAIN_LOG", "").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None:
            bargaining.check_seed(args.seed, "--seed")
        return args.func(args)
    except (Infeasible, SolverStall, NoConvergence) as exc:
        log.error("solver failure: %s", exc)
        return 3
    except GridBargainError as exc:
        log.error("invalid input: %s", exc)
        return 2
    except OSError as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
