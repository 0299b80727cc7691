"""The benchmark's workloads: input generation, the timed job, its check.

Every input is drawn from the workload seed; the package only receives
the generated files and objects. A workload's ``prepare`` returns the
job cycle that the closed loop in ``run.py`` repeats. A job's ``run`` is
the timed call into the package; its ``check`` runs outside the timed
region and returns a list of problems (empty when the output is right).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

from gridbargain import bargaining, cli, codes, consensus, io, rg_forecast, scheduling
from gridbargain.fixtures import tou_prices
from gridbargain.model import (ConstantBdc, DesdParams, Horizon, MicrogridModel,
                               PiecewiseSocBdc, PriceProfile, Pv, UserSpec, Wt,
                               soc_trajectory, validate_model)

TOL = 1e-6


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: Callable[[bool], dict]
    prepare: Callable[[np.random.Generator, str, bool], list]


# day_report --------------------------------------------------------------

DAY_VARIANTS = 8


def _day_sizes(smoke):
    return {"users": 4, "active_users": 3, "steps": 24, "dt_h": 1.0,
            "variants_per_cycle": 2 if smoke else DAY_VARIANTS,
            "mc_samples": 10_000 if smoke else 1_000_000, "mc_honest": [1],
            "solver": "centralized"}


def _prepare_day(rng, workdir, smoke):
    """Weather-day variants of the shipped experiment, one YAML each.

    The seed draws the solar and wind forecast vectors, the declared
    gamma of users 2 and 3 (kept well inside the surplus budget so every
    bargain holds) and the experiment seed. Model, pools, solver and the
    Monte Carlo setting stay as shipped.
    """
    sizes = _day_sizes(smoke)
    shipped = io.data_path("experiment.yaml")
    with open(shipped) as fh:
        base = yaml.safe_load(fh)
    data_dir = os.path.dirname(shipped)
    jobs = []
    for k in range(sizes["variants_per_cycle"]):
        exp = dict(base)
        exp["model"] = os.path.join(data_dir, base["model"])
        exp["scenarios"] = {uid: {**node, "file": os.path.join(data_dir, node["file"])}
                            for uid, node in base["scenarios"].items()}
        exp["forecast"] = {"solar": rng.dirichlet(np.ones(3)).tolist(),
                           "wind": rng.dirichlet(np.ones(4)).tolist()}
        exp["gamma"] = [0.0, *rng.uniform(0.0, 0.03, size=2).tolist(), 0.0]
        exp["seed"] = int(rng.integers(1 << 30))
        exp["monte_carlo"] = {"samples": sizes["mc_samples"], "honest": sizes["mc_honest"],
                              "seed": exp["seed"]}
        path = os.path.join(workdir, f"day{k}.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(exp, fh)
        out = os.path.join(workdir, f"day{k}_out")
        jobs.append(Job(f"day{k}", _report_runner(path, out), _report_checker(out)))
    return jobs


def _report_runner(path, out):
    return lambda: cli.main(["report", path, "--out", out])


def _report_checker(out):
    def check(code):
        if code != 0:
            return [f"exit code {code}"]
        with open(os.path.join(out, "report.json")) as fh:
            rep = json.load(fh)
        j_soc = rep["schedule"]["j_soc"]
        j = np.array(rep["ideal"]["j"])
        d = np.array(rep["d"])
        bad = []
        if abs(j.sum() - j_soc) > TOL * max(1.0, abs(j_soc)):
            bad.append(f"allocation sums to {j.sum()}, J_soc is {j_soc}")
        disc = d - j
        if np.ptp(disc) > TOL * max(1.0, float(np.max(np.abs(d)))):
            bad.append(f"discounts differ: {disc.tolist()}")
        regions = rep["resilience"]["regions"].values()
        total = sum(r["probability"] for r in regions)
        se = float(np.sqrt(sum(r["stderr"] ** 2 for r in regions)))
        if abs(total - 1.0) > 3.0 * se + 1e-12:
            bad.append(f"region probabilities sum to {total}")
        return bad
    return check


# distributed_solve -------------------------------------------------------

DIST_VARIANTS = 32
# The solver checks convergence every 25 rounds, so round counts move in
# steps of 25: at 0.3% jitter about one instance in eight needs 100 rounds
# instead of the shipped instance's 75; at 1% it is four in ten, and the
# percentiles then straddle the step.
DIST_JITTER = 0.003


def _dist_sizes(smoke):
    return {"users": 4, "active_users": 3, "steps": 24, "dt_h": 1.0,
            "instances_per_cycle": 2 if smoke else DIST_VARIANTS,
            "jitter": DIST_JITTER}


def _prepare_dist(rng, workdir, smoke):
    """The shipped instance, then seed-drawn day-to-day jitter around it.

    Each variant scales every demand and every forecast generation value
    by an independent factor in [1 - jitter, 1 + jitter]. The declared
    costs for the settlement are the users' solo bills, which each user
    knows before the day starts.
    """
    config = io.load_experiment(io.data_path("experiment.yaml"))
    model = io.load_model(config.model_path)
    rg = dict(rg_forecast.forecast_all(io.build_pools(config), config.forecast).profiles)
    jobs = []
    for k in range(_dist_sizes(smoke)["instances_per_cycle"]):
        m, prof = model, rg
        if k:
            dem = model.demands * (1.0 + DIST_JITTER * rng.uniform(-1, 1, model.demands.shape))
            m = validate_model(MicrogridModel(
                horizon=model.horizon, users=model.users, demands=dem, prices=model.prices,
                grid=model.grid, graph=model.graph))
            prof = {uid: p * (1.0 + DIST_JITTER * rng.uniform(-1, 1, p.shape))
                    for uid, p in rg.items()}
        solo = scheduling.individual_costs(m, prof)
        declared = np.array([solo[u.id].cost for u in m.users])
        jobs.append(Job(f"dist{k}", _dist_runner(m, prof, declared),
                        _dist_checker(m, prof, declared)))
    return jobs


def _dist_runner(model, rg, declared):
    def run():
        res = codes.run_codes(model, rg)
        out = res.outcome
        n = model.n_users + 1
        W = consensus.metropolis_weights(model.graph, n)
        x0 = np.concatenate([
            [declared[k] - out.bdc_costs.get(u.id, 0.0) for k, u in enumerate(model.users)],
            [-out.trading_cost],
        ])
        cons = consensus.run_average_consensus(x0, W)
        shares = consensus.allocate_from_consensus(
            declared, cons.final[:model.n_users], model.n_users)
        return res, shares
    return run


def _dist_checker(model, rg, declared):
    def check(result):
        res, shares = result
        if not res.converged:
            return [f"no convergence after {res.iterations} rounds, gap {res.gap}"]
        oracle = scheduling.solve_social(model, rg).social_cost
        cost = res.outcome.social_cost
        bad = []
        if abs(cost - oracle) > max(0.1, 1e-3 * abs(oracle)):
            bad.append(f"cost {cost} vs pooled {oracle}")
        direct = bargaining.allocate(declared, cost).j
        if float(np.max(np.abs(shares - direct))) > 1e-8:
            bad.append("consensus shares differ from the direct allocation")
        return bad
    return check


# pooled_scale ------------------------------------------------------------

POOL_STEPS, POOL_DT = 96, 0.25
# (active users, passive users, users with a SOC-dependent degradation cost).
# The large grid is one dense LP. On the small one every battery has a
# SOC-dependent cost, so the whole pool relinearizes, and on these draws it
# runs the full scheduling.MAX_OUTER LPs. The large grid makes three jobs in
# four, so the median and the tail percentile both fall among its jobs and do
# not jump between the two shapes.
POOL_SHAPES = ((19, 4, 0), (19, 4, 0), (19, 4, 0), (3, 1, 3))
POOL_SMOKE = ((3, 1, 0), (2, 1, 1))
POOL_DRAWS = 8
PIECEWISE = PiecewiseSocBdc(((0.0, 2.0), (0.2, 0.8), (0.8, 1.6)))


def _pool_sizes(smoke):
    return {"steps": POOL_STEPS, "dt_h": POOL_DT,
            "shapes_active_passive_piecewise": [list(c) for c in
                                                (POOL_SMOKE if smoke else POOL_SHAPES)],
            "draws_per_shape": 1 if smoke else POOL_DRAWS}


def _bump(hours, center, width, height):
    return height * np.exp(-0.5 * ((hours - center) / width) ** 2)


def pooled_instance(rng, n_active, n_passive, n_piecewise):
    """A random grid at 15-minute steps, plus its generation profiles."""
    hours = np.arange(POOL_STEPS) * POOL_DT
    users, demands, rg = [], [], {}
    for i in range(n_active + n_passive):
        uid = f"u{i + 1}"
        demands.append(rng.uniform(0.2, 0.8)
                       + _bump(hours, rng.uniform(6, 9), rng.uniform(1, 2), rng.uniform(0.4, 1.5))
                       + _bump(hours, rng.uniform(17, 21), rng.uniform(1.5, 2.5),
                               rng.uniform(0.8, 2.5)))
        if i >= n_active:
            users.append(UserSpec(uid))
            continue
        e_max = float(rng.uniform(4.0, 14.0))
        e_min = float(rng.uniform(0.0, 0.3) * e_max)
        bdc = PIECEWISE if i < n_piecewise else ConstantBdc(float(rng.uniform(0.3, 2.0)))
        desd = DesdParams(e0=float(rng.uniform(e_min, 0.6 * e_max)), e_min=e_min, e_max=e_max,
                          p_b_max=float(rng.uniform(2.0, 5.0)),
                          kappa=float(rng.uniform(0.85, 1.0)), bdc=bdc)
        size = float(rng.uniform(2.0, 7.0))
        if rng.random() < 0.5:
            gen = Pv(size)
            prof = size * rng.uniform(0.2, 0.95) * np.clip(
                np.sin(np.pi * (hours - 6.0) / 12.0), 0.0, None)
        else:
            gen = Wt(size)
            prof = size * np.clip(rng.uniform(0.1, 0.7)
                                  + 0.1 * rng.standard_normal(POOL_STEPS), 0.0, 1.0)
        rg[uid] = np.clip(prof, 0.0, size)
        users.append(UserSpec(uid, desd=desd, rg=gen))
    buy = tou_prices(POOL_STEPS, POOL_DT).buy + rng.uniform(0.0, 1.5, size=POOL_STEPS)
    model = validate_model(MicrogridModel(
        horizon=Horizon(steps=POOL_STEPS, dt=POOL_DT), users=tuple(users),
        demands=np.vstack(demands), prices=PriceProfile(buy=buy, sell=0.8 * buy)))
    return model, rg


def _prepare_pool(rng, workdir, smoke):
    jobs = []
    for k in range(1 if smoke else POOL_DRAWS):
        for n_active, n_passive, n_piecewise in (POOL_SMOKE if smoke else POOL_SHAPES):
            model, rg = pooled_instance(rng, n_active, n_passive, n_piecewise)
            jobs.append(Job(f"pool{k}_{n_active}a{n_piecewise}p", _pool_runner(model, rg),
                            _pool_checker(model, rg)))
    return jobs


def _pool_runner(model, rg):
    return lambda: (scheduling.solve_social(model, rg), scheduling.individual_costs(model, rg))


def schedule_violations(model, rg, out):
    """Power balance, grid and device ratings and SOC bounds of a pooled schedule."""
    dt = float(model.horizon.dt)
    dec = out.decision
    net = model.demands.sum(axis=0) - sum(rg.values())
    supply = dec.grid_buy - dec.grid_sell
    bad = []
    for u in model.users:
        if not u.is_active:
            continue
        dis, ch = dec.discharge[u.id], dec.charge[u.id]
        supply = supply + dis - ch
        if min(dis.min(), ch.min()) < -TOL or max(dis.max(), ch.max()) > u.desd.p_b_max + TOL:
            bad.append(f"{u.id} rating")
        soc = soc_trajectory(u.desd, dis, ch, dt)
        if soc.min() < u.desd.e_min - TOL or soc.max() > u.desd.e_max + TOL:
            bad.append(f"{u.id} soc bounds")
    if float(np.max(np.abs(supply - net))) > TOL:
        bad.append("power balance")
    grid = np.concatenate([dec.grid_buy, dec.grid_sell])
    if grid.min() < -TOL or grid.max() > model.grid.p_g_max + TOL:
        bad.append("grid rating")
    return bad


def _pool_checker(model, rg):
    def check(result):
        social, solo = result
        bad = schedule_violations(model, rg, social)
        solo_total = sum(o.cost for o in solo.values())
        if solo_total < social.social_cost - TOL * max(1.0, abs(social.social_cost)):
            bad.append(f"solo costs {solo_total} undercut the pooled cost {social.social_cost}")
        return bad
    return check


WORKLOADS = {w.name: w for w in (
    Workload("day_report",
             "the operator's daily path: cli report on seed-drawn weather days of the "
             "shipped grid; the 1e6-draw Monte Carlo dominates and the pooled LP is tiny",
             _day_sizes, _prepare_day),
    Workload("distributed_solve",
             "the coordinator-free path: consensus rounds of small local storage LPs on "
             "the shipped grid with seed-drawn 0.3% jitter, then consensus settlement",
             _dist_sizes, _prepare_dist),
    Workload("pooled_scale",
             "a few large dense pooled LPs (19 active users, T=96) plus a small grid that "
             "relinearizes 20 times; memory grows as (T*n_active)^2",
             _pool_sizes, _prepare_pool),
)}
