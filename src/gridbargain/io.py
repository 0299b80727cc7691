"""File formats: model and experiment YAML, CSV series, JSON reports.

A model file describes the microgrid and points at two CSVs: demands
(header row of user ids, one row per step, kW) and prices (header
``p_buy,p_sell``, cents/kWh). Scenario pools are plain numeric CSVs,
one row per historical day. All relative paths resolve against the
file that mentions them.

Reports are JSON with sorted keys; series go to CSV side files printed
with 9 significant digits. Identical inputs give byte-identical output
(timings never go into the report file).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np
import yaml

from .bargaining import check_seed
from .errors import FileError, InvariantViolation, KindMismatch
from .model import (
    ConstantBdc,
    DesdParams,
    GridLimits,
    Horizon,
    MicrogridModel,
    PiecewiseSocBdc,
    PriceProfile,
    Pv,
    UserSpec,
    Wt,
    validate_model,
)
from .rg_forecast import WeatherForecast, classify_scenarios

__all__ = [
    "read_matrix",
    "read_table",
    "write_csv",
    "write_json",
    "jsonable",
    "load_model",
    "ExperimentConfig",
    "load_experiment",
    "build_pools",
    "data_path",
]

SOLVERS = ("centralized", "distributed")


def data_path(name):
    """Absolute path of a file shipped in the package data directory."""
    p = resources.files("gridbargain").joinpath("data", name)
    return str(p)


def _must_exist(path):
    if not os.path.isfile(path):
        raise FileError(path)
    return path


def _loadtxt(path, skiprows=0):
    """Numeric rows of a CSV after its first skiprows lines, and those lines.

    ``#`` starts a comment. A line holding only whitespace or a comment
    is skipped like an empty one. A file with no data row (empty, header
    only, or comments only) is refused here rather than read as an empty
    array.
    """
    try:
        with open(_must_exist(path)) as fh:
            lines = fh.readlines()
        rows = [line for line in lines[skiprows:] if line.split("#", 1)[0].strip()]
        if not rows:
            raise InvariantViolation([f"{path}: no data rows"])
        return np.loadtxt(rows, delimiter=",", ndmin=2, comments="#"), lines[:skiprows]
    except ValueError as exc:
        # numpy's advice to pass ``usecols`` names no option of this loader
        raise InvariantViolation([f"{path}: {str(exc).split('; use `usecols`')[0]}"])


def read_matrix(path):
    """Plain numeric CSV as a 2-D float array (scenario pools)."""
    return _loadtxt(path)[0]


def read_table(path):
    """CSV with one header line; returns (column names, 2-D float array)."""
    arr, (header,) = _loadtxt(path, skiprows=1)
    cols = [c.strip() for c in header.strip().split(",")]
    if arr.shape[1] != len(cols):
        raise InvariantViolation(
            [f"{path}: {len(cols)} header columns but {arr.shape[1]} data columns"])
    return cols, arr


def write_csv(path, array, header=None):
    """Numeric CSV at 9 significant digits; header written verbatim."""
    array = np.asarray(array, dtype=float)
    np.savetxt(path, array, delimiter=",", fmt="%.9g",
               header=header or "", comments="")


def jsonable(obj):
    """Recursively strip numpy and dataclass wrappers for json.dumps."""
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if not f.name.startswith("_")}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def write_json(path, obj):
    """Strict JSON: a NaN or infinity is refused before the file is opened."""
    try:
        text = json.dumps(jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise InvariantViolation([f"{path}: holds a NaN or infinity, which JSON cannot hold"])
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


# libyaml's loader where PyYAML was built with it: about 8x faster on
# the shipped files, and it returns the same dicts.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _unknown_keys(node, allowed, what):
    """A complaint naming the keys of ``node`` outside ``allowed``, or None."""
    unknown = [key for key in node if key not in allowed]
    if unknown:
        return (f"{what}: unknown key(s) {', '.join(map(repr, unknown))}; "
                f"allowed keys are {', '.join(allowed)}")
    return None


def _load_yaml(path, sections):
    """A YAML file's top-level mapping; ``sections`` maps every allowed
    key to the type its value must have (``object`` for any).

    An unknown key, or a section given with another type (``users: 7``),
    is an InvariantViolation, not a setting silently ignored or a
    TypeError further down.
    """
    with open(_must_exist(path)) as fh:
        try:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise FileError(path, "not valid YAML: " + " ".join(str(exc).split()))
    if not isinstance(raw, dict):
        raise InvariantViolation([f"{path}: top level must be a mapping"])
    noun = {list: "list", dict: "mapping"}
    bad = [f"{path}: section {key!r} must be a {noun[kind]}, got {raw[key]!r}"
           for key, kind in sections.items()
           if raw.get(key) is not None and not isinstance(raw[key], kind)]
    unknown = _unknown_keys(raw, sections, path)
    if unknown:
        bad.append(unknown)
    if bad:
        raise InvariantViolation(bad)
    return raw


def _resolve(base, path, what):
    if not isinstance(path, str):
        raise InvariantViolation([f"{what} must be a file path, got {path!r}"])
    return path if os.path.isabs(path) else os.path.join(base, path)


def _number(kind, value, what):
    """``kind(value)`` for a field read from a file, or InvariantViolation.

    An int field takes an integral float such as ``2.0`` but rejects
    ``2.9`` rather than truncating it; YAML's ``true`` is no number.
    """
    if isinstance(value, bool):
        raise InvariantViolation([f"{what} must be a number, got {value!r}"])
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise InvariantViolation([f"{what} must be an integer, got {value!r}"])
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise InvariantViolation([f"{what} must be a number, got {value!r}"])


def _mapping(node, what, allowed):
    """``node`` if it is a mapping with no key outside ``allowed``, else
    InvariantViolation."""
    if not isinstance(node, dict):
        raise InvariantViolation([f"{what} must be a mapping, got {node!r}"])
    unknown = _unknown_keys(node, allowed, what)
    if unknown:
        raise InvariantViolation([unknown])
    return node


def _integers(node, what):
    """A YAML list of integers as a tuple, or InvariantViolation."""
    if not isinstance(node, list):
        raise InvariantViolation([f"{what} must be a list, got {node!r}"])
    return tuple(_number(int, i, what) for i in node)


def _bdc_from(node, uid):
    what = f"user {uid}: bdc"
    if node is None:
        return ConstantBdc(0.0)
    if not isinstance(node, list):
        return ConstantBdc(_number(float, node, what))
    try:
        return PiecewiseSocBdc(tuple((_number(float, a, what), _number(float, b, what))
                                     for a, b in node))
    except (TypeError, ValueError):
        raise InvariantViolation([f"{what} must be a number or a list of [soc_frac, cost] pairs"])


def _user_from(node):
    if "id" not in _mapping(node, "a user", ("id", "desd", "rg")):
        raise InvariantViolation(["every user needs an id"])
    uid = str(node["id"])
    desd = None
    if node.get("desd") is not None:
        d = _mapping(node["desd"], f"user {uid}: desd",
                     ("e0", "e_min", "e_max", "p_b_max", "kappa", "bdc"))
        try:
            desd = DesdParams(
                **{f: _number(float, d[f], f"user {uid}: desd.{f}")
                   for f in ("e0", "e_min", "e_max", "p_b_max")},
                kappa=_number(float, d.get("kappa", 1.0), f"user {uid}: desd.kappa"),
                bdc=_bdc_from(d.get("bdc"), uid),
            )
        except KeyError as missing:
            raise InvariantViolation([f"user {uid}: desd needs field {missing}"])
    rg = None
    if node.get("rg") is not None:
        g = _mapping(node["rg"], f"user {uid}: rg", ("kind", "size_kw"))
        kind = g.get("kind")
        if kind in ("pv", "wt"):
            rg = (Pv if kind == "pv" else Wt)(
                size_kw=_number(float, g.get("size_kw"), f"user {uid}: rg.size_kw"))
        else:
            raise KindMismatch(f"user {uid}: rg kind must be 'pv' or 'wt', got {kind!r}")
    return UserSpec(id=uid, desd=desd, rg=rg)


def load_prices(path, steps):
    cols, arr = read_table(path)
    try:
        buy = arr[:, cols.index("p_buy")]
        sell = arr[:, cols.index("p_sell")]
    except ValueError:
        raise InvariantViolation([f"{path}: needs columns p_buy and p_sell"])
    if arr.shape[0] != steps:
        raise InvariantViolation(
            [f"{path}: {arr.shape[0]} rows but the horizon has {steps} steps"])
    return PriceProfile(buy=buy, sell=sell)


def load_demands(path, user_ids, steps):
    cols, arr = read_table(path)
    if arr.shape[0] != steps:
        raise InvariantViolation(
            [f"{path}: {arr.shape[0]} rows but the horizon has {steps} steps"])
    missing = [uid for uid in user_ids if uid not in cols]
    if missing:
        raise InvariantViolation([f"{path}: no demand column for users {missing}"])
    return np.vstack([arr[:, cols.index(uid)] for uid in user_ids])


_MODEL_SECTIONS = {"horizon": dict, "prices": object, "demands": object, "users": list,
                   "grid": dict, "graph": list}


def load_model(path):
    """Microgrid model from YAML; returns it validated."""
    base = os.path.dirname(os.path.abspath(path))
    raw = _load_yaml(path, _MODEL_SECTIONS)
    for key in ("horizon", "users", "prices", "demands"):
        if raw.get(key) is None:
            raise InvariantViolation([f"{path}: missing section {key!r}"])
    h = _mapping(raw["horizon"], "horizon", ("steps", "dt"))
    horizon = Horizon(steps=_number(int, h.get("steps"), "horizon.steps"),
                      dt=_number(float, h.get("dt", 1.0), "horizon.dt"))
    users = tuple(_user_from(n) for n in raw["users"])
    if not users:
        raise InvariantViolation([f"{path}: users: need at least one user"])
    prices = load_prices(_resolve(base, raw["prices"], "prices"), horizon.steps)
    demands = load_demands(_resolve(base, raw["demands"], "demands"),
                           [u.id for u in users], horizon.steps)
    grid = None
    if raw.get("grid") is not None:
        g = _mapping(raw["grid"], "grid", ("p_g_max",))
        grid = GridLimits(p_g_max=_number(float, g.get("p_g_max"), "grid.p_g_max"))
    graph = None
    if raw.get("graph") is not None:
        graph = tuple(_integers(edge, "graph edge") for edge in raw["graph"])
        if any(len(edge) != 2 for edge in graph):
            raise InvariantViolation([f"graph: every edge must be a pair, got {raw['graph']!r}"])
    return validate_model(MicrogridModel(
        horizon=horizon, users=users, demands=demands, prices=prices,
        grid=grid, graph=graph,
    ))


_EXPERIMENT_SECTIONS = {"model": object, "scenarios": dict, "forecast": dict,
                        "weights": object, "seed": object, "gamma": list,
                        "gamma_sweep": dict, "solver": object, "monte_carlo": dict,
                        "out_dir": object}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment file with every referenced path resolved.

    ``scenario_files`` maps user id to (csv path, kind). ``mc_honest``
    holds 1-based user positions, matching how reports number users.
    """

    path: str
    model_path: str
    scenario_files: dict
    forecast: WeatherForecast | None
    weights: str
    seed: int
    gamma: np.ndarray | None
    gamma_sweep: dict | None
    solver: str
    mc_samples: int
    mc_honest: tuple
    mc_seed: int
    out_dir: str | None


def load_experiment(path):
    raw = _load_yaml(path, _EXPERIMENT_SECTIONS)
    base = os.path.dirname(os.path.abspath(path))
    problems = []

    if "model" not in raw:
        raise InvariantViolation([f"{path}: missing 'model' entry"])
    model_path = _resolve(base, raw["model"], "model")
    if not os.path.isfile(model_path):
        raise FileError(model_path)

    scenario_files = {}
    for uid, node in (raw.get("scenarios") or {}).items():
        if "file" not in _mapping(node, f"scenario {uid}", ("file", "kind")):
            raise InvariantViolation([f"scenario {uid} needs field 'file'"])
        f = _resolve(base, node["file"], f"scenario {uid}: file")
        if not os.path.isfile(f):
            raise FileError(f)
        kind = node.get("kind")
        if kind not in ("pv", "wt"):
            problems.append(f"scenario {uid}: kind must be 'pv' or 'wt', got {kind!r}")
        scenario_files[str(uid)] = (f, kind)

    forecast = None
    if raw.get("forecast") is not None:
        f = _mapping(raw["forecast"], "forecast", ("solar", "wind"))
        try:
            forecast = WeatherForecast(solar=f.get("solar"), wind=f.get("wind"))
        except (TypeError, ValueError) as exc:
            raise InvariantViolation([f"forecast: {exc}"])

    weights = raw.get("weights", "random")
    if weights not in ("random", "equal"):
        problems.append(f"weights must be 'random' or 'equal', got {weights!r}")

    gamma = None
    if raw.get("gamma") is not None:
        gamma = np.array([_number(float, g, "gamma") for g in raw["gamma"]])
        if not np.all(np.isfinite(gamma)):
            problems.append("gamma entries must be finite")
        elif np.any(gamma < 0.0):
            problems.append("gamma entries must be >= 0")

    sweep = raw.get("gamma_sweep")
    if sweep is not None:
        _mapping(sweep, "gamma_sweep", ("users", "num", "max"))
        for key in ("users", "num"):
            if key not in sweep:
                raise InvariantViolation([f"gamma_sweep needs field {key!r}"])
        sweep = {"users": _integers(sweep["users"], "gamma_sweep.users"),
                 "num": _number(int, sweep["num"], "gamma_sweep.num"),
                 "max": _number(float, sweep.get("max", 1.0), "gamma_sweep.max")}
        if sweep["num"] < 1:
            problems.append(f"gamma_sweep.num must be >= 1, got {sweep['num']}")
        if not 0.0 <= sweep["max"] < np.inf:
            problems.append(f"gamma_sweep.max must be finite and >= 0, got {sweep['max']}")

    solver = raw.get("solver", "centralized")
    if solver not in SOLVERS:
        problems.append(f"solver must be one of {SOLVERS}, got {solver!r}")

    mc = _mapping(raw.get("monte_carlo") or {}, "monte_carlo", ("samples", "honest", "seed"))
    mc_samples = _number(int, mc.get("samples", 0), "monte_carlo.samples")
    if mc_samples < 0:
        problems.append(f"monte_carlo.samples must be >= 0, got {mc_samples}")
    mc_honest = _integers(mc.get("honest", []), "monte_carlo.honest")
    if any(i < 1 for i in mc_honest):
        problems.append("monte_carlo.honest uses 1-based user positions")

    if problems:
        raise InvariantViolation(problems)

    seed = check_seed(_number(int, raw.get("seed", 0), "seed"), "seed")
    mc_seed = check_seed(_number(int, mc.get("seed", seed), "monte_carlo.seed"),
                         "monte_carlo.seed")
    return ExperimentConfig(
        path=os.path.abspath(path), model_path=model_path,
        scenario_files=scenario_files, forecast=forecast, weights=weights,
        seed=seed, gamma=gamma, gamma_sweep=sweep, solver=solver,
        mc_samples=mc_samples, mc_honest=mc_honest,
        mc_seed=mc_seed,
        out_dir=_resolve(base, raw["out_dir"], "out_dir") if raw.get("out_dir") else None,
    )


def build_pools(config):
    """Classified scenario pools for every RG user in the experiment.

    Class weights draw from seed + position so pools get distinct but
    reproducible draws; ``weights: equal`` sidesteps randomness.
    """
    pools = {}
    for k, uid in enumerate(sorted(config.scenario_files)):
        path, kind = config.scenario_files[uid]
        pools[uid] = classify_scenarios(
            read_matrix(path), kind,
            seed=config.seed + k, weights=config.weights,
        )
    return pools
