"""Command line driver: exit codes, file outputs, reproducibility."""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gridbargain import allocate, cli, codes, data_path, selfish_cost
from gridbargain.bargaining import PREDICATES
from gridbargain.fixtures import family

FAV_D = "-61.33,481.18,101.48,-23.34"
FAV_JSOC = "438.68"
POOLS = {
    "u1": {"file": data_path("pool_u1.csv"), "kind": "pv"},
    "u3": {"file": data_path("pool_u3.csv"), "kind": "wt"},
    "u4": {"file": data_path("pool_u4.csv"), "kind": "pv"},
}


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def _experiment(tmp_path, name="e.yaml", **overrides):
    """Experiment file against the shipped model, small MC by default."""
    doc = {
        "model": data_path("model.yaml"),
        "scenarios": POOLS,
        "forecast": {"solar": [0.8, 0.2, 0.0], "wind": [0.0, 0.3, 0.7, 0.0]},
        "weights": "random",
        "seed": 0,
        "gamma": [0.0, 0.05, 0.05, 0.0],
        "solver": "centralized",
        "monte_carlo": {"samples": 20000, "honest": [1], "seed": 0},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def _bridge_experiment(tmp_path, **sections):
    """Two-step storage-bridge instance: one period is served entirely
    from storage. ``sections`` are added to the experiment file."""
    (tmp_path / "p.csv").write_text("p_buy,p_sell\n10,2\n30,6\n")
    (tmp_path / "d.csv").write_text("u1,u2\n0,0\n0,5\n")
    (tmp_path / "m.yaml").write_text(yaml.safe_dump({
        "horizon": {"steps": 2, "dt": 1.0},
        "prices": "p.csv",
        "demands": "d.csv",
        "users": [
            {"id": "u1", "desd": {"e0": 0.0, "e_min": 0.0, "e_max": 12.0,
                                  "p_b_max": 10.0, "kappa": 0.9, "bdc": 1.0}},
            {"id": "u2"},
        ],
    }))
    path = tmp_path / "e.yaml"
    path.write_text(yaml.safe_dump({
        "model": "m.yaml",
        "solver": "distributed",
        **sections,
    }))
    return str(path)


# --------------------------------------------------------------- happy paths

def test_report_is_reproducible_byte_for_byte(tmp_path):
    cfg = _experiment(tmp_path, solver="distributed")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["report", cfg, "--out", str(out1)]) == 0
    assert cli.main(["report", cfg, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    # wall clock lives in its own file, never in the report
    assert (out1 / "timings.json").exists()
    assert "_s\"" not in (out1 / "report.json").read_text()


@pytest.mark.parametrize("command, out_file", [("report", "report.json"),
                                                ("bargain", "bargain.json"),
                                                ("region", "region.json")])
def test_output_does_not_depend_on_the_monte_carlo_workers(tmp_path, monkeypatch,
                                                            command, out_file):
    """The worker count goes to timings.json; the output stays byte-identical."""
    cfg = _experiment(tmp_path, monte_carlo={"samples": 100_000, "honest": [1], "seed": 0})
    outputs = []
    for workers in (1, 3):
        monkeypatch.setattr("gridbargain.bargaining._cpus", lambda: workers)
        out = tmp_path / f"w{workers}"
        assert cli.main([command, cfg, "--out", str(out)]) == 0
        assert _read(out / "timings.json")["mc_workers"] == workers
        outputs.append((out / out_file).read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["report", "bargain", "region"])
def test_timings_record_no_workers_when_everyone_is_honest(tmp_path, command):
    """mc_workers is what the tally ran on: no thread when nobody draws."""
    cfg = _experiment(tmp_path, monte_carlo={"samples": 1000, "honest": [1, 2, 3, 4],
                                             "seed": 0})
    assert cli.main([command, cfg, "--out", str(tmp_path / "o")]) == 0
    assert _read(tmp_path / "o" / "timings.json")["mc_workers"] == 0


@pytest.mark.parametrize("command, out_file", [("schedule", "schedule.json"),
                                                ("report", "report.json")])
def test_distributed_counts_are_logged_not_written(tmp_path, caplog, command, out_file):
    """Rounds and probe steps go to the info log; the probe count stays out
    of the output file."""
    caplog.set_level("INFO", logger="gridbargain")
    cfg = _experiment(tmp_path, solver="distributed")
    out = tmp_path / "out"
    assert cli.main([command, cfg, "--out", str(out)]) == 0
    assert "distributed run: 5 rounds, 11 probe steps" in caplog.messages
    assert "probe" not in (out / out_file).read_text()


def test_report_contents(tmp_path):
    cfg = _experiment(tmp_path, solver="distributed")
    out = tmp_path / "out"
    assert cli.main(["report", cfg, "--out", str(out)]) == 0
    rep = _read(out / "report.json")
    assert rep["users"] == ["u1", "u2", "u3", "u4"]
    assert rep["schedule"]["solver"] == "distributed"
    assert rep["schedule"]["converged"] is True
    assert sorted(rep["forecast"]) == ["u1", "u3", "u4"]
    assert rep["resilience"]["success"] is True
    # the consensus settlement agrees with the closed-form allocation
    assert rep["consensus"]["max_dev_from_direct"] < 1e-6
    d = np.asarray(rep["d"])
    direct = allocate(selfish_cost(d, np.asarray(rep["gamma"])),
                      rep["schedule"]["j_soc"])
    np.testing.assert_allclose(rep["consensus"]["j"], direct.j, atol=1e-6)
    assert rep["ideal"]["epsilon"] == pytest.approx(
        (d.sum() - rep["schedule"]["j_soc"]) / 4)


def test_forecast_outputs_and_idempotence(tmp_path):
    cfg = _experiment(tmp_path)
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    assert cli.main(["forecast", cfg, "--out", str(out1)]) == 0
    assert cli.main(["forecast", cfg, "--out", str(out2)]) == 0
    idx = _read(out1 / "forecast.json")
    assert sorted(idx["users"]) == ["u1", "u3", "u4"]
    for uid, entry in idx["users"].items():
        body = (out1 / entry["csv"]).read_text()
        assert body == (out2 / entry["csv"]).read_text()
        rows = body.strip().splitlines()
        assert rows[0] == "t,p_kw"
        assert len(rows) == 1 + 24
        p = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.all(p >= 0.0)
        assert entry["energy_kwh"] == pytest.approx(p.sum(), rel=1e-6)


def test_schedule_verify_oracle_gap(tmp_path):
    cfg = _experiment(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["schedule", cfg, "--out", str(out),
                     "--verify-oracle", "--full-decisions"]) == 0
    rep = _read(out / "schedule.json")
    assert rep["solver"] == "centralized"
    assert rep["oracle_solver"] == "distributed"
    assert abs(rep["cost_gap"]) <= max(0.1, 1e-3 * abs(rep["j_soc"]))
    grid = (out / "schedule_grid.csv").read_text().strip().splitlines()
    assert grid[0] == "t,grid_buy_kw,grid_sell_kw"
    assert len(grid) == 1 + 24
    assert (out / "schedule_u1.csv").exists()
    assert not (out / "schedule_u2.csv").exists()  # passive, no device


def test_bargain_reference_columns(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["bargain", f"--d-vector={FAV_D}", "--jsoc", FAV_JSOC,
                   "--samples", "0", "--out", str(out)])
    assert rc == 0
    rep = _read(out / "bargain.json")
    np.testing.assert_allclose(rep["ideal"]["j"],
                               [-76.16, 466.36, 86.65, -38.16], atol=0.01)
    assert rep["resilience"]["eps0"] == pytest.approx(14.8275, abs=1e-3)
    assert rep["resilience"]["success"] is True
    assert "regions" not in rep["resilience"]  # --samples 0 skips the region study


def test_bargain_gamma_sweep_csv(tmp_path):
    cfg = _experiment(tmp_path, monte_carlo={"samples": 0, "honest": []},
                      gamma_sweep={"users": [2, 3], "num": 3, "max": 0.15})
    out = tmp_path / "out"
    assert cli.main(["bargain", cfg, "--out", str(out)]) == 0
    rep = _read(out / "bargain.json")
    assert rep["gamma_sweep_rows"] == 9
    lines = (out / "gamma_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "gamma_2,gamma_3,success,epsilon"
    assert len(lines) == 1 + 9
    d = np.asarray(rep["d"])
    for line in lines[1:]:
        g2, g3, success, eps = (float(v) for v in line.split(","))
        gamma = np.array([0.0, g2, g3, 0.0])
        res = allocate(selfish_cost(d, gamma), rep["j_soc"])
        assert bool(success) == res.success
        assert eps == pytest.approx(res.epsilon, abs=1e-6)


def test_region_partition_and_targets(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["region", f"--d-vector={FAV_D}", "--jsoc", FAV_JSOC,
                   "--honest", "1", "--samples", "100000", "--seed", "0",
                   "--out", str(out)])
    assert rc == 0
    rep = _read(out / "region.json")
    assert rep["eps0"] == pytest.approx(14.8275, abs=1e-3)
    probs = {name: rep["regions"][name]["probability"] for name in PREDICATES}
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    assert probs["all_dishonest_profit"] == pytest.approx(0.0018, abs=2e-3)
    assert probs["bargaining_fails"] == pytest.approx(0.9763, abs=0.01)
    assert probs["succeeds_some_lose"] == pytest.approx(0.0219, abs=0.01)


def test_region_seed_changes_draws(tmp_path):
    reps = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        assert cli.main(["region", f"--d-vector={FAV_D}", "--jsoc", FAV_JSOC,
                         "--honest", "1", "--samples", "20000",
                         "--seed", seed, "--out", str(out)]) == 0
        reps.append(_read(out / "region.json")["regions"])
    assert any(reps[0][n]["probability"] != reps[1][n]["probability"]
               for n in PREDICATES)


@pytest.mark.parametrize("solver", ["centralized", "distributed"])
def test_report_bargain_and_region_agree(tmp_path, solver):
    """The three commands share one day: bargain restates the report's
    costs, schedule and bargain, and region the bargain's Monte Carlo."""
    cfg = _experiment(tmp_path, solver=solver,
                      monte_carlo={"samples": 5000, "honest": [1], "seed": 3})
    reps = {}
    for command in ("report", "bargain", "region"):
        out = tmp_path / command
        assert cli.main([command, cfg, "--out", str(out)]) == 0
        reps[command] = _read(out / f"{command}.json")
    report, bargain, region = reps["report"], reps["bargain"], reps["region"]
    for key in ("d", "ideal", "gamma", "resilience", "schedule"):
        assert bargain[key] == report[key], key
    assert bargain["j_soc"] == report["schedule"]["j_soc"]
    assert report["mc"] == {"samples": 5000, "honest": [1], "seed": 3}
    assert (bargain["mc_samples"], bargain["honest"], bargain["mc_seed"]) == (5000, [1], 3)
    assert (region["n_samples"], region["honest"], region["seed"]) == (5000, [1], 3)
    assert region["d"] == bargain["d"] and region["j_soc"] == bargain["j_soc"]
    assert region["regions"] == bargain["resilience"]["regions"]


# The shipped day's costs, the same from either solver. They are held to
# a tolerance, not to bytes: another HiGHS build may differ in the last bits.
SHIPPED_J_SOC = -305.8710642942732
SHIPPED_D = [-116.57969148004392, 247.90535, -258.12201292596217, -127.37826346238587]
SHIPPED_IDEAL_J = [-129.5038030865142, 234.98123839352968, -271.0461245324325,
                   -140.30237506885618]


@pytest.mark.parametrize("solver", ["centralized", "distributed"])
def test_shipped_day_costs_are_pinned(tmp_path, solver):
    out = tmp_path / "out"
    assert cli.main(["report", data_path("experiment.yaml"), "--solver", solver,
                     "--out", str(out)]) == 0
    rep = _read(out / "report.json")
    assert rep["schedule"]["j_soc"] == pytest.approx(SHIPPED_J_SOC, rel=1e-9)
    assert rep["d"] == pytest.approx(SHIPPED_D, rel=1e-9)
    assert rep["ideal"]["j"] == pytest.approx(SHIPPED_IDEAL_J, rel=1e-9)


def test_region_records_the_schedule_timings_of_an_experiment(tmp_path):
    """region on an experiment times the day it builds, like report and
    bargain; from --d-vector there is no day to time."""
    cfg = _experiment(tmp_path, monte_carlo={"samples": 1000, "honest": [1], "seed": 0})
    assert cli.main(["region", cfg, "--out", str(tmp_path / "exp")]) == 0
    assert {"schedule_s", "individual_s"} <= set(_read(tmp_path / "exp" / "timings.json"))
    assert cli.main(["region", f"--d-vector={FAV_D}", "--jsoc", FAV_JSOC,
                     "--samples", "1000", "--out", str(tmp_path / "flags")]) == 0
    timings = _read(tmp_path / "flags" / "timings.json")
    assert not {"schedule_s", "individual_s"} & set(timings)


# Runs one command in the interpreter it starts, then prints the exit code
# and which of scipy's solver modules got imported.
_IMPORT_PROBE = """
import sys
from gridbargain import cli
code = cli.main(sys.argv[1:])
print(code, *sorted({"scipy.optimize", "scipy.sparse"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv, loads_scipy", [
    (["report", data_path("experiment.yaml"), "--solver", "distributed"], False),
    (["schedule", data_path("experiment.yaml"), "--solver", "distributed"], False),
    (["forecast", data_path("experiment.yaml")], False),
    (["bargain", f"--d-vector={FAV_D}", "--jsoc", FAV_JSOC, "--gamma", "0,0.05,0.05,0",
      "--samples", "0"], False),
    # control: the shipped model has three batteries, so its pooled LP goes to HiGHS
    (["report", data_path("experiment.yaml"), "--solver", "centralized"], True),
], ids=["report_distributed", "schedule_distributed", "forecast", "bargain_d_vector",
        "report_centralized"])
def test_scipy_is_imported_only_where_highs_runs(tmp_path, argv, loads_scipy):
    """A fresh interpreter: the test modules import scipy themselves."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv, "--out", str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0", done.stderr
    if loads_scipy:
        assert "scipy.optimize" in loaded
    else:
        assert loaded == []


# ---------------------------------------------------------------- exit codes

def test_exit_2_missing_config(tmp_path):
    assert cli.main(["report", str(tmp_path / "nope.yaml")]) == 2


def test_exit_2_bad_flag_values(tmp_path):
    out = str(tmp_path / "out")
    # --d-vector without --jsoc
    assert cli.main(["bargain", "--d-vector", "1,2", "--out", out]) == 2
    # neither config nor vector
    assert cli.main(["bargain", "--out", out]) == 2
    # unparsable gamma
    assert cli.main(["bargain", "--d-vector", "1,2", "--jsoc", "3",
                     "--gamma", "a,b", "--out", out]) == 2
    # gamma length mismatch
    assert cli.main(["bargain", "--d-vector", "1,2", "--jsoc", "3",
                     "--gamma", "0.1", "--out", out]) == 2
    # 0-based or out-of-range honest positions
    assert cli.main(["region", "--d-vector", "1,2", "--jsoc", "3",
                     "--honest", "0", "--out", out]) == 2
    assert cli.main(["region", "--d-vector", "1,2", "--jsoc", "3",
                     "--honest", "5", "--samples", "10", "--out", out]) == 2
    # --d-vector with an experiment or --solver: neither may be dropped silently
    cfg = _experiment(tmp_path)
    for command in ("bargain", "region"):
        assert cli.main([command, cfg, f"--d-vector={FAV_D}", "--jsoc", FAV_JSOC,
                         "--samples", "10", "--out", out]) == 2
        assert cli.main([command, f"--d-vector={FAV_D}", "--jsoc", FAV_JSOC,
                         "--solver", "centralized", "--samples", "10", "--out", out]) == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["region", f"--d-vector={FAV_D}", "--jsoc", FAV_JSOC, "--samples", "0"],
    ["region", f"--d-vector={FAV_D}", "--jsoc", FAV_JSOC, "--samples", "-5"],
    ["bargain", f"--d-vector={FAV_D}", "--jsoc", FAV_JSOC, "--samples", "-3"],
    ["region", f"--d-vector={FAV_D}", "--jsoc", FAV_JSOC, "--honest", "9", "--samples", "10"],
    ["bargain", f"--d-vector={FAV_D}", "--jsoc", FAV_JSOC, "--honest", "9", "--samples", "10"],
    ["bargain", f"--d-vector={FAV_D}", "--jsoc", FAV_JSOC, "--honest", "9", "--samples", "0"],
    ["bargain", f"--d-vector={FAV_D}", "--jsoc", FAV_JSOC, "--honest", "2,2"],
])
def test_exit_2_bad_monte_carlo_flags(tmp_path, argv):
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert not any(out.glob("*.json"))


@pytest.mark.parametrize("command", ["report", "bargain", "region"])
@pytest.mark.parametrize("monte_carlo", [{"samples": -10, "honest": [1]},
                                         {"samples": 100, "honest": [9]},
                                         {"samples": 0, "honest": [9]},
                                         {"samples": 100, "honest": [1, 1]}])
def test_exit_2_bad_monte_carlo_config(tmp_path, command, monte_carlo):
    cfg = _experiment(tmp_path, monte_carlo=monte_carlo)
    out = tmp_path / "out"
    assert cli.main([command, cfg, "--out", str(out)]) == 2
    assert not any(out.glob("*.json"))


@pytest.mark.parametrize("command", ["forecast", "schedule", "report", "bargain", "region"])
@pytest.mark.parametrize("overrides, message", [
    ({"gamma": [0.0, 0.05, 0.05]}, "gamma has 3 entries but the model has 4 users"),
    ({"gamma": [0.0] * 5}, "gamma has 5 entries but the model has 4 users"),
    ({"monte_carlo": {"samples": 100, "honest": [7]}},
     "monte_carlo.honest: positions [7] are outside users 1..4"),
    ({"monte_carlo": {"samples": 0, "honest": [1, 5]}},
     "monte_carlo.honest: positions [5] are outside users 1..4"),
    ({"gamma_sweep": {"users": [2, 5], "num": 3}},
     "gamma_sweep.users: positions [5] are outside users 1..4"),
    ({"gamma_sweep": {"users": [0], "num": 3}},
     "gamma_sweep.users: positions [0] are outside users 1..4"),
    ({"scenarios": {**POOLS, "U1": POOLS["u1"]}}, "scenario U1: the model has no user U1"),
    ({"scenarios": {**POOLS, "u2": POOLS["u1"]}}, "scenario u2: user u2 has no generator"),
    ({"scenarios": {**POOLS, "u3": {**POOLS["u3"], "kind": "pv"}}},
     "scenario u3: kind 'pv' does not match user u3's generator, a Wt"),
    ({"scenarios": {"u1": POOLS["u1"], "u3": POOLS["u3"]}},
     "user u4 has a generator but no scenario pool"),
], ids=["gamma_3", "gamma_5", "honest_7", "honest_5_no_mc", "sweep_5", "sweep_0",
        "pool_of_no_user", "pool_of_passive_user", "pool_of_other_kind", "generator_without_pool"])
def test_exit_2_per_user_fields_that_do_not_fit_the_model(tmp_path, caplog, command,
                                                          overrides, message):
    """gamma, monte_carlo.honest and gamma_sweep.users are checked against
    the model's users, by their 1-based positions, every scenario pool
    against the generator of its user and every generator against the
    pools, before any solve or write."""
    cfg = _experiment(tmp_path, **overrides)
    out = tmp_path / "out"
    assert cli.main([command, cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert message in caplog.text


@pytest.mark.parametrize("command", ["bargain", "region"])
def test_exit_2_honest_flag_outside_the_users(tmp_path, caplog, command):
    out = tmp_path / "out"
    assert cli.main([command, f"--d-vector={FAV_D}", "--jsoc", FAV_JSOC, "--honest", "2,7",
                     "--samples", "10", "--out", str(out)]) == 2
    assert not out.exists()
    assert "--honest: positions [7] are outside users 1..4" in caplog.text


@pytest.mark.parametrize("command", ["report", "bargain", "region"])
@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("where", ["flag", "seed", "monte_carlo.seed"])
def test_exit_2_seed_out_of_range(tmp_path, command, seed, where):
    """Seeds key unsigned 64-bit generators; anything else is bad input."""
    argv = []
    if where == "flag":
        cfg = _experiment(tmp_path)
        argv = ["--seed", str(seed)]
    elif where == "seed":
        cfg = _experiment(tmp_path, seed=seed)
    else:
        cfg = _experiment(tmp_path, monte_carlo={"samples": 100, "honest": [1], "seed": seed})
    out = tmp_path / "out"
    assert cli.main([command, cfg, "--out", str(out), *argv]) == 2
    assert not out.exists()


def _yaml_syntax_error(tmp_path):
    cfg = tmp_path / "e.yaml"
    cfg.write_text(f"model: {data_path('model.yaml')}\nseed: [1\n")
    return str(cfg)


def _word_for_kappa(tmp_path):
    cfg = _bridge_experiment(tmp_path)
    model = yaml.safe_load((tmp_path / "m.yaml").read_text())
    model["users"][0]["desd"]["kappa"] = "abc"
    (tmp_path / "m.yaml").write_text(yaml.safe_dump(model))
    return cfg


def _bdc_true(tmp_path):
    cfg = _bridge_experiment(tmp_path)
    model = yaml.safe_load((tmp_path / "m.yaml").read_text())
    model["users"][0]["desd"]["bdc"] = True
    (tmp_path / "m.yaml").write_text(yaml.safe_dump(model))
    return cfg


def _word_in_demands(tmp_path):
    cfg = _bridge_experiment(tmp_path)
    (tmp_path / "d.csv").write_text("u1,u2\n0,0\n0,lots\n")
    return cfg


def _no_data_rows(name, text):
    """Experiment whose CSV ``name`` holds no data rows; returns the
    config and the refusal that must name that file."""
    def make(tmp_path):
        if name.startswith("pool"):
            cfg = _experiment(tmp_path, scenarios={**POOLS, "u1": {"file": name, "kind": "pv"}})
        else:
            cfg = _bridge_experiment(tmp_path)
        (tmp_path / name).write_text(text)
        return cfg, f"{name}: no data rows"
    return make


def _model_with(**sections):
    """Bridge experiment whose model file has these top-level sections."""
    def make(tmp_path):
        cfg = _bridge_experiment(tmp_path)
        model = yaml.safe_load((tmp_path / "m.yaml").read_text())
        model.update(sections)
        (tmp_path / "m.yaml").write_text(yaml.safe_dump(model))
        return cfg
    return make


@pytest.mark.parametrize("make_config", [
    _yaml_syntax_error,
    lambda tmp_path: _experiment(tmp_path, model=5),
    lambda tmp_path: _experiment(tmp_path, seed=[1]),
    lambda tmp_path: _experiment(tmp_path, monte_carlo={"samples": "lots", "honest": [1]}),
    _word_for_kappa,
    _word_in_demands,
    _model_with(users=7),
    _model_with(horizon=24),
    lambda tmp_path: _experiment(tmp_path, forecast=5),
    lambda tmp_path: _experiment(tmp_path, scenarios=["u1"]),
    lambda tmp_path: _experiment(tmp_path, monte_carlo=5),
    lambda tmp_path: _experiment(tmp_path, forecast={"solar": 5, "wind": [0.0, 0.3, 0.7, 0.0]}),
    # loads with wind=None; the shipped wind pool then has no forecast
    lambda tmp_path: _experiment(tmp_path, forecast={"solar": [0.8, 0.2, 0.0]}),
    lambda tmp_path: _experiment(tmp_path, scenarios={"u1": {"kind": "pv"}}),
    lambda tmp_path: _experiment(tmp_path, scenarios={"u1": 5}),
    lambda tmp_path: _experiment(tmp_path, monte_carlo={"honest": 5}),
    lambda tmp_path: _experiment(tmp_path, gamma_sweep={"users": [2], "num": "abc"}),
    lambda tmp_path: _experiment(tmp_path, gamma_sweep={"users": ["x"], "num": 3}),
    lambda tmp_path: _experiment(tmp_path, gamma_sweep={"users": 1, "num": 3}),
    lambda tmp_path: _experiment(tmp_path, gamma_sweep={"users": [2, 2], "num": 3}),
    _model_with(users=[5]),
    _model_with(horizon={"dt": 1.0}),
    _model_with(grid={}),
    _model_with(graph=[[0]]),
    _model_with(users=[{"id": "u1", "rg": [1]}, {"id": "u2"}]),
    _model_with(users=[{"id": "u1", "desd": [1]}, {"id": "u2"}]),
    _no_data_rows("pool_u1.csv", ""),
    _no_data_rows("d.csv", "u1,u2\n"),
    _no_data_rows("p.csv", "p_buy,p_sell\n"),
], ids=["yaml_syntax", "model_5", "seed_list", "samples_word", "kappa_word", "demand_word",
        "users_7", "horizon_24", "forecast_5", "scenarios_list", "monte_carlo_5",
        "forecast_solar_5", "forecast_no_wind", "scenario_no_file", "scenario_5", "honest_5",
        "sweep_num_word", "sweep_users_word", "sweep_users_1", "sweep_users_twice", "user_5",
        "horizon_no_steps",
        "grid_empty", "graph_edge_0", "rg_list", "desd_list",
        "pool_empty", "demands_header_only", "prices_header_only"])
def test_exit_2_malformed_config_or_csv(tmp_path, caplog, make_config):
    """make_config returns the config, or the config and a message the
    refusal must hold."""
    cfg = make_config(tmp_path)
    cfg, message = cfg if isinstance(cfg, tuple) else (cfg, "")
    out = tmp_path / "out"
    assert cli.main(["schedule", cfg, "--out", str(out)]) == 2
    assert not any(out.glob("*.json"))
    assert message in caplog.text


@pytest.mark.parametrize("make_config", [
    lambda tmp_path: _experiment(tmp_path, seed=1.7),
    lambda tmp_path: _experiment(tmp_path, monte_carlo={"samples": 2.9, "honest": [1]}),
    _model_with(horizon={"steps": 2.5, "dt": 1.0}),
    lambda tmp_path: _experiment(tmp_path, gamma_sweep={"users": [2], "num": 3.5}),
    lambda tmp_path: _experiment(tmp_path, monte_carlo={"samples": 100, "honest": [1.5]}),
    lambda tmp_path: _experiment(tmp_path, gamma_sweep={"users": [2.5], "num": 3}),
    lambda tmp_path: _experiment(tmp_path, seed=True),
    lambda tmp_path: _experiment(tmp_path, monte_carlo={"samples": True, "honest": [1]}),
    _bdc_true,
], ids=["seed", "samples", "horizon_steps", "sweep_num", "honest", "sweep_users",
        "seed_true", "samples_true", "bdc_true"])
def test_exit_2_fractional_integer_field(tmp_path, make_config):
    """An integer field rejects 2.9 instead of truncating it to 2, and
    every numeric field, a battery's bdc too, rejects YAML's true
    instead of reading it as 1."""
    out = tmp_path / "out"
    assert cli.main(["schedule", make_config(tmp_path), "--out", str(out)]) == 2
    assert not any(out.glob("*.json"))


def test_integral_floats_load_as_integers(tmp_path):
    """2.0 is read as 2 wherever an integer is due."""
    mc = {"samples": 20000, "honest": [1], "seed": 3}
    outputs = []
    for name, number in (("int", int), ("float", float)):
        (tmp_path / name).mkdir()
        cfg = _experiment(tmp_path / name, seed=number(0),
                          monte_carlo={k: [number(i) for i in v] if isinstance(v, list)
                                       else number(v) for k, v in mc.items()},
                          gamma_sweep={"users": [number(2)], "num": number(3)})
        out = tmp_path / name / "out"
        assert cli.main(["bargain", cfg, "--out", str(out)]) == 0
        outputs.append((out / "bargain.json").read_bytes())
    assert outputs[0] == outputs[1]


def _kapa(tmp_path):
    """The shipped experiment on the shipped model, u1's kappa misspelt."""
    model = yaml.safe_load(pathlib.Path(data_path("model.yaml")).read_text())
    for key in ("prices", "demands"):
        model[key] = data_path(model[key])
    model["users"][0]["desd"]["kapa"] = model["users"][0]["desd"].pop("kappa")
    (tmp_path / "m.yaml").write_text(yaml.safe_dump(model))
    return _experiment(tmp_path, model=str(tmp_path / "m.yaml"))


@pytest.mark.parametrize("make_config, message", [
    (lambda tmp_path: _experiment(tmp_path, montecarlo={"samples": 100}),
     "unknown key(s) 'montecarlo'; allowed keys are model, scenarios, forecast, weights, "
     "seed, gamma, gamma_sweep, solver, monte_carlo, out_dir"),
    (lambda tmp_path: _experiment(tmp_path, monte_carlo={"sample": 100}),
     "monte_carlo: unknown key(s) 'sample'; allowed keys are samples, honest, seed"),
    (_kapa, "user u1: desd: unknown key(s) 'kapa'; allowed keys are e0, e_min, e_max, "
     "p_b_max, kappa, bdc"),
], ids=["montecarlo", "monte_carlo_sample", "kapa"])
def test_exit_2_unknown_key_before_any_solve(tmp_path, caplog, make_config, message):
    """A misspelt key is refused, not ignored: misspelt, these would
    skip the Monte Carlo, run it with 0 samples and run u1's battery at
    kappa = 1."""
    out = tmp_path / "out"
    assert cli.main(["report", make_config(tmp_path), "--out", str(out)]) == 2
    assert not out.exists()
    assert message in caplog.text


def test_exit_2_bad_codes_override(tmp_path, caplog):
    cfg = _bridge_experiment(tmp_path, codes={"bogus_knob": 1})
    assert cli.main(["schedule", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "unknown key(s) 'codes'" in caplog.text


@pytest.mark.parametrize("section", [
    {"codes": {"grid_ramp": 2}},
    {"codes": {"init_jitter": 0.1}},
    {"codes": {"max_rounds": "many"}},
    {"codes": {"record_messages": "no"}},
    {"consensus": {"foo": 1}},
    {"consensus": {"tol": "x"}},
    {"consensus": {"tol": 0.0}},
    {"consensus": {"max_iter": 0}},
    {"codes": {"cost_tol_abs": float("inf")}},
    {"codes": {"cost_tol_rel": float("inf")}},
], ids=["grid_ramp", "init_jitter", "max_rounds_word", "record_messages_word", "consensus_foo",
        "consensus_tol_word", "consensus_tol_0", "consensus_max_iter_0", "cost_tol_abs_inf",
        "cost_tol_rel_inf"])
def test_exit_2_bad_codes_or_consensus_section_before_any_solve(tmp_path, section):
    """The solver's budget and tolerances are constants: an experiment
    that still sets any of them is refused, not silently run without."""
    cfg = _bridge_experiment(tmp_path, **section)
    out = tmp_path / "out"
    assert cli.main(["report", cfg, "--out", str(out)]) == 2
    assert not out.exists()  # the experiment was refused before any output or solve


@pytest.mark.parametrize("command", ["bargain", "report"])
@pytest.mark.parametrize("top", [float("nan"), float("inf"), -1.0])
def test_exit_2_bad_gamma_sweep_max_before_any_solve(tmp_path, monkeypatch, command, top):
    def no_solve(*args):
        raise AssertionError("the schedule ran")
    monkeypatch.setattr(cli, "_schedule", no_solve)
    cfg = _experiment(tmp_path, gamma_sweep={"users": [2], "num": 3, "max": top})
    out = tmp_path / "out"
    assert cli.main([command, cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("solver", ["centralized", "distributed"])
def test_exit_2_nan_demand(tmp_path, solver):
    cfg = _bridge_experiment(tmp_path)
    (tmp_path / "d.csv").write_text("u1,u2\n0,0\n0,nan\n")
    assert cli.main(["schedule", cfg, "--solver", solver,
                     "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("argv", [
    ["bargain", "--d-vector", "1,nan,3", "--jsoc", "3", "--samples", "0"],
    ["bargain", "--d-vector", "1,inf,3", "--jsoc", "3", "--samples", "0"],
    ["bargain", "--d-vector", "1,2,3", "--jsoc", "inf", "--samples", "0"],
    ["bargain", "--d-vector", "1,2,3", "--jsoc", "nan", "--samples", "0"],
    ["bargain", "--d-vector", "1,2,3", "--jsoc", "3", "--gamma", "0,nan,0",
     "--samples", "0"],
    ["region", "--d-vector", "1,-inf,3", "--jsoc", "3", "--samples", "10"],
    # finite flags whose sums overflow, or whose solo bound r eps0 / |D_i| does
    ["bargain", "--d-vector=1e308,1e308", "--jsoc", "0", "--samples", "0"],
    ["region", "--d-vector=1e308,1e308", "--jsoc", "0", "--samples", "10"],
    ["region", "--d-vector=0,1e308", "--jsoc", "0", "--samples", "4"],
    ["bargain", "--d-vector=5e-324", "--jsoc", "1", "--samples", "0"],
])
def test_exit_2_non_finite_numbers(tmp_path, argv):
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert not any(out.glob("*.json"))


def test_exit_2_non_finite_experiment_gamma(tmp_path):
    cfg = _experiment(tmp_path, gamma=[0.0, float("nan"), 0.0, 0.0])
    assert cli.main(["bargain", cfg, "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("command", ["report", "forecast", "schedule"])
def test_exit_2_scenario_pool_of_wrong_width(tmp_path, command):
    rows = np.loadtxt(data_path("pool_u1.csv"), delimiter=",", ndmin=2)
    np.savetxt(tmp_path / "pool_u1.csv", rows[:, :20], delimiter=",")
    cfg = _experiment(tmp_path, scenarios={
        **POOLS, "u1": {"file": str(tmp_path / "pool_u1.csv"), "kind": "pv"}})
    assert cli.main([command, cfg, "--out", str(tmp_path / "out")]) == 2


def test_exit_2_nan_in_scenario_pool(tmp_path):
    rows = np.loadtxt(data_path("pool_u1.csv"), delimiter=",", ndmin=2)
    rows[3, 12] = np.nan
    np.savetxt(tmp_path / "pool_u1.csv", rows, delimiter=",")
    cfg = _experiment(tmp_path, scenarios={
        **POOLS, "u1": {"file": str(tmp_path / "pool_u1.csv"), "kind": "pv"}})
    out = tmp_path / "out"
    assert cli.main(["forecast", cfg, "--out", str(out)]) == 2
    assert not (out / "forecast.json").exists()


def _unconverged_experiment(tmp_path):
    """Held-out draw 14 of seed 99 (see test_codes) without its generators,
    as model, CSV and experiment files: 60 rounds leave a 4.17 c gap."""
    m, _ = family("held_out", 15)[14]

    def write_csv(name, header, columns):
        rows = [",".join(header)] + [",".join(repr(float(v)) for v in row)
                                     for row in np.column_stack(columns)]
        (tmp_path / name).write_text("\n".join(rows) + "\n")

    write_csv("p.csv", ["p_buy", "p_sell"], [m.prices.buy, m.prices.sell])
    write_csv("d.csv", [u.id for u in m.users], list(m.demands))
    users = []
    for u in m.users:
        d = u.desd
        users.append({"id": u.id} if d is None else {"id": u.id, "desd": {
            "e0": d.e0, "e_min": d.e_min, "e_max": d.e_max, "p_b_max": d.p_b_max,
            "kappa": d.kappa, "bdc": d.bdc.c_d}})
    (tmp_path / "m.yaml").write_text(yaml.safe_dump({
        "horizon": {"steps": 24, "dt": 1.0}, "prices": "p.csv", "demands": "d.csv",
        "users": users}))
    path = tmp_path / "e.yaml"
    path.write_text(yaml.safe_dump({"model": "m.yaml", "solver": "distributed"}))
    return str(path)


def test_exit_3_unconverged_distributed_schedule(tmp_path, monkeypatch):
    for name, value in (("MAX_ROUNDS", 60), ("CHECK_EVERY", 20)):
        monkeypatch.setattr(codes, name, value)
    cfg = _unconverged_experiment(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["schedule", cfg, "--out", str(out)]) == 3
    rep = _read(out / "schedule.json")  # diagnostics still land on disk
    assert rep["converged"] is False
    assert rep["certified_gap"] > 1.0


def test_exit_3_unconverged_oracle_says_so_in_schedule_json(tmp_path, monkeypatch):
    """A distributed oracle short of its certificate fails the command, and
    schedule.json names it; a centralized oracle has no such fields."""
    for name, value in (("MAX_ROUNDS", 60), ("CHECK_EVERY", 20)):
        monkeypatch.setattr(codes, name, value)
    cfg = _unconverged_experiment(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["schedule", cfg, "--solver", "centralized", "--verify-oracle",
                     "--out", str(out)]) == 3
    rep = _read(out / "schedule.json")
    assert rep["oracle_solver"] == "distributed"
    assert rep["oracle_converged"] is False
    assert rep["oracle_certified_gap"] > 1.0
    assert cli.main(["schedule", cfg, "--solver", "distributed", "--verify-oracle",
                     "--out", str(out)]) == 3
    rep = _read(out / "schedule.json")
    assert rep["oracle_solver"] == "centralized"
    assert not {"oracle_converged", "oracle_certified_gap"} & set(rep)


@pytest.mark.parametrize("command", ["report", "bargain", "region"])
def test_exit_3_unconverged_distributed_day_writes_nothing(tmp_path, monkeypatch, command):
    """The commands that bargain on the schedule refuse an uncertified one
    before they create their output directory."""
    for name, value in (("MAX_ROUNDS", 60), ("CHECK_EVERY", 20)):
        monkeypatch.setattr(codes, name, value)
    cfg = _unconverged_experiment(tmp_path)
    out = tmp_path / "out"
    assert cli.main([command, cfg, "--out", str(out)]) == 3
    assert not out.exists()


def test_exit_3_distributed_schedule_without_a_balanced_check(tmp_path, monkeypatch):
    """The shipped model with its grid rated 3 kW: no check of the
    distributed run holds a balanced schedule, so it stalls and no
    schedule.json claims a J_soc for an unbalanced candidate."""
    monkeypatch.setattr(codes, "MAX_ROUNDS", 60)
    model = yaml.safe_load(pathlib.Path(data_path("model.yaml")).read_text())
    model.update(prices=data_path("prices.csv"), demands=data_path("demands.csv"),
                 grid={"p_g_max": 3.0})
    (tmp_path / "m.yaml").write_text(yaml.safe_dump(model))
    cfg = _experiment(tmp_path, model=str(tmp_path / "m.yaml"))
    out = tmp_path / "out"
    assert cli.main(["schedule", cfg, "--solver", "distributed", "--out", str(out)]) == 3
    assert not (out / "schedule.json").exists()


def test_exit_4_gamma_exceeds_budget(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["bargain", f"--d-vector={FAV_D}", "--jsoc", FAV_JSOC,
                   "--gamma", "0,0.2,0,0", "--samples", "0",
                   "--out", str(out)])
    assert rc == 4
    rep = _read(out / "bargain.json")  # the post-mortem is still written
    assert rep["resilience"]["success"] is False
    assert rep["resilience"]["epsilon"] < 0.0


# ------------------------------------------------------------ flag properties

_NUMBER = st.floats() | st.sampled_from([0.0, 1e308, -1e308, 5e-324, 14.8275])


def _strict_json(path):
    def refuse(name):
        raise ValueError(f"{path.name} holds {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def _floats_flag(values):
    return ",".join(repr(float(v)) for v in values)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["bargain", "region"]),
       d=st.lists(_NUMBER, min_size=1, max_size=5), jsoc=_NUMBER,
       gamma=st.none() | st.lists(st.floats(), min_size=1, max_size=5),
       honest=st.none() | st.lists(st.integers(-1, 6), max_size=4),
       samples=st.integers(-2, 300), seed=st.none() | st.integers(-1, 2 ** 64))
def test_bargain_and_region_flags_exit_cleanly(command, d, jsoc, gamma, honest, samples,
                                               seed):
    """Any values of the number flags end in exit 0, 2 or 4, never in a
    traceback, and every JSON file written is strict: no NaN or Infinity."""
    argv = [command, f"--d-vector={_floats_flag(d)}", f"--jsoc={jsoc!r}",
            f"--samples={samples}"]
    if gamma is not None and command == "bargain":
        argv.append(f"--gamma={_floats_flag(gamma)}")
    if honest is not None:
        argv.append(f"--honest={','.join(map(str, honest))}")
    if seed is not None:
        argv.append(f"--seed={seed}")
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        assert cli.main(argv + ["--out", str(out)]) in (0, 2, 4)
        for path in out.glob("*.json"):
            _strict_json(path)
