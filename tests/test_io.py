"""File formats: YAML loaders, CSV round trips, report JSON."""

import json
import re

import numpy as np
import pytest
import yaml

from gridbargain import (ExperimentConfig, FileError, InvariantViolation,
                         KindMismatch, build_pools, data_path, load_experiment,
                         load_model, write_csv, write_json)
from gridbargain.fixtures import FAVORABLE_FORECAST, four_user_model
from gridbargain.io import jsonable, read_matrix, read_table


# ---------------------------------------------------------------- model yaml

def test_shipped_model_matches_reference_fixture():
    m = load_model(data_path("model.yaml"))
    ref = four_user_model()
    assert [u.id for u in m.users] == [u.id for u in ref.users]
    assert m.horizon == ref.horizon
    np.testing.assert_array_equal(m.demands, ref.demands)
    for got, want in zip(m.users, ref.users):
        assert (got.desd is None) == (want.desd is None)
        if want.desd is not None:
            assert got.desd.e0 == want.desd.e0
            assert got.desd.e_max == want.desd.e_max
            assert got.desd.p_b_max == want.desd.p_b_max
            assert got.desd.kappa == want.desd.kappa
        assert got.rg == want.rg
    # prices pass through a 9-significant-digit CSV
    np.testing.assert_allclose(m.prices.buy, ref.prices.buy, rtol=1e-8)
    np.testing.assert_allclose(m.prices.sell, ref.prices.sell, rtol=1e-8)


def test_load_model_missing_file():
    with pytest.raises(FileError):
        load_model("/no/such/dir/model.yaml")


def test_load_model_missing_section(tmp_path):
    p = tmp_path / "m.yaml"
    p.write_text("horizon: {steps: 2}\nusers: [{id: u1}]\nprices: p.csv\n")
    with pytest.raises(InvariantViolation, match="demands"):
        load_model(str(p))


def _write_series(tmp_path, steps=2, ids=("u1",)):
    (tmp_path / "p.csv").write_text("p_buy,p_sell\n" + "10,8\n" * steps)
    rows = "\n".join(",".join("1" for _ in ids) for _ in range(steps))
    (tmp_path / "d.csv").write_text(",".join(ids) + "\n" + rows + "\n")


def test_load_model_bad_rg_kind(tmp_path):
    _write_series(tmp_path)
    (tmp_path / "m.yaml").write_text(
        "horizon: {steps: 2}\nprices: p.csv\ndemands: d.csv\n"
        "users:\n  - id: u1\n"
        "    desd: {e0: 1, e_min: 0, e_max: 4, p_b_max: 2}\n"
        "    rg: {kind: hydro, size_kw: 3}\n")
    with pytest.raises(KindMismatch, match="hydro"):
        load_model(str(tmp_path / "m.yaml"))


def test_load_model_incomplete_desd(tmp_path):
    _write_series(tmp_path)
    (tmp_path / "m.yaml").write_text(
        "horizon: {steps: 2}\nprices: p.csv\ndemands: d.csv\n"
        "users:\n  - id: u1\n    desd: {e0: 1, e_min: 0}\n")
    with pytest.raises(InvariantViolation, match="e_max"):
        load_model(str(tmp_path / "m.yaml"))


def test_load_model_row_count_checked(tmp_path):
    _write_series(tmp_path, steps=3)
    (tmp_path / "m.yaml").write_text(
        "horizon: {steps: 2}\nprices: p.csv\ndemands: d.csv\n"
        "users: [{id: u1}]\n")
    with pytest.raises(InvariantViolation, match="horizon"):
        load_model(str(tmp_path / "m.yaml"))


def test_load_model_missing_demand_column(tmp_path):
    _write_series(tmp_path, ids=("u1",))
    (tmp_path / "m.yaml").write_text(
        "horizon: {steps: 2}\nprices: p.csv\ndemands: d.csv\n"
        "users: [{id: u1}, {id: u2}]\n")
    with pytest.raises(InvariantViolation, match="u2"):
        load_model(str(tmp_path / "m.yaml"))


# ----------------------------------------------------------- experiment yaml

def test_shipped_experiment_fields():
    cfg = load_experiment(data_path("experiment.yaml"))
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.solver == "centralized"
    assert cfg.seed == 0
    assert cfg.weights == "random"
    np.testing.assert_array_equal(cfg.gamma, [0.0, 0.05, 0.05, 0.0])
    np.testing.assert_array_equal(cfg.forecast.solar, FAVORABLE_FORECAST.solar)
    np.testing.assert_array_equal(cfg.forecast.wind, FAVORABLE_FORECAST.wind)
    assert cfg.mc_samples == 1_000_000
    assert cfg.mc_honest == (1,)
    assert cfg.mc_seed == 0
    assert sorted(cfg.scenario_files) == ["u1", "u3", "u4"]
    assert cfg.scenario_files["u3"][1] == "wt"
    assert load_model(cfg.model_path) is not None


def test_experiment_missing_model_file(tmp_path):
    p = tmp_path / "e.yaml"
    p.write_text("model: nowhere.yaml\n")
    with pytest.raises(FileError):
        load_experiment(str(p))


def test_experiment_missing_scenario_file(tmp_path):
    (tmp_path / "m.yaml").write_text("x: 1\n")  # existence is all that's checked here
    p = tmp_path / "e.yaml"
    p.write_text("model: m.yaml\nscenarios:\n  u1: {file: gone.csv, kind: pv}\n")
    with pytest.raises(FileError):
        load_experiment(str(p))


def test_experiment_collects_problems(tmp_path):
    (tmp_path / "m.yaml").write_text("x: 1\n")
    p = tmp_path / "e.yaml"
    p.write_text("model: m.yaml\nweights: fancy\nsolver: quantum\n"
                 "gamma: [0.1, -0.2]\nmonte_carlo: {honest: [0]}\n")
    with pytest.raises(InvariantViolation) as err:
        load_experiment(str(p))
    text = str(err.value)
    for fragment in ("weights", "solver", "gamma", "1-based"):
        assert fragment in text


def test_experiment_bad_forecast_rejected(tmp_path):
    (tmp_path / "m.yaml").write_text("x: 1\n")
    p = tmp_path / "e.yaml"
    p.write_text("model: m.yaml\nforecast:\n  solar: [0.5, 0.2, 0.0]\n"
                 "  wind: [1.0, 0.0, 0.0, 0.0]\n")
    with pytest.raises(InvariantViolation):
        load_experiment(str(p))


def test_experiment_defaults(tmp_path):
    (tmp_path / "m.yaml").write_text("x: 1\n")
    p = tmp_path / "e.yaml"
    p.write_text("model: m.yaml\n")
    cfg = load_experiment(str(p))
    assert cfg.solver == "centralized" and cfg.seed == 0
    assert cfg.gamma is None and cfg.forecast is None
    assert cfg.scenario_files == {} and cfg.mc_samples == 0
    assert cfg.out_dir is None


def test_experiment_codes_and_consensus_sections(tmp_path):
    """The distributed solver's settings are constants, so these
    sections are unknown keys like any other."""
    (tmp_path / "m.yaml").write_text("x: 1\n")
    p = tmp_path / "e.yaml"
    p.write_text("model: m.yaml\ncodes: {max_rounds: 50, record_messages: true}\n"
                 "consensus: {tol: 1.0e-6, max_iter: 10}\n")
    with pytest.raises(InvariantViolation, match="unknown key\\(s\\) 'codes', 'consensus'; "
                       "allowed keys are model, scenarios,"):
        load_experiment(str(p))


@pytest.mark.parametrize("name, where, allowed", [
    ("model.yaml", (), "horizon, prices, demands, users, grid, graph"),
    ("model.yaml", ("horizon",), "steps, dt"),
    ("model.yaml", ("users", 1), "id, desd, rg"),
    ("model.yaml", ("users", 0, "desd"), "e0, e_min, e_max, p_b_max, kappa, bdc"),
    ("model.yaml", ("users", 0, "rg"), "kind, size_kw"),
    ("model.yaml", ("grid",), "p_g_max"),
    ("experiment.yaml", (), "model, scenarios, forecast, weights, seed, gamma, "
                            "gamma_sweep, solver, monte_carlo, out_dir"),
    ("experiment.yaml", ("scenarios", "u3"), "file, kind"),
    ("experiment.yaml", ("forecast",), "solar, wind"),
    ("experiment.yaml", ("gamma_sweep",), "users, num, max"),
    ("experiment.yaml", ("monte_carlo",), "samples, honest, seed"),
])
def test_unknown_key_is_rejected_at_every_level(tmp_path, name, where, allowed):
    """Every mapping of the shipped files, given one key too many, is
    refused with the key and the allowed ones named."""
    with open(data_path(name)) as fh:
        doc = yaml.safe_load(fh)
    for key in ("model", "prices", "demands"):
        if key in doc:
            doc[key] = data_path(doc[key])
    for node in doc.get("scenarios", {}).values():
        node["file"] = data_path(node["file"])
    # the one optional mapping each shipped file leaves out
    doc.update({"model.yaml": {"grid": {"p_g_max": 80.0}},
                "experiment.yaml": {"gamma_sweep": {"users": [2], "num": 3}}}[name])
    node = doc
    for key in where:
        node = node[key]
    node["bogus"] = 1
    p = tmp_path / name
    p.write_text(yaml.safe_dump(doc))
    load = load_model if name == "model.yaml" else load_experiment
    with pytest.raises(InvariantViolation,
                       match=re.escape(f"unknown key(s) 'bogus'; allowed keys are {allowed}")):
        load(str(p))


def test_experiment_forecast_without_wind(tmp_path):
    (tmp_path / "m.yaml").write_text("x: 1\n")
    p = tmp_path / "e.yaml"
    p.write_text("model: m.yaml\nforecast: {solar: [0.8, 0.2, 0.0]}\n")
    cfg = load_experiment(str(p))
    np.testing.assert_array_equal(cfg.forecast.solar, [0.8, 0.2, 0.0])
    assert cfg.forecast.wind is None


# ------------------------------------------------------------------ csv/json

def test_csv_round_trip(tmp_path, rng):
    arr = rng.uniform(-5, 5, size=(7, 3))
    path = tmp_path / "a.csv"
    write_csv(path, arr)
    back = read_matrix(str(path))
    np.testing.assert_allclose(back, arr, rtol=1e-8, atol=1e-12)


def test_read_table_header_and_shape(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n3,4\n")
    cols, arr = read_table(str(p))
    assert cols == ["a", "b"]
    np.testing.assert_array_equal(arr, [[1, 2], [3, 4]])


@pytest.mark.parametrize("body", ["1,2\n3,4\n  \n", "1,2\n \t \n3,4\n", "1,2\n  # note\n3,4\n"])
def test_whitespace_only_lines_are_skipped(tmp_path, body):
    """A line of spaces or tabs is skipped like an empty line, after the
    data rows and between them."""
    p = tmp_path / "t.csv"
    p.write_text(body)
    np.testing.assert_array_equal(read_matrix(str(p)), [[1, 2], [3, 4]])
    p.write_text("a,b\n" + body)
    cols, arr = read_table(str(p))
    assert cols == ["a", "b"]
    np.testing.assert_array_equal(arr, [[1, 2], [3, 4]])


def test_ragged_rows_name_no_numpy_argument(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(InvariantViolation, match="columns changed") as refusal:
        read_matrix(str(p))
    assert "usecols" not in str(refusal.value)


def test_read_table_column_mismatch(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b,c\n1,2\n")
    with pytest.raises(InvariantViolation, match="column"):
        read_table(str(p))


def test_read_matrix_missing_file():
    with pytest.raises(FileError):
        read_matrix("/no/such/pool.csv")


def test_jsonable_strips_wrappers():
    from gridbargain.bargaining import Interval
    obj = {
        "f": np.float64(1.5), "i": np.int32(2), "ok": np.bool_(True),
        "arr": np.arange(3.0), "iv": Interval(lower=0.1, upper=0.2),
        7: "int key",
    }
    out = jsonable(obj)
    assert out["f"] == 1.5 and isinstance(out["f"], float)
    assert out["i"] == 2 and isinstance(out["i"], int)
    assert out["ok"] is True
    assert out["arr"] == [0.0, 1.0, 2.0]
    assert out["iv"] == {"lower": 0.1, "upper": 0.2}
    assert out["7"] == "int key"
    json.dumps(out)  # nothing left that the encoder cannot take


def test_write_json_deterministic(tmp_path):
    obj = {"b": np.arange(4.0), "a": {"z": 1, "y": np.float64(2.0)}}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_json(p1, obj)
    write_json(p2, obj)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == {"b": [0, 1, 2, 3], "a": {"z": 1, "y": 2.0}}


# --------------------------------------------------------------------- pools

def test_build_pools_reproducible():
    cfg = load_experiment(data_path("experiment.yaml"))
    a = build_pools(cfg)
    b = build_pools(cfg)
    assert sorted(a) == ["u1", "u3", "u4"]
    for uid in a:
        np.testing.assert_array_equal(a[uid].class_of, b[uid].class_of)
        np.testing.assert_array_equal(a[uid].cond_probs, b[uid].cond_probs)
        assert a[uid].kind == b[uid].kind


def test_build_pools_seed_offsets_differ():
    # two users on the same pool file must still get distinct class
    # weight draws (per-position seed offset)
    cfg = load_experiment(data_path("experiment.yaml"))
    twinned = ExperimentConfig(
        **{**{f: getattr(cfg, f) for f in cfg.__dataclass_fields__},
           "scenario_files": {"u1": cfg.scenario_files["u1"],
                              "u9": cfg.scenario_files["u1"]}})
    pools = build_pools(twinned)
    np.testing.assert_array_equal(pools["u1"].class_of, pools["u9"].class_of)
    assert not np.allclose(pools["u1"].cond_probs, pools["u9"].cond_probs)
