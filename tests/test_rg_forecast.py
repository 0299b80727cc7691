"""Scenario classification and the expected-generation forecast."""

import numpy as np
import pytest

from gridbargain import (InvariantViolation, KindMismatch, ScenarioPool,
                         TooFewScenarios, WeatherForecast, classify_scenarios,
                         forecast_all, predict_rg)
from gridbargain.fixtures import synthetic_solar_pool, synthetic_wind_pool


def _solar(**kw):
    return WeatherForecast(solar=kw.pop("p", (0.8, 0.2, 0.0)), **kw)


# ---------------------------------------------------------------- classify

def test_year_of_solar_splits_122_122_121():
    pool = classify_scenarios(synthetic_solar_pool(6.5, n_days=365, seed=3), "pv", seed=0)
    sizes = [pool.class_members(c).size for c in range(3)]
    assert sizes == [122, 122, 121]  # remainder goes to the low classes
    means = [pool.profiles[pool.class_members(c)].mean() for c in range(3)]
    assert means[0] < means[1] < means[2]  # classes ascend in daily mean


def test_identical_profiles_tie_break_by_index():
    profiles = np.ones((4, 6))
    pool = classify_scenarios(profiles, "wt", seed=0)
    np.testing.assert_array_equal(pool.class_of, [0, 1, 2, 3])


def test_split_matches_brute_force_sort(rng):
    # six distinct means, three classes: bottom pair, middle pair, top pair
    profiles = rng.uniform(0, 5, size=(6, 24))
    pool = classify_scenarios(profiles, "pv", seed=1)
    order = np.argsort(profiles.mean(axis=1))
    expected = np.empty(6, dtype=int)
    expected[order] = [0, 0, 1, 1, 2, 2]
    np.testing.assert_array_equal(pool.class_of, expected)


def test_conditionals_are_distributions():
    pool = classify_scenarios(synthetic_wind_pool(4.0, n_days=30, seed=5), "wt", seed=9)
    for c in range(pool.n_classes):
        row = pool.cond_probs[c]
        members = pool.class_members(c)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(row >= 0)
        assert np.all(row[np.setdiff1d(np.arange(30), members)] == 0)


def test_equal_weights_option():
    pool = classify_scenarios(np.arange(6.0)[:, None] * np.ones(4), "pv",
                              weights="equal")
    for c in range(3):
        np.testing.assert_allclose(pool.cond_probs[c, pool.class_members(c)], 0.5)


def test_too_few_scenarios():
    with pytest.raises(TooFewScenarios):
        classify_scenarios(np.ones((2, 4)), "pv")


def test_bad_kind_rejected():
    with pytest.raises(KindMismatch):
        classify_scenarios(np.ones((5, 4)), "hydro")


def test_negative_generation_rejected():
    with pytest.raises(InvariantViolation):
        classify_scenarios(-np.ones((5, 4)), "pv")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_generation_rejected(bad):
    profiles = np.ones((5, 4))
    profiles[2, 1] = bad
    with pytest.raises(InvariantViolation, match="finite"):
        classify_scenarios(profiles, "pv")


# ---------------------------------------------------------------- predict

def test_certain_forecast_single_scenario_returns_it():
    # three profiles, one per class; sunny (index 0) is the brightest
    profiles = np.vstack([np.full(4, 1.0), np.full(4, 2.0), np.full(4, 3.0)])
    pool = classify_scenarios(profiles, "pv", seed=0)
    out = predict_rg(pool, WeatherForecast(solar=(1.0, 0.0, 0.0)))
    np.testing.assert_allclose(out, profiles[2], atol=1e-12)
    out = predict_rg(pool, WeatherForecast(solar=(0.0, 0.0, 1.0)))
    np.testing.assert_allclose(out, profiles[0], atol=1e-12)


def test_all_zero_profiles_give_zero():
    pool = classify_scenarios(np.zeros((6, 5)), "pv", seed=2)
    np.testing.assert_array_equal(predict_rg(pool, _solar()), np.zeros(5))


def test_two_term_expectation_by_hand():
    # one scenario per class: the forecast expectation collapses to
    # 0.8 * (sunny profile) + 0.2 * (cloudy profile), written out by hand
    a = np.array([3.0, 4.0, 0.5, 0.0])  # brightest -> sunny class
    b = np.array([1.0, 2.0, 0.25, 0.0])
    c = np.array([0.1, 0.2, 0.0, 0.0])
    pool = classify_scenarios(np.vstack([c, b, a]), "pv", seed=0)
    out = predict_rg(pool, WeatherForecast(solar=(0.8, 0.2, 0.0)))
    np.testing.assert_allclose(out, 0.8 * a + 0.2 * b, atol=1e-12)


def test_wind_forecast_orders_levels_ascending():
    profiles = np.arange(4.0)[:, None] * np.ones(3)
    pool = classify_scenarios(profiles, "wt", seed=0)
    # mass on the strongest level picks the highest-mean profile
    out = predict_rg(pool, WeatherForecast(wind=(0.0, 0.0, 0.0, 1.0)))
    np.testing.assert_allclose(out, profiles[3])


def test_kind_mismatch_between_pool_and_forecast():
    pool = classify_scenarios(np.ones((4, 3)) * np.arange(4)[:, None], "wt", seed=0)
    with pytest.raises(KindMismatch):
        predict_rg(pool, WeatherForecast(solar=(1.0, 0.0, 0.0)))


def test_empty_class_with_mass_rejected():
    # hand-built pool whose lowest class has no members: fine while the
    # forecast puts no mass there, an error once it does
    profiles = np.vstack([np.full(3, 1.0), np.full(3, 2.0)])
    cond = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pool = ScenarioPool(kind="pv", profiles=profiles,
                        class_of=np.array([1, 2]), cond_probs=cond)
    out = predict_rg(pool, WeatherForecast(solar=(0.6, 0.4, 0.0)))
    np.testing.assert_allclose(out, 0.6 * profiles[1] + 0.4 * profiles[0])
    with pytest.raises(InvariantViolation, match="empty"):
        predict_rg(pool, WeatherForecast(solar=(0.5, 0.2, 0.3)))


def test_forecast_probability_validation():
    with pytest.raises(InvariantViolation, match="sum to 1"):
        WeatherForecast(solar=(0.5, 0.3, 0.1))
    with pytest.raises(InvariantViolation, match=">= 0"):
        WeatherForecast(wind=(0.5, 0.7, -0.2, 0.0))
    with pytest.raises(InvariantViolation, match="expected 3"):
        WeatherForecast(solar=(0.5, 0.5))


# ---------------------------------------------------------------- properties

def _random_case(rng):
    kind = "pv" if rng.random() < 0.5 else "wt"
    K = int(rng.integers(4, 14))
    profiles = rng.uniform(0, 6, size=(K, 24))
    pool = classify_scenarios(profiles, kind, seed=int(rng.integers(1 << 30)))
    n = pool.n_classes
    p = rng.uniform(size=n)
    p /= p.sum()
    fc = WeatherForecast(solar=p) if kind == "pv" else WeatherForecast(wind=p)
    return pool, fc


def test_envelope_property(rng):
    for _ in range(50):
        pool, fc = _random_case(rng)
        out = predict_rg(pool, fc)
        lo = pool.profiles.min(axis=0) - 1e-9
        hi = pool.profiles.max(axis=0) + 1e-9
        assert np.all(out >= lo) and np.all(out <= hi)


def test_linearity_in_forecast(rng):
    for _ in range(25):
        pool, f1 = _random_case(rng)
        n = pool.n_classes
        p2 = rng.uniform(size=n)
        p2 /= p2.sum()
        f2 = (WeatherForecast(solar=p2) if pool.kind == "pv"
              else WeatherForecast(wind=p2))
        alpha = float(rng.uniform())
        v1 = f1.solar if pool.kind == "pv" else f1.wind
        v2 = p2
        mix = alpha * np.asarray(v1) + (1 - alpha) * v2
        fmix = (WeatherForecast(solar=mix) if pool.kind == "pv"
                else WeatherForecast(wind=mix))
        lhs = predict_rg(pool, fmix)
        rhs = alpha * predict_rg(pool, f1) + (1 - alpha) * predict_rg(pool, f2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_permutation_invariance(rng):
    for _ in range(25):
        pool, fc = _random_case(rng)
        perm = rng.permutation(pool.profiles.shape[0])
        shuffled = ScenarioPool(
            kind=pool.kind, profiles=pool.profiles[perm],
            class_of=pool.class_of[perm], cond_probs=pool.cond_probs[:, perm],
        )
        np.testing.assert_allclose(
            predict_rg(shuffled, fc), predict_rg(pool, fc), atol=1e-10)


def test_forecast_all_covers_pools(reference_pools, favorable_rg):
    assert set(favorable_rg.profiles) == {"u1", "u3", "u4"}
    for uid, pool in reference_pools.items():
        prof = favorable_rg.profiles[uid]
        assert prof.shape == (24,)
        assert np.all(prof >= pool.profiles.min(axis=0) - 1e-9)
        assert np.all(prof <= pool.profiles.max(axis=0) + 1e-9)
