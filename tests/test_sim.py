import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brokergame as bg
from brokergame.sim import (BROKER_MODES, CoefficientBundle, _broker_rule, _draw_noise,
                            _simulate_core, _Tables)


def _zero_noise_params():
    return bg.DEFAULT_PARAMS.replace(sigma_price=0.0, sigma_signal=0.0,
                                     sigma_speed=0.0, sigma_flow=0.0, rho=0.0,
                                     signal_init=0.0, price_init=0.0)


def test_zero_noise_zero_state_fixed_point(grid200):
    p = _zero_noise_params()
    b = bg.build_coefficients(p, grid200, with_flow=False)
    res = bg.simulate_path(p, b.trader, b.broker, b.flow, bg.StrategyConfig(), seed=1)
    for name in ("price", "signal", "flow", "rate_broker", "rate_trader",
                 "q_broker", "q_trader", "cash_broker", "cash_trader",
                 "nu_hat", "alpha_hat_price"):
        assert np.all(getattr(res, name) == 0.0), name


def test_inventory_and_cash_identities(bundle, params):
    res = bg.simulate_path(params, bundle.trader, bundle.broker, bundle.flow,
                           bg.StrategyConfig(), seed=77)
    assert res.max_inventory_gap < 1e-10
    assert res.max_cash_gap < 1e-8


def test_broker_rule_rows(params, grid200, bundle200):
    # every rule is a feedback row on y = (q_broker, alpha_est, flow, q_trader_belief, eta);
    # signs are chosen so no row's two nonzero terms cancel
    tables = _Tables(params, params, bundle200)
    n, dt, horizon = grid200.steps, grid200.dt, grid200.horizon
    gains = bundle200.broker.gains.values
    rng = np.random.default_rng(3)
    for source, mis, tail, unwinds in (("flow", True, 10, True), ("naive", True, 3, True),
                                       ("price", True, 10, False), ("flow", False, 10, False)):
        rules = [_broker_rule(tables, bg.StrategyConfig(broker_mode=mode, signal_source=source,
                                                        mispecify_qi=mis, unwind_tail=tail))
                 for mode in BROKER_MODES]
        assert all(rule.shape == (n + 1, 5) for rule in rules)
        for k in range(n + 1):
            q, a, flow, qb, eta = np.abs(rng.standard_normal(5)) * (-1, 1, 1, 1, 1)
            y = np.array([q, a, flow, qb, eta])
            rem = max(horizon - k * dt, dt)
            rate = [rule[k] @ y for rule in rules]
            if unwinds and k >= n - tail:
                assert np.count_nonzero(rules[0][k]) == 1
                assert rate[0] == pytest.approx(-q / rem, rel=1e-15, abs=0.0)
            else:
                assert np.array_equal(rules[0][k], np.append(gains[k], 0.0))
            expect = (eta - q / rem, -q / rem, eta + flow)
            assert rate[1:] == pytest.approx(expect, rel=1e-15, abs=0.0)
    with pytest.raises(bg.ValidationError):
        bg.StrategyConfig(broker_mode="benchmark4")


def test_twap_unwind_matches_closed_form(grid200):
    # noise-free, inactive client: the discrete unwind telescopes to q0*(T-t)/T
    p = _zero_noise_params()
    b = bg.build_coefficients(p, grid200, with_flow=False)
    res = bg.simulate_path(p, b.trader, b.broker, b.flow,
                           bg.StrategyConfig(broker_mode="benchmark1"), seed=4,
                           init={"q_broker": 5.0})
    ref = 5.0 * (grid200.horizon - grid200.times) / grid200.horizon
    assert np.abs(res.q_broker - ref).max() < 1e-10
    assert abs(res.q_broker[-1]) < 1e-12


def test_same_seed_bitwise_reproducible(bundle, params):
    a = bg.simulate_path(params, bundle.trader, bundle.broker, bundle.flow,
                         bg.StrategyConfig(), seed=123)
    b = bg.simulate_path(params, bundle.trader, bundle.broker, bundle.flow,
                         bg.StrategyConfig(), seed=123)
    for name in ("price", "signal", "rate_broker", "cash_broker", "nu_hat",
                 "alpha_hat_flow"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_common_random_numbers_across_arms(bundle, params):
    runs = {}
    for mode in ("optimal", "benchmark1", "benchmark2", "benchmark3"):
        runs[mode] = bg.simulate_path(params, bundle.trader, bundle.broker,
                                      bundle.flow, bg.StrategyConfig(broker_mode=mode),
                                      seed=99)
    base = runs["optimal"]
    for mode, res in runs.items():
        assert np.array_equal(res.signal, base.signal), mode
        assert np.array_equal(res.flow, base.flow), mode
    # controlled series must actually differ across arms
    assert not np.array_equal(runs["benchmark2"].rate_broker, base.rate_broker)


def test_zero_impact_decouples_speed_estimate(grid200):
    p = bg.DEFAULT_PARAMS.replace(perm_impact=0.0)
    b = bg.build_coefficients(p, grid200)
    res = bg.simulate_path(p, b.trader, b.broker, b.flow, bg.StrategyConfig(), seed=12)
    # f2 = 0 so the client's rate carries no speed-estimate component
    recon = (b.trader.f1.values * res.signal + b.trader.f3.values * res.q_trader)
    assert np.abs(recon - res.rate_trader).max() < 1e-12


def test_mispecified_inventory_draw_shared_across_arms(bundle, params):
    cfg = dict(signal_source="flow", mispecify_qi=True)
    a = bg.simulate_path(params, bundle.trader, bundle.broker, bundle.flow,
                         bg.StrategyConfig(broker_mode="optimal", **cfg), seed=31)
    b = bg.simulate_path(params, bundle.trader, bundle.broker, bundle.flow,
                         bg.StrategyConfig(broker_mode="benchmark2", **cfg), seed=31)
    assert a.q_trader[0] != 0.0
    assert a.q_trader[0] == b.q_trader[0]
    assert a.q_trader_belief[0] == 0.0


def test_unwind_override_in_mispecified_tail(bundle, params, grid1000):
    cfg = bg.StrategyConfig(signal_source="flow", mispecify_qi=True, unwind_tail=10)
    res = bg.simulate_path(params, bundle.trader, bundle.broker, bundle.flow,
                           cfg, seed=5)
    n, dt, t = grid1000.steps, grid1000.dt, grid1000.times
    for k in range(n - 10, n + 1):
        expect = -res.q_broker[k] / max(grid1000.horizon - t[k], dt)
        assert res.rate_broker[k] == pytest.approx(expect, abs=1e-12)


def test_flow_mode_requires_flow_coeffs(grid200):
    p = _zero_noise_params()
    b = bg.build_coefficients(p, grid200, with_flow=False)
    with pytest.raises(bg.ValidationError):
        bg.simulate_path(p, b.trader, b.broker, None,
                         bg.StrategyConfig(signal_source="flow"), seed=1)


def test_blowup_is_flagged_not_raised(bundle, params):
    # an absurd starting book overflows the quadratic cost within a step
    res = bg.simulate_path(params, bundle.trader, bundle.broker, bundle.flow,
                           bg.StrategyConfig(), seed=2, init={"q_broker": 1e160})
    assert res.blown
    assert res.blow_step >= 0


def test_degenerate_parameter_blowup_is_clean_error(grid200):
    # absurd noise scales overflow inside the coefficient solve and surface
    # as the integrator's blow-up error, not a raw OverflowError
    p = bg.DEFAULT_PARAMS.replace(sigma_flow=1e300)
    with pytest.raises(bg.IntegrationBlowupError):
        bg.build_coefficients(p, grid200)


def test_path_series_lengths(bundle, params, grid1000):
    res = bg.simulate_path(params, bundle.trader, bundle.broker, bundle.flow,
                           bg.StrategyConfig(), seed=8)
    assert len(res.t) == grid1000.steps + 1
    for name in ("price", "signal", "rate_trader", "alpha_hat_naive"):
        assert len(getattr(res, name)) == grid1000.steps + 1
    assert res.components.shape == (grid1000.steps + 1, 4)


def test_components_sum_to_rate(bundle, params):
    res = bg.simulate_path(params, bundle.trader, bundle.broker, bundle.flow,
                           bg.StrategyConfig(), seed=21)
    assert np.abs(res.components.sum(axis=1) - res.rate_broker).max() < 1e-12


def test_path_seed_matches_experiment_indexing(bundle, params):
    # path n of a batch reproduces a single run seeded with base ^ n
    _, rec = bg.simulate_recorded(params, bundle, bg.StrategyConfig(), 3, 1000)
    single = bg.simulate_path(params, bundle.trader, bundle.broker, bundle.flow,
                              bg.StrategyConfig(), seed=1000 ^ 2)
    assert np.array_equal(rec["price"][:, 2], single.price)


def test_draw_noise_is_per_path_deterministic():
    q0a, epsa = _draw_noise(7, [0, 1, 2], 50)
    q0b, epsb = _draw_noise(7, [2], 50)
    assert np.array_equal(epsa[:, 2, :], epsb[:, 0, :])
    assert q0a[2] == q0b[0]


@settings(max_examples=8, deadline=None)
@given(ka=st.floats(1.0, 8.0), sa=st.floats(0.2, 2.0), th=st.floats(5.0, 15.0),
       sb=st.floats(5.0, 60.0), su=st.floats(10.0, 120.0), seed=st.integers(0, 2**20))
def test_identities_hold_for_random_parameters(ka, sa, th, sb, su, seed):
    grid = bg.TimeGrid(1.0, 200)
    p = bg.DEFAULT_PARAMS.replace(kappa_signal=ka, sigma_signal=sa, theta_speed=th,
                                  sigma_speed=sb, sigma_flow=su)
    b = bg.build_coefficients(p, grid)
    res = bg.simulate_path(p, b.trader, b.broker, b.flow, bg.StrategyConfig(),
                           seed=seed)
    assert res.max_inventory_gap < 1e-8
    assert res.max_cash_gap < 1e-8


def test_run_experiment_single_path_flagged(params, grid200, bundle200):
    report, per = bg.run_experiment(params, grid200, bg.StrategyConfig(), 1,
                                    base_seed=5, bundle=bundle200)
    for stats in report.benchmarks.values():
        assert stats.flagged
        assert stats.std == 0.0
        assert stats.p_value == 0.5
    assert report.raw_performance["optimal"][2]   # degenerate-std flag


def test_run_experiment_outputs(params, grid200, bundle200):
    report, per = bg.run_experiment(params, grid200, bg.StrategyConfig(), 40,
                                    base_seed=17, bundle=bundle200, chunk_size=16)
    assert set(per) == {"optimal", "benchmark1", "benchmark2", "benchmark3"}
    assert per["optimal"]["wealth_broker"].shape == (40,)
    for i, stats in report.benchmarks.items():
        assert 0.0 <= stats.p_value <= 1.0
        assert stats.n_effective <= 40


def test_run_experiment_threads_match_serial(params, grid200, bundle200):
    r1, p1 = bg.run_experiment(params, grid200, bg.StrategyConfig(), 30,
                               base_seed=3, bundle=bundle200, chunk_size=7, threads=1)
    r2, p2 = bg.run_experiment(params, grid200, bg.StrategyConfig(), 30,
                               base_seed=3, bundle=bundle200, chunk_size=7, threads=2)
    assert np.array_equal(p1["optimal"]["wealth_broker"], p2["optimal"]["wealth_broker"])
    assert r1.benchmarks[2].mean == r2.benchmarks[2].mean


@pytest.mark.parametrize("cfg", [dict(signal_source="price"), dict(signal_source="flow"),
                                 dict(signal_source="flow", mispecify_qi=True)])
def test_experiment_arms_match_single_arm_runs(params, grid200, bundle200, cfg):
    # each arm of the chunked experiment equals a run of that arm on all paths at once
    config = bg.StrategyConfig(**cfg)
    _, per = bg.run_experiment(params, grid200, config, 30, base_seed=11,
                               bundle=bundle200, chunk_size=13)
    tables = _Tables(params, params, bundle200)
    q0, eps = _draw_noise(11, range(30), grid200.steps)
    for arm in BROKER_MODES:
        single, _ = _simulate_core(tables, bg.StrategyConfig(broker_mode=arm, **cfg),
                                   eps, q0, record=False)
        assert set(single) == set(per[arm])
        for key, value in single.items():
            assert np.array_equal(per[arm][key], value), (arm, key)


@pytest.mark.parametrize("mode", BROKER_MODES)
def test_notional_is_trapezoid_of_traded_value(bundle, params, grid1000, mode):
    res = bg.simulate_path(params, bundle.trader, bundle.broker, bundle.flow,
                           bg.StrategyConfig(broker_mode=mode), seed=44)
    traded = res.price * (np.abs(res.rate_broker) + np.abs(res.rate_trader)
                          + np.abs(res.flow))
    ref = grid1000.dt * (traded.sum() - 0.5 * (traded[0] + traded[-1]))
    assert res.notional == pytest.approx(ref, rel=1e-12, abs=0.0)
