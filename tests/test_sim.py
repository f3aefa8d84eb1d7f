import re
import threading
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

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


def test_estimators_follow_their_filter_recursions(params, grid200, bundle200):
    # each estimator on a recorded path, rebuilt node by node from the other
    # recorded series and the arrays the step loop reads; no mean starts at 0
    tr, br, fl = bundle200.trader, bundle200.broker, bundle200.flow
    tb = _Tables(params, params, bundle200)
    p, n, dt = params, grid200.steps, grid200.dt
    ss, sa = p.sigma_price, p.sigma_signal
    assert np.array_equal(tb.gain_nu, p.perm_impact * tr.var_nu.values / ss ** 2)
    assert np.array_equal(tb.gain_price, (br.var_alpha.values + p.rho * ss * sa) / ss ** 2)
    assert np.array_equal(tb.gain_flow, fl.drift_signal.values * fl.var_alt.values
                          + sa * fl.noise_mix.values)
    close = lambda got, ref: np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
    init = {"nu_hat": 3.0, "alpha_hat_price": -0.8, "alpha_hat_flow": 0.6}
    last = np.minimum(np.arange(n + 1), n - 1)
    for source in ("price", "flow", "naive"):
        r = bg.simulate_path(p, tr, br, fl, bg.StrategyConfig(signal_source=source),
                             seed=61, init=init)
        nu, dprice = r.rate_broker[:-1], np.diff(r.price)

        nu_hat = r.nu_hat[:-1]
        dy = dprice - r.signal[:-1] * dt
        close(r.nu_hat[1:], nu_hat - tb.theta_trader * nu_hat * dt
              + tb.gain_nu[:-1] * (dy - p.perm_impact * nu_hat * dt))

        a = r.alpha_hat_price[:-1]
        dz = dprice - p.perm_impact * nu * dt
        close(r.alpha_hat_price[1:], a - tb.kappa_model * a * dt
              + tb.gain_price[:-1] * (dz - a * dt))

        gamma = r.rate_trader - tb.f3_belief * r.q_trader_belief
        ztil = gamma * tb.inv_scale
        a = r.alpha_hat_flow[:-1]
        dzf = np.diff(ztil) - (tb.g6[:-1] * ztil[:-1] + tb.g9[:-1] * nu) * dt
        close(r.alpha_hat_flow[1:], a - tb.kappa_model * a * dt
              + tb.gain_flow[:-1] * (dzf - tb.g7[:-1] * a * dt))

        # the naive readout divides by the last interior loading at the horizon
        close(r.alpha_hat_naive, gamma / tb.f1_belief[last])


def test_dynamics_follow_the_model_equations(params, grid200):
    # price, signal, noise flow, both inventories, the belief inventory, both
    # cash accounts and the client's rate on a recorded path, rebuilt node by
    # node from the model's Euler-Maruyama equations, the recorded controls
    # and the path's own increments; every state starts away from 0, and the
    # signal loads on both price and signal noise
    p, n, dt = params.replace(rho=0.4), grid200.steps, grid200.dt
    b = bg.build_coefficients(p, grid200)
    tr, br, fl = b.trader, b.broker, b.flow
    sq = np.sqrt(dt)
    init = {"price": 101.0, "signal": 0.3, "flow": -2.0, "q_broker": 1.5,
            "q_trader": -0.5, "q_trader_belief": 0.7, "cash_broker": 4.0,
            "cash_trader": -3.0}
    q0, eps = _draw_noise(73, [0], n)
    e_s, e_a, e_u = eps[:, 0, 0], eps[:, 0, 1], eps[:, 0, 2]

    def close(name, got, ref):
        scale = np.abs(got).max()
        assert np.abs(got - ref).max() <= 1e-12 * scale, name

    for mode in BROKER_MODES:
        cfg = bg.StrategyConfig(broker_mode=mode, signal_source="flow", mispecify_qi=True)
        r = bg.simulate_path(p, tr, br, fl, cfg, seed=73, init=init)
        for name, value in init.items():
            if name != "q_trader":
                assert getattr(r, name)[0] == value, (mode, name)
        assert r.q_trader[0] == init["q_trader"] + q0[0]

        s, nu, eta, xi = r.price[:-1], r.rate_broker[:-1], r.rate_trader[:-1], r.flow[:-1]
        a = r.signal[:-1]
        close("price", r.price[1:], s + (p.perm_impact * nu + a) * dt + p.sigma_price * sq * e_s)
        close("signal", r.signal[1:], a - p.kappa_signal * a * dt + p.sigma_signal * sq
              * (p.rho * e_s + np.sqrt(1.0 - p.rho ** 2) * e_a))
        close("flow", r.flow[1:], xi - p.kappa_flow * xi * dt + p.sigma_flow * sq * e_u)
        close("q_broker", r.q_broker[1:], r.q_broker[:-1] + (nu - eta - xi) * dt)
        close("q_trader", r.q_trader[1:], r.q_trader[:-1] + eta * dt)
        close("q_trader_belief", r.q_trader_belief[1:], r.q_trader_belief[:-1] + eta * dt)
        pay_trader = eta * (s + p.fee_informed * eta)
        close("cash_broker", r.cash_broker[1:], r.cash_broker[:-1] + (
            pay_trader - nu * (s + p.temp_impact * nu) + xi * (s + p.fee_uninformed * xi)) * dt)
        close("cash_trader", r.cash_trader[1:], r.cash_trader[:-1] - pay_trader * dt)
        close("rate_trader", r.rate_trader, tr.f1.values * r.signal
              + tr.f2.values * r.nu_hat + tr.f3.values * r.q_trader)


def test_unknown_init_names_are_rejected(params, bundle200):
    # names that are no state, rates and the naive readout included, raise
    # instead of running from the defaults
    for init, bad in (({"q_brokr": 1.0}, "q_brokr"), ({"rate_broker": 2.0}, "rate_broker"),
                      ({"price": 100.0, "alpha_hat_naive": 0.1}, "alpha_hat_naive")):
        with pytest.raises(bg.ValidationError, match=bad):
            bg.simulate_path(params, bundle200.trader, bundle200.broker, bundle200.flow,
                             bg.StrategyConfig(), seed=1, init=init)


def test_non_numeric_init_values_are_rejected(params, bundle200):
    # a value that is no number raises ValidationError naming key and value,
    # not the bare ValueError/TypeError of float()
    for value in ("abc", [1.0, 2.0]):
        message = f"init['price'] must be a number, got {value!r}"
        with pytest.raises(bg.ValidationError, match=re.escape(message)):
            bg.simulate_path(params, bundle200.trader, bundle200.broker, bundle200.flow,
                             bg.StrategyConfig(), seed=1, init={"price": value})


def test_inventory_and_cash_identities(bundle, params):
    res = bg.simulate_path(params, bundle.trader, bundle.broker, bundle.flow,
                           bg.StrategyConfig(), seed=77)
    assert res.max_inventory_gap < 1e-10
    assert res.max_cash_gap < 1e-8
    # a book that starts away from 0 is not a conservation gap
    init = {"q_broker": 5.0, "q_trader": -2.0, "cash_broker": 3.0, "cash_trader": -1.0}
    for mode in BROKER_MODES:
        res = bg.simulate_path(params, bundle.trader, bundle.broker, bundle.flow,
                               bg.StrategyConfig(broker_mode=mode), seed=77, init=init)
        assert res.max_inventory_gap < 1e-10, mode
        assert res.max_cash_gap < 1e-8, mode


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


@pytest.fixture(scope="module")
def bundles50():
    """Coefficient tables on a 50-step grid, without and with correlated noise."""
    grid = bg.TimeGrid(1.0, 50)
    return {rho: bg.build_coefficients(bg.DEFAULT_PARAMS.replace(rho=rho), grid)
            for rho in (0.0, 0.3)}


@pytest.mark.parametrize("mode", BROKER_MODES)
@pytest.mark.parametrize("source", ["price", "flow", "naive"])
def test_components_are_rule_times_recorded_state(bundles50, mode, source):
    # each term is the rule's column times the state it reads, node by node,
    # bit for bit; the mispecified flow and naive runs of the optimal arm end
    # on the unwind tail, and rho != 0 moves every series
    for rho, mispecify in ((0.0, False), (0.0, True), (0.3, True)):
        params, bundle = bg.DEFAULT_PARAMS.replace(rho=rho), bundles50[rho]
        config = bg.StrategyConfig(broker_mode=mode, signal_source=source,
                                   mispecify_qi=mispecify)
        res = bg.simulate_path(params, bundle.trader, bundle.broker, bundle.flow,
                               config, seed=31)
        rule = _broker_rule(_Tables(params, params, bundle), config)
        states = (res.q_broker, getattr(res, f"alpha_hat_{source}"), res.flow,
                  res.q_trader_belief)
        expect = np.empty((bundle.trader.grid.steps + 1, 4))
        for k in range(expect.shape[0]):
            for j, y in enumerate(states):
                expect[k, j] = rule[k, j] * y[k]
        assert res.components.tobytes() == expect.tobytes(), (rho, mispecify)


@pytest.mark.parametrize("n_paths", [0, -3])
def test_simulate_recorded_rejects_empty_batches(params, bundle200, n_paths):
    with pytest.raises(bg.ValidationError, match=re.escape(f"n_paths ({n_paths}) must be >= 1")):
        bg.simulate_recorded(params, bundle200, bg.StrategyConfig(), n_paths, 5)


@pytest.mark.parametrize("n_paths, chunk_size", [(2.5, 16), (3, 2.5), (True, 16), (3, True)])
def test_runs_reject_non_integral_counts(params, grid200, bundle200, n_paths, chunk_size):
    # a float count is a ValidationError, not range()'s bare TypeError
    with pytest.raises(bg.ValidationError, match="must be integers"):
        bg.run_experiment(params, grid200, bg.StrategyConfig(), n_paths, base_seed=5,
                          bundle=bundle200, chunk_size=chunk_size)
    with pytest.raises(bg.ValidationError, match="must be integers"):
        bg.stress_runner(params, {"kappa_signal": [0.5]}, grid200, bg.StrategyConfig(),
                         n_paths, base_seed=5, chunk_size=chunk_size)


def test_simulate_recorded_rejects_non_integral_counts(params, bundle200):
    with pytest.raises(bg.ValidationError, match=re.escape("n_paths (2.5) must be an integer")):
        bg.simulate_recorded(params, bundle200, bg.StrategyConfig(), 2.5, 5)
    with pytest.raises(bg.ValidationError, match=re.escape("n_paths (True) must be an integer")):
        bg.simulate_recorded(params, bundle200, bg.StrategyConfig(), True, 5)
    metrics, _ = bg.simulate_recorded(params, bundle200, bg.StrategyConfig(), np.int64(2), 5)
    assert metrics["wealth_broker"].shape == (2,)


def test_recorded_batch_stores_only_the_record_series(params, bundles50):
    # the peak allocation of a recorded batch is its record plus a few
    # (paths,) temporaries: the noise is drawn into the record, so a separate
    # (steps, 3, paths) noise buffer (480,000 bytes) breaks the bound, as does
    # a (steps+1, 4, paths) block more, such as the rate's components
    bundle, steps, m = bundles50[0.0], 50, 400
    record_bytes = len(bg.sim.RECORD_SERIES) * (steps + 1) * m * 8
    slack = 320_000                        # under the noise buffer's 480,000 bytes
    assert slack < steps * 3 * m * 8
    assert slack < 4 * (steps + 1) * m * 8
    bg.simulate_recorded(params, bundle, bg.StrategyConfig(), 2, 5)   # lazy imports
    tracemalloc.start()
    try:
        _, rec = bg.simulate_recorded(params, bundle, bg.StrategyConfig(), m, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(rec) == set(bg.sim.RECORD_SERIES)
    assert peak < record_bytes + slack, peak


def test_experiment_chunk_holds_one_slab_of_noise(params, monkeypatch):
    # a chunk draws its noise one slab at a time into one reused buffer.  The
    # paths' generators, every arm's set-up, state and metrics and a step
    # call's temporaries do not depend on the slab's length, and the draw's
    # path block is gone by the step loop, so doubling the slab raises the
    # peak by one slab's bytes.  A second live slab doubles the rise; a
    # whole-horizon buffer takes it away and breaks the bound below
    m, slab = 1000, bg.sim.NOISE_SLAB
    grid = bg.TimeGrid(1.0, 8 * slab + 3)
    steps, bundle = grid.steps, bg.build_coefficients(params, grid)
    slab_bytes = slab * 3 * m * 8
    slack = slab_bytes // 4
    config = bg.StrategyConfig(signal_source="flow")
    bg.run_experiment(params, grid, config, 2, base_seed=5, bundle=bundle)   # lazy imports
    peaks = {}
    for length in (slab, 2 * slab):
        monkeypatch.setattr(bg.sim, "NOISE_SLAB", length)
        tracemalloc.start()
        try:
            bg.run_experiment(params, grid, config, m, base_seed=5, bundle=bundle)
            peaks[length] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    rise = peaks[2 * slab] - peaks[slab]
    assert abs(rise - slab_bytes) < slack, peaks
    assert peaks[slab] < steps * 3 * m * 8, peaks


def test_arm_setup_runs_once_per_chunk(params, monkeypatch):
    # a chunk builds each arm's set-up (its rule's table among it) on the
    # first slab and keeps it in the arm's carry: two chunks of four arms
    # over three slabs build it 8 times, not 24
    grid = bg.TimeGrid(1.0, 2 * bg.sim.NOISE_SLAB + 3)
    bundle = bg.build_coefficients(params, grid)
    calls = []
    rule = bg.sim._broker_rule
    monkeypatch.setattr(bg.sim, "_broker_rule", lambda *args: calls.append(args) or rule(*args))
    bg.run_experiment(params, grid, bg.StrategyConfig(signal_source="flow"), 6, base_seed=3,
                      bundle=bundle, chunk_size=4)
    assert len(calls) == 2 * len(BROKER_MODES)
    # a continued batch still takes only the increments of the steps it has left
    tables, config = _Tables(params, params, bundle), bg.StrategyConfig()
    q0, eps = _draw_noise(3, range(4), grid.steps)
    carry = {}
    slab = bg.sim.NOISE_SLAB
    _simulate_core(tables, config, eps[:slab], q0, record=False, carry=carry)
    with pytest.raises(ValueError, match=re.escape(f"steps {slab}..{slab + grid.steps} of")):
        _simulate_core(tables, config, eps, q0, record=False, carry=carry)


def test_one_slab_chunk_keeps_no_generators(params, monkeypatch):
    # nothing continues a grid of one slab, such as the stress sweep's, so
    # its chunk keeps neither the paths' generators nor the arms' carries;
    # a grid one step longer keeps both
    slab = bg.sim.NOISE_SLAB
    draws, cores = [], []
    draw, core = bg.sim._draw_noise, bg.sim._simulate_core
    monkeypatch.setattr(bg.sim, "_draw_noise",
                        lambda *args, **kw: draws.append(kw["streams"]) or draw(*args, **kw))
    monkeypatch.setattr(bg.sim, "_simulate_core",
                        lambda *args, **kw: cores.append(kw["carry"]) or core(*args, **kw))
    grid = bg.TimeGrid(1.0, slab)
    bg.run_experiment(params, grid, bg.StrategyConfig(), 5, base_seed=3, chunk_size=3)
    bg.analytics.stress_runner(params, {"kappa_signal": [0.5]}, grid, bg.StrategyConfig(), 5,
                               base_seed=3)
    assert draws == [None] * (2 + 1)
    assert cores == [None] * (2 * len(BROKER_MODES) + len(BROKER_MODES) + 1)
    draws.clear()
    cores.clear()
    bg.run_experiment(params, bg.TimeGrid(1.0, slab + 1), bg.StrategyConfig(), 5, base_seed=3,
                      chunk_size=3)
    assert [len(streams) for streams in draws] == [3, 3, 2, 2]
    assert all(carry["step"] == slab + 1 for carry in cores)


@pytest.mark.parametrize("mode", BROKER_MODES)
@pytest.mark.parametrize("source", ["price", "flow", "naive"])
def test_noise_in_the_record_leaves_every_output_unchanged(mode, source):
    # a recorded batch draws its noise into nodes 1..steps of its own record;
    # every series and metric equals a recorded run on a separately drawn
    # buffer, also with rho != 0 (the step reads the price increment twice),
    # a mispecified client inventory (q0 enters) and a path started from init
    steps, m, seed = 30, 7, 11
    grid = bg.TimeGrid(1.0, steps)
    for rho, mispecify in ((0.0, False), (0.4, False), (0.4, True)):
        params = bg.DEFAULT_PARAMS.replace(rho=rho)
        bundle = bg.build_coefficients(params, grid)
        tables = _Tables(params, params, bundle)
        config = bg.StrategyConfig(broker_mode=mode, signal_source=source,
                                   mispecify_qi=mispecify, seed=seed)
        q0, eps = _draw_noise(seed, range(m), steps)
        metrics, rec = bg.simulate_recorded(params, bundle, config, m, seed)
        expect_metrics, expect = _simulate_core(tables, config, eps, q0, record=True)
        for key, value in expect_metrics.items():
            assert np.array_equal(metrics[key], value), (rho, mispecify, key)
        for name in bg.sim.RECORD_SERIES:
            assert np.array_equal(rec[name], expect[name]), (rho, mispecify, name)

        init = {"q_broker": 0.5, "price": 90.0, "alpha_hat_flow": 0.2}
        res = bg.simulate_path(params, bundle.trader, bundle.broker, bundle.flow, config,
                               seed=seed ^ 3, init=init)
        q0, eps = _draw_noise(seed ^ 3, [0], steps)
        expect_metrics, expect = _simulate_core(tables, config, eps, q0, record=True,
                                                init=init)
        for key, value in expect_metrics.items():
            assert np.array_equal(getattr(res, key), value[0]), (rho, mispecify, key)
        for name in bg.sim.RECORD_SERIES:
            assert np.array_equal(getattr(res, name), expect[name][:, 0]), (rho, mispecify, name)


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


def test_block_noise_fill_keeps_each_path_stream():
    # a chunk neither aligned to the draw's path blocks nor starting at 0:
    # every path reads exactly its own stream, q0 first, then its increments
    steps, first, m = 40, 2531, 70
    q0, eps = _draw_noise(1729, range(first, first + m), steps)
    assert eps.shape == (steps, m, 3)
    for j in range(m):
        rng = np.random.default_rng(1729 ^ (first + j))
        assert q0[j] == rng.standard_normal()
        assert np.array_equal(eps[:, j, :], rng.standard_normal((steps, 3)))
    # a recorded batch fills nodes 1..steps of three series of its record, a
    # strided view, with the same streams and touches nothing else
    record = np.full((5, steps + 1, m), np.nan)
    q0_view, eps_view = _draw_noise(1729, range(first, first + m), steps,
                                    out=record[-3:, 1:].transpose(1, 0, 2))
    assert np.shares_memory(eps_view, record)
    assert np.array_equal(q0_view, q0) and np.array_equal(eps_view, eps)
    assert np.array_equal(record[-3:, 1:].transpose(1, 2, 0), eps)
    assert np.isnan(record[:2]).all() and np.isnan(record[:, 0]).all()
    # drawn slab by slab, the last one short, into one reused buffer: q0 on
    # the first slab only, then each path's increments continue its stream
    streams, buffer, slabs = [], np.empty((16, 3, m)), []
    for slab in (16, 16, 8):
        q0_slab, eps_slab = _draw_noise(1729, range(first, first + m), slab,
                                        out=buffer[:slab], streams=streams)
        assert (q0_slab is None) == bool(slabs)
        if not slabs:
            assert np.array_equal(q0_slab, q0)
        slabs.append(eps_slab.copy())
    assert len(streams) == m
    assert np.array_equal(np.concatenate(slabs), eps)


@pytest.mark.parametrize("mode", BROKER_MODES)
def test_unrecorded_runs_flag_blowups_like_recorded_ones(params, bundle200, mode):
    # the probe of a run without a record skips the filters it does not
    # advance; the flags and blow steps must not move.  A huge client book
    # blows every arm through the trader's fee; a huge broker book blows the
    # arms that trade on it; an estimate that starts infinite blows an arm
    # whether or not its filter runs
    tables = _Tables(params, params, bundle200)
    q0, eps = _draw_noise(2, [0], bundle200.trader.grid.steps)
    cfg = bg.StrategyConfig(broker_mode=mode, signal_source="flow")
    for init, blows in (({"q_broker": 1e160}, mode != "benchmark3"),
                        ({"q_trader": 1e160}, True),
                        ({"alpha_hat_flow": np.inf}, True),
                        ({"alpha_hat_price": -np.inf}, True)):
        quiet, _ = _simulate_core(tables, cfg, eps, q0, record=False, init=init)
        recorded, _ = _simulate_core(tables, cfg, eps, q0, record=True, init=init)
        assert quiet["blown"][0] == recorded["blown"][0] == blows, init
        assert quiet["blow_step"][0] == recorded["blow_step"][0], init
        if blows:
            assert quiet["blow_step"][0] >= 1, init


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


@pytest.mark.parametrize("n_paths, chunk_size", [(0, 16), (3, 0), (3, -2)])
def test_run_experiment_rejects_empty_runs_and_chunks(params, grid200, bundle200,
                                                      n_paths, chunk_size):
    # a chunk size below 1 is an error, not a run of one-path chunks
    with pytest.raises(bg.ValidationError, match=">= 1"):
        bg.run_experiment(params, grid200, bg.StrategyConfig(), n_paths, base_seed=5,
                          bundle=bundle200, chunk_size=chunk_size)


def _assert_same_arms(got, expect, label):
    for arm in BROKER_MODES:
        assert got[arm].keys() == expect[arm].keys(), (label, arm)
        for key, values in expect[arm].items():
            assert np.array_equal(got[arm][key], values), (label, arm, key)


def test_run_experiment_independent_of_chunking(params, grid200, bundle200, monkeypatch):
    # every metric of every arm is bit-identical whatever the chunk layout
    runs = [bg.run_experiment(params, grid200, bg.StrategyConfig(signal_source="flow"), 30,
                              base_seed=3, bundle=bundle200, chunk_size=chunk)[1]
            for chunk in (1, 7, 30)]
    for per in runs[1:]:
        _assert_same_arms(per, runs[0], "grid200")
    for arm in BROKER_MODES:
        assert set(runs[0][arm]) == {"wealth_broker", "wealth_trader", "notional", "blown",
                                     "blow_step", "max_inventory_gap", "max_cash_gap"}, arm
    # and whatever the slab layout: a chunk advances NOISE_SLAB steps at a
    # time, and a grid one step short of a slab, one slab, one step over and
    # two slabs and three steps equals whole-horizon loops on one noise draw,
    # in every signal source, with the client's inventory mispecified or
    # not.  Once at the package's slab; the full set on a four-step slab
    # (dt as on a 250-step unit grid), whose step loops are short
    small = 4
    cases = [(bg.sim.NOISE_SLAB, 2 * bg.sim.NOISE_SLAB + 3,
              bg.StrategyConfig(signal_source="flow", mispecify_qi=True))]
    cases += [(small, steps, bg.StrategyConfig(signal_source=source, mispecify_qi=mispecify))
              for steps in (small - 1, small, small + 1, 2 * small + 3)
              for source in bg.sim.SIGNAL_SOURCES for mispecify in (False, True)]
    bundles = {}
    for slab, steps, config in cases:
        monkeypatch.setattr(bg.sim, "NOISE_SLAB", slab)
        if steps not in bundles:
            bundles[steps] = bg.build_coefficients(params, bg.TimeGrid(steps / 250, steps))
        bundle = bundles[steps]
        q0, eps = _draw_noise(3, range(9), steps)
        expect = {arm: _simulate_core(_Tables(params, params, bundle),
                                      replace(config, broker_mode=arm), eps, q0,
                                      record=False)[0]
                  for arm in BROKER_MODES}
        for chunk in (1, 7):
            _, per = bg.run_experiment(params, bundle.trader.grid, config, 9, base_seed=3,
                                       bundle=bundle, chunk_size=chunk)
            _assert_same_arms(per, expect, (slab, steps, config, chunk))


@pytest.mark.parametrize("field, value", [("unwind_tail", 2.5), ("seed", 1.5),
                                          ("unwind_tail", 3.0), ("seed", "7"),
                                          ("unwind_tail", True), ("seed", True)])
def test_non_integral_config_values_are_rejected(field, value):
    # a typed error, not a TypeError from the tail slice or the seed's xor
    with pytest.raises(bg.ValidationError, match=re.escape(f"{field} ({value!r})")):
        bg.StrategyConfig(**{field: value})


@pytest.mark.parametrize("steps", [8, 13, 20])
def test_filter_diagnostics_of_a_hand_built_record(steps):
    # belief loadings f1 = 2, f3 = 4 on interior nodes and 0 at the horizon;
    # path j's true inventory is 1 + j and its flow estimate sits (-1)^k k (1 + j)
    # off the naive readout x_k = k / 4, so the gap at node k is k (1 + j)
    grid = bg.TimeGrid(1.0, steps)
    interior = np.arange(steps + 1) < steps
    trader = SimpleNamespace(f1=bg.DeterministicTable("f1", grid, 2.0 * interior),
                             f3=bg.DeterministicTable("f3", grid, 4.0 * interior))
    k = np.arange(steps + 1.0)[:, None]
    scale = np.array([1.0, 2.0])
    q = np.tile(scale, (steps + 1, 1))
    a_flow = 0.25 * k + (-1.0) ** k * k * scale
    signal = a_flow - 2.0
    rec = {"signal": signal, "alpha_hat_price": signal + 3.0, "alpha_hat_flow": a_flow,
           "rate_trader": 2.0 * (0.25 * k) + 4.0 * q, "q_trader": q}
    with np.errstate(all="raise"):         # the horizon's zero f1 is never divided by
        diag = bg.filter_diagnostics(trader, rec)
    assert set(diag) == {"mse_price", "mse_flow", "max_alt_naive_diff",
                         "alt_naive_checkpoints"}
    assert np.array_equal(diag["mse_price"], [9.0, 9.0])
    assert np.array_equal(diag["mse_flow"], [4.0, 4.0])
    # the window is k <= steps - 10, empty on a grid under 10 steps
    assert np.array_equal(diag["max_alt_naive_diff"], max(steps - 10, 0) * scale)
    nodes = [steps // 4, steps // 2, (3 * steps) // 4, max(steps - 10, 0)]
    assert np.array_equal(diag["alt_naive_checkpoints"], np.outer(nodes, scale))


def test_filter_diagnostics_match_a_node_by_node_loop(params, bundle200):
    # the node-by-node loop the step kernel once ran is the reference, bit for
    # bit, on a batch of paths and on one path taken alone
    tr, n, m = bundle200.trader, bundle200.trader.grid.steps, 5
    config = bg.StrategyConfig(signal_source="flow", mispecify_qi=True)
    _, rec = bg.simulate_recorded(params, bundle200, config, m, 8)
    ref = {"mse_price": np.zeros(m), "mse_flow": np.zeros(m),
           "max_alt_naive_diff": np.zeros(m), "alt_naive_checkpoints": np.zeros((4, m))}
    check_idx = [n // 4, n // 2, (3 * n) // 4, n - 10]
    for k in range(n + 1):
        j = min(k, n - 1)
        ref["mse_price"] += np.square(rec["alpha_hat_price"][k] - rec["signal"][k])
        ref["mse_flow"] += np.square(rec["alpha_hat_flow"][k] - rec["signal"][k])
        naive = rec["rate_trader"][k] - rec["q_trader"][k] * tr.f3.values[j]
        naive *= 1.0 / tr.f1.values[j]
        diff = np.abs(rec["alpha_hat_flow"][k] - naive)
        if k <= n - 10:
            ref["max_alt_naive_diff"] = np.fmax(ref["max_alt_naive_diff"], diff)
        for i, node in enumerate(check_idx):
            if node == k:
                ref["alt_naive_checkpoints"][i] = diff
    ref["mse_price"] /= n + 1
    ref["mse_flow"] /= n + 1
    for rows in (slice(None), slice(2, 3)):
        diag = bg.filter_diagnostics(tr, {key: rec[key][:, rows] for key in bg.sim.RECORD_SERIES})
        for key, value in ref.items():
            assert np.array_equal(diag[key], value[..., rows]), (rows, key)


def test_negative_seed_rejected(params, grid200, bundle200):
    with pytest.raises(bg.ValidationError, match="-1"):
        bg.run_experiment(params, grid200, bg.StrategyConfig(), 3, base_seed=-1,
                          bundle=bundle200)
    with pytest.raises(bg.ValidationError, match="-4"):
        bg.simulate_path(params, bundle200.trader, bundle200.broker, bundle200.flow,
                         bg.StrategyConfig(seed=-4))


@pytest.fixture(scope="module")
def bundle20(params):
    return bg.build_coefficients(params, bg.TimeGrid(1.0, 20))


def _seeded_runs(params, bundle):
    """Each run entry point as a function of its seed override."""
    config, grid = bg.StrategyConfig(), bundle.trader.grid
    return {
        "simulate_path": lambda seed: bg.simulate_path(
            params, bundle.trader, bundle.broker, bundle.flow, config, seed=seed),
        "simulate_recorded": lambda seed: bg.simulate_recorded(params, bundle, config, 3, seed),
        "run_experiment": lambda seed: bg.run_experiment(
            params, grid, config, 3, base_seed=seed, bundle=bundle),
        "stress_runner": lambda seed: bg.stress_runner(
            params, {"kappa_signal": [0.5]}, grid, config, 3, base_seed=seed),
    }


@pytest.mark.parametrize("seed", [7.9, True, "12", -1])
@pytest.mark.parametrize("entry", ["simulate_path", "simulate_recorded", "run_experiment",
                                   "stress_runner"])
def test_every_entry_point_checks_its_seed(params, bundle20, entry, seed):
    with pytest.raises(bg.ValidationError, match="seed"):
        _seeded_runs(params, bundle20)[entry](seed)


def test_numpy_integer_seeds_run_like_ints(params, bundle20):
    runs = _seeded_runs(params, bundle20)
    a, b = runs["simulate_path"](7), runs["simulate_path"](np.int64(7))
    assert type(b.seed) is int and b.seed == 7
    assert a.q_broker.tobytes() == b.q_broker.tobytes()
    a, b = runs["simulate_recorded"](7), runs["simulate_recorded"](np.int64(7))
    assert a[0]["wealth_broker"].tobytes() == b[0]["wealth_broker"].tobytes()
    a, b = runs["run_experiment"](7)[0], runs["run_experiment"](np.int64(7))[0]
    assert bg.report_to_json(a) == bg.report_to_json(b)
    a, b = runs["stress_runner"](7), runs["stress_runner"](np.int64(7))
    assert bg.stress_to_json(a) == bg.stress_to_json(b)


def test_counts_are_checked_before_any_build(params, monkeypatch):
    builds = []
    for name in ("build_coefficients", "build_bundles"):
        monkeypatch.setattr(bg.sim, name, lambda *args: builds.append(args))
    sweep = {name: [0.5, 1.5] for name in bg.LEARNING_PARAMS}
    with pytest.raises(bg.ValidationError, match=re.escape("n_paths (0)")):
        bg.stress_runner(params, sweep, bg.TimeGrid(1.0, 1000), bg.StrategyConfig(), 0)
    with pytest.raises(bg.ValidationError, match=re.escape("chunk_size (0)")):
        bg.run_experiment(params, bg.TimeGrid(1.0, 1000), bg.StrategyConfig(), 10,
                          chunk_size=0)
    assert builds == []


def test_price_experiment_builds_no_flow_tables(params, grid200, bundle200, monkeypatch):
    # the price arms never read the flow filter; a run that builds its own
    # tables skips them and reports what a run on tables with them reports
    calls = []
    real = bg.sim.flow_filter_coefficients
    monkeypatch.setattr(bg.sim, "flow_filter_coefficients",
                        lambda *args: calls.append(1) or real(*args))
    config = bg.StrategyConfig(signal_source="price")
    own, _ = bg.run_experiment(params, grid200, config, 20, base_seed=9)
    assert calls == []
    assert bundle200.flow is not None
    shared, _ = bg.run_experiment(params, grid200, config, 20, base_seed=9, bundle=bundle200)
    assert bg.report_to_json(own) == bg.report_to_json(shared)


def test_monte_carlo_starts_no_thread(params, grid200, bundle200, monkeypatch):
    # the benchmark harness still passes threads=2; the chunks must run on
    # the calling thread all the same
    def refuse(self):
        raise AssertionError("the Monte Carlo driver started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    report, _ = bg.run_experiment(params, grid200, bg.StrategyConfig(), 10, base_seed=2,
                                  bundle=bundle200, chunk_size=4, threads=2)
    assert report.n_paths == 10
    sweep = {"kappa_signal": [1.5]}
    sr = bg.stress_runner(params, sweep, bg.TimeGrid(1.0, 50), bg.StrategyConfig(), 6,
                          base_seed=2, chunk_size=3, threads=2)
    assert len(sr.cells) == 1


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


@pytest.mark.parametrize("source", ["price", "naive"])
def test_unread_flow_filter_does_not_run(params, grid200, bundle200, source):
    # a price or naive arm neither reads nor records the flow estimate, so
    # broken flow tables must not reach its blow-up probe or its metrics
    broken = replace(bundle200.flow, inv_scale=bg.DeterministicTable(
        "inv_scale", grid200, np.full(grid200.steps + 1, np.nan)))
    q0, eps = _draw_noise(3, range(8), grid200.steps)
    config = bg.StrategyConfig(signal_source=source)
    runs = [_simulate_core(_Tables(params, params, replace(bundle200, flow=flow)), config,
                           eps, q0, record=False)[0]
            for flow in (broken, None)]
    assert not runs[0]["blown"].any()
    for key, value in runs[1].items():
        assert np.array_equal(runs[0][key], value), key


@pytest.mark.parametrize("source", ["flow", "naive"])
def test_unread_price_filter_does_not_run(params, grid200, bundle200, source):
    # a flow or naive arm neither reads nor records the price estimate, so a
    # broken price-filter variance must not reach its blow-up probe or its
    # metrics
    broken = replace(bundle200.broker, var_alpha=bg.DeterministicTable(
        "var_alpha", grid200, np.full(grid200.steps + 1, np.nan)))
    q0, eps = _draw_noise(3, range(8), grid200.steps)
    config = bg.StrategyConfig(signal_source=source)
    runs = [_simulate_core(_Tables(params, params, replace(bundle200, broker=broker)), config,
                           eps, q0, record=False)[0]
            for broker in (broken, bundle200.broker)]
    assert not runs[0]["blown"].any()
    for key, value in runs[1].items():
        assert np.array_equal(runs[0][key], value), key


def _books(p, metrics, q0, config):
    """Each side's wealth less its starting book marked at the first price."""
    q_trader0 = q0 if config.mispecify_qi else 0.0
    return metrics["wealth_broker"], metrics["wealth_trader"] - q_trader0 * p.price_init


def _arm_configs():
    return [bg.StrategyConfig(broker_mode=mode, signal_source=source, mispecify_qi=mis)
            for mode in BROKER_MODES for source in ("price", "flow", "naive")
            for mis in (False, True)]


def _assert_same_books(got, ref, config):
    for side, x, y in zip(("broker", "trader"), got, ref):
        assert np.abs(x - y).max() <= 1e-11 * np.abs(y).max(), (config, side)


@pytest.mark.parametrize("rho", [0.0, 0.4])
def test_negated_noise_leaves_books_unchanged(rho):
    # every state starts at zero or at q0 and moves linearly in the noise,
    # so (eps, q0) -> (-eps, -q0) flips every flow and leaves each side's
    # wealth net of its starting book, a quadratic form, where it was
    p = bg.DEFAULT_PARAMS.replace(rho=rho)
    grid = bg.TimeGrid(1.0, 200)
    tables = _Tables(p, p, bg.build_coefficients(p, grid))
    q0, eps = _draw_noise(11, range(300), grid.steps)
    for config in _arm_configs():
        plus, _ = _simulate_core(tables, config, eps, q0, record=False)
        minus, _ = _simulate_core(tables, config, -eps, -q0, record=False)
        _assert_same_books(_books(p, minus, -q0, config), _books(p, plus, q0, config), config)


@pytest.mark.parametrize("rho", [0.0, 0.4])
def test_price_level_leaves_books_unchanged(rho):
    # every trade settles at the same price on both sides of it, so the
    # price level drops out of each side's wealth net of its starting book
    grid = bg.TimeGrid(1.0, 1000)
    p = bg.DEFAULT_PARAMS.replace(rho=rho)
    low = p.replace(price_init=37.0)
    bundle = bg.build_coefficients(p, grid)
    q0, eps = _draw_noise(12, range(500), grid.steps)
    for config in _arm_configs():
        ref, _ = _simulate_core(_Tables(p, p, bundle), config, eps, q0, record=False)
        got, _ = _simulate_core(_Tables(low, low, bundle), config, eps, q0, record=False)
        _assert_same_books(_books(low, got, q0, config), _books(p, ref, q0, config), config)
