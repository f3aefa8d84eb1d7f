import numpy as np
import pytest

import brokergame as bg
from brokergame.filters import FilterState
from brokergame.odes import StageLattice, riccati_constant_solution


def test_trader_filter_fixed_point(params):
    s = FilterState(0.0, 12.0, "trader_nu")
    out = bg.update_trader_filter(s, dy=0.0, dt=1e-3, var_nu_t=12.0, params=params)
    assert out.mean == 0.0


def test_trader_filter_zero_impact_decays(grid1000):
    p = bg.DEFAULT_PARAMS.replace(perm_impact=0.0)
    dt = grid1000.dt
    s = FilterState(1.0, 0.0, "trader_nu")
    means = [s.mean]
    for _ in range(500):
        s = bg.update_trader_filter(s, dy=0.37, dt=dt, var_nu_t=5.0, params=p)
        means.append(s.mean)
    means = np.asarray(means)
    k = np.arange(501)
    assert np.abs(means - (1.0 - p.theta_speed * dt) ** k).max() < 1e-12
    # Euler decay sits on top of the continuous exponential
    assert abs(means[-1] - np.exp(-p.theta_speed * 0.5)) < 1e-2


def test_trader_filter_tracks_constant_speed(params):
    # noiseless observations: repeated updates move the estimate toward the
    # true speed monotonically, driven by the impact * variance gain
    dt = 1e-3
    true_nu = 5.0
    var = 180.0
    s = FilterState(0.0, var, "trader_nu")
    gain = bg.trader_filter_gain(var, params)
    assert gain == params.perm_impact * var / params.sigma_price ** 2
    prev = 0.0
    first = None
    for _ in range(2000):
        dy = params.perm_impact * true_nu * dt
        s = bg.update_trader_filter(s, dy=dy, dt=dt, var_nu_t=var, params=params)
        if first is None:
            first = s.mean
            assert first == pytest.approx(gain * params.perm_impact * true_nu * dt, rel=1e-12)
        assert 0.0 <= s.mean < true_nu
        assert s.mean >= prev
        prev = s.mean


def test_price_filter_trivial_and_degenerate(params, grid200):
    s = FilterState(0.0, 0.0, "broker_price")
    assert bg.update_broker_price_filter(s, dz=0.0, dt=1e-3, var_alpha_t=0.0,
                                         params=params).mean == 0.0
    p = bg.DEFAULT_PARAMS.replace(sigma_signal=0.0, rho=0.0)
    tab = bg.solve_price_filter_variance(p, grid200)
    assert np.all(tab.values == 0.0)
    s = FilterState(0.0, 0.0, "broker_price")
    for k in range(50):
        s = bg.update_broker_price_filter(s, dz=0.3, dt=1e-3, var_alpha_t=0.0, params=p)
    assert s.mean == 0.0


def test_price_filter_one_step_arithmetic(params):
    rng = np.random.default_rng(2)
    for _ in range(20):
        mean, dz, v = rng.standard_normal(3)
        dt = 1e-3
        s = bg.update_broker_price_filter(FilterState(mean, 0.0, "broker_price"),
                                          dz=dz, dt=dt, var_alpha_t=v, params=params)
        gain = (v + params.rho * params.sigma_price * params.sigma_signal) \
            / params.sigma_price ** 2
        ref = mean - params.kappa_signal * mean * dt + gain * (dz - mean * dt)
        assert abs(s.mean - ref) < 1e-15


def test_flow_coeffs_noise_normalisation(params, bundle, grid1000):
    # with uncorrelated noises the two loadings are a unit vector
    fl = bundle.flow
    n = grid1000.steps
    k2 = fl.noise_mix.values[:n] ** 2
    g45 = (fl.load_price.values[:n] / fl.scale.values[:n]) ** 2
    assert params.rho == 0.0
    assert np.all(fl.noise_mix.values[:n] >= 0.0)
    assert np.all(fl.noise_mix.values[:n] <= 1.0)
    assert np.abs(k2 + g45 - 1.0).max() < 1e-12


def test_flow_coeffs_drift_scale_two_ways(params, bundle, grid1000):
    # chain-rule recomputation of -scale'/scale from the loading derivatives
    fl, tr = bundle.flow, bundle.trader
    n = grid1000.steps
    p, b, ss, sa, sb = (params.perm_impact, params.fee_informed, params.sigma_price,
                        params.sigma_signal, params.sigma_speed)
    f1, f2, f3 = tr.f1.values, tr.f2.values, tr.f3.values
    vv = tr.var_nu.values
    g3, g4, g5 = fl.load_signal.values, fl.load_price.values, fl.scale.values
    g3p = sa * (-1.0 / (2 * b) + params.kappa_signal * f1 - 0.5 * f3 * f1)
    g4p = (p / ss) * (vv * (-p / (2 * b) + params.theta_speed * f2 - 0.5 * f3 * f2)
                      + f2 * (sb ** 2 - 2 * params.theta_speed * vv - p ** 2 * vv ** 2 / ss ** 2))
    g5p = ((g3 + params.rho * g4) * g3p + (params.rho * g3 + g4) * g4p)[:n] / g5[:n]
    ref = -g5p / g5[:n]
    assert np.abs(fl.drift_scale.values[:n] - ref).max() < 1e-8


def test_flow_coeffs_unit_response_consistent(params, bundle):
    # f2 scales linearly with the permanent impact through the unit response
    fl, tr = bundle.flow, bundle.trader
    ref = params.perm_impact * fl.unit_response.values / (2.0 * params.fee_informed)
    scale = np.abs(tr.f2.values).max()
    assert np.abs(tr.f2.values - ref).max() < 1e-9 * max(1.0, scale)


def test_flow_coeffs_horizon_limits(params, bundle, grid1000):
    fl = bundle.flow
    n = grid1000.steps
    v_t = bundle.trader.var_nu.at_index(n)
    denom = np.hypot(params.sigma_signal, params.perm_impact ** 2 * v_t / params.sigma_price)
    g7_lim = (0.5 * (params.theta_speed - params.kappa_signal)
              + params.perm_impact ** 2 * v_t / params.sigma_price ** 2) / denom
    assert fl.drift_signal.at_index(n) == pytest.approx(g7_lim, rel=1e-12)
    assert fl.scale.at_index(n) == 0.0
    assert fl.drift_scale.at_index(n) == fl.drift_scale.at_index(n - 1)
    assert fl.drift_flow.at_index(n) == fl.drift_flow.at_index(n - 1)
    assert fl.inv_scale.at_index(n) == fl.inv_scale.at_index(n - 1)


def test_flow_variance_constant_coefficient_oracle(grid1000):
    # variance recursion with frozen gain terms reduces to a constant Riccati
    sa, ka, g7 = 1.0, 5.0, 3.0
    rhs = lambda t, v: sa ** 2 - 2.0 * ka * v - (g7 * v) ** 2
    tab = bg.rk4_integrate(rhs, np.asarray(0.0), grid1000, name="var")
    oracle = riccati_constant_solution(-g7 * g7, -2.0 * ka, sa ** 2, 0.0, grid1000.times)
    assert np.abs(tab.values - oracle).max() < 1e-8


def test_flow_variance_bounded_by_prior(params, bundle, grid1000):
    t = grid1000.times[1:]
    prior = params.sigma_signal ** 2 * (1.0 - np.exp(-2.0 * params.kappa_signal * t)) \
        / (2.0 * params.kappa_signal)
    assert np.all(bundle.flow.var_alt.values[1:] <= prior + 1e-12)
    assert np.all(bundle.broker.var_alpha.values[1:] <= prior + 1e-12)  # rho = 0


def _long_double_var_alt(p, trader, flow, grid):
    """``var_alt`` from the same RK4 on the same stage lattice, in long double.

    The loadings are rebuilt from the float64 trader tables; ``drift_signal``
    is taken as tabled.  Also returns the largest |1 - kmix^2 - gap| over
    the nodes, the residual of the closed form for 1 - kmix^2."""
    ld = np.longdouble
    n = grid.steps
    sa, ka, rho, ss, pi = (ld(x) for x in (p.sigma_signal, p.kappa_signal, p.rho,
                                           p.sigma_price, p.perm_impact))
    f1, f2, vv = (tab.values.astype(ld) for tab in (trader.f1, trader.f2, trader.var_nu))
    g3, g4 = sa * f1, (pi / ss) * vv * f2
    g5sq = g3 * g3 + g4 * g4 + 2 * rho * g3 * g4
    a4 = pi * pi * vv[n] / ss
    g3[n], g4[n], g5sq[n] = sa, a4, sa * sa + a4 * a4 + 2 * rho * sa * a4   # horizon limits
    kmix = (g3 + rho * g4) / np.sqrt(g5sq)
    gap = (1 - rho * rho) * g4 * g4 / g5sq
    x = np.clip(StageLattice(grid).times / grid.dt, 0.0, float(n))
    k0 = np.minimum(np.floor(x).astype(int), n - 1)
    w = (x - k0).astype(ld)
    on = lambda a: (1 - w) * a[k0] + w * a[k0 + 1]
    g7, mix, src = on(flow.drift_signal.values.astype(ld)), sa * on(kmix), sa * sa * on(gap)
    rhs = lambda i, v: src[i] - 2 * ka * v - 2 * mix[i] * g7[i] * v - g7[i] * g7[i] * v * v
    h, v = ld(grid.dt), ld(0)
    out = [v]
    for k in range(n):
        i = 2 * k
        k1 = rhs(i, v)
        k2 = rhs(i + 1, v + h / 2 * k1)
        k3 = rhs(i + 1, v + h / 2 * k2)
        k4 = rhs(i + 2, v + h * k3)
        v = v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(v)
    return np.array(out), float(np.max(np.abs(1 - kmix * kmix - gap)))


def test_var_alt_matches_long_double_rk4(grid1000, random_params):
    # var_alt's source sa^2 (1 - kmix^2) is a few 1e-8 of sa^2 or less; the
    # float64 table must match a long-double run of the same scheme to 2e-15
    # of its largest value on every random draw (measured: 7.6e-16)
    if np.finfo(np.longdouble).eps >= 1e-18:
        pytest.skip("long double is no wider than float64 on this platform")
    worst = 0.0
    for p in random_params:
        tr = bg.solve_trader(p, grid1000)
        fl = bg.flow_filter_coefficients(tr, p, grid1000)
        ref, identity = _long_double_var_alt(p, tr, fl, grid1000)
        assert identity < 1e-18
        worst = max(worst, float(np.max(np.abs(fl.var_alt.values - ref)) / np.max(ref)))
    assert worst < 2e-15


def test_flow_update_trivial(params, bundle):
    s = FilterState(0.0, 0.0, "broker_flow")
    out = bg.update_broker_flow_filter(s, dz=0.0, dt=1e-3, coeffs=bundle.flow,
                                       t=0.25, params=params)
    assert out.mean == 0.0


def test_flow_update_matches_reference_arithmetic(params, bundle):
    fl = bundle.flow
    rng = np.random.default_rng(8)
    for _ in range(10):
        mean, dz = rng.standard_normal(2)
        t, dt = 0.4, 1e-3
        out = bg.update_broker_flow_filter(FilterState(mean, 0.0, "broker_flow"),
                                           dz=dz, dt=dt, coeffs=fl, t=t, params=params)
        g7 = fl.drift_signal(t)
        gain = g7 * fl.var_alt(t) + params.sigma_signal * fl.noise_mix(t)
        ref = mean - params.kappa_signal * mean * dt + gain * (dz - g7 * mean * dt)
        assert abs(out.mean - ref) < 1e-15


def test_flow_coeffs_degenerate_inputs(grid200):
    p = bg.DEFAULT_PARAMS.replace(sigma_signal=0.0, sigma_speed=0.0, rho=0.0,
                                  sigma_price=0.0)
    tr = bg.solve_trader(p, grid200)
    with pytest.raises(bg.FilterDegeneracyError):
        bg.flow_filter_coefficients(tr, p, grid200)


def test_naive_identity(params, bundle):
    tr = bundle.trader
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = rng.uniform(0.0, 0.9)
        alpha, nu_hat, q = rng.standard_normal(3)
        eta = tr.f1(t) * alpha + tr.f2(t) * nu_hat + tr.f3(t) * q
        est = bg.naive_alpha(t, eta, q, tr)
        bias = tr.f2(t) / tr.f1(t) * nu_hat
        assert est == pytest.approx(alpha + bias, abs=1e-12)


def test_naive_limit_ratio(params, bundle, grid1000):
    tr = bundle.trader
    n = grid1000.steps
    ratio = tr.f2.at_index(n - 1) / tr.f1.at_index(n - 1)
    assert abs(ratio - params.perm_impact) / params.perm_impact < 0.10


def test_naive_at_horizon_uses_last_interior(bundle, grid1000):
    tr = bundle.trader
    n = grid1000.steps
    eta, q = 0.7, 1.3
    expect = (eta - tr.f3.at_index(n - 1) * q) / tr.f1.at_index(n - 1)
    assert bg.naive_alpha(grid1000.horizon, eta, q, tr) == pytest.approx(expect, abs=1e-12)


def test_variance_tables_deterministic(params, grid200):
    a = bg.solve_trader(params, grid200)
    b = bg.solve_trader(params, grid200)
    assert np.array_equal(a.var_nu.values, b.var_nu.values)
    fa = bg.flow_filter_coefficients(a, params, grid200)
    fb = bg.flow_filter_coefficients(b, params, grid200)
    assert np.array_equal(fa.var_alt.values, fb.var_alt.values)


def test_trader_gain_bounded(params, bundle):
    gains = params.perm_impact * bundle.trader.var_nu.values / params.sigma_price ** 2
    assert np.all(gains <= params.perm_impact * 180.0 / params.sigma_price ** 2 + 1e-12)
