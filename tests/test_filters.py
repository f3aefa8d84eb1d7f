import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

import brokergame as bg
from brokergame.odes import StageLattice

from oracles import riccati_constant_solution


def test_trader_filter_zero_impact_decays(grid200):
    # without permanent impact the speed estimate learns nothing from prices
    # and decays from its initial value at the OU model's rate
    p = bg.DEFAULT_PARAMS.replace(perm_impact=0.0)
    b = bg.build_coefficients(p, grid200)
    res = bg.simulate_path(p, b.trader, b.broker, b.flow, bg.StrategyConfig(), seed=3,
                           init={"nu_hat": 1.0})
    dt = grid200.dt
    k = np.arange(grid200.steps + 1)
    assert np.abs(res.nu_hat - (1.0 - p.theta_speed * dt) ** k).max() < 1e-12
    # Euler decay sits on top of the continuous exponential
    assert abs(res.nu_hat[100] - np.exp(-p.theta_speed * 0.5)) < 1e-2


def test_price_filter_trivial_and_degenerate(grid200):
    # a signal without noise has zero filter variance, so the price filter's
    # gain vanishes and its estimate stays at 0 while prices move
    p = bg.DEFAULT_PARAMS.replace(sigma_signal=0.0, rho=0.0)
    b = bg.build_coefficients(p, grid200, with_flow=False)
    assert np.all(b.broker.var_alpha.values == 0.0)
    res = bg.simulate_path(p, b.trader, b.broker, b.flow, bg.StrategyConfig(), seed=4)
    assert np.ptp(res.price) > 0.0
    assert np.all(res.alpha_hat_price == 0.0)


def test_naive_identity(params, bundle, grid1000):
    # when the broker's model of the client is the truth, inverting the
    # client's rate returns the signal plus the speed-estimate bias
    tr = bundle.trader
    res = bg.simulate_path(params, tr, bundle.broker, bundle.flow, bg.StrategyConfig(),
                           seed=10, init={"nu_hat": 2.0})
    n = grid1000.steps
    f1, f2 = tr.f1.values[:n], tr.f2.values[:n]
    expect = res.signal[:n] + f2 / f1 * res.nu_hat[:n]
    assert np.abs(res.alpha_hat_naive[:n] - expect).max() < 1e-12 * np.abs(expect).max()


def _flow_loadings(p, trader):
    """Signal and price loadings of the adjusted flow and its composite
    diffusion, rebuilt from the trader tables."""
    g3 = p.sigma_signal * trader.f1.values
    g4 = (p.perm_impact / p.sigma_price) * trader.var_nu.values * trader.f2.values
    return g3, g4, np.sqrt(g3 * g3 + g4 * g4 + 2.0 * p.rho * g3 * g4)


def test_flow_coeffs_noise_normalisation(params, bundle, grid1000):
    # with uncorrelated noises the two loadings are a unit vector
    fl = bundle.flow
    n = grid1000.steps
    _, g4, g5 = _flow_loadings(params, bundle.trader)
    k2 = fl.noise_mix.values[:n] ** 2
    g45 = (g4[:n] / g5[:n]) ** 2
    assert params.rho == 0.0
    assert np.all(fl.noise_mix.values[:n] >= 0.0)
    assert np.all(fl.noise_mix.values[:n] <= 1.0)
    assert np.abs(k2 + g45 - 1.0).max() < 1e-12


def _drift_obs_oracle_error(p, steps):
    """Largest gap, on interior nodes with t <= 0.9, between ``drift_obs`` and
    unit'/unit - theta_speed - perm_impact^2 var_nu / sigma_price^2 - scale'/scale,
    both derivatives central differences of the solved tables, over the
    table's largest value there."""
    grid = bg.TimeGrid(1.0, steps)
    tr = bg.solve_trader(p, grid)
    fl = bg.flow_filter_coefficients(tr, p, grid)
    _, _, g5 = _flow_loadings(p, tr)
    k = np.arange(1, steps)
    k = k[grid.times[k] <= 0.9 + 1e-12]
    dlog = lambda x: (x[k + 1] - x[k - 1]) / (2.0 * grid.dt * x[k])
    ref = (dlog(tr.unit.values) - p.theta_speed
           - p.perm_impact ** 2 * tr.var_nu.values[k] / p.sigma_price ** 2 - dlog(g5))
    got = fl.drift_obs.values[k]
    return np.abs(got - ref).max() / np.abs(got).max()


@pytest.mark.parametrize("rho", [0.0, 0.4])
def test_flow_drift_matches_central_difference_oracle(params, rho):
    # ztil = gamma/scale drifts, per unit of itself, at the rate of gamma's
    # speed term f2*nu_hat (the log-derivative of f2, i.e. of unit, plus the
    # speed filter's reversion -theta_speed - perm_impact^2 var_nu /
    # sigma_price^2) less scale'/scale; both derivatives come from the solved
    # tables, so the oracle never restates the trader's inventory term; the
    # gap is the central differences' O(dt^2) (measured: 4.47e-6 at 1,000
    # steps, 1.12e-6 at 2,000)
    p = params.replace(rho=rho)
    coarse, fine = _drift_obs_oracle_error(p, 1000), _drift_obs_oracle_error(p, 2000)
    assert coarse < 1e-5
    assert 3.0 <= coarse / fine <= 5.0


def test_flow_tables_read_no_inventory_loading(params, grid200):
    # the trader's inventory loading f3 cancels from the observation's drift,
    # so the flow tables built with any other f3 are the same arrays
    tr = bg.solve_trader(params, grid200)
    other = replace(tr, f3=bg.DeterministicTable("f3", grid200, 3.0 * tr.f3.values - 1.0))
    base = bg.flow_filter_coefficients(tr, params, grid200)
    moved = bg.flow_filter_coefficients(other, params, grid200)
    for field in fields(base):
        if field.name != "grid":
            assert np.array_equal(getattr(moved, field.name).values,
                                  getattr(base, field.name).values), field.name


def test_build_marches_each_system_once(params, grid200, monkeypatch):
    # the flow filter reads the trader's unit speed response instead of
    # marching it again
    integrate = bg.odes.rk4_integrate
    signature = inspect.signature(integrate)
    names = []

    def spy(*args, **kwargs):
        names.append(signature.bind(*args, **kwargs).arguments.get("name", "rk4"))
        return integrate(*args, **kwargs)

    for module in (bg.odes, bg.trader, bg.broker):
        monkeypatch.setattr(module, "rk4_integrate", spy)
    bg.build_coefficients(params, grid200)
    assert names == ["var_nu", "g2", "z", "var_alpha", "broker_g2", "g2_block", "g0", "var_alt"]


def test_flow_coeffs_horizon_limits(params, bundle, grid1000):
    fl = bundle.flow
    n = grid1000.steps
    v_t = bundle.trader.var_nu.at_index(n)
    denom = np.hypot(params.sigma_signal, params.perm_impact ** 2 * v_t / params.sigma_price)
    g7_lim = (0.5 * (params.theta_speed - params.kappa_signal)
              + params.perm_impact ** 2 * v_t / params.sigma_price ** 2) / denom
    assert fl.drift_signal.at_index(n) == pytest.approx(g7_lim, rel=1e-12)
    assert _flow_loadings(params, bundle.trader)[2][n] == 0.0
    assert fl.drift_obs.at_index(n) == fl.drift_obs.at_index(n - 1)
    assert fl.inv_scale.at_index(n) == fl.inv_scale.at_index(n - 1)


def test_flow_variance_constant_coefficient_oracle(grid1000):
    # variance recursion with frozen gain terms reduces to a constant Riccati
    sa, ka, g7 = 1.0, 5.0, 3.0
    rhs = lambda i, v: sa ** 2 - 2.0 * ka * v - (g7 * v) ** 2
    tab = bg.rk4_integrate(rhs, np.asarray(0.0), StageLattice(grid1000), name="var")
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


def test_flow_coeffs_degenerate_inputs(grid200):
    p = bg.DEFAULT_PARAMS.replace(sigma_signal=0.0, sigma_speed=0.0, rho=0.0,
                                  sigma_price=0.0)
    tr = bg.solve_trader(p, grid200)
    with pytest.raises(bg.FilterDegeneracyError):
        bg.flow_filter_coefficients(tr, p, grid200)


def test_naive_limit_ratio(params, bundle, grid1000):
    tr = bundle.trader
    n = grid1000.steps
    ratio = tr.f2.at_index(n - 1) / tr.f1.at_index(n - 1)
    assert abs(ratio - params.perm_impact) / params.perm_impact < 0.10


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
