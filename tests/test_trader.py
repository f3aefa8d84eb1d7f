import io
import math

import numpy as np
import pytest

import brokergame as bg
from brokergame.trader import (_z_system, export_trader_csv, solve_inventory_coeff,
                               solve_linear_coeffs, solve_speed_filter_variance)

from oracles import riccati_constant_solution


def test_speed_variance_steady_state(params, grid1000, bundle):
    v_t = bundle.trader.var_nu.at_index(grid1000.steps)
    th, sb, ss, p = params.theta_speed, params.sigma_speed, params.sigma_price, params.perm_impact
    steady = ss ** 2 / p ** 2 * (-th + math.sqrt(th ** 2 + (p * sb / ss) ** 2))
    assert abs(v_t - steady) < 1e-6
    assert abs(v_t - 180.0) < 0.01


def test_speed_variance_zero_noise(grid200):
    p = bg.DEFAULT_PARAMS.replace(sigma_speed=0.0)
    tab = solve_speed_filter_variance(p, grid200)
    assert np.all(tab.values == 0.0)


def test_speed_variance_no_impact_linear_ode(grid1000):
    p = bg.DEFAULT_PARAMS.replace(perm_impact=0.0)
    tab = solve_speed_filter_variance(p, grid1000)
    t = grid1000.times
    ref = p.sigma_speed ** 2 * (1.0 - np.exp(-2.0 * p.theta_speed * t)) / (2.0 * p.theta_speed)
    assert np.abs(tab.values - ref).max() < 1e-6


def test_speed_variance_nondecreasing_from_zero(bundle):
    v = bundle.trader.var_nu.values
    assert v[0] == 0.0
    assert np.all(np.diff(v) >= -1e-12)


def test_g2_terminal_value(params, grid1000, bundle):
    v_t = bundle.trader.var_nu.at_index(grid1000.steps)
    expected = -(params.beta0_trader + params.beta1_trader * v_t)
    assert abs(bundle.trader.g2.at_index(grid1000.steps) - expected) < 1e-12
    assert abs(expected - (-0.280)) < 1e-3


def test_g2_analytic_no_running_penalty(grid1000):
    p = bg.DEFAULT_PARAMS.replace(phi0_trader=0.0, phi1_trader=0.0, beta1_trader=0.0)
    var_nu = solve_speed_filter_variance(p, grid1000)
    g2 = solve_inventory_coeff(p, var_nu, grid1000)
    b, beta0 = p.fee_informed, p.beta0_trader
    ref = -beta0 * b / (b + beta0 * (grid1000.horizon - grid1000.times))
    assert np.abs(g2.values - ref).max() < 1e-8


def test_g2_vanishing_penalties_limit(grid200):
    p = bg.DEFAULT_PARAMS.replace(beta0_trader=1e-9, beta1_trader=1e-9,
                                  phi0_trader=1e-9, phi1_trader=1e-9)
    coeffs = bg.solve_trader(p, grid200)
    assert np.abs(coeffs.g2.values).max() <= 1e-6


def test_sign_structure(bundle, grid1000):
    tr = bundle.trader
    assert np.all(tr.g2.values[:-1] < 0.0)
    assert np.all(tr.z1.values >= 0.0)
    assert np.all(tr.z2.values >= 0.0)
    assert np.all(1.0 + bg.DEFAULT_PARAMS.fee_informed * tr.f3.values > 0.0)


def test_zero_impact_kills_z2(grid200):
    p = bg.DEFAULT_PARAMS.replace(perm_impact=0.0)
    coeffs = bg.solve_trader(p, grid200)
    assert np.all(coeffs.z2.values == 0.0)
    assert np.all(coeffs.f2.values == 0.0)


def test_z2_quadrature_oracle(params, grid1000, bundle):
    # closed form: z2(t) = p * int_t^T exp{ int_t^s g2/(2 fee) - theta du } ds
    tr = bundle.trader
    t = grid1000.times
    dt = grid1000.dt
    w = tr.g2.values / (2.0 * params.fee_informed) - params.theta_speed
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * dt)])
    worst = 0.0
    for k in range(0, grid1000.steps + 1, grid1000.steps // 19):
        kernel = np.exp(cum[k:] - cum[k])
        quad = params.perm_impact * dt * (kernel.sum() - 0.5 * (kernel[0] + kernel[-1]))
        worst = max(worst, abs(quad - tr.z2.at_index(k)))
    assert worst < 1e-6


def test_z2_linear_in_impact(params, grid1000, bundle):
    # doubling the impact doubles z2 exactly when the decay kernel is held fixed
    tr = bundle.trader
    p2 = params.replace(perm_impact=2.0 * params.perm_impact)
    z_scaled, _ = solve_linear_coeffs(p2, tr.g2, tr.var_nu, grid1000)
    assert np.abs(z_scaled[1].values - 2.0 * tr.z2.values).max() < 1e-10


def test_z2_is_impact_times_unit_response(params, grid1000, bundle):
    # one march carries the speed response; z2 (hence f2) is its impact multiple
    tr = bundle.trader
    assert np.array_equal(tr.z2.values, params.perm_impact * tr.unit.values)
    tr0 = bg.solve_trader(params.replace(perm_impact=0.0), grid1000)
    assert np.all(tr0.unit.values[:-1] > 0.0)
    assert np.all(tr0.z2.values == 0.0) and np.all(tr0.f2.values == 0.0)


def test_terminal_conditions_zero(bundle, grid1000):
    n = grid1000.steps
    for z in bundle.trader.z_tables:
        assert z.at_index(n) == 0.0


def test_control_trivial_cases(bundle, grid1000):
    # the rate f1 alpha + f2 nu_hat + f3 q unwinds inventory before the
    # horizon and ignores the signal and the speed estimate at it
    tr = bundle.trader
    assert tr.f3(0.3) < 0.0
    assert tr.f1(grid1000.horizon) == 0.0 and tr.f2(grid1000.horizon) == 0.0


def test_admissibility_violation_raises(grid200):
    # a large fee keeps the backward solve tame while 1 + fee*f3 dips below 0
    bad = bg.DEFAULT_PARAMS.replace(fee_informed=0.5, beta0_trader=2.0)
    with pytest.raises(bg.AdmissibilityError):
        bg.solve_trader(bad, grid200)


def test_csv_export_columns(bundle, grid1000):
    buf = io.StringIO()
    export_trader_csv(bundle.trader, buf)
    lines = buf.getvalue().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["t", "var_nu", "g2", "z1", "z2", "z3", "z4", "z5", "z6",
                      "z7", "z8", "f1", "f2", "f3"]
    assert len(lines) == grid1000.steps + 2


def test_coarse_grids_build_and_match_a_fine_one(params, bundle):
    # the g2 and z marches size their substeps from bounds known before they
    # start, so a 20-step grid builds at the defaults; t = 0 lands close to
    # the 1,000-step tables
    fine, coarse = bundle, bg.build_coefficients(params, bg.TimeGrid(1.0, 20))
    rel = lambda name: abs(getattr(coarse.trader, name).values[0]
                           / getattr(fine.trader, name).values[0] - 1.0)
    assert rel("f1") < 1e-3
    assert rel("f2") < 1e-3
    assert rel("f3") < 1e-2
    g_fine, g_coarse = fine.broker.gains.values[0], coarse.broker.gains.values[0]
    assert np.abs(g_coarse - g_fine).max() < 2e-2 * np.abs(g_fine).max()


def test_stiff_g2_march_still_fails_with_the_blowup_error(grid200):
    # the substeps a stiff march asks for are capped, so a vanishing fee
    # fails fast with the typed error instead of building a huge lattice
    p = bg.DEFAULT_PARAMS.replace(fee_informed=1e-12)
    var_nu = solve_speed_filter_variance(p, grid200)
    with pytest.raises(bg.IntegrationBlowupError, match="g2"):
        solve_inventory_coeff(p, var_nu, grid200)


@pytest.mark.parametrize("steps", [50, 1000])
def test_z_float_march_equals_array_march(params, steps):
    # the z system is marched on a list of floats, which round as numpy
    # does: the same right-hand side on an array state gives the same bytes,
    # on the default set and on each stressed set of the stress sweep
    grid = bg.TimeGrid(1.0, steps)
    models = [params] + [params.replace(**{name: getattr(params, name) * mult})
                         for name in bg.LEARNING_PARAMS for mult in (0.5, 1.5)]
    for model in models:
        var_nu = solve_speed_filter_variance(model, grid)
        g2 = solve_inventory_coeff(model, var_nu, grid)
        rhs, lattice = _z_system(model, g2, var_nu, grid)
        floats = bg.rk4_integrate(rhs, [0.0] * 8, lattice).values
        arrays = bg.rk4_integrate(lambda i, z: np.array(rhs(i, z.tolist())), np.zeros(8),
                                  lattice).values
        assert floats.tobytes() == arrays.tobytes(), model
