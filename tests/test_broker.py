import inspect
import io
import math

import numpy as np
import pytest

import brokergame as bg
from brokergame.broker import (_march, _p9, _p_matrices, _riccati_terms, _stacked,
                               export_broker_csv, solve_price_filter_variance)
from brokergame.odes import StageLattice, rk4_integrate

from oracles import reduced_broker_uvb, riccati_constant_solution


def test_coarse_grid_blowup_names_the_broker_march():
    # 10 steps are too coarse for the 4x4 march's substeps at the defaults;
    # the error names that march and the grid step, not only the impact
    with pytest.raises(bg.ExistenceError, match="'broker_g2'") as info:
        bg.build_coefficients(bg.DEFAULT_PARAMS, bg.TimeGrid(1.0, 10))
    assert "grid step" in str(info.value) and "permanent impact" in str(info.value)


@pytest.mark.parametrize("steps, name, cell, member", [
    (15, "sigma_speed", r"sigma_speed x 1\.5", 2),
    (10, "kappa_signal", "base", 0),
])
def test_stress_blowup_names_the_cell(params, steps, name, cell, member):
    # at 15 steps the base cell and sigma_speed x 0.5 solve and x 1.5 blows
    # up; at 10 steps the base march is non-finite at the first node where
    # any member is, and as the first member it is named
    with pytest.raises(bg.ExistenceError, match=f"^stress cell {cell}: .*'broker_g2'") as info:
        bg.stress_runner(params, {name: [0.5, 1.5]}, bg.TimeGrid(1.0, steps),
                         bg.StrategyConfig(), 4)
    assert info.value.member == member and f"parameter set {member}" in str(info.value)


def _stress_models(params):
    return [params] + [params.replace(**{name: getattr(params, name) * mult})
                       for name in bg.LEARNING_PARAMS for mult in (0.5, 1.5)]


def test_batched_build_equals_each_build_alone(params):
    grid = bg.TimeGrid(1.0, 50)
    models = _stress_models(params)
    bundles = bg.build_bundles(models, grid)
    trader_tables = ("var_nu", "g2", *(f"z{i}" for i in range(1, 9)), "f1", "f2", "f3", "unit")
    for batched, model in zip(bundles, models):
        alone = bg.build_coefficients(model, grid)
        for name in trader_tables:
            assert np.array_equal(getattr(batched.trader, name).values,
                                  getattr(alone.trader, name).values), name
        for name in ("g2", "g0", "gains", "eigvals", "det_scaled", "var_alpha"):
            assert np.array_equal(getattr(batched.broker, name).values,
                                  getattr(alone.broker, name).values), name
        assert batched.broker.block_dev == alone.broker.block_dev
    # each scalar Riccati is solved once per distinct value of the parameters
    # it reads: the signal cells share the base set's var_nu and g2, the
    # speed cells its var_alpha, and nothing else is shared
    base = bundles[0]
    for name, batched in zip([n for n in bg.LEARNING_PARAMS for _ in (0.5, 1.5)], bundles[1:]):
        signal_cell = name in ("kappa_signal", "sigma_signal")
        assert (batched.trader.var_nu is base.trader.var_nu) == signal_cell, name
        assert (batched.trader.g2 is base.trader.g2) == signal_cell, name
        assert (batched.broker.var_alpha is base.broker.var_alpha) == (not signal_cell), name


def test_stacked_march_members(params):
    # each set's member is the march of its own 4x4 state whose right-hand
    # side is formed from the same terms (bit-identical with numpy 2.4 on
    # x86-64; the bound allows rounding only)
    grid = bg.TimeGrid(1.0, 50)
    sets = [(model, bg.solve_trader(model, grid), solve_price_filter_variance(model, grid))
            for model in _stress_models(params)]
    g = _march(sets, grid, "stack").values
    assert g.shape == (grid.steps + 1, len(sets), 4, 4)

    lattice = StageLattice(grid, substeps=2, direction="backward")
    for k, (model, trader, var_alpha) in enumerate(sets):
        s, w, p9 = _riccati_terms(_p_matrices(*(x(lattice.times) for x in (
            trader.f1, trader.f2, trader.f3, var_alpha)), model), (0, 1, 2, 3))

        def rhs(i, gi):
            gw = gi @ w[i]
            lin = gi @ p9[i]
            return -s[i] - np.outer(gw, gw) - (lin + lin.T)

        terminal = np.zeros((4, 4))
        terminal[0, 0] = -(model.beta0_broker
                           + model.beta1_broker * var_alpha.at_index(grid.steps))
        ref = rk4_integrate(rhs, terminal, lattice).values
        assert np.abs(g[:, k] - ref).max() <= 1e-15 * np.abs(ref).max(), k


def test_one_system_per_set_and_block_dev_marches_on_read(params, monkeypatch):
    # a build marches one 4x4 system per parameter set; the closed 2x2 block
    # is marched on its own, once, when block_dev is first read
    grid = bg.TimeGrid(1.0, 50)
    integrate = bg.odes.rk4_integrate
    signature = inspect.signature(integrate)
    marches = []

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        marches.append((bound.get("name", "rk4"), np.shape(bound["boundary_value"])))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(bg.broker, "rk4_integrate", spy)
    models = _stress_models(params)
    bundles = bg.build_bundles(models, grid)
    assert [shape for name, shape in marches if name == "broker_riccati"] == [(len(models), 4, 4)]
    assert not [name for name, _ in marches if name == "g2_block"]

    broker = bundles[3].broker
    del marches[:]
    block_dev = broker.block_dev
    assert marches == [("g2_block", (1, 2, 2))]
    assert broker.block_dev == block_dev and len(marches) == 1

    g = broker.g2.values
    blk = bg.solve_reduced_riccati(models[3], bundles[3].trader, broker.var_alpha, grid).values
    assert block_dev == np.abs(g[:, [[0], [3]], [0, 3]] - blk).max()
    assert block_dev < 1e-12 * np.abs(g).max()


def test_empty_batch_builds_nothing():
    assert bg.build_bundles([], bg.TimeGrid(1.0, 50)) == []


@pytest.mark.parametrize("lead", [(), (7,), (3, 5)])
def test_stacked_matches_broadcast_stack(lead):
    # mixed numbers (an int among them) and equally shaped arrays, laid out
    # row-major in the trailing axes, byte for byte as np.stack lays them out
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(lead), rng.standard_normal(lead)
    entries = (0, a, -1.5, b, a * b, 2.0)
    expect = np.stack(np.broadcast_arrays(*entries), axis=-1).reshape(lead + (2, 3))
    got = _stacked((2, 3), *entries)
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


def test_price_variance_steady_state(params, grid1000, bundle):
    v_t = bundle.broker.var_alpha.at_index(grid1000.steps)
    target = (-10.0 + math.sqrt(104.0)) / 2.0
    assert abs(v_t - target) / target < 1e-3
    assert abs(v_t - target) < 2e-3


def test_price_variance_no_signal_noise(grid200):
    p = bg.DEFAULT_PARAMS.replace(sigma_signal=0.0, rho=0.0)
    tab = solve_price_filter_variance(p, grid200)
    assert np.all(tab.values == 0.0)


def test_price_variance_matches_analytic(params, grid1000, bundle):
    quad = -1.0 / params.sigma_price ** 2
    lin = -2.0 * params.kappa_signal
    const = params.sigma_signal ** 2
    oracle = riccati_constant_solution(quad, lin, const, 0.0, grid1000.times)
    assert np.abs(bundle.broker.var_alpha.values - oracle).max() < 1e-8


def test_p_matrices_zero_impact(grid200):
    p0 = bg.DEFAULT_PARAMS.replace(perm_impact=0.0)
    tr = bg.solve_trader(p0, grid200)
    va = solve_price_filter_variance(p0, grid200)
    t = 0.37
    p2, p5, p7, p8, _ = _p_matrices(tr.f1(t), tr.f2(t), tr.f3(t), va(t), p0)
    assert np.all(p7 == 0.0)
    a = p0.temp_impact
    assert np.allclose(p8, [1.0 / (2.0 * math.sqrt(a)), 0.0, 0.0, 0.0])
    assert np.allclose(p5, p5.T)


def test_p9_identity(params, grid1000, bundle):
    # P9 = 2 P8 P7^T + P2^T has no (alpha_hat, flow) -> (q_broker, q_trader)
    # entries: P2's row 0 is zero, its row 3 reads only q_broker and q_trader,
    # and P8 lives on {q_broker, q_trader}; the corner of the linear term
    # then closes on itself, which the reduced 2x2 solve relies on
    tr, va = bundle.trader, bundle.broker.var_alpha
    rng = np.random.default_rng(5)
    for t in rng.uniform(0.0, 1.0, 5):
        p2, p5, p7, p8, _ = _p_matrices(tr.f1(t), tr.f2(t), tr.f3(t), va(t), params)
        p9 = _p9(p2, p7, p8)
        assert np.all(p9[np.ix_([1, 2], [0, 3])] == 0.0)
        assert np.abs(p5 - p5.T).max() == 0.0


def test_admissibility_guard():
    grid = bg.TimeGrid(1.0, 200)
    big = bg.DEFAULT_PARAMS.replace(perm_impact=10.0)
    tr = bg.solve_trader(big, grid)
    with pytest.raises(bg.BrokerGameError):
        bg.solve_broker(big, tr, grid)


def test_g2_terminal_matrix(params, grid1000, bundle):
    g_t = bundle.broker.g2.at_index(grid1000.steps)
    v_t = bundle.broker.var_alpha.at_index(grid1000.steps)
    expect = np.zeros((4, 4))
    expect[0, 0] = -(params.beta0_broker + params.beta1_broker * v_t)
    assert np.abs(g_t - expect).max() < 1e-14


def test_g2_symmetry(bundle):
    g = bundle.broker.g2.values
    assert np.abs(g - g.transpose(0, 2, 1)).max() < 1e-10


def test_g2_exactly_symmetric(params, grid200, random_params):
    # every term of the march's right-hand side is symmetric entry for entry,
    # and RK4 combines them entry by entry
    for p in random_params + [params.replace(c_belief=c, beta0_broker=1e-5)
                              for c in (0.0, 0.5)]:
        g = bg.solve_broker(p, bg.solve_trader(p, grid200), grid200).g2.values
        assert np.array_equal(g, g.swapaxes(-1, -2))


def test_reduced_block_agreement(params, grid1000, bundle):
    assert bundle.broker.block_dev < 1e-8
    blk = bg.solve_reduced_riccati(params, bundle.trader, bundle.broker.var_alpha,
                                   grid1000)
    g = bundle.broker.g2.values
    assert np.abs(g[:, 0, 0] - blk.values[:, 0, 0]).max() < 1e-8
    assert np.abs(g[:, 0, 3] - blk.values[:, 0, 1]).max() < 1e-8
    assert np.abs(g[:, 3, 3] - blk.values[:, 1, 1]).max() < 1e-8


def test_linear_vector_term_stays_zero(params, grid1000, bundle):
    # the vector coefficient solves a homogeneous ODE from zero
    tr, br = bundle.trader, bundle.broker
    lattice = StageLattice(grid1000, direction="backward")

    def rhs(i, g1):
        t = lattice.times[i]
        p2, p5, p7, p8, _ = _p_matrices(tr.f1(t), tr.f2(t), tr.f3(t),
                                        br.var_alpha(t), params)
        g2 = br.g2(t)
        return -(g1 @ p2.T + 2.0 * (g1 @ np.outer(p8, p7))
                 + 4.0 * (g1 @ np.outer(p8, p8)) @ g2)

    tab = rk4_integrate(rhs, np.zeros(4), lattice)
    assert np.abs(tab.values).max() < 1e-14


def test_g0_is_quadrature_of_matrix_entries(params, grid1000, bundle):
    br = bundle.broker
    gain = (br.var_alpha.values + params.rho * params.sigma_price * params.sigma_signal) \
        / params.sigma_price
    integrand = gain ** 2 * br.g2.values[:, 1, 1] + params.sigma_flow ** 2 * br.g2.values[:, 2, 2]
    dt = grid1000.dt
    total = dt * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1]))
    assert br.g0.at_index(grid1000.steps) == 0.0
    assert abs(br.g0.at_index(0) - total) < 1e-5 * max(1.0, abs(total))


def test_eigen_diagnostic_zero_impact_closed_form(grid200):
    p0 = bg.DEFAULT_PARAMS.replace(perm_impact=0.0)
    tr = bg.solve_trader(p0, grid200)
    va = solve_price_filter_variance(p0, grid200)
    eig, det = bg.existence_diagnostic(p0, tr, va, grid200)
    for k in (0, 100, 200):
        f3 = tr.f3.at_index(k)
        vb = va.at_index(k)
        expect = np.array([
            -2.0 * (p0.phi0_broker + p0.phi1_broker * vb),
            2.0 * f3 * (1.0 + p0.fee_informed * f3),
            -2.0 / p0.temp_impact,
            0.0,
        ])
        expect = expect[np.argsort(-np.abs(expect), kind="stable")]
        assert np.abs(eig.at_index(k) - expect).max() < 1e-10
    assert np.abs(det.values).max() < 1e-12


def test_eigen_diagnostic_default(bundle):
    ev = bundle.broker.eigvals.values
    assert np.all(ev[:, :3] < -1e-6)
    assert np.abs(ev[:, 3]).max() < 1e-8
    assert np.abs(bundle.broker.det_scaled.values).max() < 1e-8


def test_pure_unwind_sign_at_zero_impact(grid200):
    p0 = bg.DEFAULT_PARAMS.replace(perm_impact=0.0)
    tr = bg.solve_trader(p0, grid200)
    br = bg.solve_broker(p0, tr, grid200)
    # the rate on the broker's own inventory unwinds it
    assert br.gains(0.2)[0] < 0.0


def test_belief_sweep_continuity(params, grid200):
    tr = bg.solve_trader(params, grid200)
    gains = {}
    for c in (0.0, 0.5, 1.0):
        br = bg.solve_broker(params.replace(c_belief=c), tr, grid200)
        gains[c] = br.gains.values
        assert np.all(np.isfinite(gains[c]))
    step1 = np.abs(gains[0.5] - gains[0.0]).max()
    step2 = np.abs(gains[1.0] - gains[0.5]).max()
    scale = np.abs(gains[1.0]).max()
    assert step1 < 0.05 * scale and step2 < 0.05 * scale


def test_csv_export_shape(bundle, grid1000):
    buf = io.StringIO()
    export_broker_csv(bundle.broker, buf)
    lines = buf.getvalue().strip().split("\n")
    header = lines[0].split(",")
    assert len(header) == 1 + 10 + 2 + 4
    assert header[0] == "t" and header[1] == "g2_11" and header[-1] == "eig4"
    assert len(lines) == grid1000.steps + 2


def test_reduced_matrices_match_block_of_full(params, grid1000, bundle):
    # the Riccati terms restricted to (q_broker, q_trader) are the corner's
    # closed forms U = W W^T, V = P9 and B = S, for any belief
    tr, va = bundle.trader, bundle.broker.var_alpha
    for c in (1.0, 0.5):
        pc = params.replace(c_belief=c)
        for t in (0.1, 0.6, 0.95):
            u, v, bmat = reduced_broker_uvb(tr.f2(t), tr.f3(t), va(t), pc)
            s, w, p9 = _riccati_terms(_p_matrices(tr.f1(t), tr.f2(t), tr.f3(t), va(t), pc),
                                      (0, 3))
            assert np.abs(np.outer(w, w) - u).max() < 1e-12 * np.abs(u).max()
            assert np.abs(p9 - v).max() < 1e-12 * np.abs(v).max()
            assert np.abs(s - bmat).max() < 1e-12 * np.abs(bmat).max()
