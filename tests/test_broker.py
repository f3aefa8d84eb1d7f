import io
import math

import numpy as np
import pytest

import brokergame as bg
from brokergame.broker import (_p9, _p_matrices, _riccati_terms, _stacked,
                               export_broker_csv, solve_price_filter_variance)
from brokergame.odes import StageLattice, rk4_integrate

from oracles import reduced_broker_uvb, riccati_constant_solution


def test_coarse_grid_blowup_names_the_broker_march():
    # 10 steps are too coarse for the 4x4 march's substeps at the defaults;
    # the error names that march and the grid step, not only the impact
    with pytest.raises(bg.ExistenceError, match="'broker_g2'") as info:
        bg.build_coefficients(bg.DEFAULT_PARAMS, bg.TimeGrid(1.0, 10))
    assert "grid step" in str(info.value) and "permanent impact" in str(info.value)


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
            s, w, p9 = _riccati_terms(tr.f1(t), tr.f2(t), tr.f3(t), va(t), pc, (0, 3))
            assert np.abs(np.outer(w, w) - u).max() < 1e-12 * np.abs(u).max()
            assert np.abs(p9 - v).max() < 1e-12 * np.abs(v).max()
            assert np.abs(s - bmat).max() < 1e-12 * np.abs(bmat).max()
