"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (visible with ``pytest -v -s`` or in the
failure output).  The Monte Carlo reproductions run 10,000 paths on the
1,000-step grid and take a few minutes in total.
"""

import math

import numpy as np
import pytest
from scipy import stats as sps

import brokergame as bg
from brokergame.broker import _p_matrices
from brokergame.cli import main as cli_main
from brokergame.odes import StageLattice, rk4_integrate
from brokergame.sim import CoefficientBundle, _Tables, _draw_noise, _simulate_core

from oracles import broker_hjb_residuals, riccati_constant_solution

pytestmark = pytest.mark.acceptance

N_PATHS = 10_000
BASE_SEED = 20240901


def _line(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def table1(params, grid1000, bundle):
    report, _ = bg.run_experiment(params, grid1000,
                                  bg.StrategyConfig(signal_source="price"),
                                  N_PATHS, base_seed=BASE_SEED, bundle=bundle)
    return report


@pytest.fixture(scope="module")
def table2(params, grid1000, bundle):
    report, _ = bg.run_experiment(params, grid1000,
                                  bg.StrategyConfig(signal_source="flow"),
                                  N_PATHS, base_seed=BASE_SEED, bundle=bundle)
    return report


@pytest.fixture(scope="module")
def flow_metrics(params, grid1000, bundle):
    """Filter diagnostics of 1,000 default-parameter paths under the
    flow-based signal source, with and without inventory mispecification,
    recorded 250 paths at a time to bound the memory of the records."""
    tables = _Tables(params, params, bundle)
    configs = (bg.StrategyConfig(signal_source="flow"),
               bg.StrategyConfig(signal_source="flow", mispecify_qi=True))
    parts = [[], []]
    for lo in range(0, 1000, 250):
        q0, eps = _draw_noise(555, range(lo, lo + 250), grid1000.steps)
        for config, part in zip(configs, parts):
            _, rec = _simulate_core(tables, config, eps, q0, record=True)
            part.append(bg.filter_diagnostics(bundle.trader, rec))
    clean, mis = ({key: np.concatenate([d[key] for d in part], axis=-1) for key in part[0]}
                  for part in parts)
    return clean, mis


def test_criterion_1_table1(table1):
    b1, b2, b3 = table1.benchmarks[1], table1.benchmarks[2], table1.benchmarks[3]
    ok = (abs(b1.mean) <= 17.0 and b1.p_value > 0.05
          and 28.0 <= b2.mean <= 48.0 and b2.p_value < 0.01
          and 74.0 <= b3.mean <= 116.0 and b3.p_value < 0.01)
    assert _line(1, ok,
                 f"price mode out = {b1.mean:.1f}/{b2.mean:.1f}/{b3.mean:.1f}, "
                 f"p = {b1.p_value:.2g}/{b2.p_value:.2g}/{b3.p_value:.2g}")


def test_criterion_2_table2(table2):
    b1, b2, b3 = table2.benchmarks[1], table2.benchmarks[2], table2.benchmarks[3]
    ok = (32.0 <= b1.mean <= 40.0 and 66.0 <= b2.mean <= 90.0
          and 111.0 <= b3.mean <= 143.0
          and all(table2.benchmarks[i].p_value < 0.01 for i in (1, 2, 3)))
    assert _line(2, ok,
                 f"flow mode out = {b1.mean:.1f}/{b2.mean:.1f}/{b3.mean:.1f}, "
                 f"p = {b1.p_value:.2g}/{b2.p_value:.2g}/{b3.p_value:.2g}")


def test_criterion_3_existence_diagnostic(bundle):
    ev = bundle.broker.eigvals.values
    det = np.abs(bundle.broker.det_scaled.values).max()
    top3 = ev[:, :3].max()
    lam4 = np.abs(ev[:, 3]).max()
    ok = top3 < -1e-6 and lam4 < 1e-8 and det < 1e-8
    assert _line(3, ok, f"max(l1..l3) = {top3:.3e}, max|l4| = {lam4:.3e}, "
                        f"max|det| = {det:.3e}")


def test_criterion_4_filter_variance_oracles(params, grid1000, bundle):
    v_t = bundle.trader.var_nu.at_index(grid1000.steps)
    th, sb, ss, p = (params.theta_speed, params.sigma_speed, params.sigma_price,
                     params.perm_impact)
    steady_nu = ss ** 2 / p ** 2 * (-th + math.sqrt(th ** 2 + (p * sb / ss) ** 2))
    vb_t = bundle.broker.var_alpha.at_index(grid1000.steps)
    steady_alpha = (-10.0 + math.sqrt(104.0)) / 2.0

    r = p / ss
    err_nu = np.abs(bundle.trader.var_nu.values
                    - riccati_constant_solution(-r * r, -2.0 * th, sb ** 2, 0.0,
                                                grid1000.times)).max()
    err_alpha = np.abs(bundle.broker.var_alpha.values
                       - riccati_constant_solution(-1.0 / ss ** 2,
                                                   -2.0 * params.kappa_signal,
                                                   params.sigma_signal ** 2, 0.0,
                                                   grid1000.times)).max()
    ok = (abs(v_t - steady_nu) / steady_nu < 1e-3
          and abs(steady_nu - 179.99838) < 1e-2
          and abs(vb_t - steady_alpha) / steady_alpha < 1e-3
          and err_nu < 1e-8 and err_alpha < 1e-8)
    assert _line(4, ok, f"var_nu(T) = {v_t:.5f} (steady {steady_nu:.5f}), "
                        f"var_alpha(T) = {vb_t:.6f} (steady {steady_alpha:.6f}), "
                        f"pointwise errs = {err_nu:.2e}/{err_alpha:.2e}")


def test_criterion_5_coefficient_properties(params, grid1000, bundle):
    tr, br = bundle.trader, bundle.broker
    signs = (np.all(tr.g2.values[:-1] < 0.0) and np.all(tr.z1.values >= 0.0)
             and np.all(tr.z2.values >= 0.0))

    p0 = params.replace(perm_impact=0.0)
    tr0 = bg.solve_trader(p0, grid1000)
    zero_exact = np.all(tr0.z2.values == 0.0) and np.all(tr0.f2.values == 0.0)

    sym = np.abs(br.g2.values - br.g2.values.transpose(0, 2, 1)).max()
    lattice = StageLattice(grid1000, direction="backward")

    def g1_rhs(i, g1):
        t = lattice.times[i]
        p2, p5, p7, p8, _ = _p_matrices(tr.f1(t), tr.f2(t), tr.f3(t),
                                        br.var_alpha(t), params)
        g2 = br.g2(t)
        return -(g1 @ p2.T + 2.0 * (g1 @ np.outer(p8, p7))
                 + 4.0 * (g1 @ np.outer(p8, p8)) @ g2)

    g1_max = np.abs(rk4_integrate(g1_rhs, np.zeros(4), lattice).values).max()
    ok = (signs and zero_exact and sym < 1e-10 and g1_max < 1e-14
          and br.block_dev < 1e-8)
    assert _line(5, ok, f"signs = {signs}, zero-impact exact = {zero_exact}, "
                        f"asym = {sym:.2e}, |G1| = {g1_max:.2e}, "
                        f"block dev = {br.block_dev:.2e}")


def test_criterion_6_conservation_random_parameters(grid1000, random_params):
    worst_inv = worst_cash = 0.0
    n_sets, paths_per = len(random_params), 40
    # one batched build: every set's broker Riccati in one stacked march
    bundles = bg.build_bundles(random_params, grid1000)
    for i, (p, b) in enumerate(zip(random_params, bundles)):
        tables = _Tables(p, p, b)
        q0, eps = _draw_noise(9000 + i, range(paths_per), grid1000.steps)
        m, _ = _simulate_core(tables, bg.StrategyConfig(), eps, q0, record=False)
        assert not m["blown"].any()
        worst_inv = max(worst_inv, m["max_inventory_gap"].max())
        worst_cash = max(worst_cash, m["max_cash_gap"].max())
    ok = worst_inv < 1e-8 and worst_cash < 1e-8
    assert _line(6, ok, f"{n_sets * paths_per} paths: max inventory gap = "
                        f"{worst_inv:.2e}, max cash gap = {worst_cash:.2e}")


def test_criterion_7_naive_vs_flow(flow_metrics):
    clean, mis = flow_metrics
    med_clean = float(np.median(clean["max_alt_naive_diff"]))
    med_mis = float(np.median(mis["max_alt_naive_diff"]))
    cp = [float(np.median(np.abs(mis["alt_naive_checkpoints"][i]))) for i in range(4)]
    grows = cp[0] < cp[1] < cp[2] < cp[3]
    ok = med_clean < 1e-3 and med_mis > 1e-2 and grows
    assert _line(7, ok, f"median max diff: clean = {med_clean:.2e}, "
                        f"mispecified = {med_mis:.2e}, checkpoints = "
                        + "/".join(f"{c:.3g}" for c in cp))


def test_criterion_8_filter_quality_ordering(flow_metrics):
    clean, _ = flow_metrics
    share = float(np.mean(clean["mse_flow"] < clean["mse_price"]))
    ok = share >= 0.95
    assert _line(8, ok, f"flow filter beats price filter on {share:.1%} of paths")


def test_criterion_9_stress_robustness(params, grid1000):
    sweep = {name: [0.5, 1.5] for name in bg.LEARNING_PARAMS}
    sr = bg.stress_runner(params, sweep, grid1000,
                          bg.StrategyConfig(signal_source="price"), N_PATHS,
                          base_seed=BASE_SEED)
    ok = True
    rows = []
    for cell in sr.cells:
        b1, b2, b3 = (cell.report.benchmarks[i] for i in (1, 2, 3))
        cell_ok = (b2.mean > 0.0 and b2.p_value < 0.01
                   and b3.mean > 0.0 and b3.p_value < 0.01
                   and b1.p_value > 0.05)
        ok &= cell_ok
        rows.append(f"{cell.param} x{cell.multiplier}: "
                    f"{b1.mean:.0f}/{b2.mean:.0f}/{b3.mean:.0f}"
                    + ("" if cell_ok else " <-- violation"))
    assert _line(9, ok, "; ".join(rows))


def test_criterion_10_second_order_belief(grid1000):
    """Believing in her own influence shifts the broker's rate with inventory.

    In the broker's model the client trades ``eta = f1 alpha_hat + e nu +
    f3 q_i`` with ``e = c f2``, so a lit trade ``nu`` moves ``w = (1-e, 0, 0,
    e)`` into the state ``y = (q_b, alpha_hat, flow, q_i)``.  With value
    ``X + q_b S + y^T G y`` her Hamiltonian is concave in ``nu`` with
    curvature ``d = a - b e^2`` and is maximised at

        nu* = [p q_b/2 + b e (f1 alpha_hat + f3 q_i) + w^T G y] / d.

    (a) For c = 0 and c = 1 the tabled gains and G satisfy this first-order
    condition to 1e-9 and the HJB equation dG/dt + H = 0 to 1e-4 relative on
    t <= 0.9 (G33 is stiff near the horizon).

    (b) To first order in e (about 0.02 here) the gain rows for c = 1 and
    c = 0 differ by e/a * (G03 - G00) on q_b and e/a * (b f3 + G33 - G03) on
    q_i.  The first is positive on [0, T): a lit trade moves only 1 - e of
    itself into her own book and e into the client's, which costs her less
    (G03 > G00), so she unwinds less.  The second is negative: a lit purchase
    slows the client's unwind (f3 < 0) and so cuts the fee b eta^2 she earns
    on it, which outweighs the value of the inventory it moves to him.

    (c) q_b and q_i anti-correlate along the paths, so both terms raise the
    rate difference with q_b: its rank correlation is positive with the
    broker's inventory and negative with the client's.  The pooled sign
    depends on the configuration (under flow learning at default penalties
    the alpha_hat term dominates), hence beta0 = 1e-5 and price learning.
    """
    p10 = bg.DEFAULT_PARAMS.replace(beta0_trader=1e-5, beta0_broker=1e-5)
    tr = bg.solve_trader(p10, grid1000)
    br1 = bg.solve_broker(p10.replace(c_belief=1.0), tr, grid1000)
    br0 = bg.solve_broker(p10.replace(c_belief=0.0), tr, grid1000)
    foc, hjb = np.max([broker_hjb_residuals(p10.replace(c_belief=c), tr, br)
                       for c, br in ((0.0, br0), (1.0, br1))], axis=0)

    w1, w0 = br1.gains.values, br0.gains.values
    d_qb = w1[:-1, 0] - w0[:-1, 0]
    d_qi = w1[:-1, 3] - w0[:-1, 3]

    fl = bg.flow_filter_coefficients(tr, p10, grid1000)
    bundle1 = CoefficientBundle(tr, br1, fl)
    _, rec = bg.simulate_recorded(p10, bundle1,
                                  bg.StrategyConfig(signal_source="price"), 200, 909)
    qb, ah = rec["q_broker"], rec["alpha_hat_price"]
    xi, qi = rec["flow"], rec["q_trader_belief"]
    diff = ((w1[:, 0, None] - w0[:, 0, None]) * qb
            + (w1[:, 1, None] - w0[:, 1, None]) * ah
            + (w1[:, 2, None] - w0[:, 2, None]) * xi
            + (w1[:, 3, None] - w0[:, 3, None]) * qi)
    rho_qb = float(sps.spearmanr(diff.ravel(), qb.ravel()).statistic)
    rho_qi = float(sps.spearmanr(diff.ravel(), rec["q_trader"].ravel()).statistic)
    ok = (foc < 1e-9 and hjb < 1e-4
          and d_qb.min() > 0.0 and d_qi.max() < 0.0
          and rho_qb > 0.1 and rho_qi < -0.1)
    assert _line(10, ok, f"spearman(diff, q_broker) = {rho_qb:+.3f} (required > +0.1), "
                         f"spearman(diff, q_trader) = {rho_qi:+.3f} (required < -0.1); "
                         f"gain diff on q_broker in [{d_qb.min():.2e}, {d_qb.max():.2e}], "
                         f"on q_trader in [{d_qi.min():.2e}, {d_qi.max():.2e}]; "
                         f"worst residual: FOC {foc:.1e}, HJB {hjb:.1e}")


def test_criterion_11_determinism(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[grid]\nsteps = 300\n\n[experiment]\npaths = 200\nseed = 77\n")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(["--config", str(ini), "--out-dir", str(out), "experiment"]) == 0
        assert cli_main(["--config", str(ini), "--out-dir", str(out), "coeffs"]) == 0
        outs.append(out)
    same = True
    for name in ("report.json", "report.csv", "trader_coefficients.csv",
                 "broker_coefficients.csv", "eigenvalues.csv"):
        same &= (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert _line(11, same, "repeated runs byte-identical" if same
                 else "outputs differ between identical runs")
