import io
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brokergame as bg
from brokergame import analytics, sim
from brokergame.sim import BROKER_MODES, _draw_noise, _simulate_core, _Tables


def _flat_path(grid, price, nu, eta, xi, wealth):
    n = grid.steps + 1
    return SimpleNamespace(
        grid=grid,
        price=np.full(n, float(price)),
        rate_broker=np.full(n, float(nu)),
        rate_trader=np.full(n, float(eta)),
        flow=np.full(n, float(xi)),
        wealth_broker=float(wealth),
        notional=float(price) * (abs(nu) + abs(eta) + abs(xi)) * grid.horizon,
    )


def test_outperformance_identical_paths_zero(grid200):
    p = _flat_path(grid200, 100.0, 1.0, 1.0, 1.0, 5.0)
    assert bg.outperformance(p, p) == 0.0


def test_outperformance_two_step_arithmetic():
    grid = bg.TimeGrid(1.0, 2)
    bench = _flat_path(grid, 100.0, 1.0, 1.0, 1.0, 0.0)
    opt = _flat_path(grid, 100.0, 1.0, 1.0, 1.0, 0.001)
    # constant integrand: trapezoid equals 100 * 3 * horizon
    assert bg.outperformance(opt, bench) == pytest.approx(0.001 / 300.0 * 1e6, rel=1e-12)


def test_outperformance_linear_in_gap(grid200):
    bench = _flat_path(grid200, 100.0, 1.0, 1.0, 1.0, 0.0)
    one = bg.outperformance(_flat_path(grid200, 100, 1, 1, 1, 0.5), bench)
    two = bg.outperformance(_flat_path(grid200, 100, 1, 1, 1, 1.0), bench)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_outperformance_zero_notional_error(grid200):
    silent = _flat_path(grid200, 100.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(bg.MetricUndefinedError):
        bg.outperformance(silent, silent)


def test_t_test_degenerate_zero_sample():
    res = bg.one_sided_t_test(np.zeros(10))
    assert res.flagged and res.t_stat == 0.0 and res.p_value == 0.5


def test_t_test_reference_values():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10000)
    x = (x - x.mean()) / x.std(ddof=1) * 354.0 + 38.0
    res = bg.one_sided_t_test(x)
    assert res.t_stat == pytest.approx(38.0 / (354.0 / 100.0), rel=1e-12)
    assert res.p_value < 1e-6
    assert not res.flagged


def test_t_test_symmetric_sample():
    res = bg.one_sided_t_test([-1.0, 1.0])
    assert res.t_stat == 0.0
    assert res.p_value == 0.5
    assert not res.flagged


def test_t_test_single_sample_flagged():
    res = bg.one_sided_t_test([3.2])
    assert res.flagged and res.std == 0.0


@settings(max_examples=30, deadline=None)
@given(m1=st.floats(-3, 3), m2=st.floats(-3, 3))
def test_p_value_monotone_in_t(m1, m2):
    base = np.array([-1.0, 0.0, 1.0] * 10)
    r1 = bg.one_sided_t_test(base + m1)
    r2 = bg.one_sided_t_test(base + m2)
    if r1.t_stat < r2.t_stat:
        assert r1.p_value > r2.p_value
    elif r1.t_stat > r2.t_stat:
        assert r1.p_value < r2.p_value


def test_externalisation_quotient_examples():
    assert bg.externalisation_quotient(5.0, 5.0) == 1.0
    assert bg.externalisation_quotient(0.05, 0.05) == 1.0        # both clamped
    assert bg.externalisation_quotient(-0.05, 2.0) == pytest.approx(-0.05)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-50, 50, allow_nan=False))
def test_externalisation_quotient_identity(x):
    assert bg.externalisation_quotient(x, x) == 1.0


def test_externalisation_quotient_vectorised():
    out = bg.externalisation_quotient(np.array([1.0, -0.05]), np.array([2.0, 2.0]))
    assert np.allclose(out, [0.5, -0.05])


def test_effective_externalisation_terminal_handling(bundle, grid1000):
    tab = bg.effective_externalisation(bundle.trader, bundle.broker)
    assert np.all(np.isfinite(tab.values))
    assert tab.at_index(grid1000.steps) == tab.at_index(grid1000.steps - 1)


def test_effective_externalisation_monotone_in_signal_decay(params):
    grid = bg.TimeGrid(1.0, 500)
    means = []
    for ka in (2.5, 5.0, 7.5):
        p = params.replace(kappa_signal=ka)
        tr = bg.solve_trader(p, grid)
        br = bg.solve_broker(p, tr, grid)
        means.append(bg.effective_externalisation(tr, br).values.mean())
    assert means[0] < means[1] < means[2]


def test_coupled_noise_reduces_outperformance_variance(params, grid200, bundle200):
    cfg = bg.StrategyConfig()
    _, a = bg.run_experiment(params, grid200, cfg, 500, base_seed=100, bundle=bundle200)
    _, b = bg.run_experiment(params, grid200, cfg, 500, base_seed=424243, bundle=bundle200)
    opt, ben = a["optimal"], a["benchmark2"]
    coupled = (opt["wealth_broker"] - ben["wealth_broker"]) / ben["notional"] * 1e6
    ben_ind = b["benchmark2"]
    independent = (opt["wealth_broker"] - ben_ind["wealth_broker"]) / ben_ind["notional"] * 1e6
    assert coupled.var() < independent.var()


def test_stress_requires_learning_parameter(params, grid200):
    with pytest.raises(bg.ValidationError):
        bg.stress_runner(params, {"perm_impact": [0.5]}, grid200,
                         bg.StrategyConfig(), 4)


def test_stress_identity_multiplier_reproduces_base(params, grid200, bundle200):
    sr = bg.stress_runner(params, {"kappa_signal": [1.0]}, grid200,
                          bg.StrategyConfig(), 25, base_seed=6)
    cell = sr.cells[0].report
    for i in (1, 2, 3):
        assert cell.benchmarks[i].mean == sr.base.benchmarks[i].mean
        assert cell.benchmarks[i].std == sr.base.benchmarks[i].std


def test_report_json_and_csv(params, grid200, bundle200):
    report, _ = bg.run_experiment(params, grid200, bg.StrategyConfig(), 20,
                                  base_seed=9, bundle=bundle200)
    doc = json.loads(bg.report_to_json(report))
    assert doc["schema"] == "brokergame.experiment/1"
    assert set(doc["benchmarks"]) == {"1", "2", "3"}
    for b in doc["benchmarks"].values():
        assert 0.0 <= b["p_value"] <= 1.0
        assert b["n_effective"] <= 20
    buf = io.StringIO()
    bg.report_to_csv(report, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "i,mean,std,p"
    assert len(lines) == 4


def test_stress_csv_layout(params, grid200, bundle200):
    sr = bg.stress_runner(params, {"theta_speed": [0.5, 1.5]}, grid200,
                          bg.StrategyConfig(), 10, base_seed=2)
    buf = io.StringIO()
    bg.stress_to_csv(sr, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "param,multiplier,i,mean,std,p,significant"
    assert len(lines) == 1 + 3 * (1 + 2)
    doc = json.loads(bg.stress_to_json(sr))
    assert doc["schema"] == "brokergame.stress/1"
    assert len(doc["cells"]) == 2


def _independent_stress(params, sweep, grid, config, n_paths, seed):
    """The stress sweep built cell by cell: own tables, a fresh true trader,
    all four arms on freshly drawn noise."""
    def cell(model):
        bundle = bg.build_coefficients(model, grid, c_belief=config.c_belief)
        tables = _Tables(params, model, bundle, trader_true=bg.solve_trader(params, grid))
        q0, eps = _draw_noise(seed, range(n_paths), grid.steps)
        per_arm = {arm: _simulate_core(tables, replace(config, broker_mode=arm), eps, q0,
                                       record=False)[0]
                   for arm in BROKER_MODES}
        return analytics.build_experiment_report(per_arm, params=params, model_params=model,
                                                 config=config, n_paths=n_paths,
                                                 base_seed=seed)
    cells = tuple(
        analytics.StressCell(name, float(mult),
                             cell(params.replace(**{name: getattr(params, name) * mult})))
        for name, multipliers in sweep.items() for mult in multipliers)
    return analytics.StressReport(base=cell(params), cells=cells)


def _stress_texts(sr):
    buf = io.StringIO()
    bg.stress_to_csv(sr, buf)
    return bg.stress_to_json(sr), buf.getvalue()


@pytest.mark.parametrize("cfg", [dict(signal_source="price"), dict(signal_source="flow"),
                                 dict(signal_source="flow", mispecify_qi=True)])
def test_stress_runner_matches_independent_cells(params, cfg):
    grid = bg.TimeGrid(1.0, 50)
    sweep = {name: [0.5, 1.5] for name in bg.LEARNING_PARAMS}
    config = bg.StrategyConfig(**cfg)
    oracle = _stress_texts(_independent_stress(params, sweep, grid, config, 30, 23))
    for threads in (1, 2):
        sr = bg.stress_runner(params, sweep, grid, config, 30, base_seed=23,
                              chunk_size=13, threads=threads)
        assert _stress_texts(sr) == oracle


def test_stress_runner_shares_noise_and_true_trader(params, monkeypatch):
    # one noise draw per chunk, one solve of the true trader, and per chunk
    # four arms for the base cell plus one optimal arm per stressed cell
    seen = {"noise": [], "trader": [], "arms": []}

    def spy(name, fn, key=lambda *args, **kwargs: None):
        def wrapper(*args, **kwargs):
            seen[name].append(key(*args, **kwargs))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sim, "_draw_noise", spy("noise", sim._draw_noise))
    monkeypatch.setattr(sim, "solve_trader",
                        spy("trader", sim.solve_trader, lambda p, *args: p))
    monkeypatch.setattr(sim, "_simulate_core",
                        spy("arms", sim._simulate_core,
                            lambda tables, config, *args, **kwargs: config.broker_mode))
    sweep = {name: [0.5, 1.5] for name in bg.LEARNING_PARAMS}
    bg.stress_runner(params, sweep, bg.TimeGrid(1.0, 50), bg.StrategyConfig(), 30,
                     base_seed=23, chunk_size=13)
    assert len(seen["noise"]) == 3
    assert seen["trader"].count(params) == 1 and len(seen["trader"]) == 1 + 8
    assert seen["arms"] == 3 * (list(BROKER_MODES) + ["optimal"] * 8)
