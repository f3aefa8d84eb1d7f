import ast
import importlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import brokergame as bg
from brokergame import analytics, sim
from brokergame.sim import BROKER_MODES, _draw_noise, _simulate_core, _Tables


def test_outperformance_identical_paths_zero():
    assert bg.outperformance(5.0, 5.0, 300.0) == 0.0


def test_outperformance_two_step_arithmetic():
    # price 100 and three unit rates over a unit horizon: notional 300
    assert bg.outperformance(0.001, 0.0, 300.0) == pytest.approx(0.001 / 300.0 * 1e6, rel=1e-12)


def test_outperformance_linear_in_gap():
    one = bg.outperformance(0.5, 0.0, 300.0)
    two = bg.outperformance(1.0, 0.0, 300.0)
    assert two == pytest.approx(2.0 * one, rel=1e-12)
    # arrays of paths give the per-path values
    many = bg.outperformance(np.array([0.5, 1.0]), np.zeros(2), np.full(2, 300.0))
    assert many.tolist() == [one, two]


def test_outperformance_zero_notional_error():
    with pytest.raises(bg.MetricUndefinedError):
        bg.outperformance(0.0, 0.0, 0.0)
    with pytest.raises(bg.MetricUndefinedError):
        bg.outperformance(np.ones(3), np.zeros(3), np.array([1.0, 0.0, 2.0]))


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


def test_p_value_separates_extreme_and_tiny_statistics():
    base = np.array([-1.0, 0.0, 1.0] * 10)
    # float64 sf gives exactly 1.0 for both (t = -19.8 and -18.1)
    far, near = (bg.one_sided_t_test(base + m) for m in (-3.0, -2.75))
    assert near.t_stat > far.t_stat and 1 > far.p_value > near.p_value
    # t**2 underflows below about 1e-154
    zero, tiny = (bg.one_sided_t_test([-1.0, 1.0, x]) for x in (0.0, 1e-300))
    assert zero.t_stat == 0.0 < tiny.t_stat
    assert zero.p_value == 0.5 > tiny.p_value
    assert float(far.p_value) == pytest.approx(1.0)
    assert float(tiny.p_value) == pytest.approx(0.5)


def _scipy_stats_smaller_mass(t, df):
    """The smaller of P(0 < T < |t|) and P(T > |t|) from scipy.stats, which the
    package itself does not import."""
    a = abs(t)
    if a < 1e-8:
        core = a * sps.t.pdf(0.0, df)
    else:
        core = 0.5 * sps.beta.cdf(a * a / (df + a * a), 0.5, 0.5 * df)
    return min(core, sps.t.sf(a, df))


def test_t_test_smaller_mass_matches_scipy_stats():
    targets = (0.0, 1e-300, -1e-300, 1e-12, -5e-9, 2e-8, -0.3, 1.0, -2.5, 6.0,
               -18.1, 19.8, 40.0, -1e3, 1e5, -1e8, 1e11)
    samples = [np.array([-1.0, 0.0, 1.0] * 10) + m for m in (-3.0, -2.75)]  # t = -19.8, -18.1
    samples.append(np.array([-1.0, 1.0, 1e-300]))
    for df in (*range(1, 201), 999, 4999, 9999):
        base = np.zeros(df + 1)
        base[:2] = (-1.0, 1.0)
        scale = base.std(ddof=1) / np.sqrt(df + 1)
        samples += [base + t * scale for t in targets]
    results = [bg.one_sided_t_test(x) for x in samples]
    checked = 0
    for res in results:
        assert not res.flagged
        p = res.p_value
        mass = min(abs(p - Fraction(1, 2)), p, 1 - p)    # the mass p is built from
        expected = _scipy_stats_smaller_mass(res.t_stat, res.n - 1)
        if expected >= 1e-290:
            assert float(mass) == pytest.approx(expected, rel=1e-10, abs=0.0), (res.n, res.t_stat)
            checked += 1
    assert checked > len(results) // 2
    assert [round(res.t_stat, 1) for res in results[:2]] == [-19.8, -18.1]
    stats = [abs(res.t_stat) for res in results]
    assert 0.0 in stats and 0.0 < min(t for t in stats if t) < 1e-290 and max(stats) > 1e10


def test_p_value_follows_power_tail_past_float64_underflow():
    # P(T > t) ~ C t^-df: at df 29 the tail leaves float64's range between
    # t = 1e11 and 1e12 and t^2 overflows past 1e154, yet p stays positive
    # and decreasing
    ts = (1e11, 1e12, 1e50, 1e200)
    ps = [analytics._p_value(t, 29) for t in ts]
    assert ps[0] > ps[1] > ps[2] > ps[3] > 0
    assert float(ps[0]) > 0.0 == float(ps[1])
    for t, p in zip(ts, ps):
        ratio = analytics._p_value(10.0 * t, 29) / p * Fraction(10) ** 29
        assert float(ratio) == pytest.approx(1.0, rel=1e-9), t
    assert 1 > analytics._p_value(-1e200, 29) > analytics._p_value(-1e50, 29)


# the smaller mass at t = 10^(k/8), k = -4..8, by mpmath at 50 digits: the
# core I_y(1/2, df/2) / 2, with y = t^2 / (df + t^2), by its series, or the
# tail 1/2 - core, whichever is smaller
MPMATH_MASSES = {
    10 ** 5: (1.2408485296681044e-1, 1.6337626828886017e-1, 2.1305762602457798e-1,
              2.266600932634132e-1, 1.5865646378205501e-1, 9.1181892206597646e-2,
              3.7680506950710017e-2, 8.8619926193438965e-3, 7.8293490897911502e-4,
              1.2391488495477803e-5, 9.3859319355969444e-9, 3.243173152544027e-14,
              7.816507650103639e-24),
    10 ** 6: (1.2408514997600874e-1, 1.633766761937373e-1, 2.1305819324892101e-1,
              2.2665929938008349e-1, 1.5865537491678906e-1, 9.1180525363048273e-2,
              3.7679140027705189e-2, 8.8611452471495908e-3, 7.8272450520839306e-4,
              1.2381704360177833e-5, 9.3635266767293816e-9, 3.2193807269397465e-14,
              7.6393053840891248e-24),
    10 ** 7: (1.240851796769683e-1, 1.6337671698428349e-1, 2.130582499714475e-1,
              2.2665921999159349e-1, 1.5865526602999297e-1, 9.1180388678345148e-2,
              3.7679003335486747e-2, 8.8610605114130669e-3, 7.8270346660407964e-4,
              1.238072625954176e-5, 9.3612886342199426e-9, 3.2170102337683784e-14,
              7.6217961451368782e-24),
}


def test_smaller_mass_matches_mpmath_past_1e4_degrees_of_freedom():
    # past 1e4 degrees of freedom the tail's Lentz steps near the switch
    # point lost up to 4.0e-12 relative at df 1e5 and 2.2e-10 at 1e7
    for df, masses in MPMATH_MASSES.items():
        for k, expect in zip(range(-4, 9), masses):
            p = analytics._p_value(10.0 ** (k / 8), df)
            mass = min(p, 1 - p, abs(p - Fraction(1, 2)))
            assert abs(float(mass) / expect - 1.0) < 1e-12, (df, k)


def test_t_test_non_finite_samples_rejected():
    with pytest.raises(bg.ValidationError):
        bg.one_sided_t_test([1.0, np.nan, 2.0])


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


def test_report_of_a_numpy_integer_path_count(params, grid200, bundle200):
    report, _ = bg.run_experiment(params, grid200, bg.StrategyConfig(), np.int64(4),
                                  base_seed=9, bundle=bundle200)
    assert json.loads(bg.report_to_json(report))["n_paths"] == 4


def test_zero_dispersion_arm_is_flagged(params):
    # raw performance comes from the t test, which flags a sample with no spread
    rng = np.random.default_rng(3)
    arm = lambda wealth: {"wealth_broker": wealth, "notional": np.ones(6),
                          "blown": np.zeros(6, dtype=bool)}
    per_arm = {name: arm(rng.standard_normal(6)) for name in BROKER_MODES}
    per_arm["optimal"] = arm(np.full(6, 2.5))
    report = analytics.build_experiment_report(per_arm, params, params, bg.StrategyConfig())
    assert report.raw_performance["optimal"] == (2.5, 0.0, True)
    assert not report.raw_performance["benchmark1"][2]
    assert (report.n_paths, report.base_seed) == (6, bg.StrategyConfig().seed)


# the report layout, key by key: a field added to a report dataclass, or a
# key renamed, must show up here
_REPORT_JSON = """\
{
  "base_seed": 42,
  "benchmarks": {
    "2": {
      "flagged": false,
      "mean": 12.5,
      "n_effective": 9,
      "n_excluded": 1,
      "p_value": 0.0009765625,
      "std": 3.25,
      "t_stat": 4.0
    }
  },
  "blown_paths": {
    "benchmark2": 1,
    "optimal": 0
  },
  "c_belief": 0.5,
  "mispecify_qi": true,
  "mode": "flow",
  "model_params_digest": "fedcba9876543210",
  "n_paths": 10,
  "params_digest": "0123456789abcdef",
  "raw_performance": {
    "benchmark2": {
      "flagged": true,
      "mean": -2.0,
      "std": 0.0
    },
    "optimal": {
      "flagged": false,
      "mean": 1.5,
      "std": 0.25
    }
  },
  "schema": "brokergame.experiment/1"
}"""

_STRESS_JSON = """\
{
  "base": {
    "base_seed": 42,
    "benchmarks": {
      "1": {
        "flagged": false,
        "mean": 12.5,
        "n_effective": 9,
        "n_excluded": 1,
        "p_value": 0.0009765625,
        "std": 3.25,
        "t_stat": 4.0
      },
      "3": {
        "flagged": true,
        "mean": -0.75,
        "n_effective": 0,
        "n_excluded": 10,
        "p_value": 0.5,
        "std": 3.25,
        "t_stat": 4.0
      }
    },
    "blown_paths": {
      "benchmark2": 1,
      "optimal": 0
    },
    "c_belief": 1.0,
    "mispecify_qi": true,
    "mode": "flow",
    "model_params_digest": "0123456789abcdef",
    "n_paths": 10,
    "params_digest": "0123456789abcdef",
    "raw_performance": {
      "benchmark2": {
        "flagged": true,
        "mean": -2.0,
        "std": 0.0
      },
      "optimal": {
        "flagged": false,
        "mean": 1.5,
        "std": 0.25
      }
    },
    "schema": "brokergame.experiment/1"
  },
  "cells": [
    {
      "multiplier": 0.5,
      "param": "theta_speed",
      "report": {
        "base_seed": 42,
        "benchmarks": {
          "2": {
            "flagged": false,
            "mean": 12.5,
            "n_effective": 9,
            "n_excluded": 1,
            "p_value": 0.0009765625,
            "std": 3.25,
            "t_stat": 4.0
          }
        },
        "blown_paths": {
          "benchmark2": 1,
          "optimal": 0
        },
        "c_belief": 0.5,
        "mispecify_qi": true,
        "mode": "flow",
        "model_params_digest": "fedcba9876543210",
        "n_paths": 10,
        "params_digest": "0123456789abcdef",
        "raw_performance": {
          "benchmark2": {
            "flagged": true,
            "mean": -2.0,
            "std": 0.0
          },
          "optimal": {
            "flagged": false,
            "mean": 1.5,
            "std": 0.25
          }
        },
        "schema": "brokergame.experiment/1"
      }
    }
  ],
  "schema": "brokergame.stress/1"
}"""


def test_report_layout_is_pinned():
    stats = analytics.BenchmarkStats(mean=12.5, std=3.25, t_stat=4.0, p_value=0.0009765625,
                                     n_effective=9, n_excluded=1, flagged=False)
    # filtered to benchmark 2, as ``brokergame --benchmark 2 experiment`` writes it
    report = analytics.ExperimentReport(
        schema="brokergame.experiment/1", mode="flow", mispecify_qi=True, c_belief=0.5,
        n_paths=10, base_seed=42, params_digest="0123456789abcdef",
        model_params_digest="fedcba9876543210", benchmarks={2: stats},
        raw_performance={"optimal": (1.5, 0.25, False), "benchmark2": (-2.0, 0.0, True)},
        blown_paths={"optimal": 0, "benchmark2": 1})
    assert bg.report_to_json(report) == _REPORT_JSON
    flagged = replace(stats, mean=-0.75, p_value=0.5, n_effective=0, n_excluded=10,
                      flagged=True)
    base = replace(report, model_params_digest="0123456789abcdef", c_belief=1.0,
                   benchmarks={3: flagged, 1: stats})
    sr = analytics.StressReport(base=base,
                                cells=(analytics.StressCell("theta_speed", 0.5, report),))
    assert bg.stress_to_json(sr) == _STRESS_JSON


def test_params_digest_ignores_int_float_spelling(params):
    # reports carry the digest, so an int field and the equal float must agree
    for name in ("c_belief", "perm_impact"):
        assert params.replace(**{name: 0}).digest() == params.replace(**{name: 0.0}).digest()
    assert params.replace(c_belief=1).digest() == params.digest()
    assert type(params.replace(perm_impact=0).perm_impact) is float


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
        bundle = bg.build_coefficients(model, grid)
        tables = _Tables(params, model, bundle, trader_true=bg.solve_trader(params, grid))
        q0, eps = _draw_noise(seed, range(n_paths), grid.steps)
        per_arm = {arm: _simulate_core(tables, replace(config, broker_mode=arm), eps, q0,
                                       record=False)[0]
                   for arm in BROKER_MODES}
        return analytics.build_experiment_report(per_arm, params=params, model_params=model,
                                                 config=replace(config, seed=seed))
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
    for chunk in (13, 30):
        sr = bg.stress_runner(params, sweep, grid, config, 30, base_seed=23,
                              chunk_size=chunk)
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


def test_stress_report_equals_one_report_per_cell(params):
    # the sweep forms its benchmark arms' statistics once for all its
    # reports; the JSON is byte for byte the one assembled from one
    # build_experiment_report call per cell on the same arms
    sweep = {name: [0.5, 1.5] for name in bg.LEARNING_PARAMS}
    grid, config, n_paths = bg.TimeGrid(1.0, 50), bg.StrategyConfig(seed=23), 30
    swept = bg.stress_runner(params, sweep, grid, config, n_paths, chunk_size=13)
    base = bg.build_coefficients(params, grid, with_flow=False)
    _, base_arms = bg.run_experiment(params, grid, config, n_paths, bundle=base)
    q0, eps = _draw_noise(config.seed, range(n_paths), grid.steps)
    cells = []
    for name, multipliers in sweep.items():
        for mult in multipliers:
            model = params.replace(**{name: getattr(params, name) * mult})
            tables = _Tables(params, model, bg.build_coefficients(model, grid, with_flow=False),
                             trader_true=base.trader)
            optimal, _ = _simulate_core(tables, config, eps, q0, record=False)
            report = analytics.build_experiment_report(
                {**base_arms, "optimal": optimal}, params=params, model_params=model, config=config)
            cells.append(bg.StressCell(name, mult, report))
    report = analytics.build_experiment_report(base_arms, params=params, model_params=params,
                                               config=config)
    assert bg.stress_to_json(swept) == bg.stress_to_json(bg.StressReport(report, tuple(cells)))


@pytest.mark.parametrize("source, builds", [("price", 0), ("naive", 0), ("flow", 9)])
def test_stress_runner_builds_flow_tables_only_for_flow_cells(params, monkeypatch,
                                                              source, builds):
    calls = []
    real = sim.flow_filter_coefficients
    monkeypatch.setattr(sim, "flow_filter_coefficients",
                        lambda *args: calls.append(1) or real(*args))
    sweep = {name: [0.5, 1.5] for name in bg.LEARNING_PARAMS}
    bg.stress_runner(params, sweep, bg.TimeGrid(1.0, 50),
                     bg.StrategyConfig(signal_source=source), 5, base_seed=23)
    assert len(calls) == builds


def test_package_imports_and_runs_without_scipy(tmp_path):
    # the package needs numpy alone: a finder that refuses every scipy module
    # stands in for an environment without scipy
    ini = tmp_path / "small.ini"
    ini.write_text("[grid]\nsteps = 120\n")
    argv = ["--config", str(ini), "--out-dir", str(tmp_path / "out"), "diag"]
    code = f"""
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("no scipy: " + name)

sys.meta_path.insert(0, NoScipy())
import brokergame, brokergame.cli
res = brokergame.one_sided_t_test([0.5, 1.0, 2.0, 1.5])
assert 0 < res.p_value < 0.5, res
status = brokergame.cli.main({argv!r})
print(status, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(bg.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "eigenvalues.csv").exists()


def test_public_names_match_module_all():
    # every name a module exports resolves, and every name the package
    # re-exports from a module is in that module's __all__ (so a star import
    # of the module gives the same names; a module without __all__ exports
    # its names without a leading underscore)
    tree = ast.parse(open(bg.__file__, encoding="utf-8").read())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
    assert "analytics" in imported and "sim" in imported
    for name, names in sorted(imported.items()):
        module = importlib.import_module(f"brokergame.{name}")
        exported = set(getattr(module, "__all__",
                               [n for n in vars(module) if not n.startswith("_")]))
        missing = [n for n in exported if not hasattr(module, n)]
        assert not missing, (name, missing)
        assert names <= exported, (name, sorted(names - exported))
