"""Experiment statistics: outperformance, significance tests, externalisation.

Outperformance of the optimal broker over a benchmark is the terminal wealth
gap divided by the benchmark path's traded notional, quoted in dollars per
million dollars traded.  Significance uses a one-sided t test of the null
that the mean outperformance is zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import stats as sps

from .broker import BrokerCoefficients
from .errors import MetricUndefinedError, ValidationError
from .odes import DeterministicTable, write_columns_csv
from .params import ModelParams
from .trader import TraderCoefficients

__all__ = [
    "TTestResult",
    "one_sided_t_test",
    "outperformance",
    "externalisation_quotient",
    "effective_externalisation",
    "BenchmarkStats",
    "ExperimentReport",
    "build_experiment_report",
    "report_to_json",
    "report_to_csv",
    "StressCell",
    "StressReport",
    "stress_runner",
    "LEARNING_PARAMS",
    "SIGNIFICANCE_LEVEL",
]

LEARNING_PARAMS = ("kappa_signal", "sigma_signal", "theta_speed", "sigma_speed")
SIGNIFICANCE_LEVEL = 1e-3   # cells below this are starred in stress tables


@dataclass(frozen=True)
class TTestResult:
    t_stat: float
    p_value: float
    n: int
    mean: float
    std: float
    flagged: bool = False    # degenerate sample: n < 2 or zero dispersion


def one_sided_t_test(samples) -> TTestResult:
    """Test H0: mean == 0 against H1: mean > 0.

    Degenerate samples (fewer than two points, or zero dispersion) are not an
    error: they come back flagged with t = 0 and p = 0.5.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    mean = float(x.mean()) if n else 0.0
    if n < 2:
        return TTestResult(0.0, 0.5, n, mean, 0.0, flagged=True)
    std = float(x.std(ddof=1))
    if std == 0.0:
        return TTestResult(0.0, 0.5, n, mean, 0.0, flagged=True)
    t = mean / (std / np.sqrt(n))
    p = float(sps.t.sf(t, n - 1))
    return TTestResult(float(t), p, n, mean, std, flagged=False)


def outperformance(path_opt, path_bench, scale: float = 1e6) -> float:
    """Wealth gap of the optimal arm over a benchmark arm (coupled noise),
    per ``scale`` dollars of the benchmark path's traded notional."""
    denom = path_bench.notional
    if denom == 0.0:
        raise MetricUndefinedError("traded notional is zero; outperformance undefined")
    gap = path_opt.wealth_broker - path_bench.wealth_broker
    return gap / denom * scale


def externalisation_quotient(nu, eta, epsilon: float = 0.1):
    """Clamped rate ratio G(nu)/G(eta) with G(x) = max(x, eps) for x >= 0 and
    min(x, -eps) otherwise, so the quotient never divides by ~0."""
    def clamp(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, np.maximum(x, epsilon), np.minimum(x, -epsilon))

    out = clamp(nu) / clamp(eta)
    return float(out) if out.ndim == 0 else out


def effective_externalisation(trader: TraderCoefficients,
                              broker: BrokerCoefficients) -> DeterministicTable:
    """Ratio of the broker's signal-estimate gain to the trader's signal gain:
    the rate at which informed flow is effectively offloaded when the
    broker's estimate is good.  Both gains vanish at the horizon, so the last
    interior node is reused there."""
    grid = trader.grid
    num = broker.gains.values[:, 1].copy()
    den = trader.f1.values.copy()
    if np.any(np.abs(den[:-1]) < 1e-14):
        raise MetricUndefinedError("trader signal gain ~ 0 before the horizon")
    ratio = np.empty_like(den)
    ratio[:-1] = num[:-1] / den[:-1]
    ratio[-1] = ratio[-2]
    return DeterministicTable("effective_externalisation", grid, ratio)


@dataclass(frozen=True)
class BenchmarkStats:
    mean: float
    std: float
    t_stat: float
    p_value: float
    n_effective: int
    n_excluded: int
    flagged: bool


@dataclass(frozen=True)
class ExperimentReport:
    schema: str
    mode: str
    mispecify_qi: bool
    c_belief: float | None
    n_paths: int
    base_seed: int
    params_digest: str
    model_params_digest: str
    benchmarks: dict = field(default_factory=dict)      # {1|2|3: BenchmarkStats}
    raw_performance: dict = field(default_factory=dict)  # {arm: (mean, std, flagged)}
    blown_paths: dict = field(default_factory=dict)      # {arm: count}


def build_experiment_report(per_arm: dict, params: ModelParams,
                            model_params: ModelParams, config, n_paths: int,
                            base_seed: int) -> ExperimentReport:
    """Aggregate per-path metrics from the four strategy arms."""
    opt = per_arm["optimal"]
    benchmarks = {}
    for i in (1, 2, 3):
        arm = per_arm[f"benchmark{i}"]
        valid = (~opt["blown"]) & (~arm["blown"]) & (arm["notional"] > 0.0)
        out = (opt["wealth_broker"][valid] - arm["wealth_broker"][valid]) \
            / arm["notional"][valid] * 1e6
        tt = one_sided_t_test(out)
        benchmarks[i] = BenchmarkStats(
            mean=tt.mean, std=tt.std, t_stat=tt.t_stat, p_value=tt.p_value,
            n_effective=int(valid.sum()), n_excluded=int(n_paths - valid.sum()),
            flagged=tt.flagged,
        )
    raw = {}
    blown = {}
    for arm, m in per_arm.items():
        ok = ~m["blown"]
        w = m["wealth_broker"][ok]
        if w.size >= 2:
            raw[arm] = (float(w.mean()), float(w.std(ddof=1)), False)
        else:
            raw[arm] = (float(w.mean()) if w.size else 0.0, 0.0, True)
        blown[arm] = int(m["blown"].sum())
    return ExperimentReport(
        schema="brokergame.experiment/1",
        mode=config.signal_source,
        mispecify_qi=bool(config.mispecify_qi),
        c_belief=config.c_belief,
        n_paths=n_paths,
        base_seed=base_seed,
        params_digest=params.digest(),
        model_params_digest=model_params.digest(),
        benchmarks=benchmarks,
        raw_performance=raw,
        blown_paths=blown,
    )


def report_to_json(report: ExperimentReport) -> str:
    doc = {
        "schema": report.schema,
        "mode": report.mode,
        "mispecify_qi": report.mispecify_qi,
        "c_belief": report.c_belief,
        "n_paths": report.n_paths,
        "base_seed": report.base_seed,
        "params_digest": report.params_digest,
        "model_params_digest": report.model_params_digest,
        "benchmarks": {
            str(i): {
                "mean": b.mean, "std": b.std, "t_stat": b.t_stat,
                "p_value": b.p_value, "n_effective": b.n_effective,
                "n_excluded": b.n_excluded, "flagged": b.flagged,
            } for i, b in sorted(report.benchmarks.items())
        },
        "raw_performance": {
            arm: {"mean": v[0], "std": v[1], "flagged": v[2]}
            for arm, v in sorted(report.raw_performance.items())
        },
        "blown_paths": dict(sorted(report.blown_paths.items())),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def report_to_csv(report: ExperimentReport, path_or_file) -> None:
    """Benchmark rows in the (i, mean, std, p) layout."""
    rows = sorted(report.benchmarks.items())
    write_columns_csv(
        path_or_file,
        ["i", "mean", "std", "p"],
        [
            [float(i) for i, _ in rows],
            [b.mean for _, b in rows],
            [b.std for _, b in rows],
            [b.p_value for _, b in rows],
        ],
    )


@dataclass(frozen=True)
class StressCell:
    param: str
    multiplier: float
    report: ExperimentReport


@dataclass(frozen=True)
class StressReport:
    base: ExperimentReport
    cells: tuple


def stress_runner(params: ModelParams, sweep: dict, grid, config, n_paths: int,
                  base_seed: int | None = None, chunk_size: int = 2500,
                  threads: int = 1) -> StressReport:
    """Re-run the experiment with the broker's learning parameters scaled.

    ``sweep`` maps a learning-parameter name to a list of multipliers.  A
    stressed value enters only the broker's coefficient systems and filters;
    the client keeps the true coefficients and the simulated dynamics keep
    the base parameters.  Each chunk of paths draws its noise once and runs
    the base cell's four arms plus every stressed cell's optimal arm on it.
    A cell's report reuses the base cell's benchmark arms: their rules read
    only the broker's inventory, the client flows and the true trader, none
    of which the stress touches.
    """
    from .sim import BROKER_MODES, _run_jobs, _Tables, build_coefficients  # deferred: cycle

    for name in sweep:
        if name not in LEARNING_PARAMS:
            raise ValidationError(
                f"can only stress learning parameters {LEARNING_PARAMS}, got {name!r}"
            )
    seed = config.seed if base_seed is None else int(base_seed)
    base = build_coefficients(params, grid, c_belief=config.c_belief)
    base_tables = _Tables(params, params, base)
    jobs = [(base_tables, replace(config, broker_mode=arm)) for arm in BROKER_MODES]
    cells = [(name, float(mult), params.replace(**{name: getattr(params, name) * float(mult)}))
             for name, multipliers in sweep.items() for mult in multipliers]
    optimal = replace(config, broker_mode="optimal")
    for _, _, stressed in cells:
        bundle = build_coefficients(stressed, grid, c_belief=config.c_belief)
        jobs.append((_Tables(params, stressed, bundle, trader_true=base.trader), optimal))
    results = _run_jobs(jobs, seed, grid.steps, n_paths, chunk_size, threads)

    base_arms = dict(zip(BROKER_MODES, results))
    report = lambda per_arm, model: build_experiment_report(
        per_arm, params=params, model_params=model, config=config, n_paths=n_paths,
        base_seed=seed)
    return StressReport(
        base=report(base_arms, params),
        cells=tuple(StressCell(name, mult, report({**base_arms, "optimal": arms}, stressed))
                    for (name, mult, stressed), arms in zip(cells, results[4:])))


def stress_to_json(sr: StressReport) -> str:
    doc = {
        "schema": "brokergame.stress/1",
        "base": json.loads(report_to_json(sr.base)),
        "cells": [
            {"param": c.param, "multiplier": c.multiplier,
             "report": json.loads(report_to_json(c.report))}
            for c in sr.cells
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def stress_to_csv(sr: StressReport, path_or_file) -> None:
    """Tidy table: one row per (cell, benchmark) with a significance marker."""
    lines = ["param,multiplier,i,mean,std,p,significant"]
    def rows(tag_param, tag_mult, rep):
        for i, b in sorted(rep.benchmarks.items()):
            star = 1.0 if b.p_value < SIGNIFICANCE_LEVEL else 0.0
            lines.append(",".join([
                tag_param, "%.17g" % tag_mult, str(i),
                "%.17g" % b.mean, "%.17g" % b.std, "%.17g" % b.p_value,
                "%d" % star,
            ]))
    rows("base", 1.0, sr.base)
    for c in sr.cells:
        rows(c.param, c.multiplier, c.report)
    data = "\n".join(lines) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(data)
    else:
        with open(path_or_file, "w", encoding="ascii", newline="") as fh:
            fh.write(data)
