"""Experiment statistics: outperformance, significance tests, externalisation.

Outperformance of the optimal broker over a benchmark is the terminal wealth
gap divided by the benchmark path's traded notional, quoted in dollars per
million dollars traded.  Significance uses a one-sided t test of the null
that the mean outperformance is zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .broker import BrokerCoefficients
from .errors import ExistenceError, MetricUndefinedError, ValidationError
from .odes import DeterministicTable, _write_text, write_columns_csv
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
    "stress_to_json",
    "stress_to_csv",
    "LEARNING_PARAMS",
    "SIGNIFICANCE_LEVEL",
]

LEARNING_PARAMS = ("kappa_signal", "sigma_signal", "theta_speed", "sigma_speed")
SIGNIFICANCE_LEVEL = 1e-3   # cells below this are starred in stress tables
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class TTestResult:
    t_stat: float
    p_value: Fraction        # exact, see one_sided_t_test
    n: int
    mean: float
    std: float
    flagged: bool = False    # degenerate sample: n < 2 or zero dispersion


def one_sided_t_test(samples) -> TTestResult:
    """Test H0: mean == 0 against H1: mean > 0.

    Degenerate samples (fewer than two points, or zero dispersion) are not an
    error: they come back flagged with t = 0 and p = 0.5. Non-finite samples
    raise ``ValidationError``.

    The p-value is an exact ``Fraction`` built from the smaller of the two
    masses P(0 < T < |t|) and P(T > |t|), each a regularised incomplete beta
    function (``_beta_inc``) within about 5e-13 relative to its own size up
    to 1e8 degrees of freedom.
    In floating point 1/2 -+ a small mass rounds to 1/2, 1 - P(T > |t|)
    rounds to 1 once t < -17 at 29 degrees of freedom, and P(T > |t|)
    underflows once |t| > 1e11 there; the exact value keeps p strictly
    decreasing in t for every finite t.
    """
    n, mean, std, flagged = _moments(samples)
    if flagged:
        return TTestResult(0.0, Fraction(1, 2), n, mean, 0.0, flagged=True)
    t = float(mean / (std / np.sqrt(n)))
    return TTestResult(t, _p_value(t, n - 1), n, mean, std, flagged=False)


def _moments(samples) -> tuple:
    """(n, mean, ddof=1 std, flagged) of finite samples; a degenerate sample
    (n < 2 or zero dispersion) is flagged and has std 0."""
    x = np.asarray(samples, dtype=float)
    if not np.isfinite(x).all():
        raise ValidationError("t test samples must be finite")
    n = x.size
    mean = float(x.mean()) if n else 0.0
    std = float(x.std(ddof=1)) if n >= 2 else 0.0
    return n, mean, std, std == 0.0


def _p_value(t: float, df: int) -> Fraction:
    """P(T > t) for Student's t with ``df`` degrees of freedom, exact as a
    ``Fraction`` of the smaller mass's float evaluation."""
    a = abs(t)
    if a < 1e-8:
        # P(0 < T < a) = a f(0) (1 + O(a^2)); a^2 / (df + a^2) would lose or
        # underflow a, the exact product stays strictly increasing, and the
        # tail, all but 1/2, is never the smaller mass
        density0 = math.exp(math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df))
        core = Fraction(a) * Fraction(density0 / math.sqrt(df * math.pi))
        tail = Fraction(1, 2)
    else:
        # x = df / (df + t^2) and y = 1 - x from s = t^2 / df; once t^2
        # overflows, log x = log df - 2 log a without squaring
        s = a * a / df
        log_x = -math.log1p(s) if s < math.inf else math.log(df) - 2.0 * math.log(a)
        log_y = -math.log1p(1.0 / s)
        tail = _beta_inc(0.5 * df, 0.5, log_x, log_y) / 2
        core = _beta_inc(0.5, 0.5 * df, log_y, log_x) / 2
    if core <= tail:
        return Fraction(1, 2) - core if t >= 0.0 else Fraction(1, 2) + core
    return tail if t >= 0.0 else 1 - tail


def _beta_inc(p: float, q: float, log_x: float, log_y: float) -> Fraction:
    """Regularised incomplete beta function I_x(p, q) from ``log_x`` and
    ``log_y`` = log(1 - x), exact as a ``Fraction`` of its float evaluation.

    The continued fraction of Press et al., *Numerical Recipes* (3rd ed.,
    2007), section 6.4, by the modified Lentz method, on whichever side of
    x = (p + 1) / (p + q + 2) converges fast; the prefactor x^p y^q / B(p, q)
    comes from ``math.lgamma``. On the direct side the value is carried as
    mantissa * 2**exponent, so it stays positive where a float underflows.
    """
    lo, hi = sorted((p, q))
    if hi > 100.0:       # log B(p, q) without lgamma(hi) - lgamma(hi + lo) cancelling
        stirling = lambda z: (1 / 12 - (1 / 360 - 1 / (1260 * z * z)) / (z * z)) / z
        log_beta = (math.lgamma(lo) + lo - lo * math.log(hi) + stirling(hi) - stirling(hi + lo)
                    - (hi + lo - 0.5) * math.log1p(lo / hi))
    else:
        log_beta = math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    log_front = p * log_x + q * log_y - log_beta
    x, y = math.exp(log_x), math.exp(log_y)
    mirror = x >= (p + 1.0) / (p + q + 2.0)
    if mirror:                                   # I_x(p, q) = 1 - I_y(q, p)
        p, q, x, y = q, p, y, x
    # d = 1 / (1 - (p + q) x / (p + 1)), from the smaller of x and y = 1 - x
    c, d = 1.0, (p + 1.0) / (p + 1.0 - (p + q) * x if x < y else 1.0 - q + (p + q) * y)
    frac = d
    # on the side x > y, near the switch point, the odd coefficient -a x is
    # within O(1/p) of -1 and the Lentz step's 1 + num d cancels (2.2e-10
    # relative at df 1e7).  There 1 - a x is formed as (1 - a) + a y, with
    # 1 - a from its exact numerator, and the odd step reads the even step's
    # e d and e / c, not its d and c, which round to 1.  Where x < y, a can
    # be large and (1 - a) + a y would cancel instead, so the plain steps stay
    for m in range(1, 100_000):
        even = m * (q - m) * x / ((p + 2 * m - 1) * (p + 2 * m))
        width = (p + 2 * m) * (p + 2 * m + 1)
        if x > y:
            odd = ((p * (1.0 - q) + m * (2.0 * p + 3.0 * m + 2.0 - q)) / width
                   + (p + m) * (p + q + m) / width * y)        # 1 - a x
            e_d, e_c = even * d, even / c
            c_even = 1.0 + e_c or 1e-300
            frac *= c_even / (1.0 + e_d or 1e-300)
            d = (1.0 + e_d) / (odd + e_d or 1e-300)
            c = (odd + e_c) / c_even or 1e-300
            frac *= d * c
        else:
            for num in (even, -(p + m) * (p + q + m) * x / width):
                d = 1.0 / (1.0 + num * d or 1e-300)
                c = 1.0 + num / c or 1e-300
                frac *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    if mirror:
        return Fraction(1.0 - math.exp(log_front) * frac / p)
    e = round(log_front / _LN2)
    return Fraction(math.exp(log_front - e * _LN2) * frac / p) * Fraction(2) ** e


def outperformance(wealth_opt, wealth_bench, notional_bench, scale: float = 1e6):
    """Wealth gap of the optimal arm over a benchmark arm (coupled noise),
    per ``scale`` dollars of the benchmark path's traded notional, for one
    path (floats) or many (arrays)."""
    if np.any(np.asarray(notional_bench) == 0.0):
        raise MetricUndefinedError("traded notional is zero; outperformance undefined")
    return (wealth_opt - wealth_bench) / notional_bench * scale


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
    den = trader.f1.values[:-1]
    if np.any(np.abs(den) < 1e-14):
        raise MetricUndefinedError("trader signal gain ~ 0 before the horizon")
    ratio = broker.gains.values[:-1, 1] / den
    return DeterministicTable("effective_externalisation", trader.grid,
                              np.append(ratio, ratio[-1]))


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
    c_belief: float              # the broker's belief, model_params.c_belief
    n_paths: int
    base_seed: int
    params_digest: str
    model_params_digest: str
    benchmarks: dict = field(default_factory=dict)      # {1|2|3: BenchmarkStats}
    raw_performance: dict = field(default_factory=dict)  # {arm: (mean, std, flagged)}
    blown_paths: dict = field(default_factory=dict)      # {arm: count}


def build_experiment_report(per_arm: dict, params: ModelParams,
                            model_params: ModelParams, config) -> ExperimentReport:
    """Aggregate per-path metrics from the four strategy arms: the path count
    comes from their arrays, the seed from ``config.seed``, and each arm's raw
    performance is the (mean, std, flagged) of its unblown wealth that
    ``one_sided_t_test`` also reports."""
    opt = per_arm["optimal"]
    n_paths = opt["blown"].size
    benchmarks = {}
    for i in (1, 2, 3):
        arm = per_arm[f"benchmark{i}"]
        valid = (~opt["blown"]) & (~arm["blown"]) & (arm["notional"] > 0.0)
        out = outperformance(opt["wealth_broker"][valid], arm["wealth_broker"][valid],
                             arm["notional"][valid])
        tt = one_sided_t_test(out)
        benchmarks[i] = BenchmarkStats(
            mean=tt.mean, std=tt.std, t_stat=tt.t_stat, p_value=float(tt.p_value),
            n_effective=int(valid.sum()), n_excluded=int(n_paths - valid.sum()),
            flagged=tt.flagged,
        )
    raw = {arm: _moments(m["wealth_broker"][~m["blown"]])[1:] for arm, m in per_arm.items()}
    blown = {arm: int(m["blown"].sum()) for arm, m in per_arm.items()}
    return ExperimentReport(
        schema="brokergame.experiment/1",
        mode=config.signal_source,
        mispecify_qi=bool(config.mispecify_qi),
        c_belief=float(model_params.c_belief),
        n_paths=n_paths,
        base_seed=config.seed,
        params_digest=params.digest(),
        model_params_digest=model_params.digest(),
        benchmarks=benchmarks,
        raw_performance=raw,
        blown_paths=blown,
    )


def _report_doc(report: ExperimentReport) -> dict:
    # the fields themselves: asdict's deep copy raised the stress sweep's peak RSS
    raw = {arm: dict(zip(("mean", "std", "flagged"), v))
           for arm, v in report.raw_performance.items()}
    return {**vars(report), "benchmarks": {i: vars(b) for i, b in report.benchmarks.items()},
            "raw_performance": raw}


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(_report_doc(report), indent=2, sort_keys=True)


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
    of which the stress touches.  The base cell's and every stressed cell's
    tables are built in one batch, their broker Riccati in one stacked march;
    an ``ExistenceError`` names the cell that blew up.  The flow filter's
    tables are built only when ``config.signal_source`` is ``"flow"``; no
    other cell reads them.  ``base_seed`` replaces ``config.seed``.
    ``threads`` is accepted and ignored until the benchmark's workloads stop
    passing it.
    """
    from .sim import (BROKER_MODES, _check_counts, _run_jobs, _Tables,  # deferred: cycle
                      build_bundles)

    for name in sweep:
        if name not in LEARNING_PARAMS:
            raise ValidationError(
                f"can only stress learning parameters {LEARNING_PARAMS}, got {name!r}"
            )
    if base_seed is not None:
        config = replace(config, seed=base_seed)
    _check_counts(n_paths=n_paths, chunk_size=chunk_size)
    cells = [(name, float(mult), params.replace(**{name: getattr(params, name) * float(mult)}))
             for name, multipliers in sweep.items() for mult in multipliers]
    try:
        base, *bundles = build_bundles([params] + [stressed for _, _, stressed in cells], grid,
                                       config.signal_source == "flow")
    except ExistenceError as exc:
        cell = "base" if exc.member == 0 else "%s x %g" % cells[exc.member - 1][:2]
        raise ExistenceError(f"stress cell {cell}: {exc}", exc.member) from exc
    base_tables = _Tables(params, params, base)
    jobs = [(base_tables, replace(config, broker_mode=arm)) for arm in BROKER_MODES]
    optimal = replace(config, broker_mode="optimal")
    jobs += [(_Tables(params, stressed, bundle, trader_true=base.trader), optimal)
             for (_, _, stressed), bundle in zip(cells, bundles)]
    results = _run_jobs(jobs, config.seed, grid.steps, n_paths, chunk_size)

    base_arms = dict(zip(BROKER_MODES, results))
    report = lambda per_arm, model: build_experiment_report(
        per_arm, params=params, model_params=model, config=config)
    return StressReport(
        base=report(base_arms, params),
        cells=tuple(StressCell(name, mult, report({**base_arms, "optimal": arms}, stressed))
                    for (name, mult, stressed), arms in zip(cells, results[4:])))


def stress_to_json(sr: StressReport) -> str:
    doc = {"schema": "brokergame.stress/1", "base": _report_doc(sr.base),
           "cells": [{**vars(c), "report": _report_doc(c.report)} for c in sr.cells]}
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
    _write_text(path_or_file, "\n".join(lines) + "\n")
