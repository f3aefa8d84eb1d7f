"""Coupled market simulation and the Monte Carlo experiment driver.

One Euler-Maruyama step advances price, signal, noise flow, both inventories,
both cash accounts and the estimators, with controls held constant over each
interval and computed from left-endpoint states.  Paths are vectorised, and
every path owns its own seeded random stream so results are independent of
batch or thread layout.

Every broker rule (the optimal rate, its inventory-unwind fallback and the
three benchmarks) is a time-varying linear feedback table on one state,
``(q_broker, alpha_est, flow, q_trader_belief, eta)``, so one step loop, with
no branch on the rule, serves every arm.  The experiment runs each arm on the
same Gaussian increments, which is what makes the outperformance statistics
tight; the stress sweep adds each stressed cell's optimal arm to the same
per-chunk pass.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .broker import BrokerCoefficients, solve_broker
from .errors import ValidationError
from .filters import (FlowFilterCoefficients, flow_filter_coefficients, price_filter_gain,
                      trader_filter_gain)
from .odes import TimeGrid, write_columns_csv
from .params import ModelParams
from .trader import TraderCoefficients, solve_trader

__all__ = [
    "StrategyConfig",
    "CoefficientBundle",
    "build_coefficients",
    "PathResult",
    "simulate_path",
    "simulate_recorded",
    "run_experiment",
    "export_path_csv",
    "export_filter_csv",
    "RECORD_SERIES",
]

BROKER_MODES = ("optimal", "benchmark1", "benchmark2", "benchmark3")
SIGNAL_SOURCES = ("price", "flow", "naive")

RECORD_SERIES = (
    "price", "signal", "flow", "rate_broker", "rate_trader",
    "q_broker", "q_trader", "q_trader_belief", "cash_broker", "cash_trader",
    "nu_hat", "alpha_hat_price", "alpha_hat_flow", "alpha_hat_naive",
)


@dataclass(frozen=True)
class StrategyConfig:
    """What the broker does on a simulated path.

    Benchmarks ignore ``signal_source``.  ``mispecify_qi`` draws the trader's
    true initial inventory from a standard normal while the broker's belief
    stays at zero; in that mode the broker falls back to a plain inventory
    unwind over the last ``unwind_tail`` steps when she relies on a
    flow-derived signal estimate (which degrades near the horizon).
    """

    broker_mode: str = "optimal"
    signal_source: str = "price"
    mispecify_qi: bool = False
    c_belief: float | None = None
    seed: int = 1729
    unwind_tail: int = 10

    def __post_init__(self):
        if self.broker_mode not in BROKER_MODES:
            raise ValidationError(f"broker_mode must be one of {BROKER_MODES}")
        if self.signal_source not in SIGNAL_SOURCES:
            raise ValidationError(f"signal_source must be one of {SIGNAL_SOURCES}")
        if self.unwind_tail < 0:
            raise ValidationError("unwind_tail must be >= 0")


@dataclass(frozen=True)
class CoefficientBundle:
    trader: TraderCoefficients
    broker: BrokerCoefficients
    flow: FlowFilterCoefficients | None


def build_coefficients(params: ModelParams, grid: TimeGrid,
                       c_belief: float | None = None,
                       with_flow: bool = True) -> CoefficientBundle:
    """Solve every deterministic table needed by the simulator."""
    trader = solve_trader(params, grid)
    broker = solve_broker(params, trader, grid, c_belief=c_belief)
    flow = flow_filter_coefficients(trader, params, grid) if with_flow else None
    return CoefficientBundle(trader, broker, flow)


@dataclass
class PathResult:
    """Full record of one simulated path (every series has steps+1 nodes)."""

    grid: TimeGrid
    config: StrategyConfig
    seed: int
    t: np.ndarray
    price: np.ndarray
    signal: np.ndarray
    flow: np.ndarray
    rate_broker: np.ndarray
    rate_trader: np.ndarray
    q_broker: np.ndarray
    q_trader: np.ndarray
    q_trader_belief: np.ndarray
    cash_broker: np.ndarray
    cash_trader: np.ndarray
    nu_hat: np.ndarray
    alpha_hat_price: np.ndarray
    alpha_hat_flow: np.ndarray
    alpha_hat_naive: np.ndarray
    # (steps+1, 4) terms of the rate on q_broker, alpha_est, flow and
    # q_trader_belief; benchmarks 1 and 3 also pass on rate_trader, which
    # is not among them
    components: np.ndarray
    wealth_broker: float             # cash + inventory marked at the last price
    wealth_trader: float
    notional: float                  # integral of price * (|nu|+|eta|+|xi|)
    blown: bool
    blow_step: int
    max_inventory_gap: float
    max_cash_gap: float


class _Tables:
    """Grid-index arrays consumed by the stepper (plain ndarrays only).

    The trader side (his feedback loadings and speed-filter gain) comes from
    ``trader_true``, or from the bundle's trader when it is None; everything
    the broker computes — her feedback gains, her filters, and the loadings
    she uses to invert the client's rate — comes from the bundle, solved
    under ``params_model`` (the stress sweep's mispecified model).
    """

    def __init__(self, params_true: ModelParams, params_model: ModelParams,
                 bundle: CoefficientBundle, trader_true: TraderCoefficients | None = None):
        tr_model, br, fl = bundle.trader, bundle.broker, bundle.flow
        tr = trader_true if trader_true is not None else tr_model
        self.grid = tr.grid
        # trader side (true dynamics of the client)
        self.f1 = tr.f1.values
        self.f2 = tr.f2.values
        self.f3 = tr.f3.values
        self.gain_nu = trader_filter_gain(tr.var_nu.values, params_true)
        self.theta_trader = params_true.theta_speed
        # broker side (her model of the client and of the signal)
        self.f1_belief = tr_model.f1.values
        self.f3_belief = tr_model.f3.values
        self.gain_price = price_filter_gain(br.var_alpha.values, params_model)
        self.gains = br.gains.values
        self.kappa_model = params_model.kappa_signal
        if fl is not None:
            self.inv_scale = fl.inv_scale.values
            self.g6 = fl.drift_scale.values
            self.g7 = fl.drift_signal.values
            self.g8 = fl.drift_flow.values
            self.g9 = fl.drift_rate.values
            self.gain_flow = (fl.drift_signal.values * fl.var_alt.values
                              + params_model.sigma_signal * fl.noise_mix.values)
        else:
            self.inv_scale = None
        self.true = params_true


def _broker_rule(tables: _Tables, config: StrategyConfig) -> np.ndarray:
    """Feedback row of the broker's rate under ``config``, shape (steps+1, 5).

    The broker trades ``rule[k] . y`` at step ``k``, where ``y = (q_broker,
    alpha_est, flow, q_trader_belief, eta)``.  The optimal rule reads its
    gains; with a mispecified client inventory and a flow-derived signal
    estimate it unwinds inventory over the last ``unwind_tail`` steps
    instead.  Benchmark 1 externalises the informed flow and unwinds
    inventory linearly, 2 internalises everything and unwinds linearly,
    3 externalises both client flows.  The unwind denominator is floored at
    one step near the horizon.
    """
    grid = tables.grid
    n = grid.steps
    unwind = -1.0 / np.maximum(grid.horizon - np.arange(n + 1) * grid.dt, grid.dt)
    rule = np.zeros((n + 1, 5))
    mode = config.broker_mode
    if mode == "optimal":
        rule[:, :4] = tables.gains
        if config.mispecify_qi and config.signal_source in ("flow", "naive"):
            tail = slice(max(n - config.unwind_tail, 0), None)
            rule[tail] = 0.0
            rule[tail, 0] = unwind[tail]
    elif mode == "benchmark1":
        rule[:, 0] = unwind
        rule[:, 4] = 1.0
    elif mode == "benchmark2":
        rule[:, 0] = unwind
    else:                                  # benchmark3
        rule[:, 2] = 1.0
        rule[:, 4] = 1.0
    return rule


def _draw_noise(base_seed: int, path_indices, steps: int):
    """Per-path streams: one initial-inventory draw then the step increments.

    Path n uses ``default_rng(base_seed ^ n)``; the draw order is fixed so
    every strategy arm sees bit-identical noise for a given path index.
    """
    m = len(path_indices)
    eps = np.empty((steps, m, 3))
    q0 = np.empty(m)
    for j, n in enumerate(path_indices):
        rng = np.random.default_rng(base_seed ^ int(n))
        q0[j] = rng.standard_normal()
        eps[:, j, :] = rng.standard_normal((steps, 3))
    return q0, eps


def _simulate_core(tables: _Tables, config: StrategyConfig, eps: np.ndarray,
                   q0_draw: np.ndarray, record: bool, init: dict | None = None):
    """Advance a batch of paths under the config's broker rule.

    Returns (metrics, records): every metric is ``(paths,)``
    (``alt_naive_checkpoints``: ``(4, paths)``); records are None unless
    ``record``, and then each series is ``(steps+1, paths)`` and
    ``components`` ``(steps+1, 4, paths)``.
    """
    p = tables.true
    grid = tables.grid
    n_steps = grid.steps
    dt = grid.dt
    sqdt = math.sqrt(dt)
    m = eps.shape[1]
    has_flow = tables.inv_scale is not None
    if config.signal_source == "flow" and not has_flow:
        raise ValidationError("signal_source='flow' requires flow-filter coefficients")
    rule = _broker_rule(tables, config).T
    # the rate sums only the state columns the rule ever reads; the broker's
    # filters and their diagnostics run when the rule reads the signal
    # estimate or the series are recorded
    active = [j for j in range(5) if rule[j].any()]
    observe = record or 1 in active
    source = SIGNAL_SOURCES.index(config.signal_source)

    rho = p.rho
    rho_c = math.sqrt(max(0.0, 1.0 - rho * rho))
    f1, f2, f3 = tables.f1, tables.f2, tables.f3
    f3b = tables.f3_belief
    # the belief loadings vanish at the horizon: readouts reuse the last interior node
    last = np.minimum(np.arange(n_steps + 1), n_steps - 1)
    f1b_c, f3b_c = tables.f1_belief[last], f3b[last]

    init = init or {}
    full = lambda key, default: np.full(m, float(init.get(key, default)))
    price = full("price", p.price_init)
    signal = full("signal", p.signal_init)
    flow = full("flow", 0.0)
    q_b = full("q_broker", 0.0)
    q_i = full("q_trader", 0.0)
    if config.mispecify_qi:
        q_i = q_i + q0_draw
    q_i0 = q_i.copy()
    q_ib = full("q_trader_belief", 0.0)
    x_b = full("cash_broker", 0.0)
    x_i = full("cash_trader", 0.0)
    nu_hat = full("nu_hat", 0.0)
    a_price = full("alpha_hat_price", 0.0)
    a_flow = full("alpha_hat_flow", 0.0)

    int_nu = np.zeros(m)
    int_xi = np.zeros(m)
    int_cost_nu = np.zeros(m)
    int_cost_xi = np.zeros(m)
    notional = np.zeros(m)
    inv_gap = np.zeros(m)
    cash_gap = np.zeros(m)
    mse_price = np.zeros(m)
    mse_flow = np.zeros(m)
    maxdiff = np.zeros(m)
    check_idx = [n_steps // 4, n_steps // 2, (3 * n_steps) // 4, max(n_steps - 10, 0)]
    checkpoints = np.zeros((len(check_idx), m))
    blown = np.zeros(m, dtype=bool)
    blow_step = np.full(m, -1, dtype=np.int64)

    rec = None
    if record:
        rec = {name: np.zeros((n_steps + 1, m)) for name in RECORD_SERIES}
        rec["components"] = np.zeros((n_steps + 1, 4, m))

    eta = f1[0] * signal + f2[0] * nu_hat + f3[0] * q_i
    gamma = eta - f3b[0] * q_ib
    ztil = gamma * tables.inv_scale[0] if has_flow else None
    a_naive = None
    f_prev = None

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            if observe:
                a_naive = gamma / f1b_c[k]
            y = (q_b, (a_price, a_flow, a_naive)[source], flow, q_ib, eta)
            nu = rule[active[0], k] * y[active[0]]
            for j in active[1:]:
                nu = nu + rule[j, k] * y[j]

            if record:
                now = dict(price=price, signal=signal, flow=flow, rate_broker=nu,
                           rate_trader=eta, q_broker=q_b, q_trader=q_i, q_trader_belief=q_ib,
                           cash_broker=x_b, cash_trader=x_i, nu_hat=nu_hat,
                           alpha_hat_price=a_price, alpha_hat_flow=a_flow,
                           alpha_hat_naive=a_naive)
                for name, value in now.items():
                    rec[name][k] = value
                for j in range(4):
                    rec["components"][k, j] = rule[j, k] * y[j]

            f_now = price * (np.abs(nu) + np.abs(eta) + np.abs(flow))
            if f_prev is not None:
                notional += 0.5 * (f_prev + f_now) * dt
            f_prev = f_now

            if observe:
                mse_price += (a_price - signal) ** 2
                mse_flow += (a_flow - signal) ** 2
                # divergence diagnostic: flow filter against the naive readout
                # fed the TRUE inventory (clean reference; under a mispecified
                # belief both belief-based estimates track the same
                # contaminated flow and their gap would hide the blow-up)
                diff = np.abs(a_flow - (eta - f3b_c[k] * q_i) / f1b_c[k])
                if k <= n_steps - 10:
                    maxdiff = np.fmax(maxdiff, diff)
                for ci, ck in enumerate(check_idx):
                    if k == ck:
                        checkpoints[ci] = diff

            if k == n_steps:
                break

            dws = sqdt * eps[k, :, 0]
            dwa = rho * dws + rho_c * sqdt * eps[k, :, 1]
            dwu = sqdt * eps[k, :, 2]

            price_new = price + (p.perm_impact * nu + signal) * dt + p.sigma_price * dws
            signal_new = signal - p.kappa_signal * signal * dt + p.sigma_signal * dwa
            flow_new = flow - p.kappa_flow * flow * dt + p.sigma_flow * dwu

            cost_nu = nu * (price + p.temp_impact * nu)
            cost_eta = eta * (price + p.fee_informed * eta)
            cost_xi = flow * (price + p.fee_uninformed * flow)
            int_nu += nu * dt
            int_xi += flow * dt
            int_cost_nu += cost_nu * dt
            int_cost_xi += cost_xi * dt
            x_b += (cost_eta - cost_nu + cost_xi) * dt
            x_i -= cost_eta * dt
            q_b += (nu - eta - flow) * dt
            q_i += eta * dt
            q_ib += eta * dt

            dprice = price_new - price
            dy = dprice - signal * dt
            nu_hat = (nu_hat - tables.theta_trader * nu_hat * dt
                      + tables.gain_nu[k] * (dy - p.perm_impact * nu_hat * dt))
            price, signal, flow = price_new, signal_new, flow_new

            eta_next = f1[k + 1] * signal + f2[k + 1] * nu_hat + f3[k + 1] * q_i
            gamma_next = eta_next - f3b[k + 1] * q_ib
            if observe:
                dz = dprice - p.perm_impact * nu * dt
                a_price = (a_price - tables.kappa_model * a_price * dt
                           + tables.gain_price[k] * (dz - a_price * dt))
                if has_flow:
                    ztil_next = gamma_next * tables.inv_scale[k + 1]
                    dzf = (ztil_next - ztil) - (tables.g6[k] * ztil + tables.g8[k] * gamma
                                                + tables.g9[k] * nu) * dt
                    innov = dzf - tables.g7[k] * a_flow * dt
                    a_flow = (a_flow - tables.kappa_model * a_flow * dt
                              + tables.gain_flow[k] * innov)
                    ztil = ztil_next
            eta, gamma = eta_next, gamma_next

            inv_gap = np.fmax(inv_gap, np.abs(q_b - int_nu + (q_i - q_i0) + int_xi))
            cash_gap = np.fmax(cash_gap, np.abs(x_b + x_i + int_cost_nu - int_cost_xi))

            probe = price + q_b + x_b + x_i + nu_hat + a_price + a_flow
            if not np.isfinite(probe).all():
                fresh = ~np.isfinite(probe) & ~blown
                blow_step[fresh] = k + 1
                blown |= fresh

    with np.errstate(over="ignore", invalid="ignore"):
        wealth_b = x_b + q_b * price
        wealth_i = x_i + q_i * price
    metrics = {
        "wealth_broker": wealth_b,
        "wealth_trader": wealth_i,
        "notional": notional,
        "blown": blown,
        "blow_step": blow_step,
        "max_inventory_gap": inv_gap,
        "max_cash_gap": cash_gap,
        "mse_price": mse_price / (n_steps + 1),
        "mse_flow": mse_flow / (n_steps + 1),
        "max_alt_naive_diff": maxdiff,
        "alt_naive_checkpoints": checkpoints,
    }
    return metrics, rec


def simulate_path(params: ModelParams, trader: TraderCoefficients,
                  broker: BrokerCoefficients, flow: FlowFilterCoefficients | None,
                  config: StrategyConfig = StrategyConfig(), seed: int | None = None,
                  init: dict | None = None) -> PathResult:
    """Simulate one path with a full record of every series.

    ``trader``/``broker``/``flow`` are the tables solved under ``params``;
    ``init`` overrides initial states by series name.
    """
    bundle = CoefficientBundle(trader, broker, flow)
    tables = _Tables(params, params, bundle)
    use_seed = config.seed if seed is None else int(seed)
    q0, eps = _draw_noise(use_seed, [0], trader.grid.steps)
    metrics, rec = _simulate_core(tables, config, eps, q0, record=True, init=init)
    series = {name: rec[name][:, 0].copy() for name in RECORD_SERIES}
    return PathResult(
        grid=trader.grid,
        config=config,
        seed=use_seed,
        t=trader.grid.times,
        components=rec["components"][:, :, 0].copy(),
        wealth_broker=float(metrics["wealth_broker"][0]),
        wealth_trader=float(metrics["wealth_trader"][0]),
        notional=float(metrics["notional"][0]),
        blown=bool(metrics["blown"][0]),
        blow_step=int(metrics["blow_step"][0]),
        max_inventory_gap=float(metrics["max_inventory_gap"][0]),
        max_cash_gap=float(metrics["max_cash_gap"][0]),
        **series,
    )


def simulate_recorded(params: ModelParams, bundle: CoefficientBundle,
                      config: StrategyConfig, n_paths: int, base_seed: int):
    """Record full series for a (small) batch of paths; returns (metrics, records)."""
    tables = _Tables(params, params, bundle)
    q0, eps = _draw_noise(base_seed, range(n_paths), bundle.trader.grid.steps)
    return _simulate_core(tables, config, eps, q0, record=True)


def _run_jobs(jobs, base_seed: int, steps: int, n_paths: int, chunk_size: int,
              threads: int):
    """Run every ``(tables, arm config)`` job on the same noise.

    Each chunk of paths draws its noise once (path ``n`` from
    ``base_seed ^ n``) and runs every job on it.  Returns one metrics dict
    per job, in job order, with the chunks concatenated in path order.
    """
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")

    def run_chunk(lo_hi):
        lo, hi = lo_hi
        q0, eps = _draw_noise(base_seed, range(lo, hi), steps)
        return [_simulate_core(tables, config, eps, q0, record=False)[0]
                for tables, config in jobs]

    size = max(1, chunk_size)
    ranges = [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]
    if threads and threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, ranges))
    else:
        results = [run_chunk(r) for r in ranges]
    return [{key: np.concatenate([out[j][key] for out in results], axis=-1)
             for key in results[0][j]}
            for j in range(len(jobs))]


def run_experiment(params: ModelParams, grid: TimeGrid, config: StrategyConfig,
                   n_paths: int, base_seed: int | None = None,
                   bundle: CoefficientBundle | None = None,
                   chunk_size: int = 2500, threads: int = 1):
    """Simulate the optimal strategy and all three benchmarks on coupled noise.

    Every chunk of paths runs once per strategy arm on the same Gaussian
    increments (seed ``base_seed ^ index``).  ``bundle`` is built from
    ``params`` when not given.  Returns an
    :class:`~brokergame.analytics.ExperimentReport` plus the raw per-path
    metric arrays keyed by arm name.
    """
    from .analytics import build_experiment_report   # deferred: avoids module cycle

    seed = config.seed if base_seed is None else int(base_seed)
    if bundle is None:
        bundle = build_coefficients(params, grid, c_belief=config.c_belief)
    tables = _Tables(params, params, bundle)
    jobs = [(tables, replace(config, broker_mode=arm)) for arm in BROKER_MODES]
    per_arm = dict(zip(BROKER_MODES, _run_jobs(jobs, seed, grid.steps, n_paths,
                                               chunk_size, threads)))
    report = build_experiment_report(per_arm, params=params, model_params=params,
                                     config=config, n_paths=n_paths, base_seed=seed)
    return report, per_arm


def export_path_csv(result: PathResult, path_or_file, bands: dict | None = None) -> None:
    """Full state/control/estimate time series of one path; optional extra
    percentile-band columns (name -> array) appended on the right.

    The ``comp_*`` columns are ``result.components``: they sum to
    ``rate_broker`` except on benchmarks 1 and 3, whose rate adds
    ``rate_trader``."""
    header = ["t"] + list(RECORD_SERIES) + [
        "comp_inventory", "comp_signal", "comp_flow", "comp_qtrader",
    ]
    cols = [result.t] + [getattr(result, name) for name in RECORD_SERIES]
    cols += [result.components[:, j] for j in range(4)]
    if bands:
        for name in sorted(bands):
            header.append(name)
            cols.append(bands[name])
    write_columns_csv(path_or_file, header, cols)


def export_filter_csv(result: PathResult, trader: TraderCoefficients,
                      broker: BrokerCoefficients, flow: FlowFilterCoefficients | None,
                      path_or_file) -> None:
    """Estimator-focused per-path CSV including the deterministic variances."""
    n = result.grid.steps + 1
    var_alt = flow.var_alt.values if flow is not None else np.zeros(n)
    header = ["t", "signal", "alpha_hat_price", "alpha_hat_flow", "alpha_hat_naive",
              "rate_broker", "nu_hat", "var_nu", "var_alpha", "var_alt"]
    cols = [result.t, result.signal, result.alpha_hat_price, result.alpha_hat_flow,
            result.alpha_hat_naive, result.rate_broker, result.nu_hat,
            trader.var_nu.values, broker.var_alpha.values, var_alt]
    write_columns_csv(path_or_file, header, cols)
