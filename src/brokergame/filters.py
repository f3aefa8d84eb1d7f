"""Runtime learning: the three path-coupled estimators and their gains.

* the trader's estimate of the broker's lit-market speed, driven by the
  drift-corrected price increments;
* the broker's price-based estimate of the latent signal;
* the broker's flow-based estimate, which reads the signal out of the
  informed client's (inventory-adjusted and rescaled) trading rate, plus the
  algebraic "naive" inversion of that rate.

Estimator means follow Euler updates on the simulation grid; the conditional
variances are deterministic and precomputed once per parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import FilterDegeneracyError
from .odes import DeterministicTable, StageLattice, TimeGrid, rk4_integrate
from .params import ModelParams
from .trader import TraderCoefficients

__all__ = [
    "FilterState",
    "update_trader_filter",
    "update_broker_price_filter",
    "update_broker_flow_filter",
    "FlowFilterCoefficients",
    "flow_filter_coefficients",
    "naive_alpha",
    "trader_filter_gain",
    "price_filter_gain",
]


@dataclass(frozen=True)
class FilterState:
    """Mean/variance pair of one estimator on one path."""

    mean: float
    variance: float
    kind: str = "trader_nu"   # trader_nu | broker_price | broker_flow


def trader_filter_gain(var_nu_t, params: ModelParams):
    """Innovation gain of the trader's speed filter, for a variance or an
    array of them (zero without price noise)."""
    if params.sigma_price == 0.0:
        return np.zeros_like(var_nu_t, dtype=float)
    return params.perm_impact * var_nu_t / params.sigma_price ** 2


def price_filter_gain(var_alpha_t, params: ModelParams):
    """Innovation gain of the broker's price-based signal filter, for a
    variance or an array of them (zero without price noise)."""
    if params.sigma_price == 0.0:
        return np.zeros_like(var_alpha_t, dtype=float)
    return (var_alpha_t + params.rho * params.sigma_price * params.sigma_signal) \
        / params.sigma_price ** 2


def update_trader_filter(state: FilterState, dy: float, dt: float,
                         var_nu_t: float, params: ModelParams) -> FilterState:
    """One Euler step of the speed estimate given the observed increment
    dy = dS - alpha dt.  The variance is deterministic; callers read it from
    the precomputed table (the returned state carries the value passed in).
    """
    gain = trader_filter_gain(var_nu_t, params)
    innov = dy - params.perm_impact * state.mean * dt
    mean = state.mean - params.theta_speed * state.mean * dt + gain * innov
    return replace(state, mean=mean, variance=var_nu_t)


def update_broker_price_filter(state: FilterState, dz: float, dt: float,
                               var_alpha_t: float, params: ModelParams) -> FilterState:
    """One Euler step of the price-based signal estimate given
    dz = dS - perm_impact * nu dt."""
    gain = price_filter_gain(var_alpha_t, params)
    innov = dz - state.mean * dt
    mean = state.mean - params.kappa_signal * state.mean * dt + gain * innov
    return replace(state, mean=mean, variance=var_alpha_t)


@dataclass(frozen=True)
class FlowFilterCoefficients:
    """Deterministic coefficients of the flow-based signal filter.

    The observed client rate, net of its inventory loading, is
    ``f1*alpha + f2*nu_hat``; dividing by the composite diffusion ``scale``
    turns it into a unit-noise observation of the signal.  All tables live on
    the shared grid.  ``scale`` vanishes at the horizon, so the two drift
    ratios that blow up there (``drift_scale``, ``drift_flow``) and
    ``inv_scale`` reuse the last interior value, while the ratios with finite
    limits carry their limit value at the final node.
    """

    grid: TimeGrid
    load_signal: DeterministicTable    # diffusion loading on the signal noise
    load_price: DeterministicTable     # diffusion loading on the price noise
    scale: DeterministicTable          # composite diffusion of the adjusted flow
    inv_scale: DeterministicTable
    drift_scale: DeterministicTable      # -scale'/scale
    drift_signal: DeterministicTable     # signal drift of the unit-noise observation
    drift_flow: DeterministicTable
    drift_rate: DeterministicTable
    noise_mix: DeterministicTable        # correlation loading of the composite noise
    unit_response: DeterministicTable    # speed loading per unit of permanent impact
    var_alt: DeterministicTable          # conditional variance of the flow filter


def flow_filter_coefficients(trader: TraderCoefficients, params: ModelParams,
                             grid: TimeGrid) -> FlowFilterCoefficients:
    """Build every deterministic table the flow filter needs."""
    p = params.perm_impact
    b = params.fee_informed
    ss = params.sigma_price
    sa = params.sigma_signal
    sb = params.sigma_speed
    ka = params.kappa_signal
    th = params.theta_speed
    rho = params.rho
    if ss <= 0.0:
        raise FilterDegeneracyError("flow filter requires sigma_price > 0")

    f1 = trader.f1.values
    f2 = trader.f2.values
    f3 = trader.f3.values
    vv = trader.var_nu.values
    n = grid.steps

    if p > 0.0 and np.any(f2[:-1] <= 0.0):
        raise FilterDegeneracyError("f2 vanished before the horizon with perm_impact > 0")

    backward = StageLattice(grid, direction="backward")
    g2s = trader.g2(backward.times)

    # speed loading per unit impact: f2 = perm_impact * unit / (2 fee); solving
    # the unit-source form keeps the log-derivative of f2 well defined as p -> 0
    def unit_rhs(t, u):
        return th * u - g2s[backward.index(t)] * u / (2.0 * b) - 1.0

    unit = rk4_integrate(unit_rhs, 0.0, grid, direction=backward.direction,
                         name="unit_response")
    uv = unit.values
    if np.any(uv[:-1] <= 0.0):
        raise FilterDegeneracyError("unit speed response vanished before the horizon")

    g3 = sa * f1
    g4 = (p / ss) * vv * f2
    g5 = np.sqrt(g3 * g3 + g4 * g4 + 2.0 * rho * g3 * g4)
    if np.any(g5[:-1] <= 0.0):
        raise FilterDegeneracyError(
            "composite diffusion of the adjusted flow vanishes before the horizon"
        )

    g1 = p * p * vv * f2 / ss ** 2
    inv_u = np.empty(n + 1)
    inv_u[:n] = 1.0 / uv[:n]
    inv_u[n] = inv_u[n - 1]   # true value diverges; only stand-in consumers see it
    g0 = -p * p * vv / ss ** 2 - inv_u - 0.5 * f3
    galpha = -1.0 / (2.0 * b) + f1 * p * p * vv / ss ** 2 + f1 * inv_u

    # closed-form time derivatives of the diffusion loadings (no finite differences)
    g3p = sa * (-1.0 / (2.0 * b) + ka * f1 - 0.5 * f3 * f1)
    g4p = (p / ss) * (vv * (-p / (2.0 * b) + th * f2 - 0.5 * f3 * f2)
                      + f2 * (sb ** 2 - 2.0 * th * vv - p ** 2 * vv ** 2 / ss ** 2))

    g6 = np.empty(n + 1)
    g7 = np.empty(n + 1)
    g8 = np.empty(n + 1)
    g9 = np.empty(n + 1)
    kmix = np.empty(n + 1)
    mix_gap = np.empty(n + 1)     # 1 - kmix^2 without subtracting from 1
    inv_g5 = np.empty(n + 1)
    interior = slice(0, n)
    g6[interior] = -(g3p[interior] * (g3[interior] + rho * g4[interior])
                     + g4p[interior] * (rho * g3[interior] + g4[interior])) / g5[interior] ** 2
    g7[interior] = galpha[interior] / g5[interior]
    g8[interior] = g0[interior] / g5[interior]
    g9[interior] = g1[interior] / g5[interior]
    kmix[interior] = (g3[interior] + rho * g4[interior]) / g5[interior]
    mix_gap[interior] = (1.0 - rho * rho) * g4[interior] ** 2 / g5[interior] ** 2
    inv_g5[interior] = 1.0 / g5[interior]

    # horizon values: finite limits where they exist, last interior node where
    # the ratio genuinely blows up
    v_t = vv[n]
    a3 = sa
    a4 = p * p * v_t / ss
    denom = np.sqrt(a3 * a3 + a4 * a4 + 2.0 * rho * a3 * a4)
    if denom <= 0.0:
        raise FilterDegeneracyError("composite diffusion has no finite slope at the horizon")
    g7[n] = (0.5 * (th - ka) + p * p * v_t / ss ** 2) / denom
    g9[n] = (p ** 3 * v_t / ss ** 2) / denom
    kmix[n] = (a3 + rho * a4) / denom
    mix_gap[n] = (1.0 - rho * rho) * a4 * a4 / (denom * denom)
    g6[n] = g6[n - 1]
    g8[n] = g8[n - 1]
    inv_g5[n] = inv_g5[n - 1]

    tbl = lambda name, arr: DeterministicTable(name, grid, arr)
    drift_signal = tbl("drift_signal", g7)
    noise_mix = tbl("noise_mix", kmix)
    forward = StageLattice(grid, direction="forward")
    at = forward.index
    g7s = drift_signal(forward.times)
    # var_alt' = sa^2 - 2 ka v - (g7 v + sa kmix)^2, expanded so that the
    # source sa^2 (1 - kmix^2) comes from the loadings: kmix is within 2e-8
    # of 1 at the defaults, and forming 1 - kmix^2 would leave rounding residue
    with np.errstate(over="ignore", invalid="ignore"):
        source = sa * sa * tbl("mix_gap", mix_gap)(forward.times)
        decay = 2.0 * ka + 2.0 * sa * noise_mix(forward.times) * g7s
        g7sq = g7s * g7s

    def var_rhs(t, v):
        i = at(t)
        return source[i] - v * (decay[i] + g7sq[i] * v)

    var_alt = rk4_integrate(var_rhs, 0.0, grid, direction=forward.direction, name="var_alt")

    return FlowFilterCoefficients(
        grid=grid,
        load_signal=tbl("load_signal", g3),
        load_price=tbl("load_price", g4),
        scale=tbl("scale", g5),
        inv_scale=tbl("inv_scale", inv_g5),
        drift_scale=tbl("drift_scale", g6),
        drift_signal=drift_signal,
        drift_flow=tbl("drift_flow", g8),
        drift_rate=tbl("drift_rate", g9),
        noise_mix=noise_mix,
        unit_response=unit,
        var_alt=var_alt,
    )


def update_broker_flow_filter(state: FilterState, dz: float, dt: float,
                              coeffs: FlowFilterCoefficients, t: float,
                              params: ModelParams) -> FilterState:
    """One Euler step of the flow-based signal estimate.

    ``dz`` is the increment of the unit-noise observation (the rescaled,
    drift-corrected adjusted flow); the innovation subtracts the estimate's
    own predicted drift.
    """
    g7 = coeffs.drift_signal(t)
    var = coeffs.var_alt(t)
    gain = g7 * var + params.sigma_signal * coeffs.noise_mix(t)
    innov = dz - g7 * state.mean * dt
    mean = state.mean - params.kappa_signal * state.mean * dt + gain * innov
    if not np.isfinite(mean):
        raise FilterDegeneracyError(f"flow filter produced a non-finite mean at t={t:.6g}")
    return replace(state, mean=mean, variance=var)


def naive_alpha(t: float, eta_star: float, q_belief: float,
                trader: TraderCoefficients) -> float:
    """Algebraic signal estimate: invert the client's rate after stripping the
    inventory term.  At the horizon the loadings vanish, so the last interior
    node is used there."""
    g = trader.f1.grid
    if t >= g.horizon - 1e-9 * max(1.0, g.horizon):
        f1 = trader.f1.at_index(g.steps - 1)
        f3 = trader.f3.at_index(g.steps - 1)
    else:
        f1 = trader.f1(t)
        f3 = trader.f3(t)
    if abs(f1) < 1e-14:
        raise FilterDegeneracyError(f"signal loading ~ 0 at t={t:.6g}; estimate undefined")
    return (eta_star - f3 * q_belief) / f1
