"""Filter gains and the deterministic tables of the broker's flow filter.

The simulator runs three path-coupled estimators inside its step loop:

* the trader's estimate of the broker's lit-market speed, driven by the
  drift-corrected price increments;
* the broker's price-based estimate of the latent signal;
* the broker's flow-based estimate, which reads the signal out of the
  informed client's (inventory-adjusted and rescaled) trading rate, plus the
  algebraic "naive" inversion of that rate.

This module holds what those updates need that does not depend on the path:
the innovation gains of the two price-driven filters and the flow filter's
drift, noise and variance tables, precomputed once per parameter set.  The
flow tables are formed from the trader's signal and speed loadings ``f1``,
``f2``, his speed-estimate variance ``var_nu`` and his speed response per
unit of impact (``TraderCoefficients.unit``); they never read his inventory
loading ``f3``, whose contribution to the observation's drift cancels.  The
only ODE solved here is the flow filter's variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FilterDegeneracyError
from .odes import DeterministicTable, StageLattice, TimeGrid, solve_scalar_riccati
from .params import ModelParams
from .trader import TraderCoefficients

__all__ = [
    "FlowFilterCoefficients",
    "flow_filter_coefficients",
    "trader_filter_gain",
    "price_filter_gain",
]


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


@dataclass(frozen=True)
class FlowFilterCoefficients:
    """Deterministic tables of the flow-based signal filter, as the step loop
    reads them.

    The observed client rate, net of its inventory loading, is
    ``gamma = f1*alpha + f2*nu_hat``; dividing by its composite diffusion
    ``scale = sqrt(g3^2 + g4^2 + 2 rho g3 g4)`` (signal loading
    ``g3 = sigma_signal f1``, price loading ``g4 = (perm_impact/sigma_price)
    var_nu f2``) turns it into a unit-noise observation ``ztil = gamma/scale``
    of the signal, with drift ``drift_obs*ztil + drift_signal*alpha +
    drift_rate*nu``.  All tables live on the shared grid and are formed from
    the trader's ``f1``, ``f2``, ``var_nu`` and ``unit``.  ``scale`` vanishes
    at the horizon, so ``drift_obs`` and ``inv_scale``, which blow up there,
    reuse the last interior value, while the ratios with finite limits carry
    their limit value at the final node.
    """

    grid: TimeGrid
    inv_scale: DeterministicTable        # 1 / scale
    drift_obs: DeterministicTable        # drift of the observation per unit of itself
    drift_signal: DeterministicTable     # signal drift of the unit-noise observation
    drift_rate: DeterministicTable       # drift per unit of the broker's rate
    noise_mix: DeterministicTable        # correlation loading of the composite noise
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
    vv = trader.var_nu.values
    n = grid.steps

    if p > 0.0 and np.any(f2[:-1] <= 0.0):
        raise FilterDegeneracyError("f2 vanished before the horizon with perm_impact > 0")

    # speed loading per unit impact (f2 = perm_impact * unit / (2 fee)) keeps
    # the log-derivative of f2 well defined as p -> 0
    uv = trader.unit.values
    if np.any(uv[:-1] <= 0.0):
        raise FilterDegeneracyError("unit speed response vanished before the horizon")

    g3 = sa * f1
    g4 = (p / ss) * vv * f2
    g5 = np.sqrt(g3 * g3 + g4 * g4 + 2.0 * rho * g3 * g4)
    if np.any(g5[:-1] <= 0.0):
        raise FilterDegeneracyError(
            "composite diffusion of the adjusted flow vanishes before the horizon"
        )

    # closed-form time derivatives of the diffusion loadings (no finite
    # differences), without the trader's inventory term: that term moves f1,
    # f2 and so scale at one common rate, which dividing by scale removes, so
    # the observation's drift carries no f3
    h3 = sa * (-1.0 / (2.0 * b) + ka * f1)
    h4 = (p / ss) * (vv * (-p / (2.0 * b) + th * f2)
                     + f2 * (sb ** 2 - 2.0 * th * vv - p ** 2 * vv ** 2 / ss ** 2))

    # 1/unit and 1/scale diverge at the horizon, whose values are set below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g1 = p * p * vv * f2 / ss ** 2
        inv_u = 1.0 / uv
        galpha = -1.0 / (2.0 * b) + f1 * p * p * vv / ss ** 2 + f1 * inv_u
        g6 = (-(h3 * (g3 + rho * g4) + h4 * (rho * g3 + g4)) / g5 ** 2
              - p * p * vv / ss ** 2 - inv_u)
        g7 = galpha / g5
        g9 = g1 / g5
        kmix = (g3 + rho * g4) / g5
        mix_gap = (1.0 - rho * rho) * g4 ** 2 / g5 ** 2   # 1 - kmix^2 without subtracting from 1
        inv_g5 = 1.0 / g5

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
    inv_g5[n] = inv_g5[n - 1]

    tbl = lambda name, arr: DeterministicTable(name, grid, arr)
    drift_signal = tbl("drift_signal", g7)
    noise_mix = tbl("noise_mix", kmix)
    forward = StageLattice(grid)
    g7s = drift_signal(forward.times)
    # var_alt' = sa^2 - 2 ka v - (g7 v + sa kmix)^2, expanded so that the
    # source sa^2 (1 - kmix^2) comes from the loadings: kmix is within 2e-8
    # of 1 at the defaults, and forming 1 - kmix^2 would leave rounding residue
    with np.errstate(over="ignore", invalid="ignore"):
        source = sa * sa * tbl("mix_gap", mix_gap)(forward.times)
        decay = 2.0 * ka + 2.0 * sa * noise_mix(forward.times) * g7s
        quad = -g7s * g7s
    var_alt = solve_scalar_riccati(quad, -decay, source, 0.0, forward, name="var_alt")

    return FlowFilterCoefficients(
        grid=grid,
        inv_scale=tbl("inv_scale", inv_g5),
        drift_obs=tbl("drift_obs", g6),
        drift_signal=drift_signal,
        drift_rate=tbl("drift_rate", g9),
        noise_mix=noise_mix,
        var_alt=var_alt,
    )
