"""Broker: price-filter variance, matrix Riccati system, feedback rate.

The broker's value function is quadratic in the state
``y = (q_broker, alpha_hat, flow, q_trader)``.  Its 4x4 coefficient matrix
solves a backward matrix Riccati equation built from the trader's feedback
loadings.  Because the quadratic term only couples the (q_broker, q_trader)
corner, that 2x2 block also satisfies a closed reduced Riccati equation; the
reduced solve is authoritative for the control and the full solve must agree
with it, which doubles as an integration cross-check.  An eigenvalue
diagnostic certifies that the reduced system stays in the region where a
global solution exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, ExistenceError, IntegrationBlowupError
from .filters import price_filter_gain
from .odes import (DeterministicTable, TimeGrid, rk4_integrate,
                   solve_scalar_riccati, write_columns_csv)
from .params import ModelParams
from .trader import TraderCoefficients

__all__ = [
    "BrokerCoefficients",
    "solve_price_filter_variance",
    "build_p_matrices",
    "solve_broker",
    "solve_reduced_riccati",
    "existence_diagnostic",
    "broker_control",
    "broker_control_components",
    "broker_value",
    "export_broker_csv",
]

# order of the broker's state vector in every matrix below
STATE_ORDER = ("q_broker", "alpha_hat", "flow", "q_trader")


@dataclass(frozen=True)
class BrokerCoefficients:
    grid: TimeGrid
    var_alpha: DeterministicTable     # price-filter conditional variance
    g2: DeterministicTable            # symmetric 4x4 value-function matrix
    g0: DeterministicTable            # state-free value-function term
    gains: DeterministicTable         # feedback row: rate = gains(t) . y
    eigvals: DeterministicTable       # existence diagnostic, 4 per node
    det_scaled: DeterministicTable    # det of the row-scaled diagnostic matrix
    c_belief: float
    block_dev: float                  # max |full - reduced| on shared entries


def solve_price_filter_variance(params: ModelParams, grid: TimeGrid) -> DeterministicTable:
    """Forward Riccati for the broker's price-filter variance, started at 0."""
    ss = params.sigma_price
    cross = params.rho * params.sigma_signal / ss if ss > 0.0 else 0.0
    quad = -1.0 / ss ** 2 if ss > 0.0 else 0.0
    return solve_scalar_riccati(
        quad=quad,
        lin=2.0 * (-params.kappa_signal - cross),
        const=(1.0 - params.rho ** 2) * params.sigma_signal ** 2,
        boundary=0.0,
        grid=grid,
        direction="forward",
        name="var_alpha",
        substeps=4,
    )


def _p_matrices(f1, f2, f3, vb, params: ModelParams, c_belief: float):
    """State matrices at one instant.  The broker plugs her belief about how
    strongly her own speed feeds the client's rate in for f2 everywhere."""
    a = params.temp_impact
    b = params.fee_informed
    p = params.perm_impact
    e = c_belief * f2
    d = a - e * e * b
    if d <= 0.0:
        raise AdmissibilityError(
            f"temp_impact - fee_informed * (c*f2)^2 = {d:.3e} <= 0: control undefined"
        )
    sq = np.sqrt(d)
    p2 = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [-f1, -params.kappa_signal, 0.0, f1],
        [-1.0, 0.0, -params.kappa_flow, 0.0],
        [-f3, 0.0, 0.0, f3],
    ])
    p5 = np.array([
        [-(params.phi0_broker + params.phi1_broker * vb), 0.5, 0.0, 0.0],
        [0.5, f1 * f1 * b, 0.0, f1 * f3 * b],
        [0.0, 0.0, params.fee_uninformed, 0.0],
        [0.0, f1 * f3 * b, 0.0, f3 * f3 * b],
    ])
    p7 = np.array([p / (2.0 * sq), f1 * e * b / sq, 0.0, e * f3 * b / sq])
    p8 = np.array([(1.0 - e) / (2.0 * sq), 0.0, 0.0, e / (2.0 * sq)])
    return p2, p5, p7, p8, sq


def build_p_matrices(t: float, trader: TraderCoefficients,
                     var_alpha: DeterministicTable, params: ModelParams,
                     c_belief: float = 1.0):
    """(P2, P5, P7, P8, P9) at time t; P9 = 2 P8^T P7 + P2^T."""
    p2, p5, p7, p8, _ = _p_matrices(
        trader.f1(t), trader.f2(t), trader.f3(t), var_alpha(t), params, c_belief
    )
    p9 = 2.0 * np.outer(p8, p7) + p2.T
    return p2, p5, p7, p8, p9


def _reduced_uvb(f2, f3, vb, params: ModelParams, c_belief: float):
    """U, V, B of the reduced (q_broker, q_trader) Riccati block."""
    a = params.temp_impact
    b = params.fee_informed
    p = params.perm_impact
    e = c_belief * f2
    d = a - e * e * b
    if d <= 0.0:
        raise AdmissibilityError(f"temp_impact - fee_informed * (c*f2)^2 = {d:.3e} <= 0")
    w = np.array([1.0 - e, e])
    u = np.outer(w, w) / d
    v = np.array([
        [p * (1.0 - e) / 2.0, -f3 * (a - e * b)],
        [p * e / 2.0, a * f3],
    ]) / d
    run_pen = params.phi0_broker + params.phi1_broker * vb
    bmat = np.array([
        [p * p / 4.0 - d * run_pen, p * e * f3 * b / 2.0],
        [p * e * f3 * b / 2.0, f3 * f3 * a * b],
    ]) / d
    return u, v, bmat


def _symmetrize(m):
    return 0.5 * (m + m.T)


def solve_reduced_riccati(params: ModelParams, trader: TraderCoefficients,
                          var_alpha: DeterministicTable, grid: TimeGrid,
                          c_belief: float = 1.0) -> DeterministicTable:
    """Backward solve of the closed 2x2 block of the matrix Riccati system."""
    terminal = np.zeros((2, 2))
    terminal[0, 0] = -(params.beta0_broker
                       + params.beta1_broker * var_alpha.at_index(grid.steps))

    def rhs(t, g):
        u, v, bmat = _reduced_uvb(trader.f2(t), trader.f3(t), var_alpha(t), params, c_belief)
        lin = g @ v
        return -(g @ u @ g + lin + lin.T + bmat)

    return rk4_integrate(rhs, terminal, grid, direction="backward",
                         project=_symmetrize, name="g2_block", substeps=2)


def solve_broker(params: ModelParams, trader: TraderCoefficients, grid: TimeGrid,
                 c_belief: float | None = None) -> BrokerCoefficients:
    """Solve the broker's full coefficient system.

    The full 4x4 matrix Riccati is integrated backward (re-symmetrised each
    step) and cross-checked against the reduced 2x2 block, which is
    authoritative for the corner entries that enter the control.  A blow-up
    here means the permanent impact is outside the range where the reduced
    system has a global solution.
    """
    c = params.c_belief if c_belief is None else float(c_belief)
    var_alpha = solve_price_filter_variance(params, grid)

    terminal = np.zeros((4, 4))
    terminal[0, 0] = -(params.beta0_broker
                       + params.beta1_broker * var_alpha.at_index(grid.steps))

    def rhs(t, g):
        p2, p5, p7, p8, _ = _p_matrices(
            trader.f1(t), trader.f2(t), trader.f3(t), var_alpha(t), params, c
        )
        p9 = 2.0 * np.outer(p8, p7) + p2.T
        gv = g @ p8
        lin = g @ p9
        return -(np.outer(p7, p7) + 4.0 * np.outer(gv, gv) + lin + lin.T + p5)

    try:
        g2_full = rk4_integrate(rhs, terminal, grid, direction="backward",
                                project=_symmetrize, name="g2", substeps=2)
        g2_block = solve_reduced_riccati(params, trader, var_alpha, grid, c)
    except IntegrationBlowupError as exc:
        raise ExistenceError(
            "matrix Riccati blow-up: permanent impact is outside the admissible "
            f"range for these parameters ({exc})"
        ) from exc

    full = np.array(g2_full.values)
    blk = g2_block.values
    corner = np.stack([
        full[:, 0, 0] - blk[:, 0, 0],
        full[:, 0, 3] - blk[:, 0, 1],
        full[:, 3, 3] - blk[:, 1, 1],
    ])
    block_dev = float(np.max(np.abs(corner)))
    # reduced block is authoritative for the entries that feed the control
    full[:, 0, 0] = blk[:, 0, 0]
    full[:, 0, 3] = blk[:, 0, 1]
    full[:, 3, 0] = blk[:, 0, 1]
    full[:, 3, 3] = blk[:, 1, 1]
    g2 = DeterministicTable("g2", grid, full)

    gain = price_filter_gain(var_alpha.values, params) * params.sigma_price
    gain_sq = DeterministicTable("gain_sq", grid, gain * gain)
    with np.errstate(over="ignore"):
        flow_var = np.float64(params.sigma_flow) ** 2   # saturates to inf, never raises

    def g0_rhs(t, y):
        g22 = g2(t)
        return -(gain_sq(t) * g22[1, 1] + flow_var * g22[2, 2])

    g0 = rk4_integrate(g0_rhs, 0.0, grid, direction="backward", name="g0")

    gains = _feedback_gain_table(params, trader, g2, grid, c)
    eig, det_scaled = existence_diagnostic(params, trader, var_alpha, grid, c)
    return BrokerCoefficients(grid, var_alpha, g2, g0, gains, eig, det_scaled,
                              c, block_dev)


def _feedback_gain_table(params: ModelParams, trader: TraderCoefficients,
                         g2: DeterministicTable, grid: TimeGrid,
                         c_belief: float) -> DeterministicTable:
    a = params.temp_impact
    b = params.fee_informed
    p = params.perm_impact
    e = c_belief * trader.f2.values
    f1 = trader.f1.values
    f3 = trader.f3.values
    d = a - e * e * b
    if np.any(d <= 0.0):
        raise AdmissibilityError("temp_impact - fee_informed*(c*f2)^2 <= 0 on the grid")
    sq = np.sqrt(d)
    n = grid.steps + 1
    p7 = np.zeros((n, 4))
    p7[:, 0] = p / (2.0 * sq)
    p7[:, 1] = f1 * e * b / sq
    p7[:, 3] = e * f3 * b / sq
    p8 = np.zeros((n, 4))
    p8[:, 0] = (1.0 - e) / (2.0 * sq)
    p8[:, 3] = e / (2.0 * sq)
    rows = (p7 + 2.0 * np.einsum("kj,kjl->kl", p8, g2.values)) / sq[:, None]
    return DeterministicTable("gains", grid, rows)


def broker_control(t: float, y, coeffs: BrokerCoefficients) -> float:
    """Broker's lit-market rate for state y = (q_broker, alpha_hat, flow, q_trader)."""
    return float(np.dot(coeffs.gains(t), np.asarray(y, dtype=float)))


def broker_control_components(t: float, y, coeffs: BrokerCoefficients) -> np.ndarray:
    """The four additive pieces of the rate, one per state coordinate."""
    return coeffs.gains(t) * np.asarray(y, dtype=float)


def broker_value(coeffs: BrokerCoefficients, t: float, price: float, cash: float, y) -> float:
    """Value function of the broker's problem at the given state."""
    y = np.asarray(y, dtype=float)
    return cash + y[0] * price + coeffs.g0(t) + float(y @ coeffs.g2(t) @ y)


def existence_diagnostic(params: ModelParams, trader: TraderCoefficients,
                         var_alpha: DeterministicTable, grid: TimeGrid,
                         c_belief: float = 1.0):
    """Eigenvalues (by descending magnitude) of the comparison matrix that
    certifies existence of the reduced Riccati solution, plus the determinant
    of its row-scaled version.  Existence requires the three leading
    eigenvalues negative and the fourth (and the determinant) zero.
    """
    n = grid.steps + 1
    f2 = trader.f2.values
    f3 = trader.f3.values
    vb = var_alpha.values
    cmat = np.array([[0.0, 0.0], [0.0, 1.0]])
    eig = np.empty((n, 4))
    dets = np.empty(n)
    for k in range(n):
        u, v, bmat = _reduced_uvb(f2[k], f3[k], vb[k], params, c_belief)
        top_left = cmat @ v + v.T @ cmat + 2.0 * bmat
        top_right = cmat @ u
        m = np.block([[top_left, top_right], [top_right.T, -2.0 * u]])
        lam = np.linalg.eigvalsh(m)
        eig[k] = lam[np.argsort(-np.abs(lam), kind="stable")]
        scale = np.abs(m).max(axis=1)
        scale[scale == 0.0] = 1.0
        dets[k] = np.linalg.det(m / scale[:, None])
    return (DeterministicTable("eigvals", grid, eig),
            DeterministicTable("det_scaled", grid, dets))


def export_broker_csv(coeffs: BrokerCoefficients, path_or_file) -> None:
    """Broker tables in one CSV: the 10 distinct matrix entries, the scalar
    term, the filter variance and the diagnostic eigenvalues."""
    g = coeffs.g2.values
    header, cols = ["t"], [coeffs.grid.times]
    for i in range(4):
        for j in range(i, 4):
            header.append(f"g2_{i + 1}{j + 1}")
            cols.append(g[:, i, j])
    header += ["g0", "var_alpha", "eig1", "eig2", "eig3", "eig4"]
    cols += [coeffs.g0.values, coeffs.var_alpha.values]
    cols += [coeffs.eigvals.values[:, j] for j in range(4)]
    write_columns_csv(path_or_file, header, cols)
