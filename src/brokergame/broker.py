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
from .odes import (DeterministicTable, StageLattice, TimeGrid, rk4_integrate,
                   solve_scalar_riccati, write_columns_csv)
from .params import ModelParams
from .trader import TraderCoefficients

__all__ = [
    "BrokerCoefficients",
    "solve_price_filter_variance",
    "solve_broker",
    "solve_reduced_riccati",
    "existence_diagnostic",
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
    c_belief: float                   # params.c_belief the tables were solved with
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
        lattice=StageLattice(grid, substeps=4),
        name="var_alpha",
    )


def _stacked(shape, *entries):
    """Numbers and equally shaped arrays broadcast against each other and laid
    out row-major in trailing axes of ``shape``."""
    flat = np.broadcast_arrays(*entries)
    return np.stack(flat, axis=-1).reshape(flat[0].shape + shape)


def _transpose(m):
    return np.swapaxes(m, -1, -2)


def _outer(x, y):
    return x[..., :, None] * y[..., None, :]


def _belief_curvature(f2, params: ModelParams):
    """The broker's believed speed loading ``e = c_belief * f2`` of the
    client's rate and the curvature ``d = temp_impact - fee_informed * e^2``
    of her Hamiltonian in her own rate, which must be positive for the
    control to exist."""
    e = params.c_belief * f2
    d = params.temp_impact - e * e * params.fee_informed
    if np.any(d <= 0.0):
        raise AdmissibilityError(
            f"temp_impact - fee_informed * (c*f2)^2 = {np.min(d):.3e} <= 0: control undefined"
        )
    return e, d


def _p_matrices(f1, f2, f3, vb, params: ModelParams):
    """State matrices (P2, P5, P7, P8) and sqrt(temp_impact - fee*(c f2)^2)
    at one instant, or stacked along the leading axis of the inputs.  The
    broker plugs her belief about how strongly her own speed feeds the
    client's rate in for f2 everywhere."""
    b = params.fee_informed
    p = params.perm_impact
    e, d = _belief_curvature(f2, params)
    sq = np.sqrt(d)
    p2 = _stacked(
        (4, 4),
        0.0, 0.0, 0.0, 0.0,
        -f1, -params.kappa_signal, 0.0, f1,
        -1.0, 0.0, -params.kappa_flow, 0.0,
        -f3, 0.0, 0.0, f3,
    )
    p5 = _stacked(
        (4, 4),
        -(params.phi0_broker + params.phi1_broker * vb), 0.5, 0.0, 0.0,
        0.5, f1 * f1 * b, 0.0, f1 * f3 * b,
        0.0, 0.0, params.fee_uninformed, 0.0,
        0.0, f1 * f3 * b, 0.0, f3 * f3 * b,
    )
    p7 = _stacked((4,), p / (2.0 * sq), f1 * e * b / sq, 0.0, e * f3 * b / sq)
    p8 = _stacked((4,), (1.0 - e) / (2.0 * sq), 0.0, 0.0, e / (2.0 * sq))
    return p2, p5, p7, p8, sq


def _p9(p2, p7, p8):
    return 2.0 * _outer(p8, p7) + _transpose(p2)


def _reduced_uvb(f2, f3, vb, params: ModelParams):
    """U, V, B of the reduced (q_broker, q_trader) Riccati block, at one
    instant or stacked along the leading axis of the inputs."""
    a = params.temp_impact
    b = params.fee_informed
    p = params.perm_impact
    e, d = _belief_curvature(f2, params)
    w = _stacked((2,), 1.0 - e, e)
    dd = np.asarray(d)[..., None, None]
    u = _outer(w, w) / dd
    v = _stacked(
        (2, 2),
        p * (1.0 - e) / 2.0, -f3 * (a - e * b),
        p * e / 2.0, a * f3,
    ) / dd
    run_pen = params.phi0_broker + params.phi1_broker * vb
    bmat = _stacked(
        (2, 2),
        p * p / 4.0 - d * run_pen, p * e * f3 * b / 2.0,
        p * e * f3 * b / 2.0, f3 * f3 * a * b,
    ) / dd
    return u, v, bmat


def _symmetrize(m):
    return 0.5 * (m + m.T)


def solve_reduced_riccati(params: ModelParams, trader: TraderCoefficients,
                          var_alpha: DeterministicTable, grid: TimeGrid) -> DeterministicTable:
    """Backward solve of the closed 2x2 block of the matrix Riccati system."""
    terminal = np.zeros((2, 2))
    terminal[0, 0] = -(params.beta0_broker
                       + params.beta1_broker * var_alpha.at_index(grid.steps))
    lattice = StageLattice(grid, substeps=2, direction="backward")
    with np.errstate(over="ignore", invalid="ignore"):
        u, v, bmat = _reduced_uvb(*(x(lattice.times) for x in (trader.f2, trader.f3, var_alpha)),
                                  params)

    def rhs(i, g):
        lin = g @ v[i]
        return -(g @ u[i] @ g + lin + lin.T + bmat[i])

    return rk4_integrate(rhs, terminal, lattice, project=_symmetrize, name="g2_block")


def solve_broker(params: ModelParams, trader: TraderCoefficients,
                 grid: TimeGrid) -> BrokerCoefficients:
    """Solve the broker's full coefficient system.

    The full 4x4 matrix Riccati is integrated backward (re-symmetrised each
    step) and cross-checked against the reduced 2x2 block, which is
    authoritative for the corner entries that enter the control.  A blow-up
    here means the permanent impact is outside the range where the reduced
    system has a global solution.
    """
    var_alpha = solve_price_filter_variance(params, grid)

    terminal = np.zeros((4, 4))
    terminal[0, 0] = -(params.beta0_broker
                       + params.beta1_broker * var_alpha.at_index(grid.steps))
    lattice = StageLattice(grid, substeps=2, direction="backward")
    with np.errstate(over="ignore", invalid="ignore"):
        p2, p5, p7, p8, _ = _p_matrices(
            *(x(lattice.times) for x in (trader.f1, trader.f2, trader.f3, var_alpha)), params)
        p9 = _p9(p2, p7, p8)
    # P2 only feeds P9; freed before the march it leaves no heap memory
    # pinned behind the build (2-3 MB of process peak when kept)
    del p2
    # P7 P7^T stacked once; 4 (g P8)(g P8)^T formed as (g 2P8)(g 2P8)^T, exactly
    p7p7, p8 = _outer(p7, p7), 2.0 * p8

    def rhs(i, g):
        gv = g @ p8[i]
        lin = g @ p9[i]
        return -(p7p7[i] + gv[:, None] * gv + lin + lin.T + p5[i])

    try:
        g2_full = rk4_integrate(rhs, terminal, lattice, project=_symmetrize, name="g2")
        del p7p7   # like P2, it would otherwise stay pinned behind the build
        g2_block = solve_reduced_riccati(params, trader, var_alpha, grid)
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
    nodes = StageLattice(grid, direction="backward")
    g2s, gain_sqs = g2(nodes.times), gain_sq(nodes.times)
    with np.errstate(over="ignore", invalid="ignore"):
        flow_var = np.float64(params.sigma_flow) ** 2   # saturates to inf, never raises
        source = -(gain_sqs * g2s[:, 1, 1] + flow_var * g2s[:, 2, 2])

    g0 = rk4_integrate(lambda i, y: source[i], 0.0, nodes, name="g0")

    gains = _feedback_gain_table(params, trader, var_alpha, g2)
    eig, det_scaled = existence_diagnostic(params, trader, var_alpha, grid)
    return BrokerCoefficients(grid, var_alpha, g2, g0, gains, eig, det_scaled,
                              float(params.c_belief), block_dev)


def _feedback_gain_table(params: ModelParams, trader: TraderCoefficients,
                         var_alpha: DeterministicTable,
                         g2: DeterministicTable) -> DeterministicTable:
    _, _, p7, p8, sq = _p_matrices(trader.f1.values, trader.f2.values, trader.f3.values,
                                   var_alpha.values, params)
    rows = (p7 + 2.0 * np.einsum("kj,kjl->kl", p8, g2.values)) / sq[:, None]
    return DeterministicTable("gains", g2.grid, rows)


def existence_diagnostic(params: ModelParams, trader: TraderCoefficients,
                         var_alpha: DeterministicTable, grid: TimeGrid):
    """Eigenvalues (by descending magnitude) of the comparison matrix that
    certifies existence of the reduced Riccati solution, plus the determinant
    of its row-scaled version.  Existence requires the three leading
    eigenvalues negative and the fourth (and the determinant) zero.
    """
    u, v, bmat = _reduced_uvb(trader.f2.values, trader.f3.values, var_alpha.values,
                              params)
    cmat = np.array([[0.0, 0.0], [0.0, 1.0]])
    top_left = cmat @ v + _transpose(v) @ cmat + 2.0 * bmat
    top_right = cmat @ u
    m = np.block([[top_left, top_right], [_transpose(top_right), -2.0 * u]])
    lam = np.linalg.eigvalsh(m)
    eig = np.take_along_axis(lam, np.argsort(-np.abs(lam), axis=-1, kind="stable"), axis=-1)
    scale = np.abs(m).max(axis=-1)
    scale[scale == 0.0] = 1.0
    dets = np.linalg.det(m / scale[..., None])
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
