"""Broker: price-filter variance, matrix Riccati system, feedback rate.

The broker's value function is quadratic in the state
``y = (q_broker, alpha_hat, flow, q_trader)``.  Its 4x4 coefficient matrix
``G`` solves a backward matrix Riccati equation built from the trader's
feedback loadings,

    G' = -(S + (G W)(G W)^T + G P9 + P9^T G),   S = P7 P7^T + P5,  W = 2 P8.

``W`` lives on (q_broker, q_trader) and ``P9`` maps nothing from
(alpha_hat, flow) into that pair, so the same equation restricted to the
pair is a closed 2x2 Riccati.  One right-hand side serves both marches: the
restricted block is authoritative for the control and the full solve must
agree with it, which doubles as an integration cross-check.  An eigenvalue
diagnostic, read from the same restricted terms, certifies that the block
stays in the region where a global solution exists.
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
# (q_broker, q_trader): the block of the Riccati that closes on itself
_CORNER = (0, 3)


@dataclass(frozen=True)
class BrokerCoefficients:
    grid: TimeGrid
    var_alpha: DeterministicTable     # price-filter conditional variance
    g2: DeterministicTable            # symmetric 4x4 value-function matrix
    g0: DeterministicTable            # state-free value-function term
    gains: DeterministicTable         # feedback row: rate = gains(t) . y
    eigvals: DeterministicTable       # existence diagnostic, 4 per node
    det_scaled: DeterministicTable    # det of the row-scaled diagnostic matrix
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
    lead = np.broadcast_shapes(*(np.shape(e) for e in entries))
    out = np.empty(lead + (len(entries),))
    for j, e in enumerate(entries):
        out[..., j] = e
    return out.reshape(lead + shape)


def _transpose(m):
    return np.swapaxes(m, -1, -2)


def _outer(x, y):
    return x[..., :, None] * y[..., None, :]


def _p_matrices(f1, f2, f3, vb, params: ModelParams):
    """State matrices (P2, P5, P7, P8) and sqrt(temp_impact - fee*(c f2)^2)
    at one instant, or stacked along the leading axis of the inputs.  The
    broker plugs her belief about how strongly her own speed feeds the
    client's rate in for f2 everywhere: ``e = c_belief * f2``.  The curvature
    ``d = temp_impact - fee_informed * e^2`` of her Hamiltonian in her own
    rate must be positive for the control to exist."""
    b = params.fee_informed
    p = params.perm_impact
    e = params.c_belief * f2
    d = params.temp_impact - e * e * b
    if np.any(d <= 0.0):
        raise AdmissibilityError(
            f"temp_impact - fee_informed * (c*f2)^2 = {np.min(d):.3e} <= 0: control undefined"
        )
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


def _riccati_terms(f1, f2, f3, vb, params: ModelParams, states):
    """Source ``S = P7 P7^T + P5``, loading ``W = 2 P8`` and linear term
    ``P9`` of the broker's Riccati, at one instant or stacked along the
    leading axis of the inputs, restricted to the state indices ``states``."""
    p2, p5, p7, p8, _ = _p_matrices(f1, f2, f3, vb, params)
    # np.take keeps each instant's entries contiguous for the march
    s, p9 = (np.take(np.take(m, states, axis=-2), states, axis=-1)
             for m in (_outer(p7, p7) + p5, _p9(p2, p7, p8)))
    return s, np.take(2.0 * p8, states, axis=-1), p9


def _march(params: ModelParams, trader: TraderCoefficients, var_alpha: DeterministicTable,
           grid: TimeGrid, states, name: str) -> DeterministicTable:
    """Backward RK4 march of ``G' = -(S + (G W)(G W)^T + G P9 + P9^T G)``
    restricted to ``states``, from the terminal penalty ``-(beta0 + beta1
    var_alpha(T))`` in the first entry.  Every term of the right-hand side
    is symmetric entry for entry, so the march keeps G exactly symmetric."""
    terminal = np.zeros((len(states), len(states)))
    terminal[0, 0] = -(params.beta0_broker
                       + params.beta1_broker * var_alpha.at_index(grid.steps))
    lattice = StageLattice(grid, substeps=2, direction="backward")
    with np.errstate(over="ignore", invalid="ignore"):
        s, w, p9 = _riccati_terms(
            *(x(lattice.times) for x in (trader.f1, trader.f2, trader.f3, var_alpha)),
            params, states)
    # per-stage lists index faster than arrays
    neg_s, w, p9 = list(-s), list(w), list(p9)

    def rhs(i, g):
        gw = g.dot(w[i])
        lin = g.dot(p9[i])
        return neg_s[i] - gw[:, None] * gw - (lin + lin.T)

    return rk4_integrate(rhs, terminal, lattice, name=name)


def solve_reduced_riccati(params: ModelParams, trader: TraderCoefficients,
                          var_alpha: DeterministicTable, grid: TimeGrid) -> DeterministicTable:
    """Backward solve of the broker's Riccati restricted to its closed
    (q_broker, q_trader) block."""
    return _march(params, trader, var_alpha, grid, _CORNER, "g2_block")


def solve_broker(params: ModelParams, trader: TraderCoefficients,
                 grid: TimeGrid) -> BrokerCoefficients:
    """Solve the broker's full coefficient system.

    The full 4x4 matrix Riccati is integrated backward, exactly symmetric at
    every node, and cross-checked against the same equation restricted to
    the (q_broker, q_trader) block, which is authoritative for the corner
    entries that enter the control.  A blow-up means the permanent impact is
    outside the range where the reduced system has a global solution, or the
    grid step is too coarse for the marches' fixed substeps.
    """
    var_alpha = solve_price_filter_variance(params, grid)
    try:
        g2_full = _march(params, trader, var_alpha, grid, (0, 1, 2, 3), "broker_g2")
        g2_block = solve_reduced_riccati(params, trader, var_alpha, grid)
    except IntegrationBlowupError as exc:
        raise ExistenceError(
            f"broker matrix Riccati blow-up ({exc}): either the grid step is too coarse for "
            "the march's substeps or the permanent impact is outside its admissible range"
        ) from exc

    full = np.array(g2_full.values)
    block_dev = float(np.max(np.abs(full[:, [[0], [3]], [0, 3]] - g2_block.values)))
    # reduced block is authoritative for the entries that feed the control
    full[:, [[0], [3]], [0, 3]] = g2_block.values
    g2 = DeterministicTable("g2", grid, full)

    gain = price_filter_gain(var_alpha.values, params) * params.sigma_price
    gain_sq = DeterministicTable("gain_sq", grid, gain * gain)
    nodes = StageLattice(grid, direction="backward")
    g2s, gain_sqs = g2(nodes.times), gain_sq(nodes.times)
    with np.errstate(over="ignore", invalid="ignore"):
        flow_var = np.float64(params.sigma_flow) ** 2   # saturates to inf, never raises
        source = -(gain_sqs * g2s[:, 1, 1] + flow_var * g2s[:, 2, 2])

    source = source.tolist()
    g0 = rk4_integrate(lambda i, y: source[i], 0.0, nodes, name="g0")

    gains = _feedback_gain_table(params, trader, var_alpha, g2)
    eig, det_scaled = existence_diagnostic(params, trader, var_alpha, grid)
    return BrokerCoefficients(grid, var_alpha, g2, g0, gains, eig, det_scaled, block_dev)


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
    # B = S, U = W W^T and V = P9 of the equation restricted to the corner
    bmat, w, v = _riccati_terms(trader.f1.values, trader.f2.values, trader.f3.values,
                                var_alpha.values, params, _CORNER)
    u = _outer(w, w)
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
