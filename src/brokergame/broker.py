"""Broker: price-filter variance, matrix Riccati system, feedback rate.

The broker's value function is quadratic in the state
``y = (q_broker, alpha_hat, flow, q_trader)``.  Its 4x4 coefficient matrix
``G`` solves a backward matrix Riccati equation built from the trader's
feedback loadings,

    G' = -(S + (G W)(G W)^T + G P9 + P9^T G),   S = P7 P7^T + P5,  W = 2 P8.

``W`` lives on (q_broker, q_trader) and ``P9`` maps nothing from
(alpha_hat, flow) into that pair, so the same equation restricted to the
pair is a closed 2x2 Riccati.  Each parameter set contributes its one 4x4
system to a stacked RK4 march on a ``(sets, 4, 4)`` state, and the corner of
that solve feeds the control.  A march is bound by per-stage Python work,
not by matrix size, so a batch of parameter sets costs little more than one.
The closed 2x2 block is marched on its own only when ``block_dev``, the
cross-check of the full solve against it, is first read.  An eigenvalue
diagnostic, read from the same restricted terms, certifies that the block
stays in the region where a global solution exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    "solve_brokers",
    "solve_reduced_riccati",
    "existence_diagnostic",
    "export_broker_csv",
]

# order of the broker's state vector in every matrix below
STATE_ORDER = ("q_broker", "alpha_hat", "flow", "q_trader")
# (q_broker, q_trader): the block of the Riccati that closes on itself
_CORNER = (0, 3)
# the parameters the price-filter variance reads
_SIGNAL_KEYS = ("sigma_price", "rho", "sigma_signal", "kappa_signal")


@dataclass(frozen=True)
class BrokerCoefficients:
    grid: TimeGrid
    var_alpha: DeterministicTable     # price-filter conditional variance
    g2: DeterministicTable            # symmetric 4x4 value-function matrix
    g0: DeterministicTable            # state-free value-function term
    gains: DeterministicTable         # feedback row: rate = gains(t) . y
    eigvals: DeterministicTable       # existence diagnostic, 4 per node
    det_scaled: DeterministicTable    # det of the row-scaled diagnostic matrix
    params: ModelParams               # the set these tables were solved for
    trader: TraderCoefficients = field(repr=False)   # and its trader

    @cached_property
    def block_dev(self) -> float:
        """max |full - reduced| on the (q_broker, q_trader) corner: ``g2``
        against a march of the closed 2x2 block alone, run on first read."""
        block = solve_reduced_riccati(self.params, self.trader, self.var_alpha, self.grid)
        return float(np.max(np.abs(self.g2.values[:, [[0], [3]], [0, 3]] - block.values)))


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


def _riccati_terms(p_matrices, states):
    """Source ``S = P7 P7^T + P5``, loading ``W = 2 P8`` and linear term
    ``P9`` of the broker's Riccati from ``_p_matrices``' output, at one
    instant or stacked along its leading axis, restricted to the state
    indices ``states``."""
    p2, p5, p7, p8, _ = p_matrices
    # np.take keeps each instant's entries contiguous for the march
    s, p9 = (np.take(np.take(m, states, axis=-2), states, axis=-1)
             for m in (_outer(p7, p7) + p5, _p9(p2, p7, p8)))
    return s, np.take(2.0 * p8, states, axis=-1), p9


def _march(sets, grid: TimeGrid, name: str, states=(0, 1, 2, 3)) -> DeterministicTable:
    """Backward RK4 march of ``G' = -(S + (G W)(G W)^T + G P9 + P9^T G)``
    restricted to ``states`` for every ``(params, trader, var_alpha)`` set at
    once, stacked along the leading axis of a ``(sets, n, n)`` state.  Each
    starts from the terminal penalty ``-(beta0 + beta1 var_alpha(T))`` in the
    q_broker entry.  Every term of the right-hand side is symmetric entry for
    entry, so the march keeps each G exactly symmetric."""
    lattice = StageLattice(grid, substeps=2, direction="backward")
    n = len(states)
    shape = (lattice.times.size, len(sets), n)
    terminal = np.zeros((len(sets), n, n))
    neg_s, w, p9 = np.empty(shape + (n,)), np.empty(shape + (1,)), np.empty(shape + (n,))
    for m, (params, trader, var_alpha) in enumerate(sets):
        terminal[m, 0, 0] = -(params.beta0_broker
                              + params.beta1_broker * var_alpha.at_index(grid.steps))
        with np.errstate(over="ignore", invalid="ignore"):
            s, wm, p9m = _riccati_terms(_p_matrices(
                *(x(lattice.times) for x in (trader.f1, trader.f2, trader.f3, var_alpha)),
                params), states)
        neg_s[:, m], w[:, m, :, 0], p9[:, m] = -s, wm, p9m
    # per-stage lists index faster than arrays
    neg_s, w, p9 = list(neg_s), list(w), list(p9)

    def rhs(i, g):
        gw = g @ w[i]
        lin = g @ p9[i]
        return neg_s[i] - gw * gw.swapaxes(1, 2) - (lin + lin.swapaxes(1, 2))

    return rk4_integrate(rhs, terminal, lattice, name=name)


def solve_reduced_riccati(params: ModelParams, trader: TraderCoefficients,
                          var_alpha: DeterministicTable, grid: TimeGrid) -> DeterministicTable:
    """Backward solve of the broker's Riccati restricted to its closed
    (q_broker, q_trader) block, as a 2x2 march of its own."""
    g = _march([(params, trader, var_alpha)], grid, "g2_block", _CORNER).values
    return DeterministicTable("g2_block", grid, g[:, 0])


def solve_broker(params: ModelParams, trader: TraderCoefficients,
                 grid: TimeGrid) -> BrokerCoefficients:
    """Solve the broker's full coefficient system: ``solve_brokers`` on one
    parameter set."""
    return solve_brokers([params], [trader], grid)[0]


def solve_brokers(params_seq, traders, grid: TimeGrid) -> list:
    """Solve the broker's coefficient system for each parameter set and its
    trader, one 4x4 matrix Riccati per set, all in one stacked march.  The
    price-filter variance is solved once per distinct value of the parameters
    it reads (``_SIGNAL_KEYS``), and the sets that share it share the table.

    Each set's full Riccati is integrated backward, exactly symmetric at
    every node, and its (q_broker, q_trader) corner feeds the control.  A
    blow-up raises ``ExistenceError`` naming the parameter set (its index,
    also ``member``) whose system became non-finite first: the permanent
    impact is outside the range where the reduced system has a global
    solution, or the grid step is too coarse for the march's fixed substeps.
    """
    solved, var_alphas = {}, []
    for p in params_seq:
        key = tuple(getattr(p, k) for k in _SIGNAL_KEYS)
        if key not in solved:
            solved[key] = solve_price_filter_variance(p, grid)
        var_alphas.append(solved[key])
    sets = list(zip(params_seq, traders, var_alphas))
    try:
        g = _march(sets, grid, "broker_riccati").values
    except IntegrationBlowupError as exc:
        raise ExistenceError(
            f"broker matrix Riccati blow-up in the 'broker_g2' system of parameter "
            f"set {exc.member} ({exc}): either the grid step is too coarse for the march's "
            "substeps or the permanent impact is outside its admissible range",
            exc.member) from exc
    return [_broker_tables(*s, g[:, k], grid) for k, s in enumerate(sets)]


def _broker_tables(params: ModelParams, trader: TraderCoefficients,
                   var_alpha: DeterministicTable, g, grid: TimeGrid) -> BrokerCoefficients:
    """One parameter set's tables from its marched matrix."""
    # a copy: a view would keep the whole stacked march alive with this table
    g2 = DeterministicTable("g2", grid, np.array(g))

    gain = price_filter_gain(var_alpha.values, params) * params.sigma_price
    gain_sq = DeterministicTable("gain_sq", grid, gain * gain)
    nodes = StageLattice(grid, direction="backward")
    g2s, gain_sqs = g2(nodes.times), gain_sq(nodes.times)
    with np.errstate(over="ignore", invalid="ignore"):
        flow_var = np.float64(params.sigma_flow) ** 2   # saturates to inf, never raises
        source = -(gain_sqs * g2s[:, 1, 1] + flow_var * g2s[:, 2, 2])

    source = source.tolist()
    g0 = rk4_integrate(lambda i, y: source[i], 0.0, nodes, name="g0")

    # the state matrices at the nodes, formed once for the gains and the diagnostic
    p_nodes = _p_matrices(trader.f1.values, trader.f2.values, trader.f3.values,
                          var_alpha.values, params)
    _, _, p7, p8, sq = p_nodes
    gains = DeterministicTable(
        "gains", grid, (p7 + 2.0 * np.einsum("kj,kjl->kl", p8, g2.values)) / sq[:, None])
    eig, det_scaled = existence_diagnostic(params, trader, var_alpha, grid, p_nodes)
    return BrokerCoefficients(grid, var_alpha, g2, g0, gains, eig, det_scaled, params, trader)


def existence_diagnostic(params: ModelParams, trader: TraderCoefficients,
                         var_alpha: DeterministicTable, grid: TimeGrid, p_matrices=None):
    """Eigenvalues (by descending magnitude) of the comparison matrix that
    certifies existence of the reduced Riccati solution, plus the determinant
    of its row-scaled version.  Existence requires the three leading
    eigenvalues negative and the fourth (and the determinant) zero.
    ``p_matrices`` is ``_p_matrices`` at the grid nodes when the caller has
    formed it already.
    """
    if p_matrices is None:
        p_matrices = _p_matrices(trader.f1.values, trader.f2.values, trader.f3.values,
                                 var_alpha.values, params)
    # B = S, U = W W^T and V = P9 of the equation restricted to the corner
    bmat, w, v = _riccati_terms(p_matrices, _CORNER)
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
