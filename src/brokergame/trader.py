"""Informed trader: speed-filter variance, coefficient system and feedback loadings.

The trader watches the drift-corrected price increments to estimate the
broker's lit-market speed, then trades at a rate that is linear in his signal,
in that estimate, and in his own inventory.  The time-dependent loadings solve
a scalar Riccati equation plus a triangular system of linear ODEs, all
integrated backward from zero terminal conditions on the shared grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, ModelInconsistencyError
from .odes import (DeterministicTable, StageLattice, TimeGrid, rk4_integrate,
                   solve_scalar_riccati, write_columns_csv)
from .params import ModelParams

__all__ = [
    "TraderCoefficients",
    "solve_speed_filter_variance",
    "solve_inventory_coeff",
    "solve_linear_coeffs",
    "solve_trader",
    "export_trader_csv",
]


@dataclass(frozen=True)
class TraderCoefficients:
    """Solved deterministic coefficients of the informed trader's problem."""

    grid: TimeGrid
    var_nu: DeterministicTable       # conditional variance of the speed estimate
    g2: DeterministicTable           # quadratic inventory coefficient (negative)
    z1: DeterministicTable
    z2: DeterministicTable
    z3: DeterministicTable
    z4: DeterministicTable
    z5: DeterministicTable
    z6: DeterministicTable
    z7: DeterministicTable
    z8: DeterministicTable
    f1: DeterministicTable           # signal loading of the feedback rate
    f2: DeterministicTable           # speed-estimate loading
    f3: DeterministicTable           # inventory loading (negative)
    unit: DeterministicTable         # speed response per unit of impact: z2 = perm_impact * unit

    @property
    def z_tables(self):
        return (self.z1, self.z2, self.z3, self.z4, self.z5, self.z6, self.z7, self.z8)


def _impact_ratio(params: ModelParams) -> float:
    """perm_impact / sigma_price, with the all-degenerate zero case mapped to 0."""
    if params.sigma_price == 0.0:
        return 0.0
    return params.perm_impact / params.sigma_price


# classical RK4 damps y' = -rate y for step * rate up to about 2.785
RK4_STABLE_STEP = 2.78
# substeps per grid step past which a stiff march is left to fail with the
# integrator's blow-up error instead of growing its stage lattice without end
MAX_SUBSTEPS = 64


def _stable_substeps(grid: TimeGrid, rate: float, floor: int) -> int:
    """RK4 substeps per grid step for a march that decays at most at ``rate``.

    ``floor`` sets the accuracy on fine grids; a coarse grid gets enough
    substeps that each one times the rate stays inside RK4's real-axis
    stability interval, up to ``MAX_SUBSTEPS``.
    """
    return max(floor, min(math.ceil(grid.dt * rate / RK4_STABLE_STEP), MAX_SUBSTEPS))


def solve_speed_filter_variance(params: ModelParams, grid: TimeGrid) -> DeterministicTable:
    """Forward Riccati for the trader's filter variance, started at 0.

    The initial transient relaxes at rate 2*theta_speed, which is fast on the
    default grid; substepping keeps the table at closed-form accuracy.
    """
    r = _impact_ratio(params)
    return solve_scalar_riccati(
        quad=-r * r,
        lin=-2.0 * params.theta_speed,
        const=params.sigma_speed ** 2,
        boundary=0.0,
        lattice=StageLattice(grid, substeps=4),
        name="var_nu",
    )


def solve_inventory_coeff(params: ModelParams, var_nu: DeterministicTable,
                          grid: TimeGrid) -> DeterministicTable:
    """Backward Riccati for the quadratic inventory coefficient g2 (< 0)."""
    b = params.fee_informed
    terminal = -(params.beta0_trader + params.beta1_trader * var_nu.at_index(grid.steps))
    penalty = params.phi0_trader + params.phi1_trader * var_nu.values
    # the quadratic term g2^2/fee has stiffness 2|g2|/fee; marching back, |g2|
    # moves from its terminal value toward sqrt(fee * penalty) and never past
    # the larger of the two, so that bound sizes the substeps before the march
    bound = max(abs(terminal), math.sqrt(b * penalty.max()))
    g2 = solve_scalar_riccati(
        quad=1.0 / b,
        lin=0.0,
        const=DeterministicTable("g2_source", grid, -penalty),
        boundary=terminal,
        lattice=StageLattice(grid, substeps=_stable_substeps(grid, 2.0 * bound / b, 4),
                             direction="backward"),
        name="g2",
    )
    v = g2.values
    if np.any(v[:-1] >= 0.0) or v[-1] > 0.0:
        raise ModelInconsistencyError(
            "inventory coefficient must be negative before the horizon; "
            f"max value {v.max():.3e}"
        )
    return g2


def solve_linear_coeffs(params: ModelParams, g2: DeterministicTable,
                        var_nu: DeterministicTable, grid: TimeGrid):
    """Backward triangular system for the eight linear/value coefficients.

    Solved jointly as one vector ODE; the right-hand side is triangular in
    the order z1,z2 -> z6,z7,z8 -> z4,z5 -> z3, so stage values stay
    consistent without intermediate interpolation.  The march carries the
    speed response per unit of impact, ``unit``, and forms ``z2 =
    perm_impact * unit`` from it; the flow filter divides by ``unit``, which
    stays positive at zero impact.  Returns the tables z1..z8 and ``unit``.
    """
    p = params.perm_impact
    b = params.fee_informed
    ka = params.kappa_signal
    th = params.theta_speed
    sa = params.sigma_signal
    rho = params.rho
    ratio = _impact_ratio(params)   # perm_impact / sigma_price

    # the system is triangular, so its decay rates are the diagonal entries:
    # at most max(ka, th) + max|g2|/(2b), or 2 max(ka, th)
    fast = max(ka, th)
    rate = max(2.0 * fast, fast + np.abs(g2.values).max() / (2.0 * b))
    lattice = StageLattice(grid, substeps=_stable_substeps(grid, rate, 1), direction="backward")
    g2s, v = g2(lattice.times), var_nu(lattice.times)
    with np.errstate(over="ignore", invalid="ignore"):
        cross = (p * sa * rho * v / params.sigma_price if params.sigma_price
                 else np.zeros_like(v))
        rv = ratio * v
        rv2 = rv * rv
    g2s, cross, rv2 = g2s.tolist(), cross.tolist(), rv2.tolist()

    def rhs(i, z):
        z1, u, z3, z4, z5, z6, z7, z8 = z.tolist()
        z2 = p * u
        g = g2s[i]
        return np.array([
            ka * z1 - g * z1 / (2.0 * b) - 1.0,
            th * u - g * u / (2.0 * b) - 1.0,
            -cross[i] * z6 - sa * sa * z7 - rv2[i] * z8,
            ka * z4 - g * z1 / (2.0 * b),
            th * z5 - g * z2 / (2.0 * b),
            (ka + th) * z6 - z1 * z2 / (2.0 * b),
            2.0 * ka * z7 - z1 * z1 / (4.0 * b),
            2.0 * th * z8 - z2 * z2 / (4.0 * b),
        ])

    sol = rk4_integrate(rhs, np.zeros(8), lattice, name="z").values
    unit = DeterministicTable("unit", grid, sol[:, 1])
    z = sol.copy()   # the unit table keeps a view of sol
    z[:, 1] *= p
    tables = tuple(DeterministicTable(f"z{i + 1}", grid, z[:, i]) for i in range(8))
    if np.any(z[:, 0] < -1e-12) or np.any(z[:, 1] < -1e-12):
        raise ModelInconsistencyError("z1 and z2 must be non-negative on the grid")
    return tables, unit


def solve_trader(params: ModelParams, grid: TimeGrid) -> TraderCoefficients:
    """Solve the full trader system and derive the feedback loadings f1, f2, f3.

    The broker's matrix Riccati is only well-posed when 1 + fee_informed*f3 > 0
    on the whole grid; a violation raises ``AdmissibilityError``.
    """
    var_nu = solve_speed_filter_variance(params, grid)
    g2 = solve_inventory_coeff(params, var_nu, grid)
    z, unit = solve_linear_coeffs(params, g2, var_nu, grid)
    b = params.fee_informed
    f1 = DeterministicTable("f1", grid, z[0].values / (2.0 * b))
    f2 = DeterministicTable("f2", grid, z[1].values / (2.0 * b))
    f3 = DeterministicTable("f3", grid, g2.values / b)
    margin = 1.0 + b * f3.values
    if np.any(margin <= 0.0):
        raise AdmissibilityError(
            f"admissibility violated: min(1 + fee_informed*f3) = {margin.min():.3e} <= 0; "
            "reduce fees or terminal penalties")
    return TraderCoefficients(grid, var_nu, g2, *z, f1, f2, f3, unit)


def export_trader_csv(coeffs: TraderCoefficients, path_or_file) -> None:
    """All trader tables in one CSV (t, var_nu, g2, z1..z8, f1..f3)."""
    header = ["t", "var_nu", "g2"] + [f"z{i}" for i in range(1, 9)] + ["f1", "f2", "f3"]
    cols = [coeffs.grid.times, coeffs.var_nu.values, coeffs.g2.values]
    cols += [z.values for z in coeffs.z_tables]
    cols += [coeffs.f1.values, coeffs.f2.values, coeffs.f3.values]
    write_columns_csv(path_or_file, header, cols)
