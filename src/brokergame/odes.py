"""Fixed-step deterministic ODE machinery on a shared uniform time grid.

Everything downstream (coefficient systems, filter variances, the matrix
Riccati solve) runs on one uniform grid so that deterministic tables line up
exactly with the Monte Carlo grid.  The integrator is classical fourth-order
Runge-Kutta with a fixed step.  A ``StageLattice`` describes one march (grid,
substeps, direction) and the times of its stages, every half-substep; the
integrator passes each right-hand side the index of its stage on that
lattice, not a time.  A solver evaluates each tabulated input once per solve,
by linear interpolation at the lattice times, and its right-hand side reads
entry ``i`` of that array.  The linear interpolation makes the solved tables
second order in ``dt``, not fourth.

A scalar state is marched as a Python float, and a state given as a list as
a list of floats: a float rounds as float64 does at a fraction of a numpy
scalar's cost per operation.  Such a right-hand side should read its inputs
from lists (one ``array.tolist()`` per solve), not from arrays.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationBlowupError, TableRangeError, ValidationError

__all__ = [
    "TimeGrid",
    "DeterministicTable",
    "StageLattice",
    "rk4_integrate",
    "solve_scalar_riccati",
    "write_columns_csv",
]

# full round-trip precision for float64
FLOAT_FMT = "%.17g"


def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, horizon] into `steps` intervals."""

    horizon: float = 1.0
    steps: int = 1000

    def __post_init__(self):
        if not isinstance(self.horizon, numbers.Real) or isinstance(self.horizon, bool):
            raise ValidationError(f"horizon must be a real number, got {self.horizon!r}")
        try:
            horizon = float(self.horizon)
        except OverflowError:              # an int past the float range
            horizon = math.inf
        if not (horizon > 0.0 and math.isfinite(horizon)):
            raise ValidationError(f"horizon must be positive and finite, got {self.horizon}")
        if not _is_integer(self.steps) or self.steps < 2:
            raise ValidationError(f"steps must be an integer >= 2, got {self.steps!r}")
        # a numpy or integer horizon and the equal float make one grid, as do
        # a numpy integer count and the equal int
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        # linspace pins the last node at `horizon` exactly
        return np.linspace(0.0, self.horizon, self.steps + 1)


class DeterministicTable:
    """A deterministic function of time stored at the grid nodes.

    Values may be scalars or small dense arrays (one entry per node).
    Evaluation between nodes is linear interpolation; evaluation outside
    [0, horizon] raises ``TableRangeError``.
    """

    __slots__ = ("name", "grid", "values")

    def __init__(self, name: str, grid: TimeGrid, values):
        values = np.asarray(values, dtype=float)
        if values.shape[0] != grid.steps + 1:
            raise ValidationError(
                f"table '{name}': expected {grid.steps + 1} rows, got {values.shape[0]}"
            )
        values.setflags(write=False)
        self.name = name
        self.grid = grid
        self.values = values

    def __call__(self, t):
        g = self.grid
        t_arr = np.asarray(t, dtype=float)
        tol = 1e-9 * max(1.0, g.horizon)
        if np.any(t_arr < -tol) or np.any(t_arr > g.horizon + tol):
            raise TableRangeError(
                f"table '{self.name}' evaluated at t={t!r} outside [0, {g.horizon}]"
            )
        x = np.clip(t_arr / g.dt, 0.0, float(g.steps))
        k0 = np.minimum(np.floor(x).astype(int), g.steps - 1)
        w = x - k0
        if self.values.ndim > 1:
            w = np.reshape(w, np.shape(w) + (1,) * (self.values.ndim - 1))
        out = (1.0 - w) * self.values[k0] + w * self.values[k0 + 1]
        if np.isscalar(t) or np.ndim(t) == 0:
            return out if self.values.ndim > 1 else float(out)
        return out

    def at_index(self, k: int):
        return self.values[k]

    def __repr__(self):
        return f"DeterministicTable({self.name!r}, steps={self.grid.steps}, shape={self.values.shape})"


def write_columns_csv(path_or_file, header, columns) -> None:
    """Write named columns at 17 significant digits (byte-stable round trips)."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValidationError("csv columns must have equal length")
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for i in range(n):
        buf.write(",".join(FLOAT_FMT % c[i] for c in cols) + "\n")
    _write_text(path_or_file, buf.getvalue())


def _write_text(path_or_file, data: str) -> None:
    """Write ASCII text to an open file or to a path, with no newline translation."""
    if hasattr(path_or_file, "write"):
        path_or_file.write(data)
    else:
        with open(path_or_file, "w", encoding="ascii", newline="") as fh:
            fh.write(data)


class StageLattice:
    """One RK4 march on ``grid``: ``substeps`` equal RK4 steps per grid
    interval, in ``direction``, and the times at which it evaluates a
    right-hand side (every half-substep, ``2 * substeps * steps + 1`` points
    in ascending order).

    ``rk4_integrate`` passes a right-hand side the index of its stage in
    ``times``.  A solver evaluates each tabulated input once, as
    ``table(lattice.times)``, and its right-hand side reads entry ``i`` of the
    result.
    """

    __slots__ = ("grid", "substeps", "direction", "times")

    def __init__(self, grid: TimeGrid, substeps: int = 1, direction: str = "forward"):
        if direction not in ("forward", "backward"):
            raise ValidationError(f"direction must be 'forward' or 'backward', got {direction!r}")
        if int(substeps) != substeps or substeps < 1:
            raise ValidationError(f"substeps must be an integer >= 1, got {substeps}")
        forward = direction == "forward"
        nodes = grid.times
        sub = (grid.dt if forward else -grid.dt) / substeps
        starts = (nodes[:-1] if forward else nodes[1:])[:, None] + np.arange(substeps) * sub
        marched = np.stack([starts, starts + 0.5 * sub], axis=-1).reshape(grid.steps, -1)
        if forward:
            self.times = np.append(marched, nodes[-1])
        else:
            self.times = np.append(nodes[0], marched[:, ::-1])
        self.grid = grid
        self.substeps = int(substeps)
        self.direction = direction


def _rk4_step(rhs, i, di, y, h):
    k1 = rhs(i, y)
    k2 = rhs(i + di, y + 0.5 * h * k1)
    k3 = rhs(i + di, y + 0.5 * h * k2)
    k4 = rhs(i + 2 * di, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_list_step(rhs, i, di, y, h):
    """``_rk4_step`` on a list of floats, entry by entry in the same order of
    operations, so it rounds as the array step does."""
    hh = 0.5 * h
    k1 = rhs(i, y)
    k2 = rhs(i + di, [a + hh * b for a, b in zip(y, k1)])
    k3 = rhs(i + di, [a + hh * b for a, b in zip(y, k2)])
    k4 = rhs(i + 2 * di, [a + h * b for a, b in zip(y, k3)])
    h6 = h / 6.0
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def rk4_integrate(rhs, boundary_value, lattice: StageLattice,
                  name: str = "rk4") -> DeterministicTable:
    """Integrate y' = rhs(i, y) over ``lattice.grid`` with classical RK4.

    ``i`` is the index of the stage time in ``lattice.times``.  A forward
    lattice starts from ``boundary_value`` at t=0; a backward one stores
    ``boundary_value`` at t=horizon and marches toward t=0 (rhs is the
    ordinary time derivative in both cases; the step is just negated).  A
    scalar state is carried as a Python float, a list as a list of floats
    (``rhs`` takes and returns a sequence of floats), anything else as an
    ndarray; the leading axis of a vector or array indexes its members (the
    systems of a stacked state, or the entries of a vector), and a blow-up
    names the first member that became non-finite.
    A float ``rhs`` should compute in floats (inputs read from lists, not
    from arrays) and avoid ``**``: float arithmetic overflows to inf, which
    the blow-up check below catches, but ``**`` raises ``OverflowError``.

    Values are stored at the grid nodes only, whatever the lattice's
    substeps, so tables stay aligned with the simulation grid.
    """
    grid, substeps = lattice.grid, lattice.substeps
    y = np.array(boundary_value, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValidationError(f"boundary value for '{name}' is not finite")
    out = np.empty((grid.steps + 1,) + y.shape, dtype=float)
    scalar = y.ndim == 0
    if scalar:
        y, advance, finite = float(y), _rk4_step, math.isfinite
    elif isinstance(boundary_value, list):
        y, advance, finite = y.tolist(), _rk4_list_step, lambda v: all(map(math.isfinite, v))
    else:
        advance, finite = _rk4_step, lambda v: np.isfinite(v).all()
    start, step = (0, 1) if lattice.direction == "forward" else (grid.steps, -1)
    sub = step * grid.dt / substeps
    out[start] = y
    # non-finite states are handled by the blow-up contract below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(start, start + step * grid.steps, step):
            for j in range(substeps):
                y = advance(rhs, 2 * (substeps * k + step * j), step, y, sub)
            if not finite(y):
                member = None if scalar else int(np.argmin(
                    np.isfinite(np.asarray(y)).reshape(len(y), -1).all(axis=1)))
                where = "" if scalar else f" in member {member}"
                raise IntegrationBlowupError(
                    f"'{name}' produced a non-finite value{where} at "
                    f"t={grid.times[k + step]:.10g}", member)
            out[k + step] = y
    return DeterministicTable(name, grid, out)


def _on_lattice(c, lattice: StageLattice) -> np.ndarray:
    if isinstance(c, DeterministicTable):
        return c(lattice.times)
    c = np.asarray(c, dtype=float)
    if c.ndim and c.shape != lattice.times.shape:
        raise ValidationError(f"coefficient of shape {c.shape} is not on the stage lattice")
    return np.broadcast_to(c, lattice.times.shape)


def solve_scalar_riccati(quad, lin, const, boundary: float, lattice: StageLattice,
                         name: str = "riccati") -> DeterministicTable:
    """Solve a scalar Riccati equation on the lattice's grid.

    forward:   y' = const(t) + lin(t) y + quad(t) y^2,  y(0) = boundary
    backward:  0 = y' + const(t) + lin(t) y + quad(t) y^2,  y(horizon) = boundary

    Each coefficient is a number, a DeterministicTable (evaluated once, on
    the stage lattice) or an array already on the lattice, one entry per
    ``lattice.times``; an array of any other shape raises ``ValidationError``.
    """
    sign = 1.0 if lattice.direction == "forward" else -1.0
    q, l, c = ((sign * _on_lattice(x, lattice)).tolist() for x in (quad, lin, const))

    def rhs(i, y):
        return c[i] + l[i] * y + q[i] * y * y

    return rk4_integrate(rhs, float(boundary), lattice, name=name)
