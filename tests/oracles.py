"""Closed-form solutions that tests compare the numerical solvers against."""

import numpy as np


def riccati_constant_solution(quad: float, lin: float, const: float, y0: float, t):
    """Closed-form solution of y' = const + lin y + quad y^2 with constant
    coefficients and two distinct real roots, at the times ``t``."""
    t = np.asarray(t, dtype=float)
    if quad == 0.0:
        if lin == 0.0:
            return y0 + const * t
        yinf = -const / lin
        return yinf + (y0 - yinf) * np.exp(lin * t)
    disc = lin * lin - 4.0 * quad * const
    if disc <= 0.0:
        raise ValueError("constant-coefficient oracle requires distinct real roots")
    r = np.sqrt(disc)
    y_plus = (-lin + r) / (2.0 * quad)
    y_minus = (-lin - r) / (2.0 * quad)
    if y0 == y_plus:
        return np.full_like(t, y_plus, dtype=float)
    if y0 == y_minus:
        return np.full_like(t, y_minus, dtype=float)
    ratio = (y0 - y_plus) / (y0 - y_minus)
    e = ratio * np.exp(r * t)
    return (y_plus - y_minus * e) / (1.0 - e)


def reduced_broker_uvb(f2, f3, vb, params):
    """Closed forms of the broker's Riccati restricted to (q_broker, q_trader)
    at one instant: the quadratic term U, the linear term V and the source B,
    written out from the parameters with ``e = c_belief f2`` and
    ``d = temp_impact - fee_informed e^2``."""
    a, b, p = params.temp_impact, params.fee_informed, params.perm_impact
    e = params.c_belief * f2
    d = a - b * e * e
    w = np.array([1.0 - e, e])
    u = np.outer(w, w) / d
    v = np.array([[p * (1.0 - e) / 2.0, -f3 * (a - e * b)],
                  [p * e / 2.0, a * f3]]) / d
    run_pen = params.phi0_broker + params.phi1_broker * vb
    bmat = np.array([[p * p / 4.0 - d * run_pen, p * e * f3 * b / 2.0],
                     [p * e * f3 * b / 2.0, f3 * f3 * a * b]]) / d
    return u, v, bmat


def broker_hjb_residuals(params, trader, broker):
    """Worst relative residuals of the broker's first-order condition (all
    nodes) and HJB equation (central differences, t <= 0.9), with the
    Hamiltonian written from the model's dynamics, not from the solver's
    matrices."""
    a, b, p = params.temp_impact, params.fee_informed, params.perm_impact
    f1, f3 = trader.f1.values, trader.f3.values
    e = params.c_belief * trader.f2.values
    g, k = broker.g2.values, broker.gains.values
    n = len(e)
    zero = np.zeros(n)
    unit = np.eye(4)
    w = np.stack([1.0 - e, zero, zero, e], axis=1)   # state drift per unit of nu
    m = np.stack([zero, f1, zero, f3], axis=1)       # client's rate without nu
    drift = np.zeros((n, 4, 4))                      # state drift without nu
    drift[:, 0] = -m - unit[2]
    drift[:, 1, 1] = -params.kappa_signal
    drift[:, 2, 2] = -params.kappa_flow
    drift[:, 3] = m
    eta = e[:, None] * k + m
    phi = params.phi0_broker + params.phi1_broker * broker.var_alpha.values

    # d/dnu of -a nu^2 + b eta^2 + p q_b nu + 2 y^T G w nu, as a row acting on y
    foc = (-2.0 * a * k + 2.0 * b * e[:, None] * eta + p * unit[0]
           + 2.0 * np.einsum("kij,kj->ki", g, w))
    foc_rel = np.abs(foc).max(axis=1) / np.abs(2.0 * a * k).max(axis=1)

    # running gain at nu = k . y, as a (non-symmetric) quadratic form in y:
    # -a nu^2 + b eta^2 + b_u flow^2 + q_b (p nu + alpha_hat) - phi q_b^2
    # plus the drift of y^T G y
    outer = "ki,kj->kij"
    ham = (-a * np.einsum(outer, k, k) + b * np.einsum(outer, eta, eta)
           + 2.0 * g @ (drift + np.einsum(outer, w, k)))
    ham[:, 0] += p * k + unit[1]
    ham[:, 0, 0] -= phi
    ham[:, 2, 2] += params.fee_uninformed
    dg = (g[2:] - g[:-2]) / (2.0 * broker.grid.dt)
    resid = dg + 0.5 * (ham + ham.transpose(0, 2, 1))[1:-1]
    hjb_rel = np.abs(resid).max(axis=(1, 2)) / np.abs(dg).max(axis=(1, 2))
    inner = broker.grid.times[1:-1] <= 0.9
    return float(foc_rel.max()), float(hjb_rel[inner].max())


def trader_hjb_residuals(params, trader):
    """The client's first-order condition (worst absolute gap of each
    loading, over the largest loading, all nodes) and the three rows of his
    HJB that carry the inventory (worst residual by central differences over
    the largest derivative, t <= 0.9), written from the model's dynamics,
    not from the solver's right-hand side.

    With value ``X + q S + q (z1 alpha + z2 nu_hat) + q^2 g2 + g0(alpha,
    nu_hat)``, the client paying ``S + b eta`` per unit, the price drifting
    at ``p nu_hat + alpha`` in his filtration, ``alpha`` decaying at ``kappa``,
    ``nu_hat`` at ``theta`` and a running penalty ``phi q^2``, his rate is
    the maximiser ``(z1 alpha + z2 nu_hat + 2 q g2) / (2 b)`` and the
    supremum ``(z1 alpha + z2 nu_hat + 2 q g2)^2 / (4 b)`` gives, on ``q^2``,
    ``q alpha`` and ``q nu_hat`` with ``z2 = p unit``:

    - ``g2' + g2^2 / b - phi = 0``;
    - ``z1' = kappa z1 - z1 g2 / b - 1``;
    - ``unit' = theta unit - unit g2 / b - 1``.

    Returns ``(foc, {"g2": ..., "z1": ..., "unit": ...})``.
    """
    b, p = params.fee_informed, params.perm_impact
    g2, z1, unit = trader.g2.values, trader.z1.values, trader.unit.values
    loadings = ((trader.f1.values, z1 / (2.0 * b)), (trader.f2.values, p * unit / (2.0 * b)),
                (trader.f3.values, g2 / b))
    foc = max(np.abs(f - rate).max() / np.abs(f).max() for f, rate in loadings)

    phi = params.phi0_trader + params.phi1_trader * trader.var_nu.values
    rhs = {"g2": phi - g2 * g2 / b,
           "z1": params.kappa_signal * z1 - z1 * g2 / b - 1.0,
           "unit": params.theta_speed * unit - unit * g2 / b - 1.0}
    inner = trader.grid.times[1:-1] <= 0.9
    rows = {}
    for name, y in (("g2", g2), ("z1", z1), ("unit", unit)):
        dy = ((y[2:] - y[:-2]) / (2.0 * trader.grid.dt))[inner]
        rows[name] = float(np.abs(dy - rhs[name][1:-1][inner]).max() / np.abs(dy).max())
    return float(foc), rows
