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
