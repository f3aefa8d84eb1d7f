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
