"""Piecewise cubic Hermite interpolation, the one spline of the package.

On each knot interval [x_i, x_i+1] the cubic with values y_i, y_i+1 and
slopes d_i, d_i+1 is the sum of the four Hermite basis polynomials,

    y_i h00 + d_i dx h10 + y_i+1 h01 + d_i+1 dx h11,

held here collected by powers of s = x - x_i:

    y_i + d_i s + ((m_i - d_i)/dx_i - t_i) s^2 + (t_i/dx_i) s^3,
    m_i = (y_i+1 - y_i)/dx_i,  t_i = (d_i + d_i+1 - 2 m_i)/dx_i,

summed term by term in that order (the same floats as scipy's PPoly form of
CubicHermiteSpline).  Points outside [x_0, x_-1] take the end cubics.

Without given slopes the spline is the not-a-knot cubic spline: C^2 at the
interior knots and one cubic across each pair of end intervals, its slopes
from one tridiagonal solve; a line for 2 knots and a parabola for 3.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def _not_a_knot_slopes(x: np.ndarray, dx: np.ndarray,
                       m: np.ndarray) -> np.ndarray:
    """Knot slopes of the not-a-knot spline with secant slopes m."""
    n = x.size
    if n == 2:
        return np.full(2, m[0])
    if n == 3:
        mid = (dx[0] * m[1] + dx[1] * m[0]) / (dx[0] + dx[1])
        return np.array([2.0 * m[0] - mid, mid, 2.0 * m[1] - mid])
    # row i: lower[i-1] d_i-1 + diag[i] d_i + upper[i] d_i+1 = rhs[i]
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lower = np.concatenate([dx[1:], [d1]]).tolist()
    upper = np.concatenate([[d0], dx[:-1]]).tolist()
    diag = np.concatenate([[dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]])
    rhs = np.concatenate([
        [((dx[0] + 2.0 * d0) * dx[1] * m[0] + dx[0] ** 2 * m[1]) / d0],
        3.0 * (dx[1:] * m[:-1] + dx[:-1] * m[1:]),
        [(dx[-1] ** 2 * m[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * m[-1]) / d1]])
    diag, rhs = diag.tolist(), rhs.tolist()
    # Thomas elimination: every multiplier is at most 1, so no pivoting
    for i in range(1, n):
        w = lower[i - 1] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    d = [0.0] * n
    d[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        d[i] = (rhs[i] - upper[i] * d[i + 1]) / diag[i]
    return np.array(d)


class CubicHermite:
    """The C^1 piecewise cubic through (x_i, y_i) with slopes dydx_i.

    dydx None gives the not-a-knot cubic spline.  Called with a scalar or an
    array of points.
    """

    def __init__(self, x, y, dydx=None):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise InputError("a spline needs at least 2 knots")
        if y.shape != x.shape:
            raise InputError("a spline needs one value per knot")
        if not np.all(np.isfinite(x)):
            raise InputError("spline knots must be finite")
        if not np.all(np.isfinite(y)):
            raise InputError("spline values must be finite")
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise InputError("spline knots must be strictly increasing")
        m = np.diff(y) / dx
        d = (_not_a_knot_slopes(x, dx, m) if dydx is None
             else np.asarray(dydx, dtype=float))
        t = (d[:-1] + d[1:] - 2 * m) / dx
        self._x = x
        self._inner = x[1:-1]
        self._coef = (y[:-1], d[:-1], (m - d[:-1]) / dx - t, t / dx)

    def __call__(self, x):
        # the interval i with x_i <= x < x_i+1, clamped to the end intervals
        i = self._inner.searchsorted(x, side="right")
        s = x - self._x[i]
        c0, c1, c2, c3 = self._coef
        return c0[i] + c1[i] * s + c2[i] * (s * s) + c3[i] * (s * s * s)
