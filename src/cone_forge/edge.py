"""Per-Fourier-mode radial solver for the circle-times-cone edge operator.

Each Fourier mode n and separated eigenvalue mu reduces the operator to

    ((r d/dr)^2 - (n^2 r^2 + mu^2)) y = z(r)      on (0, 1],

solved through one Green kernel pair g, d per mode, growing and decaying:
(I_mu(|n|r), K_mu(|n|r)) for n != 0 (Wronskian exactly 1/x) and
(r^mu, r^-mu) / (2 mu) for n = 0, mu > 0,

    y(r) = -I_mu(|n|r) int_r^1 K_mu(|n|s) z(s) ds/s
           -K_mu(|n|r) int_0^r I_mu(|n|s) z(s) ds/s             (n != 0)
    y(r) = (r^mu int_0^r s^-mu z ds/s - r^-mu int_0^r s^mu z ds/s) / (2 mu)

(the n = 0 line is r^mu int_0^r (int_0^s t^mu z dt/t) s^(-2mu) ds/s with the
order of integration swapped).  Homogeneous constants are pinned to zero.
The splitting captures the I-mode coefficient

    c = (1/|n|) int_0^1 K_mu(|n|s) z(s) ds/s

(the Gamma-limit prefactor of the kernel is identically 1), read off the
solve's own tail integral int_r^1 K_mu(|n|s) z(s) ds/s at r = grid[0] (for
n = 0, the r^mu coefficient y / r^mu at r = grid[-1]), bounds it by
C |n|^(-dpp-2) ||z|| with C^2 = int_0^inf K_mu^2(s) s^lam ds/s, lam = 2 dpp + 4,
in closed form for lam > 2 mu (the Mellin transform of K_mu^2,
Gradshteyn-Ryzhik 6.576.4 with a = b)

    C^2 = sqrt(pi) G(lam/2 + mu) G(lam/2 - mu) G(lam/2) / (4 G((lam + 1)/2)),

and enumerates the obstruction modes e^{in theta} built from (K_0, K_1) against
a closed-and-coclosed link 2-form, two per nonzero Fourier mode.

Grids are log-spaced so (r d/dr) is a uniform stencil; quadratures are
composite Gauss-Legendre per grid interval on the smooth factors.  The nodes
are walked in blocks of 1024 intervals (8192 nodes, one Bessel chunk): per
block the rhs is sampled once and the kernels are evaluated on its support
only (nodes with z != 0; 0 elsewhere), for n != 0 by one bessel_ik pass, and
not at all in a block without support; only the per-interval sums outlive
the block.  One more pass gives the grid's kernel rows; the decaying row
enters y only where int_0^r g z ds/s is nonzero, since K_mu and r^-mu may
overflow below the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._spline import CubicHermite
from .bessel import _CHUNK, bessel_ik, bessel_k, gamma_fn
from .spectra import WeightOrderViolation

__all__ = [
    "UnsupportedMode", "QuadratureFailure", "WeightOrderViolation",
    "DivergentConstant", "ModeProblem", "SplitSolution", "ObstructionMode",
    "log_grid", "smooth_cutoff", "solve_mode", "operator_residual",
    "split_solution", "coefficient_bound_check", "kernel_modes",
    "no_decaying_kernel_check",
]


class UnsupportedMode(ValueError):
    """n = 0, mu = 0 has no decaying kernel normalization here."""


class QuadratureFailure(RuntimeError):
    """Non-finite values in the Green-kernel quadrature or its bound."""


class DivergentConstant(ValueError):
    """The bound constant integral diverges at 0 for this weight."""


def log_grid(r_min: float = 1e-8, r_max: float = 1.0, num: int = 2048) -> np.ndarray:
    return np.geomspace(r_min, r_max, num)


def _bump(t):
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smooth_cutoff(s) -> np.ndarray | float:
    """C-infinity chi with chi = 1 for s <= 1 and chi = 0 for s >= 2."""
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    up = _bump(2.0 - arr)
    down = _bump(arr - 1.0)
    out = up / np.where(up + down > 0, up + down, 1.0)
    return float(out[0]) if np.ndim(s) == 0 else out


@dataclass(frozen=True)
class ModeProblem:
    """One separated radial problem: mode n, eigenvalue mu, sampled rhs; a
    given rhs_fn must be pointwise, as it is called once per block of nodes."""

    n: int
    mu: float
    grid: np.ndarray
    rhs: np.ndarray
    support_max: float
    rhs_fn: object = None

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        z = np.asarray(self.rhs, dtype=float)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "rhs", z)
        if g.ndim != 1 or g.size < 2:
            raise ValueError("a grid needs at least 2 knots")
        if not (np.all(np.diff(g) > 0) and 0 < g[0] and g[-1] <= 1 + 1e-12):
            raise ValueError("grid must be increasing inside (0, 1]")
        if z.shape != g.shape:
            raise ValueError("rhs must be sampled on the grid")
        if not 0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if not self.support_max < 1.0:
            raise ValueError("rhs support must be bounded away from r = 1")
        if np.any(z[g > self.support_max] != 0.0):
            raise ValueError("rhs does not vanish beyond its support record")

    @cached_property
    def _rhs_spline(self) -> CubicHermite:
        """Not-a-knot cubic spline of the samples in log r."""
        return CubicHermite(np.log(self.grid), self.rhs)

    def rhs_at(self, s: np.ndarray) -> np.ndarray:
        if self.rhs_fn is not None:
            vals = np.asarray(self.rhs_fn(s), dtype=float)
        else:
            vals = self._rhs_spline(np.log(s))
        return np.where(s > self.support_max, 0.0, vals)


@dataclass(frozen=True)
class SplitSolution:
    """y = y_low + y_high with y_low = -I_mu(|n|r) * cutoff * |n| * c_low."""

    y: np.ndarray
    c_low: float
    y_high: np.ndarray
    delta_pp: float
    c_low_regularized: float
    shell_norms: np.ndarray


_GL_NODES, _GL_WEIGHTS = leggauss(8)
_BLOCK = _CHUNK // 8  # grid intervals per node block: one Bessel chunk


def _node_blocks(problem: ModeProblem):
    """Per block of _BLOCK grid intervals, its slice of intervals and, each
    shaped (intervals, 8), the Gauss-Legendre nodes s and weights w in the log
    variable, the rhs z at the nodes and its support z != 0: all cache-sized."""
    u = np.log(problem.grid)
    for lo in range(0, u.size - 1, _BLOCK):
        ub = u[lo:lo + _BLOCK + 1]
        mid = 0.5 * (ub[1:] + ub[:-1])
        half = 0.5 * np.diff(ub)
        s = np.exp(mid[:, None] + half[:, None] * _GL_NODES[None, :])
        w = half[:, None] * _GL_WEIGHTS[None, :]
        z = problem.rhs_at(s.ravel()).reshape(s.shape)
        yield slice(lo, lo + mid.size), s, w, z, z != 0


def _row_sums(support_vals, z, w, on) -> np.ndarray:
    """Per-interval Gauss sums of kernel z ds/s, the kernel 0 off the support."""
    vals = np.zeros_like(z)
    vals[on] = support_vals
    return np.sum(vals * z * w, axis=1)


def _solve(problem: ModeProblem):
    """(y, c, I_mu(|n| grid)): the solution, its captured coefficient, the I row.

    Per block of Gauss nodes, one pass of the mode's kernel pair (module
    docstring) on the rhs support gives the per-interval sums; their
    cumulative sums are the head integral B of the growing kernel and, of
    the decaying one, the tail for n != 0 (c is it at grid[0] over |n|) or
    the head A for n = 0.  There y = r^mu H, H = (A - r^(-2mu) B) /
    (2 mu), and c = H(R) at R = grid[-1], which may be below 1 (no I row).
    """
    n, mu, grid = problem.n, problem.mu, problem.grid
    if n == 0 and mu == 0.0:
        raise UnsupportedMode("n = 0, mu = 0 is not invertible in this family")
    a = abs(n)
    gz, dz = np.zeros((2, grid.size - 1))
    for rows, s, w, z, on in _node_blocks(problem):
        support = s[on]
        if n == 0:
            pair = support ** mu, support ** -mu
        else:  # no Bessel pass in a block without support
            pair = bessel_ik(mu, a * support)[:2] if support.size else (support,) * 2
        gz[rows], dz[rows] = (_row_sums(g, z, w, on) for g in pair)
    head = np.concatenate([[0.0], np.cumsum(gz)])
    i_grid = None
    if n != 0:
        # int_r^1 K z du at grid points (grid[-1] = support side)
        tail = np.concatenate([np.cumsum(dz[::-1])[::-1], [0.0]])
        i_grid, decay_grid, _ = bessel_ik(mu, a * grid)
        y = -i_grid * tail
        c = tail[0] / a
    else:
        A = np.concatenate([[0.0], np.cumsum(dz)])
        y = grid ** mu * A / (2.0 * mu)
        with np.errstate(over="ignore"):
            decay_grid = grid ** -mu / (2.0 * mu)
        c = (A[-1] - grid[-1] ** (-2.0 * mu) * head[-1]) / (2.0 * mu)
    # below the support head = 0, and there the decaying kernel may overflow
    live = head != 0
    y[live] -= decay_grid[live] * head[live]
    if not (np.all(np.isfinite(y)) and math.isfinite(c)):
        raise QuadratureFailure("non-finite quadrature output")
    return y, float(c), i_grid


def solve_mode(problem: ModeProblem) -> np.ndarray:
    """Particular solution on the grid; homogeneous constants are zero."""
    return _solve(problem)[0]


def _log_second_difference(y: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order (r d/dr)^2 y at y[2:-2] on a log grid of step h."""
    return (-y[:-4] + 16 * y[1:-3] - 30 * y[2:-2] + 16 * y[3:-1] - y[4:]) / (12 * h * h)


def operator_residual(problem: ModeProblem, y: np.ndarray) -> float:
    """max |((r d/dr)^2 - (n^2 r^2 + mu^2)) y - z| / (1 + sup|z|), interior.

    Fourth-order stencil in log r, so the grid needs at least 5 points.
    """
    if problem.grid.size < 5:
        raise ValueError("operator_residual needs at least 5 grid points")
    u = np.log(problem.grid)
    h = u[1] - u[0]
    if np.max(np.abs(np.diff(u) - h)) > 1e-9 * h:
        raise ValueError("operator_residual requires a uniform log grid")
    d2 = _log_second_difference(y, h)
    mid = slice(2, -2)
    r = problem.grid[mid]
    lhs = d2 - (problem.n ** 2 * r ** 2 + problem.mu ** 2) * y[mid]
    return float(np.max(np.abs(lhs - problem.rhs[mid])) /
                 (1.0 + np.max(np.abs(problem.rhs))))


def split_solution(problem: ModeProblem, delta_p: float,
                   delta_pp: float) -> SplitSolution:
    """Split y into the captured I-mode and a remainder in the dpp space.

    Requires finite weights with -mu < delta_p < mu < delta_pp.  The
    remainder's dyadic shell norms toward r = 0 certify membership in the
    delta_pp-weighted space; a norm beyond the float range is inf.  For
    n = 0 the captured piece is the r^mu coefficient of y at grid[-1], past
    the whole support.
    """
    mu = problem.mu
    if not (-mu < delta_p < mu < delta_pp < math.inf):
        raise WeightOrderViolation(
            f"need finite weights with -mu < delta' < mu < delta'', "
            f"got ({delta_p}, {mu}, {delta_pp})")
    y, c_low, i_grid = _solve(problem)
    grid = problem.grid
    if problem.n != 0:
        a = abs(problem.n)
        y_low = -i_grid * smooth_cutoff(2.0 * a * grid) * a * c_low
        reg = (abs(problem.n + 0.5) / a) ** mu * c_low
    else:
        y_low = smooth_cutoff(2.0 * grid) * grid ** mu * c_low
        reg = 0.5 ** mu * c_low
    y_high = y - y_low
    shells = _shell_norms(grid, y_high, delta_pp)
    return SplitSolution(y=y, c_low=c_low, y_high=y_high,
                         delta_pp=delta_pp, c_low_regularized=float(reg),
                         shell_norms=shells)


def _shell_norm(grid: np.ndarray, w: np.ndarray, vals: np.ndarray,
                delta: float, lo: float, hi: float) -> float:
    """delta-weighted L2 norm of vals on [lo, hi); w is the log-r weight.

    The terms are scaled by 2^-e, e the exponent of the largest, before
    they are squared, and the root by 2^e after: power-of-two scaling is
    exact, and the norm is inf only where it is beyond the float range.
    """
    mask = (grid >= lo) & (grid < hi)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf norm stays inf
        t = grid[mask] ** (-delta) * vals[mask]
        e = int(np.frexp(np.max(np.abs(t), initial=0.0))[1])
        root = math.sqrt(float(np.sum(np.ldexp(t, -e) ** 2 * w[mask])))
        return float(np.ldexp(root, e))


def _shell_norms(grid: np.ndarray, vals: np.ndarray, delta: float) -> np.ndarray:
    """Weighted L2 norms on up to 16 dyadic shells [2^-k-1, 2^-k] toward 0."""
    w = np.gradient(np.log(grid))
    out = []
    for k in range(16):
        lo, hi = 2.0 ** (-k - 1), 2.0 ** (-k)
        if not np.any((grid >= lo) & (grid < hi)):
            break
        out.append(_shell_norm(grid, w, vals, delta, lo, hi))
    return np.array(out)


def _bound_constant_sq(mu: float, delta_pp: float) -> float:
    """C^2 in closed form (module docstring); needs dpp + 2 > mu."""
    half = delta_pp + 2.0  # lam / 2
    return (math.sqrt(math.pi) * gamma_fn(half + mu) * gamma_fn(half - mu)
            * gamma_fn(half) / (4.0 * gamma_fn(half + 0.5)))


def coefficient_bound_check(problem: ModeProblem,
                            delta_pp: float) -> tuple[float, float]:
    """(|c|, C |n|^(-dpp-2) ||z||): the Cauchy-Schwarz certificate pair.

    C (module docstring) is finite for 2 dpp + 4 > 2 mu; ||z|| is the radial
    delta''+2 weighted norm, taken on the support of z (s^-(dpp+2) overflows
    toward 0).  A pair that is not finite raises QuadratureFailure.
    """
    mu = problem.mu
    if problem.n == 0:
        raise UnsupportedMode("the |n|-decay bound concerns n != 0")
    if not math.isfinite(delta_pp):
        raise WeightOrderViolation(f"delta'' must be finite, got {delta_pp}")
    if 2.0 * delta_pp + 4.0 <= 2.0 * mu:
        raise DivergentConstant(
            f"2 dpp + 4 = {2 * delta_pp + 4} <= 2 mu = {2 * mu}")
    a = abs(problem.n)
    kz = np.zeros(problem.grid.size - 1)
    znorm_terms = np.empty((kz.size, _GL_NODES.size))
    for rows, s, w, z, on in _node_blocks(problem):
        support = s[on]
        # the same sums, in the same order, as the solve's tail integral
        kz[rows] = _row_sums(bessel_k(mu, a * support) if support.size
                             else support, z, w, on)
        with np.errstate(over="ignore"):  # refused below as non-finite
            weight = np.where(on, s, 1.0) ** (-(delta_pp + 2.0))
            znorm_terms[rows] = (weight * z) ** 2 * w
    c = abs(float(np.cumsum(kz[::-1])[-1])) / a
    znorm = math.sqrt(float(np.sum(znorm_terms)))  # one sum: the same floats
    try:
        C = math.sqrt(_bound_constant_sq(mu, delta_pp))
    except OverflowError:  # a Gamma factor beyond the float range
        C = math.inf
    bound = C * abs(problem.n) ** (-delta_pp - 2.0) * znorm
    if not (math.isfinite(c) and math.isfinite(bound)):
        raise QuadratureFailure(f"non-finite bound pair ({c}, {bound})")
    return c, bound


@dataclass(frozen=True)
class ObstructionMode:
    """One verified (d+d*)-closed mode e^{in theta} (K_0, sign(n) K_1).

    Scalar identities checked on the grid: K_0' + K_1 = 0 and the modified
    Bessel equations of orders 0 and 1; leading behaviours -log(|n|r) and
    (|n|r)^-1 recorded (form rates r^-2 log r and r^-3).
    """

    n: int
    identity_residual: float
    ode0_residual: float
    ode1_residual: float
    log_ratio: float
    inverse_ratio: float
    normal_form: str


def _scaled_ode_residual(grid: np.ndarray, h: float, y: np.ndarray, a: float,
                         mu: float) -> float:
    d2 = _log_second_difference(y, h)
    r = grid[2:-2]
    coeff = a * a * r * r + mu * mu
    resid = d2 - coeff * y[2:-2]
    return float(np.max(np.abs(resid) / (1.0 + coeff * np.abs(y[2:-2]))))


def kernel_modes(n_max: int, r_grid: np.ndarray | None = None) -> list[ObstructionMode]:
    """The 2 n_max obstruction modes for 0 < |n| <= n_max, each verified.

    The count grows without bound with n_max: the assertable form of the
    infinite-dimensional obstruction space.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    grid = log_grid(num=4096) if r_grid is None else np.asarray(r_grid)
    u = np.log(grid)
    h = u[1] - u[0]
    modes = []
    for a in range(1, n_max + 1):
        _, k0, k1 = bessel_ik(0.0, a * grid)
        dk0 = (k0[:-4] - 8 * k0[1:-3] + 8 * k0[3:-1] - k0[4:]) / (12 * h)
        ak1 = (a * grid * k1)[2:-2]
        small = np.flatnonzero(grid <= 1e-6 / a)
        at = small[-1] if small.size else 0
        rs = float(grid[at])
        shared = dict(
            identity_residual=float(np.max(np.abs(dk0 + ak1) / (1.0 + ak1))),
            ode0_residual=_scaled_ode_residual(grid, h, k0, a, 0.0),
            ode1_residual=_scaled_ode_residual(grid, h, k1, a, 1.0),
            log_ratio=float(k0[at] / (-math.log(a * rs))),
            inverse_ratio=float(k1[at] * (a * rs)))
        for n in (a, -a):
            form = ("sin(theta) r^-1 dr ^ phi_21" if a == 1
                    else f"e^({n}i theta) (|n|r)^-1 dr ^ phi_21")
            modes.append(ObstructionMode(n=n, normal_form=form, **shared))
    return modes


def no_decaying_kernel_check(mu_hat: float, delta: float,
                             grid: np.ndarray | None = None) -> bool:
    """True when no combination of I, K at order sqrt(mu_hat) decays two-sidedly.

    Certified on dyadic shells: the I branch has divergent delta-weighted
    shell norms toward infinity, the K branch toward zero, so the 2x2
    admissibility system only has the zero solution.  Valid input delta > -2.
    """
    if delta <= -2.0:
        raise ValueError("the statement concerns delta > -2")
    order = math.sqrt(mu_hat)
    grid = np.geomspace(1e-6, 60.0, 4096) if grid is None else np.asarray(grid)
    weight = delta + 2.0  # hat-modes carry the built-in r^-2
    i_vals, k_vals, _ = bessel_ik(order, grid)
    w = np.gradient(np.log(grid))
    top = [_shell_norm(grid, w, i_vals, weight, 2.0 ** k, 2.0 ** (k + 1))
           for k in range(1, 5)]
    i_diverges = all(b > a for a, b in zip(top, top[1:])) and top[-1] > 10 * top[0]
    bottom = [_shell_norm(grid, w, k_vals, weight, 2.0 ** (-k - 1), 2.0 ** (-k))
              for k in range(4, 17)]
    k_diverges = all(b >= a * 0.999 for a, b in zip(bottom, bottom[1:])) \
        and bottom[-1] > 2 * bottom[0]
    return bool(i_diverges and k_diverges)
