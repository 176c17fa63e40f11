"""Radial profiles and potentials for the smoothed quadric cone.

The quadric  C_eps = {z_1^2 + ... + z_{n+1}^2 = eps}  in C^{n+1} carries, for
eps != 0, the rotation-invariant Ricci-flat Kahler potential

    u = |eps|^((n-1)/n) * f(arccosh(|z|^2 / |eps|))

where the profile f solves  (f'(w)^n)' = n sinh^{n-1}(w),  f(0) = f'(0) = 0,
and for eps = 0 the cone potential

    u = (n/(n-1))^((n+1)/n) * (|z|^2)^((n-1)/n).

Both satisfy, in the chart that solves for the last coordinate, the
Monge-Ampere identity  det(d^2 u / dz_j dzbar_k) * |z_last|^2 = 1  (n = 3),
which monge_ampere_residual checks by finite differences in one array pass:
both steps' stencils (the centre, +-e_a and the four mixed points of each
coordinate pair, 2 x 73 points) are built as one array, lifted to the
quadric in one chart embedding, evaluated by one potential call, and read
into both Hessians by index arrays.  A potential takes a (..., 4) stack of
points and returns one value per point, as those of cone_potential_fn and
stenzel_potential_fn do.

solve_profile runs its quadrature as array passes over the whole grid: one
10-point Gauss-Legendre rule per segment for F = int_0^w sinh^{n-1}, on a
(steps, 10) node array, whose cumulative sum gives F on the grid; then the
same rule for f = int f', where f' at each node x is (n F(x))^(1/n) with
F(x) = F(w_k) + the rule over [w_k, x], a (steps, 10, 10) array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._spline import CubicHermite
from .errors import InputError, NumericalFailure

__all__ = [
    "RadialProfile",
    "QuadricPoint",
    "solve_profile",
    "cone_potential",
    "stenzel_potential_fn",
    "cone_potential_fn",
    "monge_ampere_residual",
    "random_chart_point",
]


@dataclass(frozen=True)
class RadialProfile:
    """Sampled solution (w, f, f') of the profile quadrature."""

    n: int
    w: np.ndarray
    f: np.ndarray
    fprime: np.ndarray

    @property
    def w_max(self) -> float:
        return float(self.w[-1])


@dataclass(frozen=True)
class QuadricPoint:
    """A point of {sum z_j^2 = eps} with constraint residual enforced."""

    z: np.ndarray
    eps: complex = 0.0

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        object.__setattr__(self, "z", z)
        res = abs(np.sum(z * z) - self.eps)
        if res > 1e-12 * (1.0 + float(np.sum(np.abs(z) ** 2))):
            raise InputError(f"constraint residual {res:.3e} too large")


_GL_NODES, _GL_WEIGHTS = leggauss(10)
# the largest profile grid: about 1.1 KB and 2 us a step, so about 110 MB
# and 0.2 s at the cap
MAX_STEPS = 100_000


def _gauss_legendre(fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """10-point Gauss-Legendre rules on [a, b]; fn gets a.shape+(10,) nodes."""
    half = 0.5 * (b - a)
    nodes = half[..., None] * _GL_NODES
    nodes += (0.5 * (a + b))[..., None]
    vals = fn(nodes)
    vals *= _GL_WEIGHTS
    return half * np.sum(vals, axis=-1)


def solve_profile(n: int, w_max: float, steps: int,
                  ode_tol: float = 1e-3) -> RadialProfile:
    """Solve (f'^n)' = n sinh^{n-1} w with f(0) = f'(0) = 0 by quadrature.

    f' = (n * int_0^w sinh^{n-1})^(1/n), then f = int f'.  steps runs from
    100 to MAX_STEPS.  Raises NumericalFailure when the central difference
    of f'^n misses n sinh^{n-1} w by more than ode_tol relative, or by a
    non-finite amount (a profile beyond the float range).
    """
    if n < 2:
        raise InputError("complex dimension n must be >= 2")
    if w_max <= 0 or steps < 100:
        raise InputError("need w_max > 0 and steps >= 100")
    if steps > MAX_STEPS:
        raise InputError(f"steps must be <= {MAX_STEPS}, got {steps}")
    # f'^n and sinh^{n-1} overflow for a large n or w_max; the residual is
    # then NaN or inf, which the check below refuses
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.linspace(0.0, w_max, steps + 1)
        a, b = w[:-1], w[1:]
        sinh_pow = lambda s: np.power(np.sinh(s, out=s), n - 1, out=s)
        F = np.zeros(steps + 1)
        np.cumsum(_gauss_legendre(sinh_pow, a, b), out=F[1:])
        fprime = (n * F) ** (1.0 / n)
        # f' at the (steps, 10) nodes x: F(w_k) plus the rule over [w_k, x]
        fprime_nodes = lambda x: (n * (F[:-1, None] + _gauss_legendre(
            sinh_pow, a[:, None], x))) ** (1.0 / n)
        f = np.zeros(steps + 1)
        np.cumsum(_gauss_legendre(fprime_nodes, a, b), out=f[1:])

        rhs = n * np.sinh(w[1:-1]) ** (n - 1)
        lhs = ((fprime[2:] ** n) - (fprime[:-2] ** n)) / (w[2] - w[0])
        resid = np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))
    if not resid <= ode_tol:
        raise NumericalFailure(f"ODE residual {resid:.3e} > {ode_tol:.1e}")
    return RadialProfile(n=n, w=w, f=f, fprime=fprime)


def cone_potential(n: int, z):
    """(n/(n-1))^((n+1)/n) * (|z|^2)^((n-1)/n) on the eps = 0 cone.

    z is one point (a float comes back) or a (..., n + 1) stack of points
    (an array of one value per point); InputError if any point is 0.
    """
    zz = z.z if isinstance(z, QuadricPoint) else np.asarray(z, dtype=complex)
    s = np.sum(np.abs(zz) ** 2, axis=-1)
    if np.any(s == 0.0):
        raise InputError("cone potential undefined at the vertex")
    u = (n / (n - 1.0)) ** ((n + 1.0) / n) * s ** ((n - 1.0) / n)
    return float(u) if zz.ndim == 1 else u


def stenzel_potential_fn(profile: RadialProfile, eps: complex):
    """Closure evaluating |eps|^((n-1)/n) * f(arccosh(|z|^2/|eps|)) on raw
    coordinate arrays, one point or a (..., n + 1) stack, with n the
    profile's dimension and f the cubic Hermite interpolant of the profile's
    exact (w, f, f'), which keeps the potential convex across grid joints.
    InputError if any point of a stack is off the profile."""
    if eps == 0:
        raise InputError("eps = 0 is the cone; use cone_potential")
    spline = CubicHermite(profile.w, profile.f, profile.fprime)
    scale = abs(eps) ** ((profile.n - 1.0) / profile.n)
    w_max = profile.w_max

    def u(zarr: np.ndarray):
        s = np.sum(np.abs(zarr) ** 2, axis=-1)
        ratio = s / abs(eps)
        if np.any(ratio < 1.0 - 1e-12):
            raise InputError(f"|z|^2 = {np.min(s):.6g} below "
                              f"|eps| = {abs(eps):.6g}")
        wval = np.arccosh(np.maximum(ratio, 1.0))
        if np.any(wval > w_max):
            raise InputError(f"arccosh argument {np.max(wval):.4g} "
                                    "beyond grid")
        return scale * spline(wval)

    return u


def cone_potential_fn(n: int = 3):
    """cone_potential(n, .) as a closure that takes a stack of points."""
    def u(zarr: np.ndarray):
        return cone_potential(n, zarr)

    return u


def _assemble(w: np.ndarray, root, chart: int) -> np.ndarray:
    """The points with z[..., chart] = root and the free coordinates w."""
    z = np.empty(w.shape[:-1] + (4,), dtype=complex)
    z[..., :chart] = w[..., :chart]
    z[..., chart] = root
    z[..., chart + 1:] = w[..., chart:]
    return z


def _chart_embed(w: np.ndarray, eps: complex, chart: int, base: complex):
    """Lift chart coordinates (..., 3) to the quadric, each point on the
    square root branch nearest base."""
    root = np.sqrt(eps - np.sum(w * w, axis=-1))
    root = np.where(np.abs(root - base) > np.abs(-root - base), -root, root)
    return _assemble(w, root, chart)


@functools.cache
def _stencil() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets (73, 6) in {-1, 0, 1} of the second-difference stencil: the
    centre, +e_a and -e_a for a = 0..5, then the pairs a < b (in the order
    of the index arrays returned with it) at +e_a+e_b, +e_a-e_b, -e_a+e_b
    and -e_a-e_b, 15 rows each.  Built on first use."""
    a, b = np.triu_indices(6, 1)
    eye = np.eye(6)
    offsets = np.concatenate([np.zeros((1, 6)), eye, -eye,
                              eye[a] + eye[b], eye[a] - eye[b],
                              -eye[a] + eye[b], -eye[a] - eye[b]])
    for arr in (offsets, a, b):
        arr.setflags(write=False)
    return offsets, a, b


def monge_ampere_residual(potential, point: QuadricPoint, h: float = 1e-3,
                          chart: int = 3) -> float:
    """|det(H) * |z_chart|^2 - 1| with H the finite-difference complex Hessian.

    The chart solves for coordinate `chart` via the principal square root
    branch nearest the point's own value; 4-point central stencils per
    coordinate pair, one Richardson halving.  Raises InputError when
    |z_chart| < 10 h and NumericalFailure when the halved step disagrees
    badly.

    Both steps' stencils are one (2, 73, 4) stack of points, and the
    potential is called once on it: it takes a (..., 4) stack and returns
    one value per point.
    """
    z0 = point.z
    if len(z0) != 4:
        raise InputError("the Monge-Ampere check is wired for n = 3")
    if abs(z0[chart]) < 10.0 * h:
        raise InputError(f"|z[{chart}]| = {abs(z0[chart]):.3g} < 10h")
    offsets, a, b = _stencil()
    steps = np.array([h, h / 2.0])[:, None, None]
    # (Re w1, Im w1, ..., Im w3) + each offset times each step
    x = np.delete(z0, chart).view(float) + offsets * steps
    z = _chart_embed(x.view(complex), point.eps, chart, complex(z0[chart]))
    vals = potential(z)
    step2 = steps[:, :, 0] ** 2
    u0 = vals[:, :1]
    d2 = np.empty((2, 6, 6))
    diag = np.arange(6)
    d2[:, diag, diag] = (vals[:, 1:7] - 2.0 * u0 + vals[:, 7:13]) / step2
    d2[:, a, b] = d2[:, b, a] = (
        vals[:, 13:28] - vals[:, 28:43] - vals[:, 43:58] + vals[:, 58:73]
    ) / (4.0 * step2)
    # d^2u/dw_j dwbar_k from the real Hessian in (Re w, Im w) pairs
    xx = d2[:, 0::2, 0::2] + d2[:, 1::2, 1::2]
    xy = d2[:, 0::2, 1::2] - d2[:, 1::2, 0::2]
    H1, H2 = 0.25 * (xx + 1j * xy)
    d1, d2_ = np.linalg.det(H1), np.linalg.det(H2)
    if abs(d1 - d2_) > 0.5 * abs(d2_):
        raise NumericalFailure(f"det {d1:.6g} vs {d2_:.6g} under halving")
    det = np.linalg.det((4.0 * H2 - H1) / 3.0)
    return float(abs(det * abs(z0[chart]) ** 2 - 1.0))


def random_chart_point(eps: complex, rng: np.random.Generator,
                       chart: int = 3, min_last: float = 0.3) -> QuadricPoint:
    """Random quadric point with the chart coordinate bounded away from 0;
    the other three coordinates are standard complex normals."""
    for _ in range(200):
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        s2 = eps - np.sum(w * w)
        if abs(s2) < min_last ** 2:
            continue
        root = np.sqrt(s2) * (1 if rng.random() < 0.5 else -1)
        return QuadricPoint(z=_assemble(w, root, chart), eps=eps)
    raise NumericalFailure("could not sample a chart-valid point")
