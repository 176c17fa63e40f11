"""Self-contained Gamma and modified Bessel functions I_mu, K_mu.

I is evaluated by its power series

    I_mu(x) = sum_m (x/2)^(2m+mu) / (m! Gamma(m+mu+1))

below the switchover x >= max(12, mu^2 + 2) and by the compound asymptotic
expansion  e^x/sqrt(2 pi x) * S- - sin(mu pi) e^-x/sqrt(2 pi x) * S+  above it.
K uses the reflection formula (pi/2)(I_-mu - I_mu)/sin(mu pi) for
non-integer orders below x = 1, a trapezoidal evaluation of the integral
int_0^inf e^(-x cosh t) cosh(mu t) dt up to the switchover, and the
asymptotic expansion sqrt(pi/2x) e^-x * S+ beyond.  The trapezoid step is
h = 0.05; the cutoff t_max is chosen per binary octave 2^j <= x < 2^(j+1)
as the first t in 1, 1.5, 2, ... with 2^j (cosh t - 1) - |mu| t >= 50.  The
left side grows with x, so every x in the octave meets the rule, and the
dropped tail is of the order of e^-50 ~ 2e-22 of the peak e^-x, far under
one ulp of the sum.  Each value is thus the same to round-off as under any
longer cutoff, does not depend on the other points of the batch, and costs
only the nodes its own octave needs (for mu = 0, 101 nodes at x = 1 against
471 at x = 1e-8).

The quadrature regime exists because the reflection formula loses ~e^(2x)
precision in binary64, which would break the Wronskian tolerance near
x = 10; integer orders take the quadrature on the whole sub-asymptotic range
so that K is evaluated by one smooth path there (grid differentiation must
not cross a regime seam).  The two-sided eps-limit of the reflection formula
at integer orders is kept as _k_integer_limit and is cross-checked in the
test suite.

The Wronskian I'K - K'I equals 1/x exactly: the reflection formula collapses
Gamma(1+m)Gamma(1-m) sin(m pi)/(m pi) to 1.

All functions accept scalars or numpy arrays in the argument x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PoleArgument",
    "BesselEval",
    "gamma_fn",
    "bessel_i",
    "bessel_k",
    "bessel_i_prime",
    "bessel_k_prime",
    "wronskian_residual",
    "bessel_eval",
    "switchover",
]


class PoleArgument(ValueError):
    """Gamma evaluated at a non-positive integer."""


# Lanczos approximation, g = 7, 9 coefficients (double precision).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_INTEGER_TOL = 1e-12


def _sinpi(x: float) -> float:
    """sin(pi*x) with argument reduction; exact zeros at integers."""
    r = x - round(x)
    return math.sin(math.pi * r) * (1.0 if round(x) % 2 == 0 else -1.0)


def gamma_fn(x: float) -> float:
    """Gamma function for real non-pole arguments, ~1e-14 relative error."""
    if x <= 0 and abs(x - round(x)) < _INTEGER_TOL:
        raise PoleArgument(f"Gamma has a pole at {x}")
    if x < 0.5:
        return math.pi / (_sinpi(x) * gamma_fn(1.0 - x))
    x = x - 1.0
    a = _LANCZOS[0]
    t = x + _LANCZOS_G + 0.5
    for i in range(1, 9):
        a += _LANCZOS[i] / (x + i)
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * a


def switchover(mu: float) -> float:
    """Series-to-asymptotic switch point max(12, mu^2 + 2)."""
    return max(12.0, mu * mu + 2.0)


def _i_series(mu: float, x: np.ndarray) -> np.ndarray:
    """Power series for I_mu, valid for any real non-negative-pole order."""
    half = x / 2.0
    # leading term (x/2)^mu / Gamma(mu+1); below-pole orders handled by caller
    term = np.where(x > 0, half ** mu, 0.0 if mu != 0 else 1.0) / gamma_fn(mu + 1.0)
    if mu == 0:
        term = np.ones_like(x)
    total = term.copy()
    h2 = half * half
    # in place: fresh batch-sized temporaries per term would cost page faults
    size, bound = np.empty_like(total), np.empty_like(total)
    m = 0
    while True:
        m += 1
        term *= h2
        term /= m * (m + mu)
        total += term
        if m > 8:
            np.abs(term, out=size)
            np.multiply(np.abs(total, out=bound), 1e-17, out=bound)
            if np.all(size <= bound):
                break
        if m > 400:
            break
    return total


def _asym_sums(mu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimally truncated sums S-(alternating) and S+ of a_k(mu)/x^k."""
    s_alt = np.ones_like(x)
    s_pos = np.ones_like(x)
    term = np.ones_like(x)
    mu4 = 4.0 * mu * mu
    prev = np.full_like(x, np.inf)
    done = np.zeros(x.shape, dtype=bool)
    for k in range(1, 60):
        term = term * (mu4 - (2 * k - 1) ** 2) / (8.0 * k * x)
        grow = np.abs(term) >= prev
        done |= grow
        keep = ~done
        s_alt = np.where(keep, s_alt + ((-1) ** k) * term, s_alt)
        s_pos = np.where(keep, s_pos + term, s_pos)
        prev = np.abs(term)
        if done.all():
            break
    return s_alt, s_pos


def _i_asym(mu: float, x: np.ndarray) -> np.ndarray:
    s_alt, s_pos = _asym_sums(mu, x)
    pref = 1.0 / np.sqrt(2.0 * math.pi * x)
    return pref * (np.exp(x) * s_alt - math.sin(mu * math.pi) * np.exp(-x) * s_pos)


def _k_asym(mu: float, x: np.ndarray) -> np.ndarray:
    _, s_pos = _asym_sums(mu, x)
    return np.sqrt(math.pi / (2.0 * x)) * np.exp(-x) * s_pos


def _k_quadrature(mu: float, x: np.ndarray) -> np.ndarray:
    """Trapezoid rule on the even integrand e^(-x cosh t) cosh(mu t).

    The cutoff t_max is chosen per binary octave 2^j <= x < 2^(j+1) from
    its lower edge, so each point costs what its own octave needs.
    """
    flat = np.ravel(x)
    res = np.empty_like(flat)
    # frexp gives x = m 2^e with m in [0.5, 1): e - 1 is floor(log2 x) exactly
    octave = np.frexp(flat)[1] - 1
    order = np.argsort(octave, kind="stable")
    starts = np.flatnonzero(np.diff(octave[order])) + 1
    h = 0.05
    chunk = 2048
    for group in np.split(order, starts):
        lower = math.ldexp(1.0, int(octave[group[0]]))
        # choose t_max so the tail is below 1e-20 of the peak e^-x
        t = 1.0
        while lower * (math.cosh(t) - 1.0) - abs(mu) * t < 50.0:
            t += 0.5
        ts = np.arange(0.0, t + h, h)
        w = np.full(ts.shape, h)
        w[0] = h / 2.0
        cosh_t = np.cosh(ts)[None, :]
        cosh_mu = np.cosh(mu * ts)[None, :]
        for i in range(0, group.size, chunk):
            rows = group[i:i + chunk]
            vals = -flat[rows, None] * cosh_t
            np.exp(vals, out=vals)
            vals *= cosh_mu
            vals *= w
            res[rows] = np.sum(vals, axis=1)
    return res.reshape(np.shape(x))


def _k_reflection(mu: float, x: np.ndarray) -> np.ndarray:
    return (math.pi / 2.0) * (_i_series(-mu, x) - _i_series(mu, x)) / _sinpi(mu)


# power of two so that mu +- eps and the pole-crossing factors m + mu - n
# stay exactly representable; the Richardson step removes the O(eps^2) bias
_EPS_LIMIT = 2.0 ** -17

# reflection/eps-limit below, cosh-integral quadrature above
_K_QUAD_START = 1.0


def _k_integer_limit(mu: float, x: np.ndarray) -> np.ndarray:
    """Two-sided eps-limit of the reflection formula with Richardson step."""
    def avg(eps):
        return 0.5 * (_k_reflection(mu + eps, x) + _k_reflection(mu - eps, x))

    f1 = avg(_EPS_LIMIT)
    f2 = avg(_EPS_LIMIT / 2.0)
    return (4.0 * f2 - f1) / 3.0


def bessel_i(mu: float, x) -> float | np.ndarray:
    """Modified Bessel function of the first kind, mu >= 0, x > 0."""
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if np.any(xs <= 0):
        raise ValueError("argument must be positive")
    cut = switchover(mu)
    out = np.empty_like(xs)
    lo = xs < cut
    if lo.any():
        out[lo] = _i_series(mu, xs[lo])
    if (~lo).any():
        out[~lo] = _i_asym(mu, xs[~lo])
    return float(out[0]) if scalar else out


def bessel_k(mu: float, x) -> float | np.ndarray:
    """Modified Bessel function of the second kind, mu >= 0, x > 0."""
    mu = abs(mu)
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if np.any(xs <= 0):
        raise ValueError("argument must be positive")
    cut = switchover(mu)
    out = np.empty_like(xs)
    integer_order = abs(mu - round(mu)) < _INTEGER_TOL
    # integer orders take the quadrature on the whole sub-asymptotic range:
    # one smooth evaluation path, so grid differentiation of K never sees a
    # regime seam (the eps-limit stays available as the test oracle)
    small = xs < (0.0 if integer_order else _K_QUAD_START)
    large = xs >= cut
    mid = ~small & ~large
    if small.any():
        out[small] = _k_reflection(mu, xs[small])
    if mid.any():
        out[mid] = _k_quadrature(mu, xs[mid])
    if large.any():
        out[large] = _k_asym(mu, xs[large])
    return float(out[0]) if scalar else out


def bessel_i_prime(mu: float, x) -> float | np.ndarray:
    """dI_mu/dx via I_{mu+1} + (mu/x) I_mu (no negative orders needed)."""
    return bessel_i(mu + 1.0, x) + (mu / np.asarray(x, dtype=float)) * bessel_i(mu, x)


def bessel_k_prime(mu: float, x) -> float | np.ndarray:
    """dK_mu/dx via -K_{mu+1} + (mu/x) K_mu; K_0' = -K_1 is the mu=0 case."""
    return -bessel_k(mu + 1.0, x) + (mu / np.asarray(x, dtype=float)) * bessel_k(mu, x)


def wronskian_residual(mu: float, x) -> float | np.ndarray:
    """|I'K - K'I - 1/x|; the exact Wronskian of the pair is 1/x."""
    xs = np.asarray(x, dtype=float)
    w = (bessel_i_prime(mu, xs) * bessel_k(mu, xs)
         - bessel_k_prime(mu, xs) * bessel_i(mu, xs))
    out = np.abs(w - 1.0 / xs)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BesselEval:
    """One evaluation point with the regime that produced K."""

    order: float
    arg: float
    value_i: float
    value_k: float
    regime: str  # series | quadrature | asymptotic


def bessel_eval(mu: float, x: float) -> BesselEval:
    integer_order = abs(mu - round(mu)) < _INTEGER_TOL
    if x >= switchover(mu):
        regime = "asymptotic"
    elif integer_order or x >= _K_QUAD_START:
        regime = "quadrature"
    else:
        regime = "series"
    return BesselEval(order=mu, arg=x, value_i=bessel_i(mu, x),
                      value_k=bessel_k(mu, x), regime=regime)
