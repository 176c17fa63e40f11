"""Self-contained Gamma and modified Bessel functions I_mu, K_mu.

One method serves every order mu >= 0 and argument x > 0 (Temme 1975,
J. Comput. Phys. 19:324; Numerical Recipes section 6.7, `bessik`).  With
mu = nu + m, |nu| <= 1/2, m an integer: K_nu and r_nu = K_nu+1/K_nu come from
Temme's series for x < 2 and from Steed's continued fraction CF2 for x >= 2;
the recurrence K_v+1 = K_v-1 + (2v/x) K_v, carried as the ratio r_v, climbs
to K_mu and r_mu (or until every K of a chunk is 0 or inf); I_mu follows from
the continued fraction CF1 for I_mu+1/I_mu and the Wronskian
I_mu K_mu+1 + I_mu+1 K_mu = 1/x, as
I_mu = 1 / (x K_mu (I_mu+1/I_mu + r_mu)), so I does not underflow where
K_mu+1 alone overflows.  Temme's 1/Gamma(1 +- nu) and gam1 = (1/Gamma(1 - nu)
- 1/Gamma(1 + nu)) / (2 nu) come from the Taylor series of 1/Gamma(1 + t)
(A&S 6.1.34), whose odd part over -nu is gam1: nothing cancels near integers.

Each loop runs a fixed number of iterations per binary octave 2^j <= x <
2^(j+1) at its order: what one probe point at the octave's slow edge (upper
for the series and CF1, lower for CF2) needs to bring its increment under one
ulp, and never fewer than the neighbouring faster octave needs.  The counts
are monotone in x, the points of a sorted batch still iterating form one
slice, and each value is the same float in whatever batch it arrives.

At the ends of the float range the values are the IEEE limits.  Below
2^-1021 Temme's log(x/2) and r_nu are formed without 0.5 x, which loses
bits there; where CF1's 2(mu + j)/x overflows, x^2 is far below an ulp and
I_mu is its leading term (x/2)^mu / Gamma(mu + 1); from 2^54 on K_nu = 0 and
r_nu = 1, as CF2 gives them until its q recurrence overflows.

As each pass builds I from the Wronskian, wronskian_residual compares the
order-mu+1 pass (I_mu+1 in I') against the order-mu pass (I, K, K'): it
shows that passes agree, and the scipy tests are the accuracy oracle.  All
functions accept scalars or numpy arrays in the argument x.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import InputError

__all__ = [
    "BesselEval",
    "gamma_fn",
    "bessel_ik",
    "bessel_i",
    "bessel_k",
    "bessel_k_prime",
    "wronskian_residual",
    "bessel_eval",
]


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
        raise InputError(f"Gamma has a pole at {x}")
    if x < 0.5:
        return math.pi / (_sinpi(x) * gamma_fn(1.0 - x))
    x = x - 1.0
    a = _LANCZOS[0]
    t = x + _LANCZOS_G + 0.5
    for i in range(1, 9):
        a += _LANCZOS[i] / (x + i)
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * a


# 1/Gamma(1 + t) = sum_k _RGAMMA[k] t^k (A&S 6.1.34, to double precision);
# for |t| <= 1/2 the terms beyond t^21 are below 1e-20
_RGAMMA = (
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13,
)

_EPS = 2.0 ** -52  # a probe has converged when its increment is under this
_OCTAVES = (-64, 10)  # x outside [2^-64, 2^11) takes the count of the end octave
_CHUNK = 8192  # points per pass, so that the loops' arrays stay in cache
_TINY = 2.0 ** -1021  # below it, 0.5 x loses bits
_HUGE = 2.0 ** 54  # from here on K_nu = 0 (e^-x underflows) and r_nu rounds to 1


def _temme(nu: float, x: np.ndarray, spans, probe=False):
    """(K_nu, K_nu+1/K_nu) for |nu| <= 1/2, x < 2 by Temme's series; term i
    runs on the slice spans[i - 1] of x, and a probe returns the terms it needs.
    f, p, q carry the factor (x^2/4)^i / i! of term i."""
    t = nu * nu
    gam2 = float(polyval(t, _RGAMMA[0::2]))
    gam1 = -float(polyval(t, _RGAMMA[1::2]))
    d = -np.log(0.5 * x)
    if x[0] < _TINY:
        tiny = slice(0, int(np.searchsorted(x, _TINY)))
        d[tiny] = math.log(2.0) - np.log(x[tiny])
    e = nu * d
    sinhc = np.divide(np.sinh(e), e, out=np.ones_like(e), where=e != 0.0)
    fact = math.pi * nu / math.sin(math.pi * nu) if nu else 1.0
    f = fact * (gam1 * np.cosh(e) + gam2 * sinhc * d)
    e = np.exp(e)
    p = 0.5 * e / (gam2 - nu * gam1)  # gam2 -+ nu gam1 = 1/Gamma(1 +- nu)
    q = 0.5 / (e * (gam2 + nu * gam1))
    h2 = 0.25 * x * x
    k, k1 = f.copy(), p.copy()  # K_nu and x K_nu+1 / 2
    for i, s in enumerate(spans, 1):  # views, updated in place
        fs, ps, qs, hs, ks, k1s = f[s], p[s], q[s], h2[s], k[s], k1[s]
        np.multiply(i * fs + ps + qs, hs / (i * (i * i - t)), out=fs)
        ps *= hs / (i * (i - nu))
        qs *= hs / (i * (i + nu))
        ks += fs
        dk1 = ps - i * fs
        k1s += dk1
        if probe and abs(f[0]) <= _EPS * abs(k[0]) \
                and abs(dk1[0]) <= _EPS * abs(k1[0]):
            return i
    r = k1 / (0.5 * x * k)
    if x[0] < _TINY:
        r[tiny] = 2.0 * k1[tiny] / (x[tiny] * k[tiny])
    return k, r


def _steed(nu: float, x: np.ndarray, spans, probe=False):
    """(K_nu, K_nu+1/K_nu) for |nu| <= 1/2, x >= 2 by Steed's CF2 (as _temme)."""
    a1 = 0.25 - nu * nu
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h, delh = d.copy(), d.copy()
    q1, q2, q = np.zeros_like(x), np.ones_like(x), np.full_like(x, a1)
    total = 1.0 + a1 * delh
    a, c = -a1, a1
    for i, s in enumerate(spans, 2):  # views, updated in place
        a -= 2 * (i - 1)
        c = -a * c / i
        qn, bs, ds, dh, qs, hs = q1[s], b[s], d[s], delh[s], q[s], h[s]
        np.divide(qn - bs * q2[s], a, out=qn)  # the next q, over the oldest
        q1, q2 = q2, q1
        qs += c * qn
        bs += 2.0
        np.divide(1.0, bs + a * ds, out=ds)
        dh *= bs * ds - 1.0
        hs += dh
        dsum = qs * dh
        total[s] += dsum
        if probe and abs(dsum[0]) <= _EPS * abs(total[0]) \
                and abs(delh[0]) <= _EPS * abs(h[0]):
            return i - 1
    k = np.sqrt(math.pi / (2.0 * x)) * np.exp(-x) / total
    return k, (nu + x + 0.5 - a1 * h) / x


def _cf1(mu: float, x: np.ndarray, spans, probe=False):
    """I_mu+1/I_mu = 1/(b_1 + 1/(b_2 + ...)), b_j = 2(mu + j)/x, by Lentz's
    method on the denominator (spans and probe as for _temme)."""
    xi2 = 2.0 / x
    f = (mu + 1.0) * xi2
    c, d = f.copy(), np.zeros_like(x)
    for j, s in enumerate(spans, 2):  # views, updated in place
        b, cs, ds, fs = (mu + j) * xi2[s], c[s], d[s], f[s]
        np.divide(1.0, b + ds, out=ds)
        np.add(b, 1.0 / cs, out=cs)
        delta = cs * ds
        fs *= delta
        # a probe where b overflows (delta NaN) stops at once: the points
        # there take I's leading term (_pass), so any count serves
        if probe and not abs(delta[0] - 1.0) > _EPS:
            return j - 1
    return 1.0 / f


@lru_cache(maxsize=4096)
def _terms(loop, order: float, octave: int) -> int:
    """Iterations of loop at order on the octave 2^octave <= x < 2^(octave+1)."""
    falling = loop is _steed  # CF2 needs fewer iterations as x grows
    x = np.array([math.ldexp(1.0, octave + (not falling))])
    # 10^4 iterations bound a probe (CF1, the slowest, needs 276 at x = 2^11)
    n = loop(order, x, itertools.repeat(slice(None), 10_000), probe=True)
    faster = octave + 1 if falling else octave - 1
    if _OCTAVES[0] <= faster <= _OCTAVES[1]:
        n = max(n, _terms(loop, order, faster))
    return n


def _octave(x: float) -> int:
    """floor(log2 x), exactly, clipped to _OCTAVES."""
    return min(max(math.frexp(x)[1] - 1, _OCTAVES[0]), _OCTAVES[1])


def _spans(loop, order: float, x: np.ndarray) -> list[slice]:
    """Per iteration of loop, the slice of sorted x still iterating."""
    lo, hi = _octave(x[0]), _octave(x[-1])
    # where octaves lo + 1 .. hi begin; an empty octave begins where the next
    # one does, and as the counts are monotone it changes no slice
    starts = np.searchsorted(x, np.ldexp(1.0, np.arange(lo + 1, hi + 1)))
    counts = np.array([_terms(loop, order, j) for j in range(lo, hi + 1)])
    edges = np.array((0, *starts, x.size))
    its = np.arange(1, counts.max() + 1)
    if loop is _steed:  # counts fall with x: a prefix
        return [slice(0, e) for e in edges[np.searchsorted(-counts, -its, "right")]]
    return [slice(b, None) for b in edges[np.searchsorted(counts, its)]]


def _pass(mu: float, x, with_i: bool):
    """(sorted flat x, I_mu or None, K_mu, K_mu+1/K_mu, map back to x's layout)."""
    if with_i and mu < 0:  # I_mu is served for mu >= 0 only
        raise InputError("order must be >= 0")
    if not math.isfinite(mu):
        raise InputError(f"order must be finite, got {mu}")
    xs = np.asarray(x, dtype=float)
    if not np.all((xs > 0) & (xs < np.inf)):  # NaN fails both
        raise InputError("argument must be positive and finite")
    shape, xs = xs.shape, xs.ravel()
    perm = None if np.all(xs[1:] >= xs[:-1]) else np.argsort(xs, kind="stable")
    xs = xs if perm is None else xs[perm]
    m = int(mu + 0.5)
    nu = mu - m
    k, r = np.empty_like(xs), np.empty_like(xs)
    i = np.empty_like(xs) if with_i else None
    # K_mu may overflow to inf, and then I_mu = 0: both are the IEEE limits;
    # CF1's NaN where 2 (mu + j)/x overflows is replaced below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo in range(0, xs.size, _CHUNK):
            part = slice(lo, lo + _CHUNK)
            xc, kc, rc = xs[part], k[part], r[part]
            split, big = np.searchsorted(xc, (2.0, _HUGE))
            # CF2 gives exactly these from _HUGE until its q recurrence
            # overflows (about 2^341), and I_mu is inf there
            kc[big:], rc[big:] = 0.0, 1.0
            for loop, sub in ((_temme, slice(0, split)), (_steed, slice(split, big))):
                if sub.start < sub.stop:
                    kc[sub], rc[sub] = loop(nu, xc[sub], _spans(loop, nu, xc[sub]))
            for j in range(1, m + 1):
                kc *= rc
                rc[...] = 1.0 / rc + 2.0 * (nu + j) / xc
                # a K at 0 or inf stays there, and so do I and K_mu+1; the
                # sign of K' = K (mu/x - r_mu) needs r_mu > 2 mu/x only
                if j % 64 == 0 and not np.any(np.isfinite(kc) & (kc != 0)):
                    rc[...] = 2.0 * mu / xc
                    break
            if with_i:
                ic, low = i[part][:big], xc[:big]
                f = _cf1(mu, low, _spans(_cf1, mu, low)) if big else low
                ic[...] = 1.0 / (low * (f + rc[:big])) / kc[:big]
                if big and not math.isfinite(f[0]):
                    # 2 (mu + j)/x overflowed: there x^2/(4 (mu + 1)) is far
                    # below an ulp, and I is its leading term.  From mu = 170
                    # on (Gamma(mu + 1) overflows at 170.62) that term is
                    # far below the float range, though x^mu may overflow
                    lead = ~np.isfinite(f)
                    ic[lead] = low[lead] ** mu * (
                        0.5 ** mu / math.gamma(mu + 1.0)) if mu < 170 else 0.0
                i[part][big:] = np.inf

    def back(vals):
        vals = vals if perm is None else vals[np.argsort(perm)]
        return float(vals[0]) if shape == () else vals.reshape(shape)
    return xs, i, k, r, back


def bessel_ik(mu: float, x) -> tuple:
    """(I_mu(x), K_mu(x), K_mu+1(x)) from one pass, mu >= 0, x > 0."""
    _, i, k, r, back = _pass(mu, x, True)
    with np.errstate(over="ignore"):
        return back(i), back(k), back(r * k)


def bessel_i(mu: float, x) -> float | np.ndarray:
    """Modified Bessel function of the first kind, mu >= 0, x > 0."""
    return bessel_ik(mu, x)[0]


def bessel_k(mu: float, x) -> float | np.ndarray:
    """Modified Bessel function of the second kind, x > 0 (K_-mu = K_mu)."""
    _, _, k, _, back = _pass(abs(mu), x, False)
    return back(k)


def _k_prime(mu: float, xs, k, r) -> np.ndarray:
    """K' = K_mu (mu/x - K_mu+1/K_mu) from a pass at mu >= 0; where mu/x or
    r overflows (subnormal x), K' ~ -mu K/x is its IEEE limit -inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        slope = mu / xs
        return np.where(np.isinf(slope) | np.isinf(r), -np.inf,
                        k * (slope - r))


def bessel_k_prime(mu: float, x) -> float | np.ndarray:
    """dK_mu/dx, x > 0, as bessel_k at the order |mu| (K_-mu = K_mu)."""
    mu = abs(mu)
    xs, _, k, r, back = _pass(mu, x, False)
    return back(_k_prime(mu, xs, k, r))


def wronskian_residual(mu: float, x) -> float | np.ndarray:
    """|I'K - K'I - 1/x|, I' = I_mu+1 + (mu/x) I_mu; the exact Wronskian of
    the pair is 1/x."""
    xs, i, k, r, back = _pass(mu, x, True)
    i_prime = bessel_i(mu + 1.0, xs) + (mu / xs) * i
    w = i_prime * k - _k_prime(mu, xs, k, r) * i
    return back(np.abs(w - 1.0 / xs))


@dataclass(frozen=True)
class BesselEval:
    """One evaluation point with the regime that produced K."""

    order: float
    arg: float
    value_i: float
    value_k: float
    regime: str  # temme (x < 2) | steed


def bessel_eval(mu: float, x: float) -> BesselEval:
    i, k, _ = bessel_ik(mu, x)
    return BesselEval(order=mu, arg=x, value_i=i, value_k=k,
                      regime="temme" if x < 2.0 else "steed")
