import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from cone_forge import bessel as bs
from cone_forge.errors import InputError

EULER_GAMMA = 0.5772156649015328606


def k0_log_series(x):
    """Standard log series for K_0, the fallback oracle for integer orders."""
    total = -(math.log(x / 2.0) + EULER_GAMMA)
    term = 1.0
    harmonic = 0.0
    i0 = 1.0
    acc = total
    q = x * x / 4.0
    for m in range(1, 40):
        term *= q / (m * m)
        harmonic += 1.0 / m
        i0 += term
        acc += term * (harmonic - math.log(x / 2.0) - EULER_GAMMA)
    return acc


def test_gamma_values():
    assert bs.gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
    assert bs.gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert bs.gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)


def test_gamma_pole():
    for x in (0.0, -1.0, -2.0):
        with pytest.raises(InputError, match="pole"):
            bs.gamma_fn(x)


def test_gamma_accuracy_sweep():
    xs = np.linspace(0.5, 30.0, 500)
    ours = np.array([bs.gamma_fn(float(x)) for x in xs])
    ref = special.gamma(xs)
    assert np.max(np.abs(ours / ref - 1.0)) <= 1e-12


def test_i_half_integer_closed_form():
    assert bs.bessel_i(0.5, 1.0) == pytest.approx(
        math.sqrt(2.0 / math.pi) * math.sinh(1.0), rel=1e-12)


def test_i_small_argument_limit():
    x = 1e-6
    for mu in (0.0, 1.0, 2.3):
        lim = bs.bessel_i(mu, x) * x ** (-mu)
        assert lim == pytest.approx(0.5 ** mu / bs.gamma_fn(mu + 1.0),
                                    rel=1e-9)


def test_i_large_argument_asymptote():
    val = bs.bessel_i(0.0, 30.0)
    lead = math.exp(30.0) / math.sqrt(60.0 * math.pi)
    assert abs(val / lead - 1.0) < 0.02


def test_k_half_integer_closed_form():
    assert bs.bessel_k(0.5, 1.0) == pytest.approx(
        math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-12)


def test_k0_log_limit():
    x = 1e-8
    assert bs.bessel_k(0.0, x) / (-math.log(x)) == pytest.approx(1.0, abs=0.05)


def test_k1_pole_limit():
    x = 1e-8
    assert x * bs.bessel_k(1.0, x) == pytest.approx(1.0, abs=1e-6)


def test_wronskian_examples():
    assert bs.wronskian_residual(0.0, 1.0) <= 1e-10
    for x in (0.1, 1.0, 10.0):
        assert bs.wronskian_residual(2.3, x) <= 1e-9
    assert bs.wronskian_residual(1.0, 5.0) <= 1e-10


def test_wronskian_grid_all_orders():
    grid = np.logspace(math.log10(0.01), 1.0, 100)
    for mu in (0.0, 0.5, 1.0, 2.3):
        assert np.max(bs.wronskian_residual(mu, grid)) <= 1e-9


def test_recurrence_invariant():
    for mu in np.linspace(1.0, 5.0, 9):
        x = np.logspace(math.log10(0.1), math.log10(20.0), 50)
        lhs = bs.bessel_i(mu - 1.0, x) - bs.bessel_i(mu + 1.0, x)
        rhs = (2.0 * mu / x) * bs.bessel_i(mu, x)
        assert np.max(np.abs(lhs / rhs - 1.0)) <= 1e-9


def test_ode_residual_central_differences():
    # ((x d/dx)^2 - (x^2 + mu^2)) I, K ~ 0 by second differences in log x;
    # truncation ~ h^2 x^2 / 12 relative, so the grid must resolve x = 8
    u = np.linspace(math.log(0.05), math.log(8.0), 40001)
    x = np.exp(u)
    h = u[1] - u[0]
    for mu in (0.0, 1.5, 2.3):
        for fn in (bs.bessel_i, bs.bessel_k):
            y = fn(mu, x)
            d2 = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / h ** 2
            resid = d2 - (x[1:-1] ** 2 + mu ** 2) * y[1:-1]
            scale = 1.0 + (x[1:-1] ** 2 + mu ** 2) * np.abs(y[1:-1])
            assert np.max(np.abs(resid) / scale) <= 1e-6


def test_k0_prime_identity():
    x = np.logspace(math.log10(0.01), 1.0, 80)
    resid = np.abs(bs.bessel_k_prime(0.0, x) + bs.bessel_k(1.0, x))
    assert np.max(resid / np.abs(bs.bessel_k(1.0, x))) <= 1e-8


def test_regime_switch_continuity():
    # Temme's series below x = 2, Steed's CF2 from x = 2 on
    for mu in (0.0, 0.5, 1.0, 2.3):
        below = bs.bessel_k(mu, np.nextafter(2.0, 0.0))
        above = bs.bessel_k(mu, 2.0)
        assert abs(below / above - 1.0) <= 1e-9
        ibelow = bs.bessel_i(mu, np.nextafter(2.0, 0.0))
        iabove = bs.bessel_i(mu, 2.0)
        assert abs(ibelow / iabove - 1.0) <= 1e-9


def test_scipy_cross_check_sweep():
    x = np.logspace(-8, 1.7, 300)
    for mu in (0.0, 0.3, 0.5, 1.0, 2.0, 2.3, 5.0):
        assert np.max(np.abs(bs.bessel_i(mu, x) / special.iv(mu, x) - 1)) < 2e-11
        assert np.max(np.abs(bs.bessel_k(mu, x) / special.kv(mu, x) - 1)) < 2e-11


def test_k_pointwise_cutoff():
    # the iteration counts are chosen per binary octave, so a point's value
    # does not depend on which other points share its batch
    for mu in (0.0, 1.0, 0.7, 2.3):
        x = np.geomspace(1e-8, 12.0, 400, endpoint=False)
        batch = bs.bessel_k(mu, x)
        single = np.array([bs.bessel_k(mu, float(v)) for v in x])
        assert np.max(np.abs(batch / single - 1.0)) <= 1e-15
    # and stays within the scipy tolerance on the 16k Gauss nodes of the
    # default 2048-point edge grid, scaled by |n|
    u = np.log(np.geomspace(1e-8, 1.0, 2048))
    gl, _ = np.polynomial.legendre.leggauss(8)
    nodes = np.exp(0.5 * (u[1:] + u[:-1])[:, None]
                   + 0.5 * np.diff(u)[:, None] * gl[None, :]).ravel()
    for mu in (0.0, 1.0, 0.7, 2.3):
        for n in (1, 50):
            x = n * nodes
            assert np.max(np.abs(bs.bessel_k(mu, x) / special.kv(mu, x)
                                 - 1.0)) < 2e-11


def k0_quadrature(x):
    """Trapezoid rule on K_0(x) = int_0^inf e^(-x cosh t) dt, tail < e^-50."""
    t = np.arange(0.0, math.acosh(1.0 + 50.0 / x) + 0.05, 0.05)
    vals = np.exp(-x * np.cosh(t))
    return 0.05 * (np.sum(vals) - 0.5 * vals[0])


def test_integer_limit_matches_log_series_and_quadrature():
    # K at integer order 0 against the log series and the cosh integral
    for x in (0.05, 0.2, 0.6, 0.9):
        k0 = bs.bessel_k(0, x)
        assert k0 == pytest.approx(k0_log_series(x), rel=1e-8)
        assert k0 == pytest.approx(k0_quadrature(x), rel=1e-8)


def test_positive_values_and_k_monotone():
    xs = np.logspace(-3, 1.2, 50)
    for mu in (0.0, 0.7, 2.3):
        iv = bs.bessel_i(mu, xs)
        kv = bs.bessel_k(mu, xs)
        assert np.all(iv > 0) and np.all(kv > 0)
        assert np.all(np.diff(kv) < 0)


def test_bessel_eval_regimes():
    assert bs.bessel_eval(0.3, 0.5).regime == "temme"
    assert bs.bessel_eval(0.3, np.nextafter(2.0, 0.0)).regime == "temme"
    assert bs.bessel_eval(0.3, 2.0).regime == "steed"
    assert bs.bessel_eval(0.3, 20.0).regime == "steed"
    assert bs.bessel_eval(1.0, 0.5).regime == "temme"


def test_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        bs.bessel_i(1.0, 0.0)
    with pytest.raises(ValueError):
        bs.bessel_k(1.0, -2.0)


def test_rejects_non_finite_argument():
    # inf and NaN have no binary octave: they are refused, not iterated on
    for bad in (np.inf, np.nan, np.array([1.0, np.nan])):
        with pytest.raises(ValueError):
            bs.bessel_k(1.0, bad)
        with pytest.raises(ValueError):
            bs.bessel_ik(0.5, bad)


def _assert_matches_scipy(mu, x, tol=2e-11):
    i, k, k1 = bs.bessel_ik(mu, x)
    for ours, ref in ((i, special.iv(mu, x)), (k, special.kv(mu, x)),
                      (k1, special.kv(mu + 1.0, x))):
        normal = np.isfinite(ref) & (np.abs(ref) >= np.finfo(float).tiny)
        err = np.abs(ours[normal] / ref[normal] - 1.0)
        assert np.all(err <= tol), (mu, float(np.max(err)))


def test_near_integer_orders_match_scipy():
    # the reflection formula cancelled here: K was 2e-5 off at 1 + 1e-11
    x = np.geomspace(1e-8, 50.0, 600)
    for mu in (1.0 + 1e-11, 1.0 + 1e-7, 2.0 - 1e-8, 1e-6):
        assert np.max(np.abs(bs.bessel_i(mu, x) / special.iv(mu, x) - 1)) < 2e-11
        assert np.max(np.abs(bs.bessel_k(mu, x) / special.kv(mu, x) - 1)) < 2e-11
    assert bs.wronskian_residual(1.00000000001, 0.99) <= 1e-9


def test_large_orders_and_arguments_match_scipy():
    for mu, x in ((25.3, 600.0), (20.5, 400.0)):
        assert bs.bessel_i(mu, x) / special.iv(mu, x) == pytest.approx(1.0, abs=2e-11)
        assert bs.bessel_k(mu, x) / special.kv(mu, x) == pytest.approx(1.0, abs=2e-11)


def test_i_survives_k_overflow():
    # where K_mu+1 alone overflows, I_mu ~ 1/(x K_mu+1) is still a normal
    # float: I comes from the carried ratio K_mu+1/K_mu, not from K_mu+1
    x = np.geomspace(0.02, 0.04, 100)
    i, k, k1 = bs.bessel_ik(90.5, x)
    ref = special.iv(90.5, x)
    there = np.isinf(k1) & np.isfinite(k) & (ref >= np.finfo(float).tiny)
    assert np.count_nonzero(there) >= 2
    assert np.max(np.abs(i[there] / ref[there] - 1.0)) <= 2e-11


def test_bessel_ik_agrees_with_i_and_k():
    x = np.geomspace(1e-8, 60.0, 300)
    for mu in (0.0, 0.7, 2.3):
        i, k, k1 = bs.bessel_ik(mu, x)
        assert np.array_equal(i, bs.bessel_i(mu, x))
        assert np.array_equal(k, bs.bessel_k(mu, x))
        assert np.max(np.abs(k1 / bs.bessel_k(mu + 1.0, x) - 1.0)) <= 1e-14


_orders = st.floats(0.0, 45.0)
_args = st.lists(st.floats(1e-8, 700.0), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(_orders, _args)
def test_ik_matches_scipy_property(mu, xs):
    _assert_matches_scipy(mu, np.array(xs))


@settings(max_examples=60, deadline=None)
@given(_orders, _args)
def test_batch_equals_pointwise_property(mu, xs):
    batch = bs.bessel_ik(mu, np.array(xs))
    for j, x in enumerate(xs):
        single = bs.bessel_ik(mu, x)
        assert all(np.array_equal(b[j], v, equal_nan=True)
                   for b, v in zip(batch, single))


def test_negative_order():
    # K_-mu = K_mu; I_mu is defined here for mu >= 0 only
    x = np.geomspace(0.1, 10.0, 20)
    assert np.array_equal(bs.bessel_k(-0.7, x), bs.bessel_k(0.7, x))
    with pytest.raises(ValueError):
        bs.bessel_i(-0.5, 1.0)


@pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan])
def test_rejects_non_finite_order(mu):
    # inf overflowed int(mu + 0.5), and NaN failed it by accident
    for fn in (bs.bessel_ik, bs.bessel_i, bs.bessel_k, bs.bessel_k_prime,
               bs.wronskian_residual, bs.bessel_eval):
        with pytest.raises(ValueError, match="order"):
            fn(mu, 1.0)


def test_upward_recurrence_stops_when_k_leaves_the_float_range():
    # one numpy step per unit of order took about 30 s at mu = 1e6; K_mu
    # overflows within a few hundred steps, after which nothing changes
    start = time.perf_counter()
    i, k, k1 = bs.bessel_ik(1e6, np.array([1e-3, 1.0, 300.0]))
    assert np.all(i == 0.0) and np.all(np.isinf(k)) and np.all(np.isinf(k1))
    i, k, k1 = bs.bessel_ik(1e6, 1e4)  # K underflows: I overflows
    assert (i, k, k1) == (math.inf, 0.0, 0.0)
    assert time.perf_counter() - start < 2.0


def test_k_prime_sign_past_the_recurrence_cutoff():
    # the cutoff keeps r_mu > mu/x, so an overflowed K' stays -inf and an
    # underflowed one -0.0, as the full recurrence gives them
    x = np.geomspace(1e-3, 500.0, 9)
    assert np.all(bs.bessel_k_prime(5000.5, x) == -np.inf)
    kp = bs.bessel_k_prime(3000.25, np.array([2e4, 1e5]))
    assert np.all(kp == 0.0) and np.all(np.signbit(kp))


def test_k_prime_at_negative_orders_matches_scipy():
    # the signed order went into the pass: -2.1915 for K'_-2.3(1), where
    # kvp gives -6.3309, and NaN for mu = -1 at x <= 1
    x = np.geomspace(0.05, 40.0, 30)
    for mu in (-0.3, -1.0, -2.3, -4.0, -7.25):
        assert np.allclose(bs.bessel_k_prime(mu, x), special.kvp(mu, x),
                           rtol=1e-11, atol=0.0), mu


def test_k_prime_is_minus_inf_at_subnormal_arguments():
    # mu/x and K_mu+1/K_mu overflow there, and K (mu/x - r) met inf - inf:
    # NaN for mu > 0, where K' ~ -mu K/x lies beyond the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bs.bessel_k_prime(0.5, 1e-310) == -math.inf
        assert bs.bessel_k_prime(2.3, 5e-324) == -math.inf
        kp = bs.bessel_k_prime(0.5, np.array([5e-324, 1e-310, 1e-3]))
    assert kp[:2].tolist() == [-math.inf, -math.inf]
    assert kp[2] == pytest.approx(special.kvp(0.5, 1e-3), rel=1e-12)


@pytest.mark.parametrize("mu", [0.0, 0.5, 3.0])
def test_ieee_limits_at_large_arguments(mu):
    # from about 6.5e102 CF2's q recurrence overflowed and all three came
    # out NaN; e^-x underflows long before, so they are (inf, 0, 0)
    with np.errstate(over="ignore"):  # numpy's own power overflows at the top
        x = np.geomspace(1e3, np.finfo(float).max, 500)
    i, k, k1 = bs.bessel_ik(mu, x)
    assert np.all(i == np.inf) and np.all(k == 0.0) and np.all(k1 == 0.0)
    assert bs.bessel_ik(mu, 1e103) == (math.inf, 0.0, 0.0)
    assert np.all(bs.bessel_k(mu, x) == 0.0)


def _hankel(mu, x, terms=10):
    """I_mu, K_mu by the large-argument series (A&S 9.7.1, 9.7.2)."""
    a, si, sk = 1.0, 1.0, 1.0
    for j in range(1, terms):
        a = a * (4.0 * mu * mu - (2 * j - 1) ** 2) / (j * 8.0 * x)
        si, sk = si + (-1) ** j * a, sk + a
    return (np.exp(x) / np.sqrt(2.0 * np.pi * x) * si,
            np.sqrt(np.pi / (2.0 * x)) * np.exp(-x) * sk)


def test_large_argument_asymptotic_form():
    x = np.geomspace(300.0, 700.0, 60)
    for mu in (0.0, 0.5, 3.0, 7.3):
        i, k, k1 = bs.bessel_ik(mu, x)
        ri, rk = _hankel(mu, x)
        assert np.max(np.abs(i / ri - 1.0)) <= 1e-12
        assert np.max(np.abs(k / rk - 1.0)) <= 1e-12
        assert np.max(np.abs(k1 / _hankel(mu + 1.0, x)[1] - 1.0)) <= 1e-12


def test_small_argument_leading_terms():
    # below about 1e-308 2 (mu + j)/x overflowed in CF1 and I was NaN, and
    # below 2^-1021 Temme's log(x/2) lost bits (K_0.5 was 13% off); at
    # 5e-324 all three were NaN.  Here x^2 is far below an ulp: I_mu =
    # (x/2)^mu / Gamma(mu + 1), K_0 = -log(x/2) - gamma, K_mu for 0 < mu < 1
    # is pi / (2 sin(mu pi)) ((x/2)^-mu / Gamma(1 - mu) - (x/2)^mu / ...),
    # and for mu >= 1 Gamma(mu) (x/2)^-mu / 2
    x = np.geomspace(5e-324, 1e-300, 400)
    logh = np.log(x) - math.log(2.0)  # log(x/2), without forming x/2
    for mu in (0.0, 0.3, 0.5, 1.0, 3.0):
        i, k, k1 = bs.bessel_ik(mu, x)
        ref_i = np.exp(mu * logh) / math.gamma(mu + 1.0)
        normal = ref_i > 1e-290
        assert np.all(np.abs(i[normal] / ref_i[normal] - 1.0) <= 1e-12)
        assert np.all(i[ref_i < 1e-330] == 0.0)
        if mu == 0.0:
            ref_k = -logh - EULER_GAMMA
        elif mu < 1.0:
            ref_k = math.pi / (2.0 * math.sin(mu * math.pi)) * (
                np.exp(-mu * logh) / math.gamma(1.0 - mu)
                - np.exp(mu * logh) / math.gamma(1.0 + mu))
        else:
            with np.errstate(over="ignore"):
                ref_k = np.exp(math.log(0.5 * math.gamma(mu)) - mu * logh)
        finite = np.isfinite(ref_k)
        assert np.all(np.abs(k[finite] / ref_k[finite] - 1.0) <= 1e-12)
        assert np.all(k[~finite] == np.inf)
        assert not np.any(np.isnan(k1))
    i, k, k1 = bs.bessel_ik(0.5, 5e-324)
    assert i == pytest.approx(math.sqrt(2.0 * 5e-324 / math.pi), rel=1e-14)
    assert k == pytest.approx(math.sqrt(math.pi / 2.0) / math.sqrt(5e-324),
                              rel=1e-12)
    assert bs.bessel_ik(0.0, 5e-324)[:2] == (1.0, pytest.approx(
        744.440072 + math.log(2.0) - EULER_GAMMA, rel=1e-8))
    assert bs.bessel_ik(1.0, 5e-324)[1] == math.inf
    assert bs.bessel_ik(3.0, 5e-324)[0] == 0.0


@settings(max_examples=60, deadline=None)
@given(_orders, st.lists(st.floats(5e-324, np.finfo(float).max), min_size=1,
                         max_size=12))
def test_batch_equals_pointwise_over_the_float_range(mu, xs):
    # the small- and large-argument paths keep batch independence, and
    # every x > 0 gives IEEE values, never NaN
    batch = bs.bessel_ik(mu, np.array(xs))
    assert not any(np.any(np.isnan(b)) for b in batch)
    for j, x in enumerate(xs):
        assert all(np.array_equal(b[j], v)
                   for b, v in zip(batch, bs.bessel_ik(mu, x)))


def _spans_by_frexp(loop, order, x):
    """Reference: the octave of every point by frexp, grouped where it changes."""
    octave = np.clip(np.frexp(x)[1] - 1, *bs._OCTAVES)
    edges = np.flatnonzero(octave[1:] != octave[:-1]) + 1
    counts = np.array([bs._terms(loop, order, int(octave[g]))
                       for g in (0, *edges)])
    edges = np.array((0, *edges, x.size))
    its = np.arange(1, counts.max() + 1)
    if loop is bs._steed:
        return [slice(0, e) for e in edges[np.searchsorted(-counts, -its, "right")]]
    return [slice(b, None) for b in edges[np.searchsorted(counts, its)]]


@settings(max_examples=40, deadline=None)
@given(_orders, st.lists(st.floats(5e-324, np.finfo(float).max), min_size=1,
                         max_size=40))
@example(1.3, [2.0 ** -70, 2.0 ** -64, 0.25, 0.5, 0.5, 1.0, 2.0, 4.0, 4.0,
               2.0 ** 11, 2.0 ** 12])
def test_spans_match_per_point_octaves(mu, xs):
    # the octave edges come from a searchsorted of the powers of two between
    # the ends, and give the same slices as each point's own octave
    x = np.sort(np.array(xs))
    nu = mu - int(mu + 0.5)
    low, high = x[x < 2.0], x[x >= 2.0]
    for loop, order, part in ((bs._temme, nu, low), (bs._steed, nu, high),
                              (bs._cf1, mu, x)):
        if part.size:
            assert bs._spans(loop, order, part) == _spans_by_frexp(loop, order, part)


def test_empty_regime_runs_no_loop(monkeypatch):
    # a chunk with every x < 2 ran Steed's set-up on an empty slice
    sizes = []
    real = bs._steed

    def spy(nu, x, spans, probe=False):
        if not probe:
            sizes.append(x.size)
        return real(nu, x, spans, probe)

    monkeypatch.setattr(bs, "_steed", spy)
    bs.bessel_ik(0.7, np.geomspace(1e-3, 1.9, 50))
    bs.bessel_ik(0.7, np.geomspace(1e-3, 9.0, 50))
    assert sizes == [int(np.count_nonzero(np.geomspace(1e-3, 9.0, 50) >= 2.0))]
