import hashlib
import math

import numpy as np
import pytest

from cone_forge import edge
from cone_forge.errors import InputError, NumericalFailure
from cone_forge.bessel import bessel_i, bessel_k

from _manufactured import manufactured_pair, bump

FINE = edge.log_grid(1e-8, 1.0, 16384)
COARSE = edge.log_grid()
BLOCK_NODES = 8192  # Gauss nodes per block: 1024 intervals, one Bessel chunk


def gauss_nodes(grid):
    """The 8 Gauss-Legendre nodes per interval in log r, in row order."""
    u = np.log(grid)
    gl, _ = np.polynomial.legendre.leggauss(8)
    return np.exp(0.5 * (u[1:] + u[:-1])[:, None]
                  + 0.5 * np.diff(u)[:, None] * gl[None, :]).ravel()


def assert_blocked(calls, total):
    """The calls see `total` points between them, a block at most each, and
    every block but the last is full."""
    assert sum(calls) == total and len(calls) == -(-total // BLOCK_NODES)
    assert all(c == BLOCK_NODES for c in calls[:-1])


def make_problem(n, mu, zfn, support=0.8, grid=COARSE):
    return edge.ModeProblem(n=n, mu=mu, grid=grid, rhs=zfn(grid),
                            support_max=support, rhs_fn=zfn)


def test_mode_problem_validation():
    g = COARSE
    with pytest.raises(ValueError):
        edge.ModeProblem(n=1, mu=1.0, grid=g[::-1], rhs=np.zeros_like(g),
                         support_max=0.5)
    with pytest.raises(ValueError):
        edge.ModeProblem(n=1, mu=1.0, grid=g, rhs=np.ones_like(g),
                         support_max=0.5)  # support record violated
    with pytest.raises(ValueError):
        edge.ModeProblem(n=1, mu=1.0, grid=g, rhs=np.zeros_like(g),
                         support_max=1.0)
    with pytest.raises(ValueError):
        edge.ModeProblem(n=1, mu=-1.0, grid=g, rhs=np.zeros_like(g),
                         support_max=0.5)
    # inf overflowed in the Bessel pass, and NaN passed a check on mu < 0
    for mu in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            edge.ModeProblem(n=2, mu=mu, grid=g, rhs=np.zeros_like(g),
                             support_max=0.5)
    # with rhs_fn a 1-point grid solved and split_solution then failed in
    # np.gradient; a NaN knot failed every "<= 0" comparison
    for grid, message in (([0.1], "at least 2 knots"),
                          ([0.1, math.nan, 0.5], "increasing"),
                          ([math.nan, 0.5], "increasing"),
                          ([0.1, 0.5, math.nan], "increasing")):
        for rhs_fn in (None, lambda x: np.zeros_like(x)):
            with pytest.raises(ValueError, match=message):
                edge.ModeProblem(n=1, mu=1.0, grid=grid, rhs=np.zeros(len(grid)),
                                 support_max=0.05, rhs_fn=rhs_fn)


def test_smooth_cutoff_shape():
    assert edge.smooth_cutoff(0.5) == 1.0
    assert edge.smooth_cutoff(2.5) == 0.0
    mid = edge.smooth_cutoff(np.linspace(1.05, 1.95, 11))
    assert np.all((mid > 0) & (mid < 1)) and np.all(np.diff(mid) <= 0)
    assert mid[0] > 0.9 and mid[-1] < 0.1


def test_zero_rhs_gives_zero():
    prob = make_problem(2, 1.0, lambda x: np.zeros_like(np.asarray(x)),
                        support=0.5)
    assert np.allclose(edge.solve_mode(prob), 0.0)


def test_unsupported_mode():
    with pytest.raises(InputError, match="not invertible"):
        edge.solve_mode(make_problem(0, 0.0, bump(0.25, 0.5), support=0.5))


def test_manufactured_recovery():
    yfn, zfn = manufactured_pair(3, 1.5)
    prob = make_problem(3, 1.5, zfn, grid=FINE)
    y = edge.solve_mode(prob)
    assert np.max(np.abs(y - yfn(FINE))) <= 1e-6
    assert edge.operator_residual(prob, y) <= 1e-6 * (
        1.0 + np.max(np.abs(prob.rhs)))


def test_manufactured_sweep_residuals():
    for n, mu in [(1, 0.5), (7, 2.3), (0, 1.2)]:
        yfn, zfn = manufactured_pair(n, mu)
        prob = make_problem(n, mu, zfn, grid=FINE)
        y = edge.solve_mode(prob)
        assert edge.operator_residual(prob, y) <= 1e-6 * (
            1.0 + np.max(np.abs(prob.rhs)))
        if n != 0:
            assert np.max(np.abs(y - yfn(FINE))) <= 1e-6


def test_sampled_rhs_matches_callable_path():
    # without rhs_fn the solver interpolates the samples; on a smooth bump
    # the two paths agree to spline accuracy
    zfn = bump(0.25, 0.5)
    with_fn = make_problem(3, 1.5, zfn, support=0.5)
    sampled = edge.ModeProblem(n=3, mu=1.5, grid=COARSE, rhs=zfn(COARSE),
                               support_max=0.5)
    y1 = edge.solve_mode(with_fn)
    y2 = edge.solve_mode(sampled)
    assert np.max(np.abs(y1 - y2)) <= 1e-8 * (1 + np.max(np.abs(y1)))


def test_linearity():
    z1, z2 = bump(0.25, 0.5), bump(0.3, 0.6)
    zc = lambda x: z1(x) + 2.0 * z2(x)
    y1 = edge.solve_mode(make_problem(2, 1.0, z1, support=0.5))
    y2 = edge.solve_mode(make_problem(2, 1.0, z2, support=0.6))
    yc = edge.solve_mode(make_problem(2, 1.0, zc, support=0.6))
    assert np.max(np.abs(yc - y1 - 2.0 * y2)) <= 1e-10


def test_green_symmetry():
    z1, z2 = bump(0.25, 0.5), bump(0.4, 0.7)
    p1 = make_problem(3, 1.5, z1, support=0.5)
    p2 = make_problem(3, 1.5, z2, support=0.7)
    w = np.gradient(np.log(COARSE))
    s12 = float(np.sum(z1(COARSE) * edge.solve_mode(p2) * w))
    s21 = float(np.sum(z2(COARSE) * edge.solve_mode(p1) * w))
    assert abs(s12 - s21) <= 1e-8


def test_split_zero_rhs():
    prob = make_problem(2, 1.0, lambda x: np.zeros_like(np.asarray(x)),
                        support=0.5)
    sol = edge.split_solution(prob, 0.5, 1.5)
    assert sol.c_low == 0.0
    assert np.allclose(sol.y_high, 0.0)


def test_split_weight_order():
    prob = make_problem(2, 1.0, bump(0.25, 0.5), support=0.5)
    with pytest.raises(InputError, match="need finite weights"):
        edge.split_solution(prob, 1.5, 0.5)
    with pytest.raises(InputError, match="need finite weights"):
        edge.split_solution(prob, -2.0, 1.5)


def test_split_basis_fit_oracle():
    """c_low agrees with fitting y against {I, K} on r < 1/8."""
    prob = make_problem(2, 1.0, bump(0.25, 0.5), support=0.5)
    sol = edge.split_solution(prob, 0.5, 1.5)
    mask = COARSE < 0.125
    A = np.stack([bessel_i(1.0, 2.0 * COARSE[mask]),
                  bessel_k(1.0, 2.0 * COARSE[mask])], axis=1)
    coef, *_ = np.linalg.lstsq(A, sol.y[mask], rcond=None)
    assert coef[0] == pytest.approx(-2.0 * sol.c_low, rel=1e-6)
    assert abs(coef[1]) <= 1e-12 * max(1.0, abs(coef[0]))


def test_split_remainder_in_weighted_space():
    prob = make_problem(2, 1.0, bump(0.25, 0.5), support=0.5)
    sol = edge.split_solution(prob, 0.5, 1.5)
    # below both the support and the cutoff the remainder vanishes
    # identically, so the deep shells hold only weighted roundoff
    assert np.max(sol.shell_norms[2:]) <= 1e-12
    assert np.max(np.abs(sol.y_high[COARSE < 0.2])) <= 1e-16


def test_split_consistency_with_operator():
    # applying the operator to y_high returns z minus the operator on y_low
    yfn, zfn = manufactured_pair(2, 1.0)
    prob = make_problem(2, 1.0, zfn, grid=FINE)
    sol = edge.split_solution(prob, 0.5, 1.6)
    u = np.log(FINE)
    h = u[1] - u[0]
    y_low = sol.y - sol.y_high

    def apply_op(y):
        d2 = (-y[:-4] + 16 * y[1:-3] - 30 * y[2:-2] + 16 * y[3:-1] - y[4:]) \
            / (12 * h * h)
        return d2 - ((prob.n ** 2) * FINE[2:-2] ** 2 + prob.mu ** 2) * y[2:-2]

    resid = apply_op(sol.y_high) - (prob.rhs[2:-2] - apply_op(y_low))
    assert np.max(np.abs(resid)) <= 1e-5 * (1.0 + np.max(np.abs(prob.rhs)))


def test_split_n0_variant():
    # the captured piece follows the r^mu double-quadrature definition;
    # the coefficient is checked against an independent nested quadrature
    from scipy.integrate import quad
    mu = 1.2
    zfn = bump(0.25, 0.5)
    prob = make_problem(0, mu, zfn, support=0.5)
    sol = edge.split_solution(prob, 0.5, 1.5)

    def inner(s):
        val, _ = quad(lambda t: t ** (mu - 1.0) * float(zfn(t)), 0.25,
                      min(s, 0.5), limit=200)
        return val

    ref, _ = quad(lambda s: inner(s) * s ** (-2.0 * mu - 1.0), 0.25, 1.0,
                  limit=200)
    assert sol.c_low == pytest.approx(ref, rel=1e-6)
    y_low = sol.y - sol.y_high
    mask = COARSE < 0.2
    assert np.allclose(y_low[mask], COARSE[mask] ** mu * sol.c_low)


@pytest.mark.parametrize("n,mu", [(1, 0.7), (2, 1.0), (-5, 1.5), (23, 2.3)])
def test_captured_coefficient_matches_bound_check(n, mu):
    # c_low comes from the solve's tail integral; the bound check's |c| is
    # the same integral and must agree with it
    prob = make_problem(n, mu, bump(0.2, 0.7), support=0.7)
    sol = edge.split_solution(prob, 0.5 * mu, mu + 0.5)
    c, _ = edge.coefficient_bound_check(prob, mu + 0.5)
    assert c > 0.0
    assert abs(sol.c_low) == pytest.approx(c, rel=1e-12)


def test_rhs_sampled_once_per_call(monkeypatch):
    # the rhs callable is sampled once at the Gauss nodes per bound check,
    # and a sampled rhs is fitted by one spline per problem
    calls = []
    zf = bump(0.25, 0.5)

    def zfn(x):
        calls.append(np.size(x))
        return zf(x)

    prob = make_problem(3, 1.0, zfn, support=0.5)
    calls.clear()
    edge.coefficient_bound_check(prob, 1.5)
    assert_blocked(calls, (COARSE.size - 1) * 8)

    fits = []
    real = edge.CubicHermite

    def counting(*args, **kwargs):
        fits.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(edge, "CubicHermite", counting)
    sampled = edge.ModeProblem(n=3, mu=1.0, grid=COARSE, rhs=zf(COARSE),
                               support_max=0.5)
    edge.split_solution(sampled, 0.5, 1.5)
    edge.coefficient_bound_check(sampled, 1.5)
    assert len(fits) == 1


def test_coefficient_bound_zero():
    prob = make_problem(2, 1.0, lambda x: np.zeros_like(np.asarray(x)),
                        support=0.5)
    lhs, rhs = edge.coefficient_bound_check(prob, 1.5)
    assert lhs == 0.0 and rhs == 0.0 and lhs <= rhs


def test_coefficient_bound_random_instances():
    # delta'' must exceed mu - 2 for the constant integral to converge
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 50))
        mu, dpp = (1.0, 0.25) if rng.random() < 0.5 else (2.3, 0.5)
        a = float(rng.uniform(0.05, 0.4))
        b = float(rng.uniform(a + 0.05, 0.85))
        amp = float(rng.uniform(0.1, 10.0))
        zf = bump(a, b)
        zfn = lambda x, zf=zf, amp=amp: amp * zf(x)
        prob = make_problem(n, mu, zfn, support=b)
        lhs, rhs = edge.coefficient_bound_check(prob, dpp)
        assert lhs <= rhs


def test_coefficient_decay_regression():
    delta_pp = 0.25
    zfn = bump(0.25, 0.5)
    cs = []
    ns = range(1, 51)
    for n in ns:
        prob = make_problem(n, 1.0, zfn, support=0.5)
        lhs, _ = edge.coefficient_bound_check(prob, delta_pp)
        cs.append(lhs)
    cs = np.array(cs)
    keep = cs > 1e-280
    slope = np.polyfit(np.log(np.array(ns)[keep]), np.log(cs[keep]), 1)[0]
    assert slope <= -delta_pp - 2.0 + 0.1


def test_coefficient_bound_divergent_constant():
    prob = make_problem(2, 1.0, bump(0.25, 0.5), support=0.5)
    with pytest.raises(InputError, match=r"2 dpp \+ 4"):
        edge.coefficient_bound_check(prob, -1.5)


@pytest.mark.parametrize("dpp", [math.inf, math.nan])
def test_non_finite_weight_refused(dpp):
    # inf passed the order test and gave Infinity norms or a NaN bound
    prob = make_problem(2, 1.0, bump(0.25, 0.5), support=0.5)
    for check in (lambda: edge.split_solution(prob, 0.5, dpp),
                  lambda: edge.coefficient_bound_check(prob, dpp)):
        with pytest.raises(InputError, match="finite"):
            check()


def test_kernel_modes_counts_and_residuals():
    modes = edge.kernel_modes(10)
    assert len(modes) == 20
    assert {m.n for m in modes} == set(range(-10, 0)) | set(range(1, 11))
    for m in modes:
        assert m.identity_residual <= 1e-8
        assert m.ode0_residual <= 1e-8
        assert m.ode1_residual <= 1e-8


def test_kernel_mode_count_grows():
    for nmax in (1, 3, 7):
        assert len(edge.kernel_modes(nmax)) == 2 * nmax
    with pytest.raises(ValueError):
        edge.kernel_modes(0)
    with pytest.raises(InputError, match="n_max must be <= 1000"):
        edge.kernel_modes(edge.MAX_NMAX + 1)


def test_kernel_mode_leading_behaviour():
    modes = edge.kernel_modes(10)
    for m in modes:
        assert abs(m.log_ratio - 1.0) <= 1e-2
        assert abs(m.inverse_ratio - 1.0) <= 1e-6
    lead = [m for m in modes if abs(m.n) == 1]
    assert all("sin(theta) r^-1 dr ^ phi_21" == m.normal_form for m in lead)


def test_no_decaying_kernel_examples():
    assert edge.no_decaying_kernel_check(4.0, 0.0)
    assert edge.no_decaying_kernel_check(0.0, -1.0)
    assert edge.no_decaying_kernel_check(1.0, -1.9)
    with pytest.raises(ValueError):
        edge.no_decaying_kernel_check(1.0, -2.5)


@pytest.mark.parametrize("mu,dpp", [(1.0, 0.25), (2.3, 0.5), (0.7, 1.2),
                                    (1.5, 2.0), (2.3, 0.35), (1.0, -0.9),
                                    (5.0, 4.0)])
def test_bound_constant_closed_form_matches_quadrature(mu, dpp):
    # the closed form against int_0^inf K_mu(s)^2 s^(2 dpp + 3) ds by
    # scipy's kv and quad, split at s = 1 where the integrand changes regime
    from scipy.integrate import quad
    from scipy.special import kv

    def f(s):
        return kv(mu, s) ** 2 * s ** (2.0 * dpp + 3.0)

    ref = quad(f, 0.0, 1.0, limit=200)[0] + quad(f, 1.0, np.inf, limit=200)[0]
    assert edge._bound_constant_sq(mu, dpp) == pytest.approx(ref, rel=1e-9)


def test_bound_constant_exact_value():
    # mu = 0, dpp = 0: sqrt(pi) G(2)^3 / (4 G(5/2)) = 1/3
    assert edge._bound_constant_sq(0.0, 0.0) == pytest.approx(1.0 / 3.0,
                                                              rel=1e-14)


@pytest.mark.parametrize("n,mu,dpp", [(3, 1.0, 40.0), (1, 40.5, 40.5)])
def test_coefficient_bound_finite_at_large_weight(n, mu, dpp):
    # K_mu and s^-(dpp+2) overflow toward r = 0, where z vanishes; the pair
    # is taken on the support of z, so it stays finite and is a real bound
    prob = make_problem(n, mu, bump(0.25, 0.5), support=0.5)
    lhs, rhs = edge.coefficient_bound_check(prob, dpp)
    assert math.isfinite(lhs) and math.isfinite(rhs)
    assert 0.0 < lhs <= rhs


def test_split_finite_where_k_row_overflows():
    # below the support the head integral is 0 and K_40.5(r) overflows; the
    # K row enters only where the head is nonzero, so no inf * 0 = NaN
    prob = make_problem(1, 40.5, bump(0.25, 0.5), support=0.5)
    sol = edge.split_solution(prob, 0.0, 41.0)
    assert np.all(np.isfinite(sol.y))
    lhs, _ = edge.coefficient_bound_check(prob, 41.0)
    assert sol.c_low == lhs
    assert lhs == pytest.approx(3.818e76, rel=1e-3)


def test_coefficient_bound_never_returns_non_finite():
    # Gamma(dpp + 2 + mu) beyond the float range: no pair is claimed
    prob = make_problem(3, 1.0, bump(0.25, 0.5), support=0.5)
    with pytest.raises(NumericalFailure, match="non-finite bound pair"):
        edge.coefficient_bound_check(prob, 200.0)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(edge, name)

    def counted(mu, x):
        calls.append(np.size(x))
        return real(mu, x)

    monkeypatch.setattr(edge, name, counted)
    return calls


def test_kernels_run_on_rhs_support_only(monkeypatch):
    # each Gauss-node kernel sum evaluates exactly the nodes where z != 0,
    # a node block at a time, with no call for a block without support; the
    # solve takes I and K there from one pass, and both grid rows from one
    for grid, blocks in ((COARSE, 1), (FINE, 2)):
        prob = make_problem(3, 1.5, bump(0.25, 0.5), support=0.5, grid=grid)
        nodes = gauss_nodes(grid)
        support = int(np.count_nonzero(prob.rhs_at(nodes)))
        assert 0 < support < nodes.size // 4
        k_calls = _counting(monkeypatch, "bessel_k")
        ik_calls = _counting(monkeypatch, "bessel_ik")
        edge.coefficient_bound_check(prob, 1.5)
        assert ik_calls == [] and len(k_calls) == blocks
        assert sum(k_calls) == support and max(k_calls) <= BLOCK_NODES
        k_calls.clear()
        edge.solve_mode(prob)
        assert k_calls == [] and len(ik_calls) == blocks + 1
        assert sum(ik_calls[:-1]) == support and max(ik_calls[:-1]) <= BLOCK_NODES
        assert ik_calls[-1] == grid.size
        monkeypatch.undo()


def test_kernel_modes_two_k_rows_per_order(monkeypatch):
    # K_0 and K_1 come from one pass per |n|, shared by the modes n and -n,
    # and the small-argument ratios are read off that pass
    calls = _counting(monkeypatch, "bessel_ik")
    k_calls = _counting(monkeypatch, "bessel_k")
    edge.kernel_modes(4)
    assert calls == [4096] * 4 and k_calls == []


def _n0_reference(mu, zfn, lo, hi, r, R=None):
    """y(r) = (1/2mu) int [(r/t)^mu - (t/r)^mu] z dt/t by scipy quad, or with
    R given, c = H(R) = (1/2mu) int [t^-mu - R^-2mu t^mu] z dt/t."""
    from scipy.integrate import quad
    if R is None:
        f = lambda t: ((r / t) ** mu - (t / r) ** mu) * float(zfn(t)) / t
        top = min(r, hi)
    else:
        f = lambda t: (t ** -mu - R ** (-2.0 * mu) * t ** mu) * float(zfn(t)) / t
        top = hi
    val, _ = quad(f, lo, top, epsabs=0.0, epsrel=1e-13, limit=400)
    return val / (2.0 * mu)


@pytest.mark.parametrize("mu", [0.3, 1.2, 5.0, 25.0])
def test_n0_matches_quadrature_reference(mu):
    # at mu = 25 the nested double quadrature formed 0 * inf = NaN below the
    # support and raised QuadratureFailure
    zfn = bump(0.25, 0.5)
    prob = make_problem(0, mu, zfn, support=0.5)
    y, c, i_row = edge._solve(prob)
    assert i_row is None
    for i in np.searchsorted(COARSE, [0.3, 0.4, 0.5, 0.7, 1.0]):
        ref = _n0_reference(mu, zfn, 0.25, 0.5, COARSE[i])
        assert y[i] == pytest.approx(ref, rel=1e-10)
    assert np.all(y[COARSE <= 0.25] == 0.0)
    assert c == pytest.approx(_n0_reference(mu, zfn, 0.25, 0.5, None, R=1.0),
                              rel=1e-10)


@pytest.mark.parametrize("mu", [0.7, 3.0])
def test_n0_captured_coefficient_on_grid_ending_below_1(mu):
    # c is H at R = grid[-1] < 1, where R^(-2mu) B(R) differs from B(R)
    zfn = bump(0.25, 0.5)
    grid = edge.log_grid(1e-8, 0.8, 2048)
    prob = make_problem(0, mu, zfn, support=0.5, grid=grid)
    sol = edge.split_solution(prob, 0.5, mu + 0.5)
    ref = _n0_reference(mu, zfn, 0.25, 0.5, None, R=grid[-1])
    unscaled = _n0_reference(mu, zfn, 0.25, 0.5, None, R=1.0)
    assert abs(unscaled / ref - 1.0) > 1e-3
    assert sol.c_low == pytest.approx(ref, rel=1e-10)


def test_n0_samples_rhs_at_the_solve_nodes_only():
    # one node set for every mode: the nested 4-point rule sampled the rhs
    # again at 4x the nodes
    calls = []
    zf = bump(0.25, 0.5)

    def zfn(x):
        calls.append(np.size(x))
        return zf(x)

    prob = make_problem(0, 1.2, zfn, support=0.5)
    calls.clear()
    edge.solve_mode(prob)
    assert_blocked(calls, (COARSE.size - 1) * 8)


def test_node_calls_stay_within_one_block(monkeypatch):
    # a 16384-point solve samples the rhs and runs the node kernels a block
    # at a time; only the grid's kernel row takes the whole grid
    ystar, zfn = manufactured_pair(3, 0.7)
    sizes = []

    def spy(x):
        sizes.append(np.size(x))
        return zfn(x)

    prob = make_problem(3, 0.7, spy, grid=FINE)
    ik_calls = _counting(monkeypatch, "bessel_ik")
    sizes.clear()
    y = edge.solve_mode(prob)
    assert_blocked(sizes, (FINE.size - 1) * 8)
    assert len(ik_calls) == 17 and max(ik_calls[:-1]) <= BLOCK_NODES
    assert sum(ik_calls[:-1]) == np.count_nonzero(zfn(gauss_nodes(FINE)))
    assert ik_calls[-1] == FINE.size
    assert np.max(np.abs(y - ystar(FINE))) <= 1e-6


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_recoveries_bit_identical_to_whole_grid_passes():
    # the 20 criterion-5 recoveries give the same bytes as when every node
    # quantity was one whole-grid array (digest captured from that code)
    ys = []
    for n in (1, 2, 3, 5, 7, 9, 12, 16, 20, 25):
        for mu in (0.7, 1.5):
            _, zfn = manufactured_pair(n, mu)
            ys.append(edge.solve_mode(make_problem(n, mu, zfn, grid=FINE)))
    assert _digest(ys) == (
        "209025ec940357041afca4bcf0d5e5ccdc9409c0143ba01a24f6318b742bd558")


def test_split_and_bound_bit_identical_to_whole_grid_passes():
    # seeded 2048-point split/bound instances, n = 0 included, with the rhs
    # callable and from the sampled spline; digest as above
    rng = np.random.default_rng(16)
    parts = []
    for k in range(24):
        n = int(rng.integers(0, 51))
        mu = float(rng.choice([0.7, 1.0, 2.3]))
        a = float(rng.uniform(0.05, 0.4))
        b = float(rng.uniform(a + 0.05, 0.85))
        amp = float(rng.uniform(0.1, 10.0))
        zf = bump(a, b)
        zfn = lambda x, zf=zf, amp=amp: amp * zf(x)
        prob = edge.ModeProblem(n=n, mu=mu, grid=COARSE, rhs=zfn(COARSE),
                                support_max=b, rhs_fn=zfn if k % 2 else None)
        sol = edge.split_solution(prob, 0.5 * mu, mu + 0.5)
        parts += [sol.y, [sol.c_low], sol.shell_norms]
        if n:
            parts.append(edge.coefficient_bound_check(prob, mu + 0.5))
    assert _digest(parts) == (
        "42c336021d982c10e76ac238f63b35fa398237241b29310ae9716ee5442c1dd9")
