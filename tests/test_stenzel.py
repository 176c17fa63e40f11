import math

import numpy as np
import pytest

from cone_forge import stenzel as st
from cone_forge.errors import InputError, NumericalFailure


@pytest.fixture(scope="module")
def profile():
    return st.solve_profile(3, 20.0, 2000)


def closed_fprime(w):
    return (1.5 * (np.sinh(w) * np.cosh(w) - w)) ** (1.0 / 3.0)


def test_profile_matches_closed_form(profile):
    w = profile.w[1:]
    rel = np.abs(profile.fprime[1:] - closed_fprime(w)) / closed_fprime(w)
    assert np.max(rel) <= 1e-8


@pytest.mark.parametrize("n, w_max", [(2, 14.0), (4, 12.0)])
def test_profile_matches_closed_form_n2_n4(n, w_max):
    # n = 2: f' = 2 sinh(w/2); n = 4: f'^4 = (4/3)(cosh w - 1)^2 (cosh w + 2)
    p = st.solve_profile(n, w_max, 1500)
    w = p.w[1:]
    if n == 2:
        closed = 2.0 * np.sinh(w / 2.0)
    else:
        c1 = 2.0 * np.sinh(w / 2.0) ** 2
        closed = ((4.0 / 3.0) * c1 * c1 * (np.cosh(w) + 2.0)) ** 0.25
    assert np.max(np.abs(p.fprime[1:] - closed) / closed) <= 1e-8


def _profile_by_segments(n, w_max, steps):
    """Reference: the same Gauss-Legendre rules, one segment at a time."""
    nodes, weights = np.polynomial.legendre.leggauss(10)

    def rule(fn, a, b):
        half = 0.5 * (b - a)
        return half * float(np.sum(weights * fn(0.5 * (a + b) + half * nodes)))

    sinh_pow = lambda s: np.sinh(s) ** (n - 1)
    w = np.linspace(0.0, w_max, steps + 1)
    F, f = np.zeros(steps + 1), np.zeros(steps + 1)
    for k in range(steps):
        F[k + 1] = F[k] + rule(sinh_pow, w[k], w[k + 1])
    for k in range(steps):
        fp = lambda xs: (n * np.array([F[k] + rule(sinh_pow, w[k], x)
                                       for x in xs])) ** (1.0 / n)
        f[k + 1] = f[k] + rule(fp, w[k], w[k + 1])
    return w, f, (n * F) ** (1.0 / n)


@pytest.mark.parametrize("n, w_max, steps", [(2, 14.0, 150), (3, 5.0, 200),
                                             (4, 12.0, 300)])
def test_profile_equals_segment_loop(n, w_max, steps):
    # the array pass does the per-segment arithmetic in the same order
    p = st.solve_profile(n, w_max, steps, ode_tol=1.0)
    w, f, fprime = _profile_by_segments(n, w_max, steps)
    assert np.array_equal(p.w, w)
    assert np.array_equal(p.f, f)
    assert np.array_equal(p.fprime, fprime)


def test_profile_initial_conditions(profile):
    assert profile.f[0] == 0.0
    assert profile.fprime[0] == 0.0
    assert np.all(np.diff(profile.fprime) > 0)


def test_profile_asymptotic_coefficient(profile):
    val = profile.f[-1] * math.exp(-2.0 * 20.0 / 3.0)
    assert abs(val - 1.08163) <= 1e-3


def test_profile_residual_refines_at_order_two():
    res = []
    stepses = (200, 400, 800)
    for steps in stepses:
        p = st.solve_profile(3, 5.0, steps)
        w = p.w
        rhs = 3.0 * np.sinh(w[1:-1]) ** 2
        lhs = (p.fprime[2:] ** 3 - p.fprime[:-2] ** 3) / (w[2] - w[0])
        res.append(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))
    slope = np.polyfit(np.log([5.0 / s for s in stepses]), np.log(res), 1)[0]
    assert slope >= 1.8


def test_profile_input_validation():
    with pytest.raises(ValueError):
        st.solve_profile(1, 5.0, 500)
    with pytest.raises(ValueError):
        st.solve_profile(3, 5.0, 50)
    with pytest.raises(InputError, match="steps must be <= 100000"):
        st.solve_profile(3, 5.0, st.MAX_STEPS + 1)
    with pytest.raises(NumericalFailure, match="ODE residual"):
        st.solve_profile(3, 5.0, 150, ode_tol=1e-12)


def test_cone_potential_values():
    z = np.array([1.0, 0.0, 0.0, 1j])
    assert st.cone_potential(3, z) == pytest.approx(
        1.5 ** (4.0 / 3.0) * 2.0 ** (2.0 / 3.0), rel=1e-12)
    assert st.cone_potential(3, np.array([1.0 + 0j, 0, 0, 0])) == \
        pytest.approx(1.5 ** (4.0 / 3.0), rel=1e-12)
    # quoted decimal is a loose rounding of the closed form 2.7256808...
    assert st.cone_potential(3, z) == pytest.approx(2.72562, abs=1e-4)


def test_cone_potential_homogeneity():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    for c in (0.3, 2.0):
        assert st.cone_potential(3, c * z) == pytest.approx(
            c ** (4.0 / 3.0) * st.cone_potential(3, z), rel=1e-12)


def test_cone_potential_origin():
    with pytest.raises(InputError, match="at the vertex"):
        st.cone_potential(3, np.zeros(4, dtype=complex))


def test_potentials_take_a_stack(profile):
    rng = np.random.default_rng(8)
    Z = np.array([st.random_chart_point(1.0, rng).z for _ in range(6)])
    Z = Z.reshape(2, 3, 4)
    for u in (st.cone_potential_fn(3), st.stenzel_potential_fn(profile, 1.0)):
        vals = u(Z)
        assert vals.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert vals[idx] == pytest.approx(u(Z[idx]), rel=1e-14)
    # one bad point spoils the whole stack
    with pytest.raises(InputError, match="at the vertex"):
        st.cone_potential(3, np.concatenate([Z[0], np.zeros((1, 4))]))
    far = np.array([[math.sqrt(math.cosh(25.0)), 0, 0, 0]], dtype=complex)
    with pytest.raises(InputError, match="beyond grid"):
        st.stenzel_potential_fn(profile, 1.0)(np.concatenate([Z[0], far]))


def test_quadric_point_constraint():
    with pytest.raises(ValueError):
        st.QuadricPoint(z=np.array([1.0, 0, 0, 0]), eps=0.0)
    st.QuadricPoint(z=np.array([1.0, 0, 0, 1j]), eps=0.0)


def test_smoothing_potential_vertex_and_consistency(profile):
    eps = 1.0
    u = st.stenzel_potential_fn(profile, eps)
    z = np.array([1.0 + 0j, 0.0, 0.0, 0.0])
    assert u(z) == pytest.approx(0.0, abs=1e-12)
    big = math.cosh(20.0)
    # |z|^2 = cosh(20) exactly: a^2 - b^2 = eps, a^2 + b^2 = cosh(20)
    z = np.array([math.sqrt((big + 1) / 2), 1j * math.sqrt((big - 1) / 2),
                  0, 0])
    val = u(z)
    assert val == pytest.approx(abs(eps) ** (2 / 3) * profile.f[-1], rel=1e-9)
    assert val / st.cone_potential(3, z) == pytest.approx(1.0, abs=1e-3)


def test_smoothing_potential_so4_invariance(profile):
    rng = np.random.default_rng(1)
    eps = 0.7
    u = st.stenzel_potential_fn(profile, eps)
    pt = st.random_chart_point(eps, rng)
    base = u(pt.z)
    for _ in range(5):
        A, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rotated = A @ pt.z
        assert u(rotated) == pytest.approx(base, abs=1e-10 * (1 + abs(base)))


def test_smoothing_potential_errors(profile):
    with pytest.raises(InputError, match="below"):
        st.stenzel_potential_fn(profile, 4.0)(np.array([0.1 + 0j, 0, 0, 0]))
    huge = math.cosh(25.0)
    z = np.array([math.sqrt(huge / 2.0), 0, 0, 0], dtype=complex)
    z[3] = np.sqrt(1.0 - z[0] ** 2)
    with pytest.raises(InputError, match="beyond grid"):
        st.stenzel_potential_fn(profile, 1.0)(z)
    # eps = 0 is the cone: refused when the closure is built
    with pytest.raises(ValueError, match="cone"):
        st.stenzel_potential_fn(profile, 0.0)
    with pytest.raises(ValueError, match="cone"):
        st.stenzel_potential_fn(profile, 0j)


def test_monge_ampere_symbolic_oracle():
    """Exact Wirtinger Hessian of the cone potential at one point via sympy."""
    import sympy as sp

    w = sp.symbols("w1 w2 w3")
    wb = sp.symbols("wb1 wb2 wb3")
    z4 = sp.sqrt(-(w[0] ** 2 + w[1] ** 2 + w[2] ** 2))
    # conjugate branch: at the real slice conj(sqrt(-s)) = -sqrt(-s)
    z4b = -sp.sqrt(-(wb[0] ** 2 + wb[1] ** 2 + wb[2] ** 2))
    norm = (w[0] * wb[0] + w[1] * wb[1] + w[2] * wb[2] + z4 * z4b)
    u = sp.Rational(3, 2) ** sp.Rational(4, 3) * norm ** sp.Rational(2, 3)
    point = {w[0]: 1, w[1]: sp.Rational(1, 5), w[2]: sp.Rational(1, 7),
             wb[0]: 1, wb[1]: sp.Rational(1, 5), wb[2]: sp.Rational(1, 7)}
    H = np.array([[complex(sp.N(sp.diff(u, w[j], wb[k]).subs(point), 30))
                   for k in range(3)] for j in range(3)])
    z4_val = complex(sp.N(z4.subs(point), 30))
    det_val = np.linalg.det(H)
    assert det_val * abs(z4_val) ** 2 == pytest.approx(1.0, abs=1e-10)
    # and the finite-difference pipeline agrees at the same point
    z = np.array([1.0, 0.2, 1.0 / 7.0, z4_val])
    pt = st.QuadricPoint(z=z, eps=0.0)
    assert st.monge_ampere_residual(st.cone_potential_fn(3), pt,
                                    h=1e-3) <= 1e-6


def test_monge_ampere_cone_point():
    pt = st.QuadricPoint(z=np.array([1.0, 0, 0, 1j]), eps=0.0)
    assert st.monge_ampere_residual(st.cone_potential_fn(3), pt,
                                    h=1e-3) <= 1e-4


def test_monge_ampere_smoothing_points(profile):
    rng = np.random.default_rng(2)
    for eps in (1.0, 0.5 + 0.5j):
        u = st.stenzel_potential_fn(profile, eps)
        for _ in range(8):
            pt = st.random_chart_point(eps, rng)
            assert st.monge_ampere_residual(u, pt, h=1e-3) <= 1e-3


@pytest.mark.parametrize("eps", [0.0, 1.0])
def test_monge_ampere_factory_potential_called_once(profile, eps):
    # a potential takes both steps' stencils, 146 points, in one call
    u = (st.cone_potential_fn(3) if eps == 0
         else st.stenzel_potential_fn(profile, eps))
    shapes = []
    counted = lambda z: shapes.append(z.shape) or u(z)
    pt = st.random_chart_point(eps, np.random.default_rng(5))
    st.monge_ampere_residual(counted, pt, h=1e-3)
    assert shapes == [(2, 73, 4)]


def test_monge_ampere_stencil_point_below_vertex(profile):
    # a point of the eps = 1 quadric just above the vertex of a potential
    # built for a larger eps: the centre is fine, some stencil points are not
    pt = st.random_chart_point(1.0, np.random.default_rng(7))
    s = float(np.sum(np.abs(pt.z) ** 2))
    u = st.stenzel_potential_fn(profile, s * (1.0 - 1e-6))
    u(pt.z)
    with pytest.raises(InputError, match="below"):
        st.monge_ampere_residual(u, pt, h=1e-3)


def test_chart_embed_follows_the_branch_of_the_point():
    # random_chart_point takes either root, so about half of these points
    # sit on the branch opposite the principal square root
    rng = np.random.default_rng(9)
    for _ in range(20):
        pt = st.random_chart_point(1.0, rng)
        near = np.delete(pt.z, 3) + 1e-3 * (rng.standard_normal((5, 3))
                                            + 1j * rng.standard_normal((5, 3)))
        z = st._chart_embed(near, 1.0, 3, complex(pt.z[3]))
        assert np.allclose(np.sum(z * z, axis=-1), 1.0)
        assert np.all(np.abs(z[:, 3] - pt.z[3]) < 0.1)


def test_monge_ampere_negative_control():
    bad = lambda z: np.sum(np.abs(z) ** 2, axis=-1)
    pt = st.QuadricPoint(z=np.array([1.0, 0, 0, 1j]), eps=0.0)
    assert st.monge_ampere_residual(bad, pt, h=1e-3) > 0.1


def test_monge_ampere_chart_independence():
    rng = np.random.default_rng(3)
    fn = st.cone_potential_fn(3)
    for _ in range(5):
        pt = st.random_chart_point(0.0, rng, min_last=0.5)
        vals = [st.monge_ampere_residual(fn, pt, h=1e-3, chart=c)
                for c in range(4) if abs(pt.z[c]) >= 0.5]
        assert len(vals) >= 2
        assert max(vals) - min(vals) <= 1e-4


def test_monge_ampere_phase_covariance(profile):
    rng = np.random.default_rng(4)
    eps = 1.0
    theta = 0.8
    pt = st.random_chart_point(eps, rng)
    res1 = st.monge_ampere_residual(st.stenzel_potential_fn(profile, eps),
                                    pt, h=1e-3)
    eps2 = eps * np.exp(1j * theta)
    pt2 = st.QuadricPoint(z=pt.z * np.exp(1j * theta / 2.0), eps=eps2)
    res2 = st.monge_ampere_residual(st.stenzel_potential_fn(profile, eps2),
                                    pt2, h=1e-3)
    assert abs(res1 - res2) <= 1e-6


def test_monge_ampere_branch_cut():
    z = np.array([1.0, 0, 1e-4, 0], dtype=complex)
    z[3] = np.sqrt(-np.sum(z[:3] ** 2))
    pt = st.QuadricPoint(z=z, eps=0.0)
    with pytest.raises(InputError, match="< 10h"):
        st.monge_ampere_residual(st.cone_potential_fn(3), pt, h=1e-3, chart=2)
