import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from cone_forge import stenzel as st
from cone_forge._spline import CubicHermite


@pytest.fixture(scope="module")
def profile():
    return st.solve_profile(3, 20.0, 2000)


def test_hermite_matches_scipy_on_profile(profile):
    w, f, fp = profile.w, profile.f, profile.fprime
    ours = CubicHermite(w, f, fp)
    ref = CubicHermiteSpline(w, f, fp)
    rng = np.random.default_rng(11)
    mids = 0.5 * (w[1:] + w[:-1])
    pts = np.concatenate([w, mids, rng.uniform(0.0, profile.w_max, 5000),
                          [0.0, profile.w_max]])
    got, want = ours(pts), ref(pts)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1e-300))
    for x in (0.0, 1e-3, 7.25, profile.w_max):  # scalar calls
        got = ours(x)
        assert np.ndim(got) == 0
        assert abs(float(got) - float(ref(x))) <= 1e-14 * max(abs(float(ref(x))), 1e-300)


def test_hermite_extrapolates_with_end_cubics():
    x = np.array([0.0, 1.0, 2.5, 3.0])
    y = np.array([1.0, -2.0, 0.5, 4.0])
    d = np.array([0.3, 1.0, -2.0, 5.0])
    pts = np.array([-1.0, -0.25, 3.5, 5.0])
    np.testing.assert_allclose(CubicHermite(x, y, d)(pts),
                               CubicHermiteSpline(x, y, d)(pts), rtol=1e-14)


def _log_grid(kind, n, rng):
    u = np.linspace(np.log(1e-8), 0.0, n)
    if kind == "random":  # each knot moved by up to 0.3 of the spacing
        u = u + rng.uniform(-0.3, 0.3, n) * (u[1] - u[0])
    return u


@pytest.mark.parametrize("n", [2, 3, 4, 300, 2048])
@pytest.mark.parametrize("kind", ["geometric", "random"])
def test_not_a_knot_matches_scipy(n, kind):
    rng = np.random.default_rng(n)
    u = _log_grid(kind, n, rng)
    for z in (rng.standard_normal(n), np.exp(-((u + 3.0) ** 2))):
        mids = 0.5 * (u[1:] + u[:-1])
        pts = np.concatenate([u, mids, rng.uniform(u[0], u[-1], 4000)])
        err = np.abs(CubicHermite(u, z)(pts) - CubicSpline(u, z)(pts))
        assert np.max(err) <= 1e-14 * np.max(np.abs(z))


@pytest.mark.parametrize("x, y, message", [
    ([0.5], [1.0], "at least 2 knots"),
    ([0.0, 1.0], [1.0, 2.0, 3.0], "one value per knot"),
    ([0.0, np.nan, 2.0], [1.0, 2.0, 3.0], "knots must be finite"),
    ([0.0, 1.0, np.inf], [1.0, 2.0, 3.0], "knots must be finite"),
    ([0.0, 1.0, 2.0], [1.0, np.nan, 3.0], "values must be finite"),
    ([0.0, 1.0, 2.0], [1.0, 2.0, -np.inf], "values must be finite"),
    ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], "strictly increasing"),
    ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0], "strictly increasing"),
])
def test_spline_input_checks(x, y, message):
    with pytest.raises(ValueError, match=message):
        CubicHermite(x, y)
