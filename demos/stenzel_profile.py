"""Solve the radial profile of the smoothed quadric cone and verify the
Monge-Ampere identity det(Hessian) |z4|^2 = 1 at random chart points."""

import math

import numpy as np

from cone_forge import stenzel as st

print("== profile quadrature, n = 3 ==")
prof = st.solve_profile(3, 20.0, 2000)
closed = (1.5 * (np.sinh(prof.w[1:]) * np.cosh(prof.w[1:]) - prof.w[1:])) ** (1 / 3)
print("max relative error vs closed form:",
      np.max(np.abs(prof.fprime[1:] - closed) / closed))
print("asymptotic coefficient f(20) e^(-40/3):",
      prof.f[-1] * math.exp(-40.0 / 3.0), "(limit 3^(4/3)/4 = 1.081687...)")

print("\n== cone potential ==")
z = np.array([1.0, 0.0, 0.0, 1j])
print("potential at (1,0,0,i):", st.cone_potential(3, z))

print("\n== Monge-Ampere residuals ==")
rng = np.random.default_rng(1)
cone_fn = st.cone_potential_fn(3)
res = [st.monge_ampere_residual(cone_fn, st.random_chart_point(0.0, rng),
                                h=1e-3) for _ in range(10)]
print("cone potential, 10 random points, max residual:", max(res))

eps = 0.5 + 0.5j
ufn = st.stenzel_potential_fn(prof, eps)
res = [st.monge_ampere_residual(ufn, st.random_chart_point(eps, rng),
                                h=1e-3) for _ in range(10)]
print(f"smoothing eps = {eps}, 10 random points, max residual:", max(res))

bad = lambda zz: np.sum(np.abs(zz) ** 2, axis=-1)
pt = st.QuadricPoint(z=np.array([1.0, 0, 0, 1j]), eps=0.0)
print("negative control (plain |z|^2):",
      st.monge_ampere_residual(bad, pt, h=1e-3))
