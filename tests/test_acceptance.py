"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion.  Every expected value is either a closed form, an independent
brute-force computation, or a structural count; nothing is calibrated to
the implementation under test.
"""

import itertools
import math
import time

import numpy as np
import pytest

from cone_forge import bessel as bs
from cone_forge import edge, g2, lattice as lat, spectra as sp, stenzel as st

from _manufactured import manufactured_pair, bump


def _report(num, desc):
    print(f"\nACCEPTANCE {num}: PASS - {desc}")


def test_criterion_1_g2_linearization():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(100):
        gamma = g2.random_unit_3form(rng)
        worst = max(worst, g2.linearization_residual(gamma, 1e-4))
    assert worst <= 1e-6, f"residual {worst:.3e}"
    # order-2 convergence under h-refinement on three fresh directions
    hs = np.array([1e-2, 1e-3, 1e-4])
    for _ in range(3):
        gamma = g2.random_unit_3form(rng)
        res = [g2.linearization_residual(gamma, h) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
        assert abs(slope - 2.0) <= 0.2, f"slope {slope:.3f}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, f"100 unit 3-forms, max residual {worst:.2e} <= 1e-6, "
               f"order 2 +- 0.2, {elapsed:.1f}s < 10s")


def test_criterion_2_stenzel_profile():
    prof = st.solve_profile(3, 20.0, 2000)
    closed = (1.5 * (np.sinh(prof.w[1:]) * np.cosh(prof.w[1:])
                     - prof.w[1:])) ** (1.0 / 3.0)
    rel = float(np.max(np.abs(prof.fprime[1:] - closed) / closed))
    assert rel <= 1e-8, f"profile error {rel:.3e}"
    coeff = prof.f[-1] * math.exp(-2.0 * 20.0 / 3.0)
    assert abs(coeff - 1.08163) <= 1e-3, f"coefficient {coeff:.6f}"
    _report(2, f"profile matches closed form to {rel:.2e} <= 1e-8, "
               f"f(20)e^(-40/3) = {coeff:.5f} within 1e-3 of 1.08163")


def test_criterion_3_monge_ampere():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    cone_fn = st.cone_potential_fn(3)
    worst_cone = 0.0
    for _ in range(50):
        pt = st.random_chart_point(0.0, rng)
        worst_cone = max(worst_cone,
                         st.monge_ampere_residual(cone_fn, pt, h=1e-3))
    assert worst_cone <= 1e-4, f"cone residual {worst_cone:.3e}"
    prof = st.solve_profile(3, 20.0, 2000)
    worst_smooth = 0.0
    for eps in (1.0, 0.5 + 0.5j):
        ufn = st.stenzel_potential_fn(prof, eps)
        for _ in range(25):
            pt = st.random_chart_point(eps, rng)
            worst_smooth = max(worst_smooth,
                               st.monge_ampere_residual(ufn, pt, h=1e-3))
    assert worst_smooth <= 1e-3, f"smoothing residual {worst_smooth:.3e}"
    bad = lambda z: np.sum(np.abs(z) ** 2, axis=-1)
    control = st.monge_ampere_residual(
        bad, st.QuadricPoint(z=np.array([1.0, 0, 0, 1j]), eps=0.0), h=1e-3)
    assert control > 0.1, f"negative control {control:.3e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(3, f"50 cone pts max {worst_cone:.2e} <= 1e-4, 50 smoothing pts "
               f"max {worst_smooth:.2e} <= 1e-3, control {control:.2f} > 0.1, "
               f"{elapsed:.1f}s < 60s")


def test_criterion_4_bessel():
    grid = np.logspace(math.log10(0.01), 1.0, 120)
    worst_w = 0.0
    for mu in (0.0, 0.5, 1.0, 2.3):
        worst_w = max(worst_w, float(np.max(bs.wronskian_residual(mu, grid))))
    assert worst_w <= 1e-9, f"wronskian {worst_w:.3e}"
    k1 = bs.bessel_k(1.0, grid)
    prime_rel = float(np.max(np.abs(bs.bessel_k_prime(0.0, grid) + k1) / k1))
    assert prime_rel <= 1e-8, f"K0'+K1 {prime_rel:.3e}"
    assert abs(bs.bessel_k(0.0, 1e-8) / (-math.log(1e-8)) - 1.0) <= 0.05
    assert abs(1e-8 * bs.bessel_k(1.0, 1e-8) - 1.0) <= 1e-6
    for mu in (0.0, 1.0, 2.3):
        lim = bs.bessel_i(mu, 1e-6) * (1e-6) ** (-mu)
        assert lim == pytest.approx(0.5 ** mu / bs.gamma_fn(mu + 1.0),
                                    rel=1e-9)
    _report(4, f"Wronskian max {worst_w:.2e} <= 1e-9 on [0.01,10], "
               f"K0'+K1 {prime_rel:.2e} <= 1e-8, small-argument limits hold")


def test_criterion_5_edge_solver():
    # manufactured recovery over 20 (n, mu) pairs
    fine = edge.log_grid(1e-8, 1.0, 16384)
    pairs = [(n, mu) for n in (1, 2, 3, 5, 7, 9, 12, 16, 20, 25)
             for mu in (0.7, 1.5)]
    assert len(pairs) == 20
    worst = 0.0
    for n, mu in pairs:
        yfn, zfn = manufactured_pair(n, mu)
        prob = edge.ModeProblem(n=n, mu=mu, grid=fine, rhs=zfn(fine),
                                support_max=0.8, rhs_fn=zfn)
        err = float(np.max(np.abs(edge.solve_mode(prob) - yfn(fine))))
        worst = max(worst, err)
    assert worst <= 1e-6, f"recovery {worst:.3e}"

    # 200 randomized coefficient-bound instances, zero violations
    rng = np.random.default_rng(5)
    coarse = edge.log_grid()
    violations = 0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        mu, dpp = (1.0, 0.25) if rng.random() < 0.5 else (2.3, 0.5)
        a = float(rng.uniform(0.05, 0.4))
        b = float(rng.uniform(a + 0.05, 0.85))
        amp = float(rng.uniform(0.1, 10.0))
        zf = bump(a, b)
        zfn = lambda x, zf=zf, amp=amp: amp * zf(x)
        prob = edge.ModeProblem(n=n, mu=mu, grid=coarse, rhs=zfn(coarse),
                                support_max=b, rhs_fn=zfn)
        lhs, rhs = edge.coefficient_bound_check(prob, dpp)
        violations += int(lhs > rhs)
    assert violations == 0, f"{violations} bound violations"

    modes = edge.kernel_modes(10)
    assert len(modes) == 20
    worst_mode = max(max(m.identity_residual, m.ode0_residual,
                         m.ode1_residual) for m in modes)
    assert worst_mode <= 1e-8, f"mode residual {worst_mode:.3e}"
    # unbounded count: 2 n_max for every tested n_max up to 100
    count_grid = edge.log_grid(1e-6, 1.0, 512)
    for nmax in (1, 5, 17, 50, 100):
        assert len(edge.kernel_modes(nmax, count_grid)) == 2 * nmax
    _report(5, f"20 manufactured recoveries max {worst:.2e} <= 1e-6, "
               f"200/200 coefficient bounds hold, kernel_modes(10) = 20 "
               f"modes max residual {worst_mode:.2e} <= 1e-8, "
               f"count = 2 n_max up to 100")


def _harmonic_polynomial_dim(k, nvars=6):
    monos = list(itertools.combinations_with_replacement(range(nvars), k))
    if k < 2:
        return len(monos)
    lower = {m: i for i, m in enumerate(
        itertools.combinations_with_replacement(range(nvars), k - 2))}
    A = np.zeros((len(lower), len(monos)))
    for col, m in enumerate(monos):
        counts = [m.count(v) for v in range(nvars)]
        for v in range(nvars):
            if counts[v] >= 2:
                new = list(counts)
                new[v] -= 2
                key = tuple(itertools.chain.from_iterable(
                    [vv] * nn for vv, nn in enumerate(new)))
                A[lower[key], col] += counts[v] * (counts[v] - 1)
    return len(monos) - np.linalg.matrix_rank(A)


def test_criterion_6_spectra():
    import pathlib
    data = pathlib.Path(__file__).resolve().parents[1] / "src" / \
        "cone_forge" / "data"
    s5 = sp.load_spectrum(data / "s5.json")
    rates = sp.function_rates(3, s5.coclosed(0), (-0.5, 6.5))
    got = {r.lam: r.multiplicity for r in rates}
    expect = {0.0: 1}
    for k in range(1, 7):
        expect[float(k)] = _harmonic_polynomial_dim(k)
    assert got == expect, f"{got} vs {expect}"
    assert got[2.0] == 20

    constrained = sp.LinkSpectrum(
        betti=(1, 0, 1, 1, 0, 1),
        modes=(sp.Mode(p=1, mu=8.0, mult=1),),
        constraints=(sp.ConstraintRecord(p=0, bound=5.0, strict=True),
                     sp.ConstraintRecord(p=1, bound=8.0, strict=False)))
    assert sp.one_form_catalog(constrained, (-3.0, 0.0)) == []

    from fractions import Fraction
    synth = sp.LinkSpectrum(betti=(1, 0, 1, 1, 0, 1), modes=(
        sp.Mode(p=0, mu=Fraction(29, 4), mult=1),
        sp.Mode(p=0, mu=Fraction(12), mult=1),
        sp.Mode(p=1, mu=8.0, mult=1)))
    cat = sp.paired_catalog(synth, (-2.0, 0.0))
    got_pairs = sorted((round(r.lam, 10), r.gen_type[:2]) for r in cat)
    lam_moving = round(math.sqrt(11.25) - 4.0, 10)
    assert got_pairs == sorted([(0.0, "P1"), (0.0, "P2"), (0.0, "P3"),
                                (0.0, "P4"), (lam_moving, "P4")])

    end = [sp.CriticalRate(lam=0.0, degree=0, multiplicity=1,
                           gen_type="end-constant", log_mode=True)]
    assert end[0].dim == 2
    N = sp.index_change([[]], end, sp.WeightVector((-2.0,), -0.25),
                        sp.WeightVector((-1.9,), 0.25))
    assert N == 2
    index = -N // 2
    assert index == -1
    _report(6, "S5 rates equal brute-force harmonic dimensions (k=2 -> 20), "
               "1-form catalog empty on [-3,0], paired catalog exact for "
               "mu0 in {7.25, 12}, index change reproduces -1 via N = 2")


def test_criterion_7_lattice():
    t0 = time.monotonic()
    L = lat.build_k3_lattice()
    assert abs(L.determinant()) == 1
    assert L.signature() == (3, 19)
    emb = lat.matching_embedding(L)
    got = [[int(lat.pairing(L, a, b)) for b in emb.images]
           for a in emb.images]
    assert got == [[-2, 1, 0], [1, 4, 0], [0, 0, 4]]

    res = lat.constrained_class_search(list(emb.images), -2,
                                       [(emb.images[1], 0)], bound=10 ** 6,
                                       L=L)
    assert res.certificate is not None and res.certificate.modulus == 4
    assert res.certificate.rhs_residue == 2
    assert res.solutions == ()

    res2 = lat.constrained_class_search(
        list(emb.images), 0, [(emb.images[1], 0), (emb.images[2], 2)],
        bound=10 ** 6, L=L)
    assert res2.certificate is not None
    assert res2.solutions == ()
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(7, f"embedding Gram exact, mod-4 certificate plus empty "
               f"enumeration to 1e6, elliptic class UNSAT, det -1 and "
               f"signature (3,19), {elapsed:.1f}s < 60s")
