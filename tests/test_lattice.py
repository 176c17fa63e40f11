import itertools
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as hst

from cone_forge import lattice as lat


@pytest.fixture(scope="module")
def L():
    return lat.build_k3_lattice()


@pytest.fixture(scope="module")
def embedding(L):
    return lat.matching_embedding(L)


def test_e8_determinant():
    assert lat.GramLattice(gram=lat.e8_cartan()).determinant() == 1


def _sympy_inertia(rows):
    coeffs = [int(c) for c in sympy.Matrix(rows).charpoly().all_coeffs()]
    n = len(rows)
    mirrored = [c * (-1) ** (n - i) for i, c in enumerate(coeffs)]

    def sign_changes(cs):
        cs = [c for c in cs if c != 0]
        return sum(a * b < 0 for a, b in zip(cs, cs[1:]))

    # a symmetric matrix has only real eigenvalues, so Descartes' rule of
    # signs counts the positive and the negative ones exactly
    return sign_changes(coeffs), sign_changes(mirrored)


@hst.composite
def _symmetric_mostly_zero_diagonal(draw):
    n = draw(hst.integers(1, 6))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(hst.sampled_from([0, 0, 0, 0, 1, -1, 2, -2]))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(hst.integers(-3, 3))
    return rows


@settings(max_examples=300, deadline=None)
@given(_symmetric_mostly_zero_diagonal())
@example([[0, 1], [1, -2]])
def test_determinant_and_signature_match_sympy(rows):
    G = lat.GramLattice(gram=rows)
    assert G.determinant() == int(sympy.Matrix(rows).det())
    assert G.signature() == _sympy_inertia(rows)


def test_k3_lattice_invariants(L):
    assert L.rank == 22
    assert abs(L.determinant()) == 1
    assert L.determinant() == -1
    assert L.signature() == (3, 19)
    assert L.is_even()


def test_u_block_pairings(L):
    b1 = np.zeros(22, dtype=object)
    b1[16] = 1
    c1 = np.zeros(22, dtype=object)
    c1[17] = 1
    assert lat.pairing(L, b1, c1) == 1
    assert lat.pairing(L, b1, b1) == 0
    assert lat.pairing(L, np.zeros(22, dtype=object), b1) == 0


def test_dimension_mismatch(L):
    with pytest.raises(lat.DimensionMismatch):
        lat.pairing(L, [1, 2, 3], [1] * 22)


@settings(max_examples=200, deadline=None)
@given(hst.lists(hst.integers(-9, 9), min_size=22, max_size=22))
def test_even_lattice_squares(v):
    L = _EVEN_L
    assert lat.pairing(L, v, v) % 2 == 0


_EVEN_L = lat.build_k3_lattice()


def test_matching_embedding_gram(embedding, L):
    expected = [[-2, 1, 0], [1, 4, 0], [0, 0, 4]]
    got = [[int(lat.pairing(L, a, b)) for b in embedding.images]
           for a in embedding.images]
    assert got == expected
    pi, kplus, kminus = embedding.images
    assert lat.pairing(L, kplus, kplus) == 4
    assert lat.pairing(L, pi, pi) == -2
    assert lat.pairing(L, pi, kplus) == 1
    assert lat.pairing(L, kminus, kminus) == 4
    assert lat.pairing(L, kminus, pi) == 0
    assert lat.pairing(L, kminus, kplus) == 0


def test_minus_two_class_certificate(embedding, L):
    res = lat.constrained_class_search(
        list(embedding.images), -2, [(embedding.images[1], 0)], bound=1000,
        L=L)
    assert res.certificate is not None
    assert res.certificate.modulus == 4
    assert res.certificate.rhs_residue == 2
    assert 2 not in res.certificate.lhs_residues
    assert res.solutions == ()
    # reduced quadratic is -36 b^2 + 4 c^2 up to variable order
    Qr = np.array(res.reduced_quadratic[0], dtype=int)
    assert sorted(np.diag(Qr).tolist()) == [-36, 4]
    assert Qr[0, 1] == Qr[1, 0] == 0


def test_elliptic_class_certificate(embedding, L):
    res = lat.constrained_class_search(
        list(embedding.images), 0,
        [(embedding.images[1], 0), (embedding.images[2], 2)], bound=1000, L=L)
    assert res.certificate is not None
    assert res.solutions == ()


def test_pi_root_enumeration(embedding, L):
    res = lat.constrained_class_search([embedding.images[0]], -2, [],
                                       bound=2, L=L)
    assert res.certificate is None
    assert sorted(res.solutions) == [(-1,), (1,)]


def test_certificate_agrees_with_enumeration(embedding, L):
    # solvable instance: square 4 on kminus alone has a = +-1
    res = lat.constrained_class_search([embedding.images[2]], 4, [], bound=3,
                                       L=L)
    assert res.certificate is None and sorted(res.solutions) == [(-1,), (1,)]
    for square in (-2, 0, 3):
        out = lat.constrained_class_search(
            list(embedding.images), square,
            [(embedding.images[1], 0)], bound=50, L=L)
        if out.certificate is not None:
            assert out.solutions == ()


def test_search_integral_solutions_behind_fractional_reduction(L):
    # constraint 2a + 3b = 1 has integer solutions even though the naive
    # rational reduction lands on a = 1/2; the quadratic is identically 0
    # on the isotropic span {B1, B2}
    b1 = np.zeros(22, dtype=object)
    b1[16] = 1
    b2 = np.zeros(22, dtype=object)
    b2[18] = 1
    w = np.zeros(22, dtype=object)
    w[17] = 2  # 2 C1
    w[19] = 3  # 3 C2
    res = lat.constrained_class_search([b1, b2], 0, [(w, 1)], bound=7, L=L)
    assert res.certificate is None
    assert res.solutions
    for a, b in res.solutions:
        assert 2 * a + 3 * b == 1 and abs(a) <= 7 and abs(b) <= 7


def _unit(i):
    v = np.zeros(22, dtype=object)
    v[i] = 1
    return v


def test_search_solutions_outside_small_box(L):
    # 2a + 35b = 1 on the isotropic span {2 C1, 35 C1}: every integer
    # solution has a coefficient outside [-8, 8]
    res = lat.constrained_class_search([2 * _unit(17), 35 * _unit(17)], 0,
                                       [(_unit(16), 1)], bound=40, L=L)
    assert res.certificate is None
    assert sorted(res.solutions) == [(-17, 1), (18, -1)]


def test_search_odd_pi_constraint(embedding, L):
    res = lat.constrained_class_search(list(embedding.images), 616,
                                       [(embedding.images[0], -37)],
                                       bound=20, L=L)
    assert res.certificate is None
    assert (19, 1, 18) in res.solutions
    assert sorted(res.solutions) == [(10, -17, 0), (18, -1, -18),
                                     (18, -1, 18), (19, 1, -18), (19, 1, 18)]


def _heger_invariants(A):
    """Rank and gcd of the maximal nonzero minors of an integer matrix."""
    A = sympy.Matrix(A)
    r = A.rank()
    g = 0
    for rows in itertools.combinations(range(A.rows), r):
        for cols in itertools.combinations(range(A.cols), r):
            g = math.gcd(g, int(A.extract(list(rows), list(cols)).det()))
    return r, g


# span and dot vectors are small combinations of pi, kplus, kminus, B1, C1
_POOL = [np.array(v, dtype=object) for v in lat.matching_embedding().images]
_POOL += [_unit(16), _unit(17)]
_combination = hst.lists(hst.integers(-2, 2), min_size=5, max_size=5)


@settings(max_examples=100, deadline=None)
@given(span=hst.lists(_combination, min_size=1, max_size=3),
       dots=hst.lists(_combination, max_size=3),
       planted=hst.lists(hst.integers(-20, 20), min_size=3, max_size=3),
       square_shift=hst.sampled_from([0, 0, 1, 2, -3]),
       dot_shift=hst.sampled_from([0, 0, 0, 1]),
       bound=hst.integers(1, 8))
def test_search_matches_brute_force(L, span, dots, planted, square_shift,
                                    dot_shift, bound):
    """A planted solution is always found; a certificate always holds."""
    span = [sum(c * v for c, v in zip(cs, _POOL)) for cs in span]
    dots = [sum(c * v for c, v in zip(cs, _POOL)) for cs in dots]
    k = len(span)
    x = np.array(planted[:k], dtype=object)
    Q = np.array([[int(lat.pairing(L, a, b)) for b in span] for a in span],
                 dtype=object)
    M = np.array([[int(lat.pairing(L, s, w)) for s in span] for w in dots],
                 dtype=object).reshape(len(dots), k)
    square = int(x @ Q @ x) + square_shift
    d = [int(v) + dot_shift for v in M @ x]
    res = lat.constrained_class_search(
        span, square, list(zip(dots, d)), bound=bound, L=L, max_modulus=12)

    def box(values):
        """Points of values^k with their squares and constraint residuals."""
        P = np.array(list(itertools.product(values, repeat=k)),
                     dtype=np.int64)
        return (P, np.einsum("pi,ij,pj->p", P, Q.astype(np.int64), P),
                P @ M.astype(np.int64).T - np.array(d, dtype=np.int64))

    P, sq, lin = box(range(-bound, bound + 1))
    want = P[(sq == square) & (lin == 0).all(axis=1)]
    assert sorted(res.solutions) == sorted(tuple(map(int, p)) for p in want)
    if not (square_shift or dot_shift) and max(map(abs, x)) <= bound:
        assert tuple(x) in res.solutions and res.certificate is None
    cert = res.certificate
    if cert is None:
        return
    assert res.solutions == ()
    m = cert.modulus
    if not cert.lhs_residues:  # the linear constraints alone are unsolvable
        if m:
            _, _, lin = box(range(m))
            assert not (lin % m == 0).all(axis=1).any()
        else:
            aug = np.concatenate([M, np.array(d, dtype=object)[:, None]], 1)
            assert _heger_invariants(M) != _heger_invariants(aug)
        return
    # the residues are those of the reduced form, so every integer point
    # meeting the constraints has its square among them and the target not
    _, sq, lin = box(range(-2 * m, 2 * m + 1))
    assert square % m not in cert.lhs_residues
    assert set((sq[(lin == 0).all(axis=1)] % m).tolist()) <= set(
        cert.lhs_residues)


def test_invariant_breach_raises_under_optimize():
    # the certificate/solution consistency check must survive python -O
    script = textwrap.dedent("""
        from cone_forge import lattice as lat
        lat._enumerate = lambda *args: iter([(1, 0, 0)])
        L = lat.build_k3_lattice()
        images = list(lat.matching_embedding(L).images)
        try:
            lat.constrained_class_search(images, -2, [(images[1], 0)],
                                         bound=5, L=L)
        except RuntimeError as exc:
            print("raised:", exc)
        """)
    src = str(Path(lat.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "raised: mod-4 certificate contradicts" in out.stdout


def test_orthogonal_complement_rank(embedding, L):
    basis = lat.orthogonal_complement(L, list(embedding.images))
    assert len(basis) == 19
    for b in basis:
        for v in embedding.images:
            assert lat.pairing(L, b, v) == 0


def test_orthogonal_complement_empty_input(L):
    basis = lat.orthogonal_complement(L, [])
    assert len(basis) == 22


def test_orthogonal_complement_saturated(embedding, L):
    basis = lat.orthogonal_complement(L, list(embedding.images))
    B = np.array(basis, dtype=object)
    # a random rational vector of the kernel span cleared to integers must be
    # an integer combination of the basis (saturation)
    rng = np.random.default_rng(5)
    coeffs = [Fraction(int(a), int(b)) for a, b in
              zip(rng.integers(-5, 6, 19), rng.integers(1, 7, 19))]
    vec = sum((c * b for c, b in zip(coeffs, basis)),
              np.zeros(22, dtype=object))
    lcm = np.lcm.reduce([c.denominator for c in coeffs])
    ivec = np.array([int(x * lcm) for x in vec], dtype=object)
    sol, *_ = np.linalg.lstsq(np.array(B.T, dtype=float),
                              np.array(ivec, dtype=float), rcond=None)
    assert np.allclose(sol, np.round(sol), atol=1e-6)


def test_pairings_invariant_under_span_permutation(embedding, L):
    perm = [2, 0, 1]
    images = [embedding.images[i] for i in perm]
    got = [[int(lat.pairing(L, a, b)) for b in images] for a in images]
    base = [[int(lat.pairing(L, a, b)) for b in embedding.images]
            for a in embedding.images]
    for i, pi_ in enumerate(perm):
        for j, pj in enumerate(perm):
            assert got[i][j] == base[pi_][pj]


def test_generic_direction_no_avoid(embedding, L):
    basis = lat.orthogonal_complement(L, list(embedding.images))
    gd = lat.generic_direction(L, basis, [], seed=1)
    assert gd.square > 0
    vec = np.array([x for x in gd.coords], dtype=object)
    for v in embedding.images:
        assert lat.pairing(L, vec, v) == 0


def test_generic_direction_toy_avoid():
    toy = lat.GramLattice(gram=[[1, 0], [0, 1]])
    avoid = [np.array([1, 0], dtype=object)]
    gd = lat.generic_direction(toy, [np.array([1, 0], dtype=object),
                                     np.array([0, 1], dtype=object)],
                               avoid, seed=3)
    vec = np.array(list(gd.coords), dtype=object)
    assert lat.pairing(toy, vec, avoid[0]) != 0


def test_generic_direction_unavoidable(L, embedding):
    basis = lat.orthogonal_complement(L, list(embedding.images))
    with pytest.raises(lat.UnavoidableHyperplane):
        lat.generic_direction(L, basis, [embedding.images[0]], seed=0)


def test_generic_direction_after_zero_pivot():
    # first diagonal entry 0, and adding row 2 to row 1 would cancel it
    toy = lat.GramLattice(gram=[[0, 1], [1, -2]])
    gd = lat.generic_direction(toy, [np.array([1, 0], dtype=object),
                                     np.array([0, 1], dtype=object)], [],
                               seed=0)
    vec = np.array(list(gd.coords), dtype=object)
    assert gd.square > 0 and lat.pairing(toy, vec, vec) > 0


def test_generic_direction_normalizes_square_one():
    toy = lat.GramLattice(gram=[[1, 0], [0, 1]])
    gd = lat.generic_direction(toy, [np.array([1, 0], dtype=object)], [],
                               seed=0)
    assert gd.normalized and gd.square == 1
    vec = gd.coords
    assert sum(Fraction(c) * Fraction(c) for c in vec) == 1
