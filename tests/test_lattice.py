import itertools
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as hst

from cone_forge import lattice as lat
from cone_forge.errors import InputError


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
    with pytest.raises(InputError, match="expected length"):
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


# Pure-Python references for the two vectorized search loops: every t in
# (Z/m)^f for the residues, and every head of the box widened by max |x0|
# for the enumeration.


def _reference_residues(Qr, lin, const, m):
    f = len(lin)
    attainable = set()
    for t in itertools.product(range(m), repeat=f):
        val = const
        for i in range(f):
            val += lin[i] * t[i]
            for j in range(f):
                val += Qr[i][j] * t[i] * t[j]
        attainable.add(int(val) % m)
    return tuple(sorted(attainable))


def _reference_enumerate(Qm, x0, Z, Qr, lin, const, square, bound):
    k = len(x0)
    f = Z.shape[1]
    if f == 0:
        if int(x0 @ Qm @ x0) == square and all(abs(int(c)) <= bound
                                               for c in x0):
            yield tuple(int(c) for c in x0)
        return
    # every variable gets sum_j |T^-1_ij| (bound + max |x0|) on both sides
    pivots = [next(i for i in range(k) if Z[i, j] != 0) for j in range(f)]
    T = sympy.Matrix([[int(Z[p, j]) for j in range(f)] for p in pivots])
    inv = T.inv()
    max_x0 = max(abs(int(v)) for v in x0)
    lim = [int(sum(abs(inv[i, j]) for j in range(f)) * (bound + max_x0)) + 1
           for i in range(f)]
    Qi = [[int(v) for v in row] for row in Qr]
    li = [int(v) for v in lin]
    a = Qi[f - 1][f - 1]
    heads = itertools.product(*(range(-n, n + 1) for n in lim[:-1]))
    for head in heads:
        b = li[f - 1] + sum((Qi[f - 1][j] + Qi[j][f - 1]) * head[j]
                            for j in range(f - 1))
        c0 = const - square + sum(li[j] * head[j] for j in range(f - 1))
        for i in range(f - 1):
            for j in range(f - 1):
                c0 += Qi[i][j] * head[i] * head[j]
        for t_last in lat._quad_int_roots(a, b, c0, -lim[-1], lim[-1]):
            x = x0 + Z @ np.array(head + (t_last,), dtype=object)
            if all(abs(int(c)) <= bound for c in x):
                yield tuple(int(v) for v in x)


@settings(max_examples=60, deadline=None)
@given(f=hst.integers(0, 3), m=hst.integers(2, 64), data=hst.data())
@example(f=3, m=64, data=None)
def test_attainable_residues_match_loop(f, m, data):
    coeff = hst.integers(-10 ** 12, 10 ** 12)
    if data is None:  # the largest grid, with coefficients of every sign
        Qr = [[-36, 5, 7], [5, 4, -11], [7, -11, 13]]
        lin, const = [3, -8, 10 ** 12], -2
    else:
        Qr = [[0] * f for _ in range(f)]
        for i in range(f):
            for j in range(i, f):
                Qr[i][j] = Qr[j][i] = data.draw(coeff)
        lin = [data.draw(coeff) for _ in range(f)]
        const = data.draw(coeff)
    got = lat._attainable_residues(np.array(Qr, dtype=object).reshape(f, f),
                                   np.array(lin, dtype=object), const, m)
    assert got == _reference_residues(Qr, lin, const, m)


# the matching span and B1, C1, plus B2, C2: the form on {B1 + 8 C1,
# B1 + B2 + 8 C2} is 16 (a^2 + ab + b^2), whose value 352 is attained mod
# every m < 64 but not mod 64
_CERT_POOL = _POOL + [_unit(18), _unit(19)]
_cert_combination = hst.lists(hst.integers(-2, 2), min_size=7, max_size=7)


def _solvable_mod(M, d, m):
    """Whether M x = d mod m for some x in (Z/m)^k, by trying every x."""
    k = M.shape[1]
    P = np.array(list(itertools.product(range(m), repeat=k)), dtype=np.int64)
    rest = (P @ M.astype(np.int64).T - np.array(d, dtype=np.int64)) % m
    return bool((rest == 0).all(axis=1).any())


@settings(max_examples=60, deadline=None)
@given(span=hst.lists(_cert_combination, min_size=1, max_size=3),
       dots=hst.lists(_cert_combination, max_size=2),
       planted=hst.lists(hst.integers(-20, 20), min_size=3, max_size=3),
       square_shift=hst.sampled_from([0, 1, 2, 3, -3, 5, 16]),
       dot_shift=hst.sampled_from([0, 0, 1, 2]),
       max_modulus=hst.integers(2, 64))
# 3 a = 4: unsolvable mod 3, and over Z although solvable mod 2
@example(span=[[1, 0, 0, 0, 0, 0, 0]], dots=[[-1, 1, 0, 0, 0, 0, 0]],
         planted=[1, 0, 0], square_shift=0, dot_shift=1, max_modulus=64)
@example(span=[[1, 0, 0, 0, 0, 0, 0]], dots=[[-1, 1, 0, 0, 0, 0, 0]],
         planted=[1, 0, 0], square_shift=0, dot_shift=1, max_modulus=2)
# 16 (a^2 + ab + b^2) = 352 fails first mod 64
@example(span=[[0, 0, 0, 1, 8, 0, 0], [0, 0, 0, 1, 0, 1, 8]], dots=[],
         planted=[0, 0, 0], square_shift=352, dot_shift=0, max_modulus=64)
# a planted 1-dot search on the matching span: no modulus fails
@example(span=[[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0],
               [0, 0, 1, 0, 0, 0, 0]], dots=[[0, 1, 0, 0, 0, 0, 0]],
         planted=[3, -7, 11], square_shift=0, dot_shift=0, max_modulus=64)
def test_certificate_matches_every_modulus_loop(L, span, dots, planted,
                                                square_shift, dot_shift,
                                                max_modulus):
    """Trying prime powers finds the certificate that every m would find."""
    span = [sum(c * v for c, v in zip(cs, _CERT_POOL)) for cs in span]
    dots = [sum(c * v for c, v in zip(cs, _CERT_POOL)) for cs in dots]
    k = len(span)
    x = np.array(planted[:k], dtype=object)
    Q = np.array([[int(lat.pairing(L, a, b)) for b in span] for a in span],
                 dtype=object)
    M = np.array([[int(lat.pairing(L, s, w)) for s in span] for w in dots],
                 dtype=object).reshape(len(dots), k)
    square = int(x @ Q @ x) + square_shift
    d = [int(v) + dot_shift for v in M @ x]
    res = lat.constrained_class_search(span, square, list(zip(dots, d)),
                                       bound=1, L=L, max_modulus=max_modulus)
    cert = res.certificate
    moduli = range(2, max_modulus + 1)
    if cert is not None and cert.reduced_form == (
            "linear constraints unsolvable over Z"):
        assert cert.modulus == next(
            (m for m in moduli if not _solvable_mod(M, d, m)), 0)
        return
    Qr, lin, const = res.reduced_quadratic
    # the pure-Python residue loop stays cheap for up to two free variables
    assume(len(lin) <= 2)
    Qi = [[int(v) for v in row] for row in Qr]
    want = None
    for m in moduli:
        residues = _reference_residues(Qi, [int(v) for v in lin], const, m)
        if square % m not in residues:
            want = lat.UnsatCertificate(
                modulus=m, lhs_residues=residues, rhs_residue=square % m,
                reduced_form=lat._format_quadratic(Qr, lin, const))
            break
    assert cert == want


def _planted_one_dot_search(L, embedding):
    """A satisfiable search on the matching span with one kplus constraint."""
    x = np.array([3, -7, 11], dtype=object)
    gram = np.array([[-2, 1, 0], [1, 4, 0], [0, 0, 4]], dtype=object)
    gx = gram @ x
    return (list(embedding.images), int(x @ gx),
            [(embedding.images[1], int(gx[1]))], 20)


def test_search_tries_prime_power_moduli_without_pairing_calls(L, embedding):
    span, square, dots, bound = _planted_one_dot_search(L, embedding)
    with mock.patch.object(lat, "_attainable_residues",
                           wraps=lat._attainable_residues) as residues, \
            mock.patch.object(lat, "pairing", wraps=lat.pairing) as pairing:
        res = lat.constrained_class_search(span, square, dots, bound, L=L,
                                           max_modulus=64)
    assert res.certificate is None and (3, -7, 11) in res.solutions
    # 2..64 holds 27 prime powers: 18 primes, 2^2..2^6, 3^2, 3^3, 5^2, 7^2
    assert [c.args[3] for c in residues.call_args_list] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
        37, 41, 43, 47, 49, 53, 59, 61, 64]
    assert pairing.call_count == 0


@pytest.mark.parametrize("where", ["span", "dot"])
def test_search_rejects_wrong_length_vectors(L, embedding, where):
    span, square, dots, bound = _planted_one_dot_search(L, embedding)
    if where == "span":
        span[1] = span[1][:21]
    else:
        dots = [(np.append(dots[0][0], 0), dots[0][1])]
    with pytest.raises(InputError, match="expected length"):
        lat.constrained_class_search(span, square, dots, bound, L=L)


def _search_with_enumeration_args(span, square, dots, bound, L, **kw):
    """The search result and the arguments it passed to _enumerate."""
    with mock.patch.object(lat, "_enumerate", wraps=lat._enumerate) as spy:
        res = lat.constrained_class_search(span, square, dots, bound, L=L,
                                           **kw)
    return res, spy.call_args.args


def _assert_enumeration_matches_loop(span, square, dots, bound, L):
    res, args = _search_with_enumeration_args(span, square, dots, bound, L,
                                              max_modulus=2)
    assert res.solutions == tuple(_reference_enumerate(*args))
    return res


@settings(max_examples=80, deadline=None)
@given(span=hst.lists(_combination, min_size=1, max_size=3),
       dots=hst.lists(_combination, max_size=2),
       planted=hst.lists(hst.integers(-30, 30), min_size=3, max_size=3),
       square_shift=hst.sampled_from([0, 0, 1, -2]),
       bound=hst.integers(1, 30))
def test_enumerate_matches_head_loop(L, span, dots, planted, square_shift,
                                     bound):
    span = [sum(c * v for c, v in zip(cs, _POOL)) for cs in span]
    dots = [sum(c * v for c, v in zip(cs, _POOL)) for cs in dots]
    x = sum(c * v for c, v in zip(planted, span))
    d = [int(lat.pairing(L, x, w)) for w in dots]
    _assert_enumeration_matches_loop(span, int(lat.pairing(L, x, x))
                                     + square_shift, list(zip(dots, d)),
                                     bound, L)


@pytest.mark.parametrize("case", ["isotropic", "isotropic-constrained",
                                  "pell", "square-1e30", "square-minus-1e30",
                                  "span-times-1e9"])
def test_enumerate_matches_head_loop_examples(L, embedding, case):
    pi, kplus, kminus = embedding.images
    c1 = 2 * _unit(17), 35 * _unit(17)
    span, square, dots, bound = {
        # a = 0: the form vanishes on the span, every head is solved exactly
        "isotropic": (list(c1), 0, [], 12),
        "isotropic-constrained": (list(c1), 0, [(_unit(16), 1)], 40),
        # 2c^2 - a^2 = 1 has solutions in several 2^16-head chunks
        "pell": ([pi, kminus], 2, [], 10 ** 5),
        # int64 would overflow: the guard keeps these on Python integers
        "square-1e30": ([pi, kplus, kminus], 10 ** 30, [], 3),
        "square-minus-1e30": ([pi, kplus, kminus], -10 ** 30, [], 3),
        "span-times-1e9": ([10 ** 9 * v for v in (pi, kplus, kminus)],
                           -2 * 10 ** 18, [], 5),
    }[case]
    res = _assert_enumeration_matches_loop(span, square, dots, bound, L)
    if case in ("isotropic-constrained", "pell", "span-times-1e9"):
        assert res.solutions
    if case == "pell":
        assert (-47321, 33461) in res.solutions


def test_is_square_below_int64_guard():
    n = np.arange(2 ** 31 - 20000, 2 ** 31, dtype=np.int64)
    values = np.concatenate([n * n, n * n - 1, n * n + 1, [0, 1, 2, -1, -4]])
    want = [v >= 0 and math.isqrt(v) ** 2 == v for v in values.tolist()]
    assert lat._is_square(values).tolist() == want


def test_enumeration_limits_are_tight(embedding, L):
    # pi . x = 2000 on the matching span: the limits are the exact range of
    # t = T^-1 (x_p - x0_p) over the box, not widened by max |x0|
    pi = embedding.images[0]
    res, args = _search_with_enumeration_args(
        list(embedding.images), -2, [(pi, 2000)], 1000, L, max_modulus=2)
    _, x0, Z, *_ = args
    f = Z.shape[1]
    pivots = [next(i for i in range(len(x0)) if Z[i, j] != 0)
              for j in range(f)]
    inv = sympy.Matrix([[int(Z[p, j]) for j in range(f)]
                        for p in pivots]).inv()
    x0p = sympy.Matrix([int(x0[p]) for p in pivots])
    corners = [inv * (sympy.Matrix(c) - x0p)
               for c in itertools.product((-1000, 1000), repeat=f)]
    tight = [(math.ceil(min(t[i] for t in corners)),
              math.floor(max(t[i] for t in corners))) for i in range(f)]
    assert lat._enumeration_limits(x0, Z, 1000) == tight
    heads = math.prod(hi - lo + 1 for lo, hi in tight[:-1])
    assert heads == 2001  # the symmetric max |x0| widening swept 6003
    assert res.solutions == tuple(_reference_enumerate(*args))


def test_invariant_breach_raises_under_optimize():
    # the certificate/solution consistency check must survive python -O
    script = textwrap.dedent("""
        from cone_forge import lattice as lat
        from cone_forge.errors import VerificationFailed
        lat._enumerate = lambda *args: iter([(1, 0, 0)])
        L = lat.build_k3_lattice()
        images = list(lat.matching_embedding(L).images)
        try:
            lat.constrained_class_search(images, -2, [(images[1], 0)],
                                         bound=5, L=L)
        except VerificationFailed as exc:
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
    with pytest.raises(InputError, match="orthogonal to the whole subspace"):
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
