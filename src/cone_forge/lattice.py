"""Exact integer lattice arithmetic for the K3 matching problem.

The K3 lattice is L = (-E8) + (-E8) + U + U + U with U the hyperbolic plane
[[0,1],[1,0]]: rank 22, determinant -1, signature (3,19).  The matching
embedding realises the rank-3 quadratic form

    [[-2, 1, 0],
     [ 1, 4, 0],
     [ 0, 0, 4]]

on (Pi-tilde, -K_plus, -quarter-K_minus) inside L, and the class searches
certify the two Diophantine obstructions of the handcrafted gluing: the
(-2)-class system reduces to -36 b^2 + 4 c^2 = -2 (impossible mod 4) and the
elliptic-class system forces 4c = 2 (no integer solution).

Everything is exact and runs on two cores.  Integer systems go through one
row Hermite form H = U [M^T | I] (Cohen, *A Course in Computational
Algebraic Number Theory*, section 2.4): forward substitution on its echelon
rows decides M x = d over Z and gives a particular solution, its remaining
rows are a saturated kernel basis in echelon form, and the same routine
decides M x = d mod m for the linear certificates.  Rational questions
(determinant, signature, a positive-square direction) go through one
symmetric congruence diagonalization P^T G P = diag carried as Fraction.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

__all__ = [
    "DimensionMismatch",
    "UnavoidableHyperplane",
    "GramLattice",
    "EmbeddingRecord",
    "UnsatCertificate",
    "SearchResult",
    "GenericDirection",
    "e8_cartan",
    "build_k3_lattice",
    "pairing",
    "matching_embedding",
    "constrained_class_search",
    "orthogonal_complement",
    "integer_kernel",
    "generic_direction",
]


class DimensionMismatch(ValueError):
    """Vector length does not match the lattice rank."""


class UnavoidableHyperplane(ValueError):
    """An avoid-vector annihilates the whole subspace."""


def _as_object_matrix(rows) -> np.ndarray:
    return np.array([[int(x) for x in row] for row in rows], dtype=object)


def e8_cartan() -> np.ndarray:
    """E8 Cartan matrix, Bourbaki node order (chain 1-3-4-5-6-7-8, node 2 on 4)."""
    edges = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]
    A = 2 * np.eye(8, dtype=int)
    for i, j in edges:
        A[i - 1, j - 1] = A[j - 1, i - 1] = -1
    return _as_object_matrix(A)


@dataclass(frozen=True)
class GramLattice:
    """Integer quadratic-form lattice given by its Gram matrix."""

    gram: np.ndarray

    def __post_init__(self):
        g = _as_object_matrix(self.gram)
        if g.shape[0] != g.shape[1] or not (g == g.T).all():
            raise ValueError("gram must be a symmetric square integer matrix")
        object.__setattr__(self, "gram", g)

    @property
    def rank(self) -> int:
        return self.gram.shape[0]

    def is_even(self) -> bool:
        return all(self.gram[i, i] % 2 == 0 for i in range(self.rank))

    def determinant(self) -> int:
        """Product of the diagonalization pivots; 0 when one is missing."""
        pivots = self._pivots
        return int(math.prod(pivots)) if len(pivots) == self.rank else 0

    def signature(self) -> tuple[int, int]:
        """(positive, negative) inertia by exact rational diagonalization."""
        pos = sum(p > 0 for p in self._pivots)
        return pos, len(self._pivots) - pos

    @cached_property
    def _pivots(self) -> list:
        # determinant and signature share one diagonalization per lattice
        return [piv for piv, _ in _congruence_diagonalization(self.gram)]


def _congruence_diagonalization(G):
    """Yield (pivot, column of P) for each nonzero pivot of P^T G P = diag.

    A zero diagonal entry is swapped for a later nonzero one; only when every
    remaining diagonal entry is zero is a row and column j with A[k][j] != 0
    added, which makes the pivot 2 A[k][j].  A step whose remaining row is
    zero has no pivot.  Swaps, additions and eliminations have determinant
    +-1, so det G is the product of the pivots when all n are present.
    """
    n = len(G)
    A = [[Fraction(int(x)) for x in row] for row in G]
    P = [[Fraction(int(i == j)) for i in range(n)]  # P[j] is column j
         for j in range(n)]
    for k in range(n):
        if A[k][k] == 0:
            j = next((j for j in range(k + 1, n) if A[j][j] != 0), None)
            if j is not None:
                A[k], A[j] = A[j], A[k]
                for row in A:
                    row[k], row[j] = row[j], row[k]
                P[k], P[j] = P[j], P[k]
            else:
                j = next((j for j in range(k + 1, n) if A[k][j] != 0), None)
                if j is None:
                    continue
                A[k] = [a + b for a, b in zip(A[k], A[j])]
                for row in A:
                    row[k] += row[j]
                P[k] = [a + b for a, b in zip(P[k], P[j])]
        piv, Ak = A[k][k], A[k]
        for i in range(k + 1, n):
            f = A[i][k] / piv
            if f:  # Schur complement: the trailing block stays symmetric
                A[i][k + 1:] = [a - f * b for a, b in
                                zip(A[i][k + 1:], Ak[k + 1:])]
                P[i] = [a - f * b for a, b in zip(P[i], P[k])]
        yield piv, P[k]


def build_k3_lattice() -> GramLattice:
    """2(-E8) + 3U; verifies det = -1, signature (3,19), evenness."""
    e8 = e8_cartan()
    U = _as_object_matrix([[0, 1], [1, 0]])
    blocks = [-e8, -e8, U, U, U]
    n = sum(b.shape[0] for b in blocks)
    g = np.zeros((n, n), dtype=object)
    at = 0
    for b in blocks:
        k = b.shape[0]
        g[at:at + k, at:at + k] = b
        at += k
    L = GramLattice(gram=g)
    if not (L.rank == 22 and L.is_even() and abs(L.determinant()) == 1
            and L.signature() == (3, 19)):
        raise RuntimeError("2(-E8) + 3U fails rank 22, evenness, "
                           "|det| = 1 or signature (3, 19)")
    return L


def _as_vector(v, rank: int) -> np.ndarray:
    arr = np.array([x if isinstance(x, Fraction) else int(x) for x in v],
                   dtype=object)
    if arr.shape != (rank,):
        raise DimensionMismatch(f"expected length {rank}, got {arr.shape}")
    return arr


def pairing(L: GramLattice, v, w):
    """Exact v . w in the quadratic form; integers in, integer out."""
    return (_as_vector(v, L.rank) @ L.gram @ _as_vector(w, L.rank))


@dataclass(frozen=True)
class EmbeddingRecord:
    source_gram: np.ndarray
    images: tuple
    labels: tuple


# Pi-tilde sits on Bourbaki node 1 of the first -E8; node 3 is its Dynkin
# neighbour (square -2, product 1 in -E8).
_PI_NODE = 0
_ADJ_NODE = 2


def matching_embedding(L: GramLattice | None = None) -> EmbeddingRecord:
    """Images of (Pi-tilde, -K_plus, -quarter-K_minus) inside L.

    Pi-tilde = simple root e_1 of the first -E8; -K_plus = adjacent simple
    root e_3 plus B_1+C_1+B_2+C_2+B_3+C_3 (the three hyperbolic bases);
    -quarter-K_minus = B_1+C_1-B_2-C_2.  The pair Gram is verified exactly.
    """
    if L is None:
        L = build_k3_lattice()
    pi = np.zeros(22, dtype=object)
    pi[_PI_NODE] = 1
    kplus = np.zeros(22, dtype=object)
    kplus[_ADJ_NODE] = 1
    kplus[16:22] = 1  # B1,C1,B2,C2,B3,C3
    kminus = np.zeros(22, dtype=object)
    kminus[16] = kminus[17] = 1
    kminus[18] = kminus[19] = -1
    images = (pi, kplus, kminus)
    expected = _as_object_matrix([[-2, 1, 0], [1, 4, 0], [0, 0, 4]])
    got = np.array([[pairing(L, a, b) for b in images] for a in images],
                   dtype=object)
    if not (got == expected).all():
        raise RuntimeError("embedding Gram mismatch")
    return EmbeddingRecord(source_gram=expected, images=images,
                           labels=("pi", "kplus", "kminus"))


@dataclass(frozen=True)
class UnsatCertificate:
    """No solution mod `modulus`: attainable lhs residues miss the rhs."""

    modulus: int
    lhs_residues: tuple
    rhs_residue: int
    reduced_form: str


@dataclass(frozen=True)
class SearchResult:
    solutions: tuple
    certificate: UnsatCertificate | None
    reduced_quadratic: tuple  # (Q, linear, constant) in the free variables


def _solve_linear_system(M: np.ndarray, d):
    """Integer solutions of M x = d: (particular or None, kernel basis).

    One Hermite form H = U [M^T | I].  Writing x^T = y^T U turns the system
    into y^T E = d^T with E = U M^T in echelon form, so forward substitution
    on E's pivot rows fixes y there; an inexact division or a nonzero
    remainder means no integer solution.  The rows of U beside E's zero rows
    are a saturated kernel basis, in echelon form.
    """
    r, k = M.shape
    H = _hermite_form(np.concatenate([M.T, np.eye(k, dtype=object)], axis=1))
    rank = sum(1 for row in H if any(row[:r]))
    kernel = [row[r:].copy() for row in H[rank:]]
    rest = [int(v) for v in d]
    x = np.zeros(k, dtype=object)
    for row in H[:rank]:
        c = next(c for c in range(r) if row[c] != 0)
        q, rem = divmod(rest[c], int(row[c]))
        if rem:
            return None, kernel
        rest = [a - q * int(b) for a, b in zip(rest, row[:r])]
        x += q * row[r:]
    return (None if any(rest) else x), kernel


def _hermite_form(A: np.ndarray) -> np.ndarray:
    """Row echelon form U A, U unimodular, by Euclidean row steps.

    Pivots are made positive; entries above a pivot are not reduced.
    """
    A = A.copy()
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if A[i, c] != 0), None)
        if piv is None:
            continue
        A[[r, piv]] = A[[piv, r]]
        while True:
            nz = [i for i in range(r + 1, rows) if A[i, c] != 0]
            if not nz:
                break
            for i in nz:
                A[i] = A[i] - (A[i, c] // A[r, c]) * A[r]
                if A[i, c] != 0 and abs(A[i, c]) < abs(A[r, c]):
                    A[[r, i]] = A[[i, r]]
        if A[r, c] < 0:
            A[r] = -A[r]
        r += 1
    return A


def integer_kernel(A: np.ndarray) -> list[np.ndarray]:
    """Saturated basis of {x integer : A x = 0}, via HNF of [A^T | I]."""
    A = _as_object_matrix(A)
    return _solve_linear_system(A, [0] * A.shape[0])[1]


def orthogonal_complement(L: GramLattice, vectors) -> list[np.ndarray]:
    """Saturated integer basis of the sublattice pairing to 0 with `vectors`."""
    if not vectors:
        return [row.copy() for row in np.eye(L.rank, dtype=object)]
    rows = [(_as_vector(v, L.rank) @ L.gram) for v in vectors]
    basis = integer_kernel(np.array(rows, dtype=object))
    if any((_as_vector(v, L.rank) @ L.gram @ b) != 0
           for b in basis for v in vectors):
        raise RuntimeError("complement basis vector pairs nonzero")
    return basis


def constrained_class_search(span, square: int, dot_constraints, bound: int,
                             L: GramLattice | None = None,
                             max_modulus: int = 64) -> SearchResult:
    """Integer combinations of `span` with given square and pairings.

    Substitutes the linear constraints into the quadratic exactly, tries
    modulus certificates up to max_modulus, and enumerates coefficient
    tuples with |coeff| <= bound.  When a certificate is found the
    enumeration is guaranteed empty; both are reported.  Linear constraints
    without an integer solution give the smallest m <= max_modulus with none
    mod m, or modulus 0 when every such m has one.
    """
    if L is None:
        L = build_k3_lattice()
    if bound < 1:
        raise ValueError("bound must be >= 1")
    span = [_as_vector(v, L.rank) for v in span]
    k = len(span)
    Q = [[int(pairing(L, a, b)) for b in span] for a in span]
    M = np.array([[int(pairing(L, s, _as_vector(w, L.rank))) for s in span]
                  for w, _ in dot_constraints],
                 dtype=object).reshape(len(dot_constraints), k)
    d = [int(val) for _, val in dot_constraints]

    x0, kernel = _solve_linear_system(M, d)
    if x0 is None:
        eye = np.eye(len(d), dtype=object)
        modulus = next((m for m in range(2, max_modulus + 1)
                        if _solve_linear_system(np.concatenate(
                            [M, m * eye], axis=1), d)[0] is None), 0)
        cert = UnsatCertificate(
            modulus=modulus, lhs_residues=(), rhs_residue=0,
            reduced_form="linear constraints unsolvable over Z")
        return SearchResult(solutions=(), certificate=cert,
                            reduced_quadratic=((), (), 0))

    f = len(kernel)
    Z = np.array(kernel, dtype=object).T if f else np.zeros((k, 0), dtype=object)
    Qm = np.array(Q, dtype=object)
    Qr = (Z.T @ Qm @ Z) if f else np.zeros((0, 0), dtype=object)
    lin = (2 * (x0 @ Qm @ Z)) if f else np.zeros(0, dtype=object)
    const = int(x0 @ Qm @ x0)

    cert = None
    for m in range(2, max_modulus + 1):
        attainable = set()
        for t in itertools.product(range(m), repeat=f):
            val = const
            for i in range(f):
                val += lin[i] * t[i]
                for j in range(f):
                    val += Qr[i, j] * t[i] * t[j]
            attainable.add(int(val) % m)
        if square % m not in attainable:
            cert = UnsatCertificate(
                modulus=m, lhs_residues=tuple(sorted(attainable)),
                rhs_residue=square % m,
                reduced_form=_format_quadratic(Qr, lin, const))
            break

    solutions = tuple(_enumerate(Qm, x0, Z, Qr, lin, const, square, bound))
    if cert is not None and solutions:
        raise RuntimeError(f"mod-{cert.modulus} certificate contradicts "
                           f"the found solution {solutions[0]}")
    return SearchResult(solutions=solutions, certificate=cert,
                        reduced_quadratic=(Qr, lin, const))


def _format_quadratic(Qr, lin, const):
    names = "tuvw"
    terms = []
    f = Qr.shape[0]
    for i in range(f):
        for j in range(i, f):
            c = Qr[i, j] if i == j else Qr[i, j] + Qr[j, i]
            if c:
                mono = f"{names[i]}^2" if i == j else f"{names[i]}{names[j]}"
                terms.append(f"{'+' if c > 0 else '-'} {abs(c)}{mono}")
    for i in range(f):
        if lin[i]:
            terms.append(f"{'+' if lin[i] > 0 else '-'} {abs(lin[i])}{names[i]}")
    if const:
        terms.append(f"{'+' if const > 0 else '-'} {abs(const)}")
    return " ".join(terms).lstrip("+ ") or "0"


def _int_sqrt(n):
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def _enumerate(Qm, x0, Z, Qr, lin, const, square, bound):
    """All x = x0 + Z t with every span coefficient in [-bound, bound]."""
    k = len(x0)
    f = Z.shape[1]
    if f == 0:
        x = x0
        if int(x @ Qm @ x) == square and all(abs(int(c)) <= bound for c in x):
            yield tuple(int(c) for c in x)
        return
    # Z's columns are echelon kernel rows, so the rows of Z at their pivots
    # form a lower-triangular f x f minor T; with t = T^-1 (x - x0) on those
    # rows, |t_i| <= sum_j |T^-1_ij| (bound + max |x0|) bounds each variable
    pivots = [next(i for i in range(k) if Z[i, j] != 0) for j in range(f)]
    T = [[Fraction(int(Z[p, j])) for j in range(f)] for p in pivots]
    inv = [[Fraction(0)] * f for _ in range(f)]
    for a in range(f):  # forward substitution on T inv = I
        for j in range(a + 1):
            inv[a][j] = ((a == j) - sum(T[a][b] * inv[b][j]
                                        for b in range(j, a))) / T[a][a]
    max_x0 = max(abs(int(v)) for v in x0) if k else 0
    lim = [int(sum(abs(inv[i][j]) for j in range(f)) * (bound + max_x0)) + 1
           for i in range(f)]

    def coeffs_ok(t):
        x = x0 + Z @ np.array(t, dtype=object)
        return (all(abs(int(c)) <= bound for c in x), x)

    if f == 1:
        a = int(Qr[0, 0])
        b = int(lin[0])
        c0 = const - square
        for t0 in _quad_int_roots(a, b, c0, lim[0]):
            ok, x = coeffs_ok((t0,))
            if ok:
                yield tuple(int(v) for v in x)
        return
    # loop the first f-1 variables, solve the quadratic in the last
    head_lim = max(lim[:-1])
    if (2 * head_lim + 1) ** (f - 1) > 5e7:
        raise ValueError("enumeration box too large; lower the bound")
    # itertools.product stores its ranges as tuples, so the first head
    # variable, whose range can hold 1e6 values, is looped lazily
    rng = range(-head_lim, head_lim + 1)
    tails = list(itertools.product(rng, repeat=f - 2))
    Qi = [[int(v) for v in row] for row in Qr]
    li = [int(v) for v in lin]
    a = Qi[f - 1][f - 1]
    for head in ((h,) + tail for h in rng for tail in tails):
        if any(abs(h) > lim[i] for i, h in enumerate(head)):
            continue
        b = li[f - 1] + sum((Qi[f - 1][j] + Qi[j][f - 1]) * head[j]
                            for j in range(f - 1))
        c0 = const - square + sum(li[j] * head[j] for j in range(f - 1))
        for i in range(f - 1):
            for j in range(f - 1):
                c0 += Qi[i][j] * head[i] * head[j]
        for t_last in _quad_int_roots(a, b, c0, lim[f - 1]):
            ok, x = coeffs_ok(head + (t_last,))
            if ok:
                yield tuple(int(v) for v in x)


def _quad_int_roots(a, b, c, lim):
    """Integer roots of a t^2 + b t + c = 0 with |t| <= lim."""
    if a == 0:
        if b == 0:
            return [t for t in range(-lim, lim + 1)] if c == 0 else []
        return [(-c) // b] if (-c) % b == 0 and abs((-c) // b) <= lim else []
    disc = b * b - 4 * a * c
    r = _int_sqrt(disc)
    if r is None:
        return []
    out = []
    for num in (-b + r, -b - r):
        if num % (2 * a) == 0 and abs(num // (2 * a)) <= lim:
            out.append(num // (2 * a))
    return sorted(set(out))


@dataclass(frozen=True)
class GenericDirection:
    """A direction in span(T) avoiding the given hyperplanes."""

    coords: tuple  # coordinates in L (Fractions when normalized)
    t_coefficients: tuple
    square: Fraction
    normalized: bool


def generic_direction(L: GramLattice, T_basis, avoid, seed: int = 0,
                      max_tries: int = 500) -> GenericDirection:
    """Positive-square k in span(T_basis) with k . C != 0 for all C in avoid.

    Rescaled to square 1 when the square is a rational square, otherwise
    returned unnormalized with its square.  Raises UnavoidableHyperplane if
    some avoid-vector pairs to 0 with every basis vector.
    """
    T = [_as_vector(v, L.rank) for v in T_basis]
    avoid = [_as_vector(v, L.rank) for v in avoid]
    for C in avoid:
        if all((t @ L.gram @ C) == 0 for t in T):
            raise UnavoidableHyperplane(
                "an avoid-vector is orthogonal to the whole subspace")
    # deterministic positive direction: the P column of the first positive
    # pivot of the exact diagonalization
    G = np.array([[int(a @ L.gram @ b) for b in T] for a in T], dtype=object)
    base = next((col for piv, col in _congruence_diagonalization(G)
                 if piv > 0), None)
    if base is None:
        raise ValueError("span contains no positive-square vector")
    rng = random.Random(seed)
    for trial in range(max_tries):
        scale = 1 + trial // 10
        t = [int(round(scale * 4 * c)) for c in base] if trial == 0 else [
            int(round(scale * 4 * c)) + rng.randint(-scale, scale)
            for c in base]
        vec = sum((ti * Ti for ti, Ti in zip(t, T)),
                  np.zeros(L.rank, dtype=object))
        sq = int(vec @ L.gram @ vec)
        if sq <= 0:
            continue
        if any((vec @ L.gram @ C) == 0 for C in avoid):
            continue
        root = _int_sqrt(sq)
        if root is not None:
            coords = tuple(Fraction(int(v), root) for v in vec)
            return GenericDirection(coords=coords, t_coefficients=tuple(t),
                                    square=Fraction(1), normalized=True)
        return GenericDirection(coords=tuple(int(v) for v in vec),
                                t_coefficients=tuple(t),
                                square=Fraction(sq), normalized=False)
    raise RuntimeError("no generic direction found; avoid set too dense?")
