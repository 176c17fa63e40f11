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
Pairings of several vectors come from one object-matrix product A G B^T.

The certificates try prime-power moduli only.  By the Chinese remainder
theorem t mod m is any choice of t mod each p^k exactly dividing m, so an
integer polynomial (or a linear system M x = d) attains a residue mod m
iff it attains it mod every such p^k; the smallest failing m is therefore
a prime power, and a search returns the certificate a loop over every
m <= max_modulus would (27 moduli up to 64 instead of 63).

The two search loops use numpy int64 where no value can overflow.  The
modulus certificates tabulate the reduced form, its coefficients taken mod
m, over all of (Z/m)^f.  The enumeration sweeps the heads (every free
variable but the last) in chunks and keeps those whose discriminant in the
last variable is a perfect square; it first bounds every value of the sweep
below 2^62 in Python integers, and stays on Python integers when it cannot
or when the last variable enters only linearly.
numpy only filters candidates: each kept head is solved, and each reported
solution checked, in exact Python integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .errors import InputError, VerificationFailed

__all__ = [
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
    "generic_direction",
]


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
            raise InputError("gram must be a symmetric square integer matrix")
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
        raise VerificationFailed("2(-E8) + 3U fails rank 22, evenness, "
                                 "|det| = 1 or signature (3, 19)")
    return L


def _as_vector(v, rank: int) -> np.ndarray:
    arr = np.array([x if isinstance(x, Fraction) else int(x) for x in v],
                   dtype=object)
    if arr.shape != (rank,):
        raise InputError(f"expected length {rank}, got {arr.shape}")
    return arr


def pairing(L: GramLattice, v, w):
    """Exact v . w in the quadratic form; integers in, integer out."""
    return (_as_vector(v, L.rank) @ L.gram @ _as_vector(w, L.rank))


def _rows(L: GramLattice, vectors) -> np.ndarray:
    """The vectors as the rows of an object matrix, each length checked."""
    return np.array([_as_vector(v, L.rank) for v in vectors],
                    dtype=object).reshape(len(vectors), L.rank)


def _gram(L: GramLattice, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Every pairing A_i . B_j of the rows of A and B, as one product."""
    return A @ L.gram @ B.T


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
    S = _rows(L, images)
    if not (_gram(L, S, S) == expected).all():
        raise VerificationFailed("embedding Gram mismatch")
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


def orthogonal_complement(L: GramLattice, vectors) -> list[np.ndarray]:
    """Saturated integer basis of the sublattice pairing to 0 with `vectors`."""
    if not vectors:
        return [row.copy() for row in np.eye(L.rank, dtype=object)]
    V = _rows(L, vectors)
    M = _as_object_matrix(V @ L.gram)
    basis = _solve_linear_system(M, [0] * len(V))[1]
    if _gram(L, V, _rows(L, basis)).any():
        raise VerificationFailed("complement basis vector pairs nonzero")
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

    Both certificate loops try the prime powers m <= max_modulus only: a
    residue (or a solution of M x = d) exists mod m iff it exists mod every
    p^k exactly dividing m (Chinese remainder theorem), so the smallest
    failing m is a prime power.  The modulus loop runs on satisfiable
    searches too, so that a certificate beside a solution is caught.
    """
    if L is None:
        L = build_k3_lattice()
    if bound < 1:
        raise InputError("bound must be >= 1")
    S = _rows(L, span)
    W = _rows(L, [w for w, _ in dot_constraints])
    k = len(S)
    Qm = _to_int(_gram(L, S, S))
    M = _to_int(_gram(L, W, S))
    d = [int(val) for _, val in dot_constraints]

    x0, kernel = _solve_linear_system(M, d)
    if x0 is None:
        eye = np.eye(len(d), dtype=object)
        modulus = next((m for m in _prime_powers(max_modulus)
                        if _solve_linear_system(np.concatenate(
                            [M, m * eye], axis=1), d)[0] is None), 0)
        cert = UnsatCertificate(
            modulus=modulus, lhs_residues=(), rhs_residue=0,
            reduced_form="linear constraints unsolvable over Z")
        return SearchResult(solutions=(), certificate=cert,
                            reduced_quadratic=((), (), 0))

    f = len(kernel)
    Z = np.array(kernel, dtype=object).T if f else np.zeros((k, 0), dtype=object)
    Qr = (Z.T @ Qm @ Z) if f else np.zeros((0, 0), dtype=object)
    lin = (2 * (x0 @ Qm @ Z)) if f else np.zeros(0, dtype=object)
    const = int(x0 @ Qm @ x0)

    cert = None
    for m in _prime_powers(max_modulus):
        attainable = _attainable_residues(Qr, lin, const, m)
        if square % m not in attainable:
            cert = UnsatCertificate(
                modulus=m, lhs_residues=attainable, rhs_residue=square % m,
                reduced_form=_format_quadratic(Qr, lin, const))
            break

    solutions = tuple(_enumerate(Qm, x0, Z, Qr, lin, const, square, bound))
    if cert is not None and solutions:
        raise VerificationFailed(f"mod-{cert.modulus} certificate contradicts "
                                 f"the found solution {solutions[0]}")
    return SearchResult(solutions=solutions, certificate=cert,
                        reduced_quadratic=(Qr, lin, const))


# int() of every entry of an object matrix, whatever its shape: the search
# runs on Python integers
_to_int = np.frompyfunc(int, 1, 1)


@cache
def _prime_powers(n: int) -> tuple:
    """The prime powers 2 <= m <= n, ascending, by a sieve of Eratosthenes."""
    composite = bytearray(max(n + 1, 0))
    powers = []
    for p in range(2, n + 1):
        if not composite[p]:
            composite[p * p::p] = b"\x01" * len(range(p * p, n + 1, p))
            q = p
            while q <= n:
                powers.append(q)
                q *= p
    return tuple(sorted(powers))


def _attainable_residues(Qr, lin, const, m):
    """Sorted residues mod m of const + lin . t + t^T Qr t, t in (Z/m)^f.

    The coefficients are reduced mod m first, and each of the 1 + f +
    f(f-1)/2 tables added over the (Z/m)^f grid holds residues, so their
    int64 sum stays below (f + 1)^2 m.
    """
    f = len(lin)
    r = np.arange(m, dtype=np.int64)
    rr = np.multiply.outer(r, r) % m
    val = np.full((m,) * f, int(const) % m, dtype=np.int64)
    for i in range(f):
        axes = [1] * f
        axes[i] = m
        val += ((int(lin[i]) % m * r + int(Qr[i, i]) % m * rr.diagonal())
                % m).reshape(axes)
        for j in range(i + 1, f):
            axes[j] = m
            val += (int(Qr[i, j] + Qr[j, i]) % m * rr % m).reshape(axes)
            axes[j] = 1
    seen = np.zeros(m, dtype=bool)
    seen[val % m] = True
    return tuple(np.flatnonzero(seen).tolist())


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


# heads per int64 chunk of the enumeration sweep: its temporaries stay at
# 64 kB each, whatever the box size, and the certified 1e6 search sweeps
# faster than with 2^12 or 2^16 heads per chunk
_SWEEP_CHUNK = 1 << 13
_INT64_SAFE = 1 << 62


def _enumeration_limits(x0, Z, bound):
    """Interval (lo, hi) of each free variable t over the search box.

    An interval with lo > hi holds no integer, and the box no solution.

    Z's columns are echelon kernel rows, so the rows of Z at their pivots
    form a lower-triangular f x f minor T, and t = T^-1 (x_p - x0_p) on those
    rows.  With x_p in [-bound, bound]^f, t_i lies within
    sum_j |T^-1_ij| bound of the centre -(T^-1 x0_p)_i.
    """
    k, f = Z.shape
    pivots = [next(i for i in range(k) if Z[i, j] != 0) for j in range(f)]
    T = [[Fraction(int(Z[p, j])) for j in range(f)] for p in pivots]
    inv = [[Fraction(0)] * f for _ in range(f)]
    for a in range(f):  # forward substitution on T inv = I
        for j in range(a + 1):
            inv[a][j] = ((a == j) - sum(T[a][b] * inv[b][j]
                                        for b in range(j, a))) / T[a][a]
    limits = []
    for row in inv:
        centre = -sum(c * int(x0[p]) for c, p in zip(row, pivots))
        radius = bound * sum(abs(c) for c in row)
        limits.append((math.ceil(centre - radius),
                       math.floor(centre + radius)))
    return limits


def _enumerate(Qm, x0, Z, Qr, lin, const, square, bound):
    """All x = x0 + Z t with every span coefficient in [-bound, bound].

    The last free variable solves a quadratic whose coefficients depend on
    the others, the head.  Heads go in ascending order; a head can give an
    integer root only when its discriminant is a perfect square, and
    `_square_discriminant_heads` finds those in guarded int64 chunks.  Each
    kept head is solved, and its solutions checked, in Python integers.
    """
    f = Z.shape[1]
    if f == 0:
        x = x0
        if int(x @ Qm @ x) == square and all(abs(int(c)) <= bound for c in x):
            yield tuple(int(c) for c in x)
        return
    limits = _enumeration_limits(x0, Z, bound)
    if any(lo > hi for lo, hi in limits):
        return
    g = f - 1
    heads = limits[:g]
    if math.prod(hi - lo + 1 for lo, hi in heads) > 5e7:
        raise InputError("enumeration box too large; lower the bound")
    Qi = [[int(v) for v in row] for row in Qr]
    li = [int(v) for v in lin]
    c_shift = const - square
    a = Qi[g][g]
    if heads and a and _int64_sweep_safe(Qi, li, c_shift, heads):
        candidates = _square_discriminant_heads(Qi, li, c_shift, heads)
    else:
        candidates = _box_heads(heads)
    for head in candidates:
        b = li[g] + sum((Qi[g][j] + Qi[j][g]) * head[j] for j in range(g))
        c0 = c_shift + sum(li[j] * head[j] for j in range(g))
        for i in range(g):
            for j in range(g):
                c0 += Qi[i][j] * head[i] * head[j]
        for t_last in _quad_int_roots(a, b, c0, *limits[-1]):
            x = x0 + Z @ np.array(head + (t_last,), dtype=object)
            if all(abs(int(c)) <= bound for c in x):
                yield tuple(int(v) for v in x)


def _box_heads(heads):
    """Every head of the box in ascending order, as Python int tuples."""
    if not heads:
        yield ()
        return
    # itertools.product stores its ranges as tuples, so the first head
    # variable, whose range can hold 1e6 values, is looped lazily
    (lo, hi), rest = heads[0], heads[1:]
    for h in range(lo, hi + 1):
        for tail in itertools.product(*(range(l, u + 1) for l, u in rest)):
            yield (h,) + tail


def _int64_sweep_safe(Qi, li, c_shift, heads):
    """Whether every int64 value of the head sweep stays below 2^62.

    Bounds |b|, |c0| and the discriminant b^2 - 4 a c0 over the head box,
    in Python integers, from the head limits.
    """
    g = len(heads)
    H = [max(abs(lo), abs(hi)) for lo, hi in heads]
    a = Qi[g][g]
    b_max = abs(li[g]) + sum(abs(Qi[g][j] + Qi[j][g]) * H[j]
                             for j in range(g))
    c_max = abs(c_shift) + sum(abs(li[j]) * H[j] for j in range(g)) + sum(
        abs(Qi[i][j]) * H[i] * H[j] for i in range(g) for j in range(g))
    inputs = [abs(v) for row in Qi for v in row] + [abs(v) for v in li] + H
    return max(inputs + [4 * abs(a), b_max * b_max + 4 * abs(a) * c_max]
               ) < _INT64_SAFE


def _square_discriminant_heads(Qi, li, c_shift, heads):
    """Heads, ascending, whose discriminant b^2 - 4 a c0 is a square >= 0.

    The caller has checked `_int64_sweep_safe`, so no int64 step wraps.
    """
    g = len(heads)
    base = np.array([lo for lo, _ in heads], dtype=np.int64)[:, None]
    widths = [hi - lo + 1 for lo, hi in heads]
    Qh = np.array([row[:g] for row in Qi[:g]], dtype=np.int64)
    bh = np.array([Qi[g][j] + Qi[j][g] for j in range(g)], dtype=np.int64)
    lh = np.array(li[:g], dtype=np.int64)
    four_a = 4 * Qi[g][g]
    n = math.prod(widths)
    for start in range(0, n, _SWEEP_CHUNK):
        idx = np.arange(start, min(start + _SWEEP_CHUNK, n))
        H = np.array(np.unravel_index(idx, widths), dtype=np.int64) + base
        b = li[g] + bh @ H
        c0 = c_shift + lh @ H + (H * (Qh @ H)).sum(axis=0)
        for i in np.flatnonzero(_is_square(b * b - four_a * c0)):
            yield tuple(int(h) for h in H[:, i])


def _is_square(n):
    """Mask of the perfect squares in an int64 array below 2^62.

    The float square root is only a guess at the integer one: r - 1, r and
    r + 1 are each squared exactly.  A negative entry matches none of them.
    """
    r = np.floor(np.sqrt(np.maximum(n, 0).astype(np.float64))).astype(np.int64)
    return (r * r == n) | ((r - 1) * (r - 1) == n) | ((r + 1) * (r + 1) == n)


def _quad_int_roots(a, b, c, lo, hi):
    """Integer roots of a t^2 + b t + c = 0 with lo <= t <= hi."""
    if a == 0:
        if b == 0:
            return list(range(lo, hi + 1)) if c == 0 else []
        t, rem = divmod(-c, b)
        return [t] if rem == 0 and lo <= t <= hi else []
    disc = b * b - 4 * a * c
    r = _int_sqrt(disc)
    if r is None:
        return []
    out = []
    for num in (-b + r, -b - r):
        if num % (2 * a) == 0 and lo <= num // (2 * a) <= hi:
            out.append(num // (2 * a))
    return sorted(set(out))


@dataclass(frozen=True)
class GenericDirection:
    """A positive-square direction in span(T)."""

    coords: tuple  # coordinates in L (Fractions when normalized)
    square: Fraction
    normalized: bool


def generic_direction(L: GramLattice, T_basis) -> GenericDirection:
    """Positive-square k in span(T_basis), found exactly.

    k is the P column of the first positive pivot of the diagonalization
    P^T G P of the Gram of T_basis, times lcm(4, its denominators): so k is
    an integer combination of T_basis and k . k = scale^2 * pivot > 0.
    Rescaled to square 1 when the square is a rational square, otherwise
    returned unnormalized with its square.  Raises InputError when the span
    holds no positive-square vector.
    """
    T = _rows(L, T_basis)
    base = next((col for piv, col in _congruence_diagonalization(
        _gram(L, T, T)) if piv > 0), None)
    if base is None:
        raise InputError("span contains no positive-square vector")
    scale = math.lcm(4, *(c.denominator for c in base))
    vec = np.array([int(scale * c) for c in base], dtype=object) @ T
    sq = int(vec @ L.gram @ vec)
    root = _int_sqrt(sq)
    if root is not None:
        return GenericDirection(coords=tuple(Fraction(int(v), root)
                                             for v in vec),
                                square=Fraction(1), normalized=True)
    return GenericDirection(coords=tuple(int(v) for v in vec),
                            square=Fraction(sq), normalized=False)
