"""Constant-coefficient exterior algebra on R^7 for 3-form geometry.

A k-form is stored as a coefficient vector over the increasing k-tuples of
{0,...,6} in lexicographic order.  The distinguished 3-form

    phi0 = e123 + e145 + e167 + e246 - e257 - e347 - e356

induces a metric g through  g(u,v) Vol = (1/6) (u . phi) ^ (v . phi) ^ phi,
its Hodge dual theta(phi), and the 1 + 7 + 27 splitting of 3-forms.  All
operations are pure functions of dense numpy arrays.

The metric and theta(phi) = *_phi phi have one implementation, a stacked
pass over an (s, 35) array of forms: the metrics of every row from batched
products and one det and Cholesky call, then theta by raising the indices
of the dense (s, 7, 7, 7) tensors with three batched 7x7 products.
induced_metric, theta and projector_matrices are its stack of one, and
linearization_residual evaluates all of phi0 +- h*gamma as one stack.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "Metric7",
    "FormDecomposition",
    "PHI0",
    "form_dim",
    "combo_index",
    "induced_metric",
    "theta",
    "project_3form",
    "projector_matrices",
    "linearization_residual",
    "random_unit_3form",
]


COMBOS = {k: tuple(itertools.combinations(range(7), k)) for k in range(8)}
_COMBO_INDEX = {k: {c: i for i, c in enumerate(COMBOS[k])} for k in range(8)}


def form_dim(k: int) -> int:
    return len(COMBOS[k])


def combo_index(indices: tuple[int, ...]) -> int:
    return _COMBO_INDEX[len(indices)][tuple(sorted(indices))]


def _perm_sign(seq) -> int:
    """Sign of the permutation that sorts seq, whose entries are distinct."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# the one multiplication table

@functools.cache
def _wedge_tensor(k: int, l: int) -> np.ndarray:
    """Signs W[a, b, c] with e_A ^ e_B = W[a, b, c] e_C over increasing
    tuples A, B, C of lengths k, l, k + l; built on first use.

    Every product below reads it: W(1, k - 1) is the interior product on
    k-forms, and the slice W(k, 7 - k)[:, :, 0] pairs each k-tuple with its
    complement and the sign of the Hodge star.
    """
    W = np.zeros((form_dim(k), form_dim(l), form_dim(k + l)))
    for a, ca in enumerate(COMBOS[k]):
        for b, cb in enumerate(COMBOS[l]):
            if not set(ca) & set(cb):
                W[a, b, combo_index(ca + cb)] = _perm_sign(ca + cb)
    W.setflags(write=False)
    return W


def _compound(A: np.ndarray, k: int) -> np.ndarray:
    """k-th exterior power: entries det(A[I, J]) over increasing k-tuples."""
    if k == 0:
        return np.ones((1, 1))
    combos = np.array(COMBOS[k])
    n = len(combos)
    blocks = A[combos[:, None, :, None], combos[None, :, None, :]]
    return np.linalg.det(blocks.reshape(n, n, k, k))


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class Metric7:
    """Metric induced by a nondegenerate 3-form; vol**9 = det(B)."""

    g: np.ndarray
    vol: float


@dataclass(frozen=True)
class FormDecomposition:
    """g-orthogonal components of a 3-form: multiples of phi, X . *phi, rest."""

    pi1: np.ndarray
    pi7: np.ndarray
    pi27: np.ndarray


def _phi0() -> np.ndarray:
    phi = np.zeros(35)
    for triple, sign in [((0, 1, 2), 1), ((0, 3, 4), 1), ((0, 5, 6), 1),
                         ((1, 3, 5), 1), ((1, 4, 6), -1), ((2, 3, 6), -1),
                         ((2, 4, 5), -1)]:
        phi[combo_index(triple)] = sign
    return phi


PHI0 = _phi0()
PHI0.setflags(write=False)
_DET_TOL = 1e-12  # the smallest det(B) that a metric is built from


def _metrics(phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Metrics (s, 7, 7) and volumes (s,) of an (s, 35) stack of 3-forms,
    one array pass for the whole stack.

    B_ij e^{1..7} = (1/6)(e_i . phi)^(e_j . phi)^phi is g * vol with
    det(B) = vol**9, so g = B / det(B)**(1/9).  InputError if any row
    has a det(B) that is not finite and above _DET_TOL (degenerate,
    orientation-reversing, or a NaN or infinite coefficient), or else a B
    that is not positive definite.
    """
    # a huge or non-finite coefficient overflows here; det(B) refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        iota = (phis @ _wedge_tensor(1, 2).reshape(147, 35).T).reshape(-1, 7, 21)
        # pair[a, b]: top coefficient of e_a ^ e_b ^ phi for 2-tuples a, b;
        # adding X to its transpose keeps B exactly symmetric
        pair = ((phis @ _wedge_tensor(4, 3)[:, :, 0].T)
                @ _wedge_tensor(2, 2).reshape(441, 35).T).reshape(-1, 21, 21)
        X = iota @ pair @ iota.transpose(0, 2, 1)
        B = (X + X.transpose(0, 2, 1)) / 12.0
        det = np.linalg.det(B)
    bad = ~(np.isfinite(det) & (det > _DET_TOL))
    if bad.any():
        raise InputError(
            f"det(B) = {det[bad][0]:.3e} is not finite and positive")
    vol = det ** (1.0 / 9.0)
    g = B / vol[:, None, None]
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        # split-type forms can reach det(B) > 0 with signature (3,4)
        raise InputError("bilinear form is indefinite") from None
    return g, vol


def induced_metric(phi: np.ndarray) -> Metric7:
    """Metric and volume of phi, _metrics on a stack of one: InputError for
    a degenerate, orientation-reversing, indefinite or non-finite phi."""
    g, vol = _metrics(np.asarray(phi, dtype=float)[None])
    return Metric7(g=g[0], vol=float(vol[0]))


@functools.cache
def _dense_3() -> tuple[np.ndarray, np.ndarray]:
    """Signs S with (S @ phi).reshape(7, 7, 7) the antisymmetric tensor of
    a 3-form phi, read off e_i ^ e_j ^ e_k = W(1, 1) W(2, 1); and the flat
    positions 49 i + 7 j + k of the increasing triples.  Built on first use.
    """
    S = np.tensordot(_wedge_tensor(1, 1), _wedge_tensor(2, 1), 1)
    S = S.reshape(343, form_dim(3))
    S.setflags(write=False)
    increasing = np.array([49 * i + 7 * j + k for i, j, k in COMBOS[3]])
    increasing.setflags(write=False)
    return S, increasing


def _thetas(phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta of each row of an (s, 35) stack, and the metrics, from one
    _metrics pass.

    The indices of phi are raised on its dense (7, 7, 7) tensor, one batched
    7x7 product with inv(g) per slot, and the raised coefficients are read
    back at the increasing triples: the same numbers as
    _compound(inv(g), 3) @ phi without its 1225 3x3 determinants.
    """
    g, _ = _metrics(phis)
    S, increasing = _dense_3()
    G = np.linalg.inv(g)[:, None]                   # one per slice of T
    T = (phis @ S.T).reshape(-1, 7, 7, 7)
    T = G @ T                                       # [a, j, c]: slot j raised
    T = T @ G.transpose(0, 1, 3, 2)                 # [a, j, k]: slot k raised
    T = G[:, 0] @ T.reshape(-1, 7, 49)              # [i, (j, k)]: slot i raised
    raised = T.reshape(-1, 343)[:, increasing]
    root_det = np.sqrt(np.linalg.det(g))[:, None]
    return root_det * (raised @ _wedge_tensor(3, 4)[:, :, 0]), g


def theta(phi: np.ndarray) -> np.ndarray:
    """Hodge dual of phi in its own induced metric (a 4-form)."""
    return _thetas(np.asarray(phi, dtype=float)[None])[0][0]


def projector_matrices(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three 35x35 projector matrices (ranks 1, 7, 27): P1 and P7 are the
    orthogonal projections onto phi and onto the span W of the e_i . *phi."""
    star_phi, g = _thetas(np.asarray(phi, dtype=float)[None])
    M = _compound(np.linalg.inv(g[0]), 3)
    P1 = np.outer(phi, phi @ M) / (phi @ M @ phi)
    W = np.einsum("iab,b->ai", _wedge_tensor(1, 3), star_phi[0])
    P7 = W @ np.linalg.solve(W.T @ M @ W, W.T @ M)
    return P1, P7, np.eye(35) - P1 - P7


def project_3form(phi: np.ndarray, gamma: np.ndarray) -> FormDecomposition:
    """Split gamma into the 1-, 7-, 27-dimensional pieces determined by phi."""
    P1, P7, _ = (_phi0_projectors() if np.array_equal(phi, PHI0)
                 else projector_matrices(phi))
    pi1, pi7 = P1 @ gamma, P7 @ gamma
    return FormDecomposition(pi1=pi1, pi7=pi7, pi27=gamma - pi1 - pi7)


@functools.cache
def _phi0_projectors() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """projector_matrices(PHI0), built on first use."""
    projectors = projector_matrices(PHI0)
    for P in projectors:
        P.setflags(write=False)
    return projectors


@functools.cache
def _linearization_matrix() -> np.ndarray:
    """*0 ((4/3) P1 + P7 - P27) at PHI0, built on first use."""
    P1, P7, P27 = _phi0_projectors()
    star0 = _wedge_tensor(3, 4)[:, :, 0].T  # the flat star on 3-forms
    L = star0 @ ((4.0 / 3.0) * P1 + P7 - P27)
    L.setflags(write=False)
    return L


def linearization_residual(gamma: np.ndarray,
                           h: float = 1e-4) -> float | np.ndarray:
    """Norm of the central difference of theta at phi0 minus the candidate
    derivative *0 ((4/3) pi1 + pi7 - pi27) gamma, with the flat star *0.

    O(h**2) for every gamma; InputError if phi0 +- h*gamma leaves the
    positive cone.  gamma is one direction (a float is returned) or a
    (k, 35) stack of them (k residuals); the 2k forms phi0 +- h*gamma go
    through one theta pass.
    """
    gammas = np.asarray(gamma, dtype=float)
    rows = gammas.reshape(-1, 35)
    steps = h * rows
    th, _ = _thetas(np.concatenate((PHI0 + steps, PHI0 - steps)))
    diff = (th[:len(rows)] - th[len(rows):]) / (2.0 * h)
    res = np.linalg.norm(diff - rows @ _linearization_matrix().T, axis=1)
    return float(res[0]) if gammas.ndim == 1 else res


def random_unit_3form(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(35)
    return v / np.linalg.norm(v)
