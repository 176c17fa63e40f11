"""Constant-coefficient exterior algebra on R^7 for 3-form geometry.

A k-form is stored as a coefficient vector over the increasing k-tuples of
{0,...,6} in lexicographic order.  The distinguished 3-form

    phi0 = e123 + e145 + e167 + e246 - e257 - e347 - e356

induces a metric g through  g(u,v) Vol = (1/6) (u . phi) ^ (v . phi) ^ phi,
a Hodge star, and the 1 + 7 + 27 splitting of 3-forms.  All operations are
pure functions of dense numpy arrays.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateForm",
    "NonPositiveMetric",
    "Metric7",
    "FormDecomposition",
    "PHI0",
    "form_dim",
    "combo_index",
    "evaluate_form",
    "wedge",
    "contract",
    "pullback",
    "induced_metric",
    "hodge_star",
    "theta",
    "project_3form",
    "projector_matrices",
    "linearization_candidate",
    "linearization_residual",
    "g2_lie_algebra_basis",
    "random_unit_3form",
]


class DegenerateForm(ValueError):
    """The 3-form does not induce a positive metric in the fixed orientation."""


class NonPositiveMetric(ValueError):
    """Hodge star requested for a metric that is not positive definite."""


COMBOS = {k: tuple(itertools.combinations(range(7), k)) for k in range(8)}
_COMBO_INDEX = {k: {c: i for i, c in enumerate(COMBOS[k])} for k in range(8)}


def form_dim(k: int) -> int:
    return len(COMBOS[k])


def combo_index(indices: tuple[int, ...]) -> int:
    return _COMBO_INDEX[len(indices)][tuple(sorted(indices))]


def _perm_sign(seq) -> int:
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def evaluate_form(coeffs: np.ndarray, k: int, indices) -> float:
    """Value on an arbitrary index tuple via the antisymmetric extension."""
    sign = _perm_sign(indices)
    if sign == 0:
        return 0.0
    return sign * coeffs[combo_index(tuple(indices))]


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


def wedge(a: np.ndarray, k: int, b: np.ndarray, l: int) -> np.ndarray:
    """Wedge product of a k-form and an l-form."""
    return np.einsum("a,b,abc->c", a, b, _wedge_tensor(k, l))


def contract(u: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Interior product u . b of a vector with a k-form."""
    return np.einsum("i,iab,b->a", u, _wedge_tensor(1, k - 1), b)


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


def induced_metric(phi: np.ndarray, tol: float = 1e-12) -> Metric7:
    """Metric and volume from  B_ij e^{1..7} = (1/6)(e_i . phi)^(e_j . phi)^phi.

    B = g * vol with det(B) = vol**9, so g = B / det(B)**(1/9).  Inputs with
    det(B) <= tol (degenerate or orientation-reversing), or with a det(B)
    that is not finite (a NaN or infinite coefficient), are rejected.
    """
    iota = np.einsum("iab,b->ia", _wedge_tensor(1, 2), phi)
    # pair[a, b]: top coefficient of e_a ^ e_b ^ phi for 2-tuples a, b;
    # adding X to its transpose keeps B exactly symmetric
    pair = _wedge_tensor(2, 2) @ (_wedge_tensor(4, 3)[:, :, 0] @ phi)
    X = iota @ pair @ iota.T
    B = (X + X.T) / 12.0
    det = np.linalg.det(B)
    if not (math.isfinite(det) and det > tol):
        raise DegenerateForm(f"det(B) = {det:.3e} is not finite and positive")
    vol = det ** (1.0 / 9.0)
    g = B / vol
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        # split-type forms can reach det(B) > 0 with signature (3,4)
        raise DegenerateForm("bilinear form is indefinite") from None
    return Metric7(g=g, vol=vol)


def hodge_star(metric: Metric7, form: np.ndarray, k: int) -> np.ndarray:
    """Hodge star of a k-form for the orientation e^{1..7} positive."""
    g = metric.g
    if not np.allclose(g, g.T):
        raise NonPositiveMetric("metric is not symmetric")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise NonPositiveMetric("metric is not positive definite") from None
    return _star(g, _compound(np.linalg.inv(g), k) @ form, k)


def _star(g: np.ndarray, raised: np.ndarray, k: int) -> np.ndarray:
    """Hodge star of a k-form given its raised coefficients
    _compound(inv(g), k) @ form; g must be positive definite already."""
    complement = _wedge_tensor(k, 7 - k)[:, :, 0]
    return math.sqrt(np.linalg.det(g)) * raised @ complement


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


def theta(phi: np.ndarray) -> np.ndarray:
    """Hodge dual of phi in its own induced metric (a 4-form).

    The indices of phi are raised on its dense (7, 7, 7) tensor, one 7x7
    contraction with inv(g) per slot, and the raised coefficients are read
    back at the increasing triples: the same numbers as
    _compound(inv(g), 3) @ phi without its 1225 3x3 determinants.
    """
    metric = induced_metric(phi)
    S, increasing = _dense_3()
    G = np.linalg.inv(metric.g)
    T = G @ (S @ phi).reshape(7, 7, 7)          # [a, j, c]: slot j raised
    T = np.tensordot(T, G, ([2], [1]))          # [a, j, k]: slot k raised
    T = np.tensordot(G, T, 1)                   # [i, j, k]: slot i raised
    return _star(metric.g, T.reshape(343)[increasing], 3)


def projector_matrices(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three 35x35 projector matrices (ranks 1, 7, 27): P1 and P7 are the
    orthogonal projections onto phi and onto the span W of the e_i . *phi."""
    metric = induced_metric(phi)
    M = _compound(np.linalg.inv(metric.g), 3)
    P1 = np.outer(phi, phi @ M) / (phi @ M @ phi)
    W = np.einsum("iab,b->ai", _wedge_tensor(1, 3),
                  _star(metric.g, M @ phi, 3))
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


def linearization_candidate(gamma: np.ndarray) -> np.ndarray:
    """(4/3) * pi1(gamma) + * pi7(gamma) - * pi27(gamma) at the model point.

    The star acts by the flat metric of phi0; this is the 4-form-valued
    derivative of theta at phi0.
    """
    return _linearization_matrix() @ gamma


def linearization_residual(gamma: np.ndarray, h: float = 1e-4) -> float:
    """Norm of the central difference of theta at phi0 minus the candidate.

    O(h**2) for every gamma; DegenerateForm if phi0 +- h*gamma leaves the
    positive cone.
    """
    diff = (theta(PHI0 + h * gamma) - theta(PHI0 - h * gamma)) / (2.0 * h)
    return float(np.linalg.norm(diff - linearization_candidate(gamma)))


def pullback(A: np.ndarray, form: np.ndarray, k: int) -> np.ndarray:
    """Pullback of a k-form by the linear map A (A*e^j = sum_i A_ji e^i)."""
    P = _compound(A.T, k)
    return P.T @ form


def g2_lie_algebra_basis() -> np.ndarray:
    """Basis of the 14-dimensional space of 2-forms a with a ^ *phi0 = 0.

    Exponentials of the corresponding antisymmetric matrices preserve phi0.
    Returns an array of shape (14, 21).
    """
    star_phi = PHI0 @ _wedge_tensor(3, 4)[:, :, 0]
    rows = np.einsum("abc,b->ac", _wedge_tensor(2, 4), star_phi)
    _, s, vt = np.linalg.svd(rows.T, full_matrices=True)
    null = vt[np.sum(s > 1e-10):]
    if null.shape[0] != 14:
        raise RuntimeError(f"g2 null space has dimension {null.shape[0]}, "
                           "not 14")
    return null


def two_form_to_matrix(a: np.ndarray) -> np.ndarray:
    """Antisymmetric matrix of a 2-form under the flat metric."""
    X = np.zeros((7, 7))
    for c, (i, j) in enumerate(COMBOS[2]):
        X[i, j] = a[c]
        X[j, i] = -a[c]
    return X


def random_unit_3form(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(35)
    return v / np.linalg.norm(v)
