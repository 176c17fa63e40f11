"""Constant-coefficient exterior algebra on R^7 for 3-form geometry.

A k-form is stored as a coefficient vector over the increasing k-tuples of
{0,...,6} in lexicographic order.  The distinguished 3-form

    phi0 = e123 + e145 + e167 + e246 - e257 - e347 - e356

induces a metric g through  g(u,v) Vol = (1/6) (u . phi) ^ (v . phi) ^ phi,
a Hodge star, and the 1 + 7 + 27 splitting of 3-forms.  All operations are
pure functions of dense numpy arrays.
"""

from __future__ import annotations

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
# precomputed multiplication tables

def _wedge_table(k: int, l: int):
    rows, cols, outs, signs = [], [], [], []
    for a, ca in enumerate(COMBOS[k]):
        sa = set(ca)
        for b, cb in enumerate(COMBOS[l]):
            if sa & set(cb):
                continue
            sign = _perm_sign(ca + cb)
            rows.append(a)
            cols.append(b)
            outs.append(combo_index(ca + cb))
            signs.append(sign)
    return (np.array(rows), np.array(cols), np.array(outs),
            np.array(signs, dtype=float))


_WEDGE = {}
for _k in range(8):
    for _l in range(8 - _k):
        _WEDGE[(_k, _l)] = _wedge_table(_k, _l)


def wedge(a: np.ndarray, k: int, b: np.ndarray, l: int) -> np.ndarray:
    """Wedge product of a k-form and an l-form."""
    rows, cols, outs, signs = _WEDGE[(k, l)]
    out = np.zeros(form_dim(k + l))
    np.add.at(out, outs, signs * a[rows] * b[cols])
    return out


def _contract_tensor(k: int) -> np.ndarray:
    """T[i] maps k-form coefficients to (e_i . form) coefficients."""
    T = np.zeros((7, form_dim(k - 1), form_dim(k)))
    for c, combo in enumerate(COMBOS[k]):
        for pos, i in enumerate(combo):
            rest = combo[:pos] + combo[pos + 1:]
            T[i, combo_index(rest), c] = (-1.0) ** pos
    return T


_CONTRACT = {k: _contract_tensor(k) for k in range(1, 8)}


def contract(u: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Interior product u . b of a vector with a k-form."""
    return np.einsum("i,iab,b->a", u, _CONTRACT[k], b)


# complement index and sign for the Hodge star on each degree
_STAR_PERM = {}
_STAR_SIGN = {}
for _k in range(8):
    perm = np.empty(form_dim(_k), dtype=int)
    sgn = np.empty(form_dim(_k))
    for _c, _combo in enumerate(COMBOS[_k]):
        comp = tuple(i for i in range(7) if i not in _combo)
        perm[_c] = _COMBO_INDEX[7 - _k][comp]
        sgn[_c] = _perm_sign(_combo + comp)
    _STAR_PERM[_k] = perm
    _STAR_SIGN[_k] = sgn

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

_E7 = np.eye(7)


def induced_metric(phi: np.ndarray, tol: float = 1e-12) -> Metric7:
    """Metric and volume from  B_ij e^{1..7} = (1/6)(e_i . phi)^(e_j . phi)^phi.

    B = g * vol with det(B) = vol**9, so g = B / det(B)**(1/9).  Inputs with
    det(B) <= tol (degenerate or orientation-reversing) are rejected.
    """
    iota = np.einsum("iab,b->ia", _CONTRACT[3], phi)
    B = np.empty((7, 7))
    for i in range(7):
        w = wedge(iota[i], 2, phi, 3)  # 5-form, reused below
        for j in range(i, 7):
            B[i, j] = B[j, i] = wedge(iota[j], 2, w, 5)[0] / 6.0
    det = np.linalg.det(B)
    if det <= tol:
        raise DegenerateForm(f"det(B) = {det:.3e} is not positive")
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
    vol = math.sqrt(np.linalg.det(g))
    raised = _compound(np.linalg.inv(g), k) @ form
    out = np.zeros(form_dim(7 - k))
    out[_STAR_PERM[k]] = vol * _STAR_SIGN[k] * raised
    return out


def theta(phi: np.ndarray) -> np.ndarray:
    """Hodge dual of phi in its own induced metric (a 4-form)."""
    return hodge_star(induced_metric(phi), phi, 3)


def _inner_3(metric: Metric7) -> np.ndarray:
    return _compound(np.linalg.inv(metric.g), 3)


def project_3form(phi: np.ndarray, gamma: np.ndarray) -> FormDecomposition:
    """Split gamma into the 1-, 7-, 27-dimensional pieces determined by phi."""
    metric = induced_metric(phi)
    M = _inner_3(metric)
    pi1 = (phi @ M @ gamma) / (phi @ M @ phi) * phi
    star_phi = hodge_star(metric, phi, 3)
    W = np.stack([contract(_E7[i], star_phi, 4) for i in range(7)], axis=1)
    coeffs = np.linalg.solve(W.T @ M @ W, W.T @ M @ gamma)
    pi7 = W @ coeffs
    return FormDecomposition(pi1=pi1, pi7=pi7, pi27=gamma - pi1 - pi7)


def projector_matrices(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three 35x35 projector matrices (ranks 1, 7, 27)."""
    P1 = np.empty((35, 35))
    P7 = np.empty((35, 35))
    eye = np.eye(35)
    for c in range(35):
        dec = project_3form(phi, eye[c])
        P1[:, c] = dec.pi1
        P7[:, c] = dec.pi7
    return P1, P7, np.eye(35) - P1 - P7


_METRIC0 = Metric7(g=np.eye(7), vol=1.0)
_STAR0_3 = np.zeros((35, 35))
_STAR0_3[_STAR_PERM[3], np.arange(35)] = _STAR_SIGN[3]


def linearization_candidate(gamma: np.ndarray) -> np.ndarray:
    """(4/3) * pi1(gamma) + * pi7(gamma) - * pi27(gamma) at the model point.

    The star acts by the flat metric of phi0; this is the 4-form-valued
    derivative of theta at phi0.
    """
    dec = project_3form(PHI0, gamma)
    return _STAR0_3 @ ((4.0 / 3.0) * dec.pi1 + dec.pi7 - dec.pi27)


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
    star_phi = hodge_star(_METRIC0, PHI0, 3)
    rows = np.stack([wedge(np.eye(21)[c], 2, star_phi, 4) for c in range(21)])
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
