"""Independent checks of every benchmark item's output.

Nothing here calls cone_forge.  Expected values come from closed forms
(manufactured edge solutions, Stenzel profiles, K_mu/I_mu limits), from
scipy (Bessel values, Green-kernel and coefficient integrals), and from
brute force (harmonic-polynomial dimensions, lattice enumeration, residue
tables mod m, integer solvability by determinantal divisors).  Each check
returns ``(ok, ratio, note)``; ``ratio`` is the worst measured error over
its tolerance (<= 1 passes), or None where the check is exact.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy import integrate, special

import inputs

RECOVERY_TOL = 1e-6       # criterion 5
EDGE_REL_TOL = 1e-6       # split solution and captured coefficient vs scipy
KERNEL_TOL = 1e-8         # criterion 5
BESSEL_SCIPY_TOL = 2e-11  # the suite's scipy cross-check
G2_TOL = 1e-6             # criterion 1
G2_SLOPE_TOL = 0.2
MA_TOL = {"ma-cone": 1e-4, "ma-smooth": 1e-3}  # criterion 3
PROFILE_TOL = 1e-8        # criterion 2
BRUTE_FORCE_MAX_BOUND = 60


def _verdict(ratio, note=""):
    return ratio <= 1.0, ratio, note


# ---------------------------------------------------------------------------
# edge


@lru_cache(maxsize=None)
def _grid(num):
    return inputs.log_grid(num)


def recovery(params, result):
    r = _grid(inputs.RECOVERY_POINTS)
    ystar, _ = inputs.manufactured(params["n"], params["mu"])
    err = float(np.max(np.abs(result["y"] - ystar(r))))
    return _verdict(err / RECOVERY_TOL, f"max |y - y*| = {err:.2e}")


def _quad(f, lo, hi):
    if hi <= lo:
        return 0.0
    return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]


def _captured(p):
    """c = (1/n) int K_mu(n s) z(s) ds/s by scipy quadrature."""
    n, mu, a, b = p["n"], p["mu"], p["a"], p["b"]
    z = inputs.bump(a, b, p["amp"])
    return _quad(lambda s: special.kv(mu, n * s) * z(s) / s, a, b) / n


def split(params, result):
    """y at sample radii by the I/K Green formula, and c_low, via scipy."""
    n, mu, a, b = params["n"], params["mu"], params["a"], params["b"]
    z = inputs.bump(a, b, params["amp"])
    grid = _grid(inputs.EDGE_POINTS)
    idx = np.unique(np.searchsorted(grid, [1e-4, 0.5 * a, a + 0.3 * (b - a),
                                           0.5 * (a + b), b - 0.2 * (b - a),
                                           0.5 * (1 + b), 0.99]))
    want = []
    for r in grid[idx]:  # exponentially scaled factors keep n = 50 finite
        t1 = _quad(lambda s: special.kve(mu, n * s) * np.exp(n * (r - s))
                   * z(s) / s, max(r, a), b)
        t2 = _quad(lambda s: special.ive(mu, n * s) * np.exp(n * (s - r))
                   * z(s) / s, a, min(r, b))
        want.append(-special.ive(mu, n * r) * t1 - special.kve(mu, n * r) * t2)
    want = np.array(want)
    err_y = float(np.max(np.abs(result["y"][idx] - want)) / np.max(np.abs(want)))
    c = _captured(params)
    err_c = abs(result["c_low"] - c) / abs(c)
    return _verdict(max(err_y, err_c) / EDGE_REL_TOL,
                    f"y rel err {err_y:.2e}, c_low rel err {err_c:.2e}")


def bound(params, result):
    """|c| <= bound must hold, and |c| must match the scipy coefficient."""
    lhs, rhs = result["lhs"], result["rhs"]
    c = abs(_captured(params))
    err_c = abs(lhs - c) / c
    return _verdict(max(lhs / rhs, err_c / EDGE_REL_TOL),
                    f"|c|/bound = {lhs / rhs:.3g}, |c| rel err {err_c:.2e}")


def kernel(params, result):
    """2 n_max modes, n = +-1..+-n_max, residuals and small-x limits.

    Near 0, x K_1(x) -> 1 (error below 1e-11 at x <= 1e-6) and
    K_0(x) / (-log x) -> 1 (within 0.05 there, as in criterion 4).
    """
    modes = result["modes"]
    n_max = params["n_max"]
    expect = {s * k for k in range(1, n_max + 1) for s in (1, -1)}
    if len(modes) != 2 * n_max or {m[0] for m in modes} != expect:
        return False, None, f"mode list {[m[0] for m in modes]}"
    worst_res = max(max(m[1:4]) for m in modes)
    worst_inv = max(abs(m[5] - 1.0) for m in modes)
    worst_log = max(abs(m[4] - 1.0) for m in modes)
    return _verdict(max(worst_res / KERNEL_TOL, worst_inv / 1e-6,
                        worst_log / 0.05),
                    f"worst residual {worst_res:.2e}")


def bessel_vs_scipy(side):
    x = side["x"]
    worst = 0.0
    for mu, (k, i) in side["values"].items():
        worst = max(worst, float(np.max(np.abs(k / special.kv(mu, x) - 1))),
                    float(np.max(np.abs(i / special.iv(mu, x) - 1))))
    return _verdict(worst / BESSEL_SCIPY_TOL, f"max rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# geometry


def g2_residual(params, result):
    """Residual at h = 1e-4 within tolerance, order 2 under h-refinement."""
    res = np.array(result["res"])
    if np.any(res <= 0):
        return False, None, f"non-positive residual {res}"
    slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(res), 1)[0]
    return _verdict(max(res[-1] / G2_TOL, abs(slope - 2.0) / G2_SLOPE_TOL),
                    f"residual {res[-1]:.2e}, slope {slope:.3f}")


def monge_ampere(kind):
    def check(params, result):
        return _verdict(result["res"] / MA_TOL[kind],
                        f"residual {result['res']:.2e}")
    return check


def profile(params, result):
    w, fp = result["w"], result["fprime"]
    if result["f0"] != 0.0 or fp[0] != 0.0:
        return False, None, "f(0) or f'(0) is not 0"
    want = inputs.profile_fprime(params["n"], w[1:])
    err = float(np.max(np.abs(fp[1:] - want) / want))
    return _verdict(err / PROFILE_TOL, f"f' rel err {err:.2e}")


@lru_cache(maxsize=None)
def harmonic_dim(k, nvars=6):
    """dim of harmonic degree-k polynomials in nvars variables, by rank."""
    monos = list(itertools.combinations_with_replacement(range(nvars), k))
    if k < 2:
        return len(monos)
    rows = {m: i for i, m in enumerate(
        itertools.combinations_with_replacement(range(nvars), k - 2))}
    lap = np.zeros((len(rows), len(monos)))
    for col, m in enumerate(monos):
        for v in set(m):
            e = m.count(v)
            if e >= 2:
                rest = list(m)
                rest.remove(v)
                rest.remove(v)
                lap[rows[tuple(rest)], col] += e * (e - 1)
    return len(monos) - int(np.linalg.matrix_rank(lap))


def rates(params, result):
    """Round S5: the function mode of degree k gives rates k and -(k+4),
    each with the harmonic-polynomial dimension; the data lists k <= 6."""
    lo, hi = params["window"]
    want = {}
    for k in range(7):
        for lam in (float(k), float(-k - 4)):
            if lo < lam < hi:
                want[lam] = harmonic_dim(k)
    got = dict(result["rates"])
    return got == want, None, "" if got == want else f"{got} != {want}"


# ---------------------------------------------------------------------------
# lattice


def _system(spec):
    """Gram matrix, constraint rows and values of a search, from the paper."""
    if spec["span"] == "matching":
        gram = inputs.MATCHING_GRAM
        rows = {name: gram[i] for i, name in enumerate(inputs.MATCHING_NAMES)}
    else:  # multiples of C1 in a hyperbolic plane: C1.C1 = 0, B1.C1 = 1
        gram = np.zeros((2, 2), dtype=np.int64)
        rows = {"B1": np.array(spec["c1_multiples"], dtype=np.int64)}
    M = np.array([rows[w] for w, _ in spec["dots"]], dtype=np.int64)
    d = np.array([v for _, v in spec["dots"]], dtype=np.int64)
    return gram, M.reshape(len(d), len(gram)), d


def _box(values, k):
    return np.stack(np.meshgrid(*[values] * k, indexing="ij"), -1).reshape(-1, k)


def _satisfying(points, gram, M, d, square, modulus=None):
    sq = np.einsum("pi,ij,pj->p", points, gram, points)
    lin = points @ M.T
    if modulus is None:
        return points[(sq == square) & np.all(lin == d, axis=1)]
    return points[(sq % modulus == square % modulus)
                  & np.all(lin % modulus == d % modulus, axis=1)]


def _det(A):
    n = len(A)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        inv = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inv * math.prod(int(A[i][perm[i]]) for i in range(n))
    return total


def _minor_gcd(A, t):
    rows, cols = A.shape
    g = 0
    for ri in itertools.combinations(range(rows), t):
        for ci in itertools.combinations(range(cols), t):
            g = math.gcd(g, _det(A[np.ix_(ri, ci)]))
    return g


def _rank(A):
    return max((t for t in range(1, min(A.shape) + 1) if _minor_gcd(A, t)),
               default=0)


def linear_solvable(M, d):
    """Integer solvability of M x = d: equal rank r and equal gcd of r x r
    minors for M and [M | d] (Heger's criterion)."""
    aug = np.column_stack([M, d])
    r = _rank(M)
    return r == _rank(aug) and _minor_gcd(M, r) == _minor_gcd(aug, r)


def _certificate_valid(modulus, gram, M, d, square):
    if modulus == 0:  # "linear constraints unsolvable over Z"
        return not linear_solvable(M, d)
    residues = _box(np.arange(modulus, dtype=np.int64), len(gram))
    return len(_satisfying(residues, gram, M, d, square, modulus)) == 0


def lattice(spec, result):
    gram, M, d = _system(spec)
    sols = {tuple(s) for s in result["solutions"]}
    cert = result["cert"]
    small = spec["bound"] <= BRUTE_FORCE_MAX_BOUND
    if small:
        b = spec["bound"]
        points = _box(np.arange(-b, b + 1, dtype=np.int64), len(gram))
        want = {tuple(int(v) for v in p)
                for p in _satisfying(points, gram, M, d, spec["square"])}
        if cert is not None and want:
            return False, None, (f"false UNSAT: brute force finds {len(want)} "
                                 f"solutions, e.g. {max(want)}")
    if cert is not None and not _certificate_valid(cert, gram, M, d,
                                                   spec["square"]):
        return False, None, f"certificate modulus {cert} does not hold"
    if small:
        return sols == want, None, f"{len(sols)} solutions vs {len(want)}"
    # too large to enumerate: a valid certificate proves the set empty
    proven_empty = cert is not None or not linear_solvable(M, d) or any(
        _certificate_valid(m, gram, M, d, spec["square"]) for m in range(2, 17))
    return proven_empty and not sols, None, (
        "UNSAT proved independently" if proven_empty else "oracle undecided")


# ---------------------------------------------------------------------------


CHECKS = {
    "recovery": recovery, "split": split, "bound": bound, "kernel": kernel,
    "g2": g2_residual, "ma-cone": monge_ampere("ma-cone"),
    "ma-smooth": monge_ampere("ma-smooth"), "profile": profile,
    "rates": rates, "planted": lattice, "certified": lattice,
    "elliptic": lattice, "satisfiable": lattice,
}


def check_items(items):
    """(ok, ratio, note) per item; a raised error fails the item.

    cli-readme commands pass when they exit 0 and print the same stdout (and
    write the same output file) as the first run of that command in the run.
    """
    first = {}
    out = []
    for it in items:
        res = it["result"]
        if it["error"] is not None:
            out.append((False, None, it["error"]))
        elif it["kind"] == "cmd":
            key = (res["stdout"], res["file"])
            first.setdefault(it["name"], key)
            if res["rc"] != 0:
                out.append((False, None, f"exit {res['rc']}: "
                            + res["stderr"].decode(errors="replace")[-300:]))
            elif key != first[it["name"]]:
                out.append((False, None, "output differs from the first run"))
            else:
                out.append((True, None, ""))
        else:
            out.append(CHECKS[it["kind"]](it["params"], res))
    return out
