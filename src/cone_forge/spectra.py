"""Indicial-rate catalogs and index-change arithmetic for cone Laplacians.

Link eigendata is user-supplied: a spectrum lists Betti numbers h_0..h_5 of
the 5-dimensional link, coclosed eigenmode families (degree p, eigenvalue mu,
multiplicity), optional lower-bound constraint records, and per-degree
completeness bounds.  Harmonic modes (mu = 0) are implied by the Betti
numbers and never need listing.

From a spectrum the module produces the homogeneous harmonic-form catalog
on the 6-real-dimensional cone by the seven generator types

    T1  dr ^ d_F(phi_{p-2})          mu = (lam+p-2)(lam-p+6) != 0
    T2  dr ^ phi_{p-1}, mu = 0       lam = 2-p, lam != -2
    T3  dr ^ phi_{p-1}, mu = 0       lam = p-6
    T4  (lam+p) dr ^ phi + d_F phi   mu = (lam+p)(lam-p+6) != 0
    T5  -(lam-p+4) dr ^ phi + d_F phi  mu = (lam+p-2)(lam-p+4) != 0, lam != -2
    T6  phi_p, mu = 0                lam = -p
    T7  phi_p                        mu = (lam+p)(lam-p+4), lam != -p

(rates come in pairs -2 +- sqrt(mu_hat); a rate equal to -2 means mu_hat = 0
and carries one extra log r solution), the degree-specific 1-form and paired
2-/3-form catalogs, function rates for general complex dimension, and the
index-change count N(delta, delta') between non-critical weights.

Eigenvalues and constraint bounds are rational and held exactly (_exact),
so the zero test and every bound compare exactly, every rate is c +- sqrt(d)
with c, d rational, and every decision on it is exact: window membership, a
tie with a window or weight endpoint (an InputError, except at the closed
right end of the 1-form and paired catalogs, where the rate is kept), lambda
= -2 (log_mode, T5's exclusion) and T7's exclusion of lambda = -p.  A tie is
exact equality; floats (CriticalRate.lam, float(mu)) are for output only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InputError

__all__ = [
    "Mode",
    "ConstraintRecord",
    "LinkSpectrum",
    "CriticalRate",
    "WeightVector",
    "harmonic_rate_catalog",
    "one_form_catalog",
    "paired_catalog",
    "function_rates",
    "function_gap_report",
    "index_change",
    "load_spectrum",
    "shipped_spectrum",
    "spectrum_from_dict",
]

LINK_DIM = 5


# ---------------------------------------------------------------------------
# spectrum data


def _exact(value) -> int | Fraction:
    """An int, a float or a "p/q" string as the int or Fraction it equals;
    NaN, an infinity or a value beyond the float range is refused."""
    if isinstance(value, bool):  # Fraction reads it as 0 or 1
        raise TypeError(f"{value!r} is not a number")
    exact = value if isinstance(value, int) else Fraction(value)
    float(exact)  # printed and rooted as a float, so it must be one
    return exact


@dataclass(frozen=True)
class Mode:
    """One coclosed eigenmode family on the link; mu, given as _exact takes
    it, is held as an int or a Fraction.  InputError unless mult >= 1 and
    mu >= 0."""

    p: int
    mu: int | Fraction
    mult: int
    tag: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "mu", _exact(self.mu))
        if self.mult < 1:
            raise InputError("multiplicity must be >= 1")
        if self.mu < 0:
            raise InputError("negative eigenvalue")


@dataclass(frozen=True)
class ConstraintRecord:
    """Lower bound on nonzero eigenvalues of one degree (optionally tagged)."""

    p: int
    bound: int | Fraction | float
    strict: bool = True
    tag: str | None = None

    def allows(self, mode: Mode) -> bool:
        if mode.p != self.p or mode.mu == 0:
            return True
        if self.tag is not None and mode.tag != self.tag:
            return True
        return mode.mu > self.bound if self.strict else mode.mu >= self.bound


@dataclass(frozen=True)
class LinkSpectrum:
    """Betti numbers plus coclosed eigenmode data of the 5-dimensional link."""

    betti: tuple[int, ...]
    modes: tuple[Mode, ...] = ()
    constraints: tuple[ConstraintRecord, ...] = ()
    complete_below: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if len(self.betti) != LINK_DIM + 1 or any(h < 0 for h in self.betti):
            raise InputError("betti must be six non-negative integers")
        for p in range(LINK_DIM + 1):
            if self.betti[p] != self.betti[LINK_DIM - p]:
                raise InputError(
                    f"Poincare duality fails: h_{p} != h_{LINK_DIM - p}")
        for m in self.modes:
            if not 0 <= m.p <= LINK_DIM:
                raise InputError(f"mode degree {m.p} outside 0..5")
            if m.mu == 0 and m.mult != self.betti[m.p]:
                raise InputError(
                    f"mu = 0 in degree {m.p} must have multiplicity h_p "
                    f"= {self.betti[m.p]}")
            for rec in self.constraints:
                if not rec.allows(m):
                    raise InputError(
                        f"mode (p={m.p}, mu={float(m.mu)}) violates bound "
                        f"{'>' if rec.strict else '>='} {float(rec.bound)}")

    def coclosed(self, p: int) -> list[Mode]:
        """Modes of degree p; the harmonic family (mu = 0, mult h_p) implied
        by the Betti numbers is always included once."""
        if not 0 <= p <= LINK_DIM:
            return []
        out = []
        if self.betti[p] > 0:
            out.append(Mode(p=p, mu=0, mult=self.betti[p], tag="harmonic"))
        out.extend(m for m in self.modes if m.p == p and m.mu > 0)
        return sorted(out, key=lambda m: m.mu)

    def nonzero(self, p: int) -> list[Mode]:
        return [m for m in self.coclosed(p) if m.mu > 0]

    def completeness(self, p: int) -> float:
        return float(self.complete_below.get(p, 0.0))


def _entries(doc: dict, key: str, kind: str) -> list:
    """The list doc[key], empty when the key is absent, of JSON objects."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise InputError(f"{key!r} must be a list")
    for entry in entries:
        if not isinstance(entry, dict):
            raise InputError(f"malformed {kind} entry {entry!r}")
    return entries


def _integer(value) -> int:
    """value if it is a JSON integer; a float, a string or a bool is refused
    rather than truncated, as the config loader refuses it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def spectrum_from_dict(doc: dict) -> LinkSpectrum:
    """Validate a spectrum document.  An eigenvalue or bound that _exact
    refuses, or a completeness bound that is not finite, is an input error;
    so is a mode or constraint entry that is not a JSON object, a Betti
    number, degree or multiplicity that is not a JSON integer, and a
    `strict` that is not a JSON boolean."""
    if not isinstance(doc, dict):
        raise InputError("spectrum document must be a JSON object")
    try:
        betti = doc["betti"]
        if not isinstance(betti, list):
            raise TypeError(f"betti {betti!r} is not a list")
        betti = tuple(map(_integer, betti))
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise InputError("missing or malformed 'betti'") from exc
    modes = []
    for entry in _entries(doc, "coexact_modes", "mode"):
        try:
            p, mu = _integer(entry["p"]), _exact(entry["mu"])
            mult, tag = _integer(entry["mult"]), entry.get("tag")
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise InputError(f"malformed mode entry {entry!r}") from exc
        modes.append(Mode(p=p, mu=mu, mult=mult, tag=tag))
    constraints = []
    for entry in _entries(doc, "constraints", "constraint"):
        try:
            strict = entry.get("strict", True)
            if not isinstance(strict, bool):
                raise TypeError(f"strict {strict!r} is not a boolean")
            constraints.append(ConstraintRecord(
                p=_integer(entry["p"]), bound=_exact(entry["bound"]),
                strict=strict, tag=entry.get("tag")))
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise InputError(f"malformed constraint entry {entry!r}") from exc
    raw_cb = doc.get("complete_below", {})
    if not isinstance(raw_cb, (int, float, dict)):
        raise InputError("'complete_below' must be a number or an object")
    try:
        cb = ({int(k): float(v) for k, v in raw_cb.items()}
              if isinstance(raw_cb, dict)
              else dict.fromkeys(range(LINK_DIM + 1), float(raw_cb)))
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InputError("malformed 'complete_below'") from exc
    if not all(0 <= v < math.inf for v in cb.values()):
        raise InputError("a completeness bound must be finite and >= 0")
    return LinkSpectrum(betti=betti, modes=tuple(modes),
                        constraints=tuple(constraints), complete_below=cb,
                        name=str(doc.get("name", "")))


def shipped_spectrum(name: str) -> LinkSpectrum:
    """One of the packaged spectra: "s5" or "s2xs3_partial"."""
    from importlib import resources
    ref = resources.files("cone_forge").joinpath("data", f"{name}.json")
    return spectrum_from_dict(json.loads(ref.read_text()))


def load_spectrum(path) -> LinkSpectrum:
    """Read and validate a spectrum JSON file; bare shipped names work too.

    A file that does not decode as UTF-8, does not parse or nests too deeply
    is an input error.
    """
    import os
    if not os.path.exists(path) and str(path).isidentifier():
        try:
            return shipped_spectrum(str(path))
        except FileNotFoundError:
            pass
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return spectrum_from_dict(doc)


# ---------------------------------------------------------------------------
# critical rates


class _Surd:
    """The real number c + s*sqrt(d), held exactly.

    c and d are rational and s is -1, 0 or +1; s != 0 only when d > 0 is not
    a rational square, so such a surd is irrational and equals no rational.
    It compares with an int, a Fraction or a non-NaN float, each taken
    exactly, by one sign test and one exact squaring.
    """

    __slots__ = ("c", "d", "s")

    def __init__(self, c, d=0, s=0):
        self.c, self.d, self.s = c, d, s

    def cmp(self, q) -> int:
        """The sign of self - q."""
        if not self.s:
            return (self.c > q) - (self.c < q)
        if math.isinf(q):
            return -1 if q > 0 else 1
        (qn, qd), (cn, cd) = q.as_integer_ratio(), self.c.as_integer_ratio()
        tn, td = cn * qd - qn * cd, cd * qd  # self.c - q = tn / td, td > 0
        if tn == 0 or (tn > 0) == (self.s > 0):
            return self.s
        dn, dd = self.d.as_integer_ratio()
        return self.s if dn * td * td > tn * tn * dd else -self.s

    def __eq__(self, q):
        return not self.s and self.c == q


@dataclass(frozen=True)
class CriticalRate:
    """A rate lambda with degree, multiplicity and generator type.

    log_mode means mu_hat = 0 (lambda = -2 exactly): the generator is paired
    with one extra log r solution, so the dimension it contributes doubles.
    root is the exact rate that every comparison reads, and lam its float,
    for printing; left unset, root is lam taken exactly.
    """

    lam: float
    degree: int
    multiplicity: int
    gen_type: str
    log_mode: bool = False
    root: _Surd | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.root is None:
            object.__setattr__(self, "root", _Surd(self.lam))

    @property
    def dim(self) -> int:
        return self.multiplicity * (2 if self.log_mode else 1)


@dataclass(frozen=True)
class WeightVector:
    """Weights at the cone points plus the cylinder-end weight.

    The sign convention keeps growth r^delta at cone points and e^{-delta t}
    on the end (the Lockhart-McOwen delta is multiplied by -1).
    """

    cone_weights: tuple[float, ...]
    end_weight: float


# ---------------------------------------------------------------------------
# root arithmetic


def _quad_roots(center: int, shift_sq: int, mode: Mode):
    """Roots center +- sqrt(shift_sq + mu) as (float, _Surd) pairs; the float
    is a rational root rounded, or formed from r = math.sqrt(shift_sq +
    float(mu)).  Every caller has center < 0."""
    disc = shift_sq + mode.mu
    if disc < 0:
        return []
    # n/d in lowest terms is a rational square exactly when n*d is a square
    n, d = disc.numerator, disc.denominator
    s = math.isqrt(n * d)
    if s * s != n * d:
        minus = center - math.sqrt(shift_sq + float(mode.mu))
        # center + r would cancel; (center^2 - disc) / (center - r) has an
        # exact numerator, so a small mu keeps all its digits
        return [(float(center * center - disc) / minus, _Surd(center, disc, 1)),
                (minus, _Surd(center, disc, -1))]
    s = Fraction(s, d) if d > 1 else s
    if s == 0:
        return [(float(center), _Surd(center))]
    return [(float(center + s), _Surd(center + s)),
            (float(center - s), _Surd(center - s))]


class _Catalog:
    """The rates of one catalog that lie in its window.

    A rate equal to a window end raises InputError, except at a closed
    right end, where it is kept.  With logs, the rate -2 is a log mode.
    """

    def __init__(self, window, degree, closed_right=False, logs=False):
        if not window[0] < window[1]:
            raise InputError("window must be an increasing pair")
        self.window, self.degree, self.rates = window, degree, []
        self.closed_right, self.logs = closed_right, logs

    def add(self, lam, root, mult, tag):
        below, above = root.cmp(self.window[0]), root.cmp(self.window[1])
        if below == 0 or (above == 0 and not self.closed_right):
            edge = self.window[0] if below == 0 else self.window[1]
            raise InputError(
                f"rate {lam} ties the window endpoint {edge}")
        if below > 0 and above <= 0:
            self.rates.append(CriticalRate(
                lam, self.degree, mult, tag, self.logs and root == -2, root))

    def rate(self, value: int, mult, tag):
        self.add(float(value), _Surd(value), mult, tag)

    def roots(self, center, shift_sq, mode, tag, exclude=None):
        for lam, root in _quad_roots(center, shift_sq, mode):
            if exclude is None or root != exclude:
                self.add(lam, root, mode.mult, tag)

    def sorted(self) -> list[CriticalRate]:
        return sorted(self.rates, key=lambda r: (r.lam, r.gen_type))


def harmonic_rate_catalog(spec: LinkSpectrum, p: int,
                          window: tuple[float, float]) -> list[CriticalRate]:
    """Critical rates of the Hodge Laplacian on p-forms in an open window.

    Emits one entry per generator type and mode, multiplicity inherited,
    log_mode set exactly on lambda = -2 (the mu_hat = 0 double root).
    Window endpoints must be non-critical.
    """
    if not 0 <= p <= 6:
        raise InputError(f"degree {p} outside 0..6")
    cat = _Catalog(window, p, logs=True)
    # T1: exact-mode dr-slot, roots of (lam+p-2)(lam-p+6) = mu
    if 2 <= p <= 6:
        for m in spec.nonzero(p - 2):
            cat.roots(-2, (p - 4) ** 2, m, "T1")
    # T2/T3: harmonic (p-1)-modes in the dr-slot
    if 1 <= p <= 6 and spec.betti[p - 1] > 0:
        hp = spec.betti[p - 1]
        if p != 4:  # T2 excludes lam = -2
            cat.rate(2 - p, hp, "T2")
        cat.rate(p - 6, hp, "T3")
    # T4/T5: coupled pairs from nonzero (p-1)-modes
    if 1 <= p <= 5:
        for m in spec.nonzero(p - 1):
            cat.roots(-3, (p - 3) ** 2, m, "T4")
            cat.roots(-1, (p - 3) ** 2, m, "T5", exclude=-2)
    # T6/T7: pure beta-slot modes
    if p <= 5:
        if spec.betti[p] > 0:
            cat.rate(-p, spec.betti[p], "T6")
        # T7 excludes lam = -p; that solution is T6's (and at p = 2 the
        # harmonic double root lives entirely in the T6 entry)
        for m in spec.coclosed(p):
            cat.roots(-2, (p - 2) ** 2, m, "T7", exclude=-p)
    return cat.sorted()


def one_form_catalog(spec: LinkSpectrum,
                     window: tuple[float, float]) -> list[CriticalRate]:
    """Homogeneous harmonic 1-forms on the Calabi-Yau cone, window in [-3, 1].

    Requires the Obata bound (nonzero function eigenvalues > 5), the Killing
    bound (1-form eigenvalues >= 8) and h_1 = 0; under them the catalog is
    empty on any window inside [-3, 0].  The window is taken half-open
    (a, b] so the boundary rate 1 of the moving family is reachable.
    """
    a, b = window
    if not (a < b and a >= -3 and b <= 1):
        raise InputError("one-form catalog proved only inside [-3, 1]")
    if spec.betti[1] != 0:
        raise InputError("catalog requires h_1 = 0")
    for m in spec.nonzero(0):
        if m.mu <= 5:
            raise InputError(
                f"Obata bound violated: mu_0 = {float(m.mu)} <= 5")
    for m in spec.nonzero(1):
        if m.mu < 8:
            raise InputError(
                f"Killing bound violated: mu_1 = {float(m.mu)} < 8")
    cat = _Catalog(window, 1, closed_right=True)
    for m in spec.nonzero(0):
        if 5 < m.mu <= 12:
            cat.add(*_quad_roots(-3, 4, m)[0], m.mult, "1F1")
            if m.mu == 12:
                cat.rate(1, m.mult, "1F4")
    if spec.betti[0] > 0:
        cat.rate(1, spec.betti[0], "1F2")  # d(r^2) = 2 r dr
    for m in spec.nonzero(1):
        if m.mu == 8:
            cat.rate(1, m.mult, "1F3-killing")
    return cat.sorted()


def paired_catalog(spec: LinkSpectrum,
                   window: tuple[float, float]) -> list[CriticalRate]:
    """Closed-and-coclosed 2-/3-form pairs on the cone, window in (-2, 0].

    The three rate-0 generators are the structure forms (the G2 3-form
    d theta ^ omega + Re Omega, 6 Re Omega + 4 d theta ^ omega, 6 Im Omega);
    the moving family has lambda = sqrt(mu_0 + 4) - 4 for mu_0 in (5, 12].
    Half-open window (a, b].
    """
    a, b = window
    if not (a < b and a >= -2 and b <= 0):
        raise InputError("paired catalog proved only inside (-2, 0]")
    cat = _Catalog(window, 2, closed_right=True)
    for tag in ("P1-phi", "P2-6ReOmega+4dtheta^omega", "P3-6ImOmega"):
        cat.rate(0, 1, tag)
    for m in spec.nonzero(0):
        if 5 < m.mu <= 12:
            cat.add(*_quad_roots(-4, 4, m)[0], m.mult, "P4")
    return cat.sorted()


def _shift(n_complex: int) -> int:
    """n - 1 for the complex dimension n; up to 2^52, 2n - 1 and the rate
    -(2n - 2) are exact floats."""
    if n_complex < 2:
        raise InputError("complex dimension must be >= 2")
    if n_complex > 2 ** 52:
        raise InputError("complex dimension must be <= 2^52")
    return n_complex - 1


def function_rates(n_complex: int, modes: Sequence[Mode],
                   window: tuple[float, float]) -> list[CriticalRate]:
    """Rates of the function Laplacian, mu = lam (lam + 2n - 2), open window.

    mu = 0 gives lam in {0, -(2n-2)} with the constants spanning the rate-0
    kernel; no log terms ever occur for functions.
    """
    shift = _shift(n_complex)
    cat = _Catalog(window, 0)
    for m in modes:
        cat.roots(-shift, shift * shift, m, "function")
    return cat.sorted()


def function_gap_report(n_complex: int, modes: Sequence[Mode]) -> dict:
    """Check the two function-rate gap statements against supplied data.

    The interval (-2n+2, 0) is rate-free automatically; (0, 1] is rate-free
    exactly when no nonzero eigenvalue lies in (0, 2n-1].
    """
    shift = _shift(n_complex)
    gap_negative = not any(
        root.cmp(-2 * shift) > 0 > root.cmp(0)
        for m in modes for _, root in _quad_roots(-shift, shift * shift, m))
    threshold = 2.0 * n_complex - 1.0
    offenders = [float(m.mu) for m in modes if 0 < m.mu <= threshold]
    return {
        "no_rate_in_negative_gap": gap_negative,
        "no_rate_in_zero_one": not offenders,
        "zero_one_offending_eigenvalues": offenders,
        "zero_one_threshold": threshold,
    }


def index_change(cone_catalogs: Sequence[Sequence[CriticalRate]],
                 end_catalog: Sequence[CriticalRate],
                 delta: WeightVector, delta_prime: WeightVector) -> int:
    """N(delta, delta') = total dimension of critical rates strictly between.

    Nonnegative, additive over concatenated windows; equals the drop of the
    Fredholm index when the weight moves from delta to delta'.
    """
    if len(delta.cone_weights) != len(cone_catalogs) or \
            len(delta_prime.cone_weights) != len(cone_catalogs):
        raise InputError("weight length does not match catalogs")
    los = (*delta.cone_weights, delta.end_weight)
    his = (*delta_prime.cone_weights, delta_prime.end_weight)
    total = 0
    for lo, hi, cat in zip(los, his, [*cone_catalogs, end_catalog]):
        if not lo < hi:
            raise InputError(f"need delta < delta', got {lo} >= {hi}")
        for rate in cat:
            if rate.root == lo or rate.root == hi:
                raise InputError(
                    f"weight endpoint ties critical rate {rate.lam}")
            if rate.root.cmp(lo) > 0 > rate.root.cmp(hi):
                total += rate.dim
    return total
