"""Indicial-rate catalogs and index-change arithmetic for cone Laplacians.

Link eigendata is user-supplied: a spectrum lists Betti numbers h_0..h_5 of
the 5-dimensional link, coclosed eigenmode families (degree p, eigenvalue mu,
multiplicity), optional lower-bound constraint records, and per-degree
completeness bounds.  Harmonic modes (mu = 0) are implied by the Betti
numbers and never need listing.

From a spectrum the module produces the hat-eigenvalues of the separated
radial system on the 6-real-dimensional cone, the homogeneous harmonic-form
catalog by the seven generator types

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

Eigenvalues supplied as integers or "p/q" strings are carried exactly;
quadratic roots are then exact whenever the discriminant is a rational
square.  An exact root decides the equality tests: lambda = -2 (log_mode,
and T5's exclusion) and T7's exclusion of lambda = -p in favour of T6.
Window membership compares the float root with the endpoints: a root
within 1e-9 of an endpoint is a tie, raised as CriticalEndpoint, except at
the closed right end of the 1-form and paired catalogs, where it is kept.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

__all__ = [
    "SchemaError",
    "ConstraintViolation",
    "CriticalEndpoint",
    "WeightOrderViolation",
    "WindowOutOfRange",
    "DegreeOutOfRange",
    "Mode",
    "ConstraintRecord",
    "LinkSpectrum",
    "CriticalRate",
    "WeightVector",
    "RadialCouplings",
    "laplacian_coefficients",
    "hat_eigenvalues",
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
_TIE_TOL = 1e-9


class SchemaError(ValueError):
    """Spectrum document is structurally malformed."""


class ConstraintViolation(ValueError):
    """Spectrum data contradicts its own invariants or constraint records."""


class CriticalEndpoint(ValueError):
    """A window or weight endpoint coincides with a critical rate."""


class WeightOrderViolation(ValueError):
    """Weights not strictly increasing componentwise."""


class WindowOutOfRange(ValueError):
    """Requested window leaves the range the catalog is proved on."""


class DegreeOutOfRange(ValueError):
    """Form degree outside 0..6 on the 6-dimensional cone."""


# ---------------------------------------------------------------------------
# spectrum data


@dataclass(frozen=True)
class Mode:
    """One coclosed eigenmode family on the link."""

    p: int
    mu: float
    mult: int
    tag: str | None = None
    mu_exact: Fraction | None = None


@dataclass(frozen=True)
class ConstraintRecord:
    """Lower bound on nonzero eigenvalues of one degree (optionally tagged)."""

    p: int
    bound: float
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
            raise SchemaError("betti must be six non-negative integers")
        for p in range(LINK_DIM + 1):
            if self.betti[p] != self.betti[LINK_DIM - p]:
                raise ConstraintViolation(
                    f"Poincare duality fails: h_{p} != h_{LINK_DIM - p}")
        for m in self.modes:
            if not 0 <= m.p <= LINK_DIM:
                raise SchemaError(f"mode degree {m.p} outside 0..5")
            if m.mult < 1:
                raise SchemaError("multiplicity must be >= 1")
            if m.mu < 0:
                raise ConstraintViolation("negative eigenvalue")
            if m.mu == 0 and m.mult != self.betti[m.p]:
                raise ConstraintViolation(
                    f"mu = 0 in degree {m.p} must have multiplicity h_p "
                    f"= {self.betti[m.p]}")
            for rec in self.constraints:
                if not rec.allows(m):
                    raise ConstraintViolation(
                        f"mode (p={m.p}, mu={m.mu}) violates bound "
                        f"{'>' if rec.strict else '>='} {rec.bound}")

    def coclosed(self, p: int) -> list[Mode]:
        """Modes of degree p; the harmonic family (mu = 0, mult h_p) implied
        by the Betti numbers is always included once."""
        if not 0 <= p <= LINK_DIM:
            return []
        out = []
        if self.betti[p] > 0:
            out.append(Mode(p=p, mu=0.0, mult=self.betti[p], tag="harmonic",
                            mu_exact=Fraction(0)))
        out.extend(m for m in self.modes if m.p == p and m.mu > 0)
        return sorted(out, key=lambda m: m.mu)

    def nonzero(self, p: int) -> list[Mode]:
        return [m for m in self.coclosed(p) if m.mu > 0]

    def completeness(self, p: int) -> float:
        return float(self.complete_below.get(p, 0.0))


def _parse_mu(raw) -> tuple[float, Fraction | None]:
    if isinstance(raw, bool):
        raise SchemaError("mu must be a number")
    if isinstance(raw, int):
        return float(raw), Fraction(raw)
    if isinstance(raw, str):
        try:
            fr = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational eigenvalue {raw!r}") from exc
        return float(fr), fr
    if isinstance(raw, float):
        return raw, None
    raise SchemaError(f"bad eigenvalue {raw!r}")


def spectrum_from_dict(doc: dict) -> LinkSpectrum:
    if not isinstance(doc, dict):
        raise SchemaError("spectrum document must be a JSON object")
    try:
        betti = tuple(int(h) for h in doc["betti"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("missing or malformed 'betti'") from exc
    modes = []
    for entry in doc.get("coexact_modes", []):
        try:
            mu, mu_exact = _parse_mu(entry["mu"])
            modes.append(Mode(p=int(entry["p"]), mu=mu,
                              mult=int(entry["mult"]),
                              tag=entry.get("tag"), mu_exact=mu_exact))
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, (SchemaError, ConstraintViolation)):
                raise
            raise SchemaError(f"malformed mode entry {entry!r}") from exc
    constraints = []
    for entry in doc.get("constraints", []):
        try:
            constraints.append(ConstraintRecord(
                p=int(entry["p"]), bound=float(entry["bound"]),
                strict=bool(entry.get("strict", True)),
                tag=entry.get("tag")))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed constraint entry {entry!r}") from exc
    raw_cb = doc.get("complete_below", {})
    if isinstance(raw_cb, (int, float)):
        cb = {p: float(raw_cb) for p in range(LINK_DIM + 1)}
    elif isinstance(raw_cb, dict):
        try:
            cb = {int(k): float(v) for k, v in raw_cb.items()}
        except (TypeError, ValueError) as exc:
            raise SchemaError("malformed 'complete_below'") from exc
    else:
        raise SchemaError("'complete_below' must be a number or an object")
    return LinkSpectrum(betti=betti, modes=tuple(modes),
                        constraints=tuple(constraints), complete_below=cb,
                        name=str(doc.get("name", "")))


def shipped_spectrum(name: str) -> LinkSpectrum:
    """One of the packaged spectra: "s5" or "s2xs3_partial"."""
    from importlib import resources
    ref = resources.files("cone_forge").joinpath("data", f"{name}.json")
    return spectrum_from_dict(json.loads(ref.read_text()))


def load_spectrum(path) -> LinkSpectrum:
    """Read and validate a spectrum JSON file; bare shipped names work too."""
    import os
    if not os.path.exists(path) and str(path).isidentifier():
        try:
            return shipped_spectrum(str(path))
        except FileNotFoundError:
            pass
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return spectrum_from_dict(doc)


# ---------------------------------------------------------------------------
# critical rates


@dataclass(frozen=True)
class CriticalRate:
    """A rate lambda with degree, multiplicity and generator type.

    log_mode means mu_hat = 0 (lambda = -2 exactly): the generator is paired
    with one extra log r solution, so the dimension it contributes doubles.
    """

    lam: float
    degree: int
    multiplicity: int
    gen_type: str
    log_mode: bool = False

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

    def is_critical(self, cone_catalogs, end_catalog, tol=_TIE_TOL) -> bool:
        for w, cat in zip(self.cone_weights, cone_catalogs):
            if any(abs(r.lam - w) <= tol for r in cat):
                return True
        return any(abs(r.lam - self.end_weight) <= tol for r in end_catalog)


@dataclass(frozen=True)
class RadialCouplings:
    """Scalar couplings of the separated Laplacian at degree p, rate lam.

    alpha_factor = (lam+p-2)(lam-p+6), beta_factor = (lam+p)(lam-p+4);
    both cross couplings equal -2 (on d_F* beta and d_F alpha).  The lam = -2
    normal form replaces the factors by -(p-4)^2 and -(p-2)^2.
    """

    degree: int
    lam: float
    alpha_factor: float | None
    beta_factor: float | None
    alpha_cross: float
    beta_cross: float
    hat_alpha_shift: int
    hat_beta_shift: int


def laplacian_coefficients(p: int, lam: float) -> RadialCouplings:
    """Couplings of the radial system on the 6-dimensional cone."""
    if not 0 <= p <= 6:
        raise DegreeOutOfRange(f"degree {p} outside 0..6")
    has_alpha = 1 <= p <= 6
    has_beta = 0 <= p <= 5
    return RadialCouplings(
        degree=p, lam=lam,
        alpha_factor=(lam + p - 2.0) * (lam - p + 6.0) if has_alpha else None,
        beta_factor=(lam + p) * (lam - p + 4.0) if has_beta else None,
        alpha_cross=-2.0, beta_cross=-2.0,
        hat_alpha_shift=(p - 4) ** 2, hat_beta_shift=(p - 2) ** 2)


def hat_eigenvalues(spec: LinkSpectrum, p: int) -> list[tuple[float, int, int]]:
    """Eigenvalues mu_hat of the lam = -2 normal form, as (mu_hat, mult, family).

    Families: (1) exact modes d_F phi_{p-2}; (2) coclosed p-modes;
    (3) harmonic (p-1)-modes; (4) coupled pairs from nonzero (p-1)-modes,
    two values each.
    """
    if not 0 <= p <= 6:
        raise DegreeOutOfRange(f"degree {p} outside 0..6")
    out: list[tuple[float, int, int]] = []
    if 2 <= p <= 6:
        for m in spec.nonzero(p - 2):
            out.append((m.mu + (p - 4) ** 2, m.mult, 1))
    if p <= 5:
        for m in spec.coclosed(p):
            out.append((m.mu + (p - 2) ** 2, m.mult, 2))
    if 1 <= p <= 6 and spec.betti[p - 1] > 0:
        out.append((float((p - 4) ** 2), spec.betti[p - 1], 3))
    if 1 <= p <= 5:
        for m in spec.nonzero(p - 1):
            root = math.sqrt((p - 3) ** 2 + m.mu)
            out.append(((root - 1.0) ** 2, m.mult, 4))
            out.append(((root + 1.0) ** 2, m.mult, 4))
    return sorted(out)


# ---------------------------------------------------------------------------
# root arithmetic, exact when the data allows it


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _quad_roots(center: int, shift_sq: int, mode: Mode):
    """Roots center +- sqrt(shift_sq + mu) as (float, exact-or-None) pairs."""
    if mode.mu_exact is not None:
        disc = Fraction(shift_sq) + mode.mu_exact
        if disc < 0:
            return []
        s = _fraction_sqrt(disc)
        if s is not None:
            if s == 0:
                return [(float(center), Fraction(center))]
            return [(float(center + s), center + s),
                    (float(center - s), center - s)]
    disc = shift_sq + mode.mu
    if disc < 0:
        return []
    s = math.sqrt(disc)
    if s == 0:
        return [(float(center), None)]
    return [(center + s, None), (center - s, None)]


def _accept(lam, window, closed_right=False):
    """Window membership with tie-at-endpoint errors (tolerance 1e-9)."""
    a, b = window
    for edge in (a, b):
        if abs(lam - edge) <= _TIE_TOL:
            if closed_right and edge == b:
                return True
            raise CriticalEndpoint(
                f"rate {lam} ties the window endpoint {edge}")
    return a < lam < b


def _is_minus_two(lam, exact) -> bool:
    if exact is not None:
        return exact == -2
    return abs(lam + 2.0) <= 1e-12


def harmonic_rate_catalog(spec: LinkSpectrum, p: int,
                          window: tuple[float, float]) -> list[CriticalRate]:
    """Critical rates of the Hodge Laplacian on p-forms in an open window.

    Emits one entry per generator type and mode, multiplicity inherited,
    log_mode set exactly on lambda = -2 (the mu_hat = 0 double root).
    Window endpoints must be non-critical.
    """
    if not 0 <= p <= 6:
        raise DegreeOutOfRange(f"degree {p} outside 0..6")
    a, b = window
    if not a < b:
        raise WindowOutOfRange("window must be an increasing pair")
    found: list[CriticalRate] = []

    def emit(lam, exact, mult, tag):
        if _accept(lam, window):
            found.append(CriticalRate(
                lam=float(lam), degree=p, multiplicity=mult, gen_type=tag,
                log_mode=_is_minus_two(lam, exact)))

    # T1: exact-mode dr-slot, roots of (lam+p-2)(lam-p+6) = mu
    if 2 <= p <= 6:
        for m in spec.nonzero(p - 2):
            for lam, exact in _quad_roots(-2, (p - 4) ** 2, m):
                emit(lam, exact, m.mult, "T1")
    # T2/T3: harmonic (p-1)-modes in the dr-slot
    if 1 <= p <= 6 and spec.betti[p - 1] > 0:
        hp = spec.betti[p - 1]
        if p != 4:  # T2 excludes lam = -2
            emit(float(2 - p), Fraction(2 - p), hp, "T2")
        emit(float(p - 6), Fraction(p - 6), hp, "T3")
    # T4/T5: coupled pairs from nonzero (p-1)-modes
    if 1 <= p <= 5:
        for m in spec.nonzero(p - 1):
            for lam, exact in _quad_roots(-3, (p - 3) ** 2, m):
                emit(lam, exact, m.mult, "T4")
            for lam, exact in _quad_roots(-1, (p - 3) ** 2, m):
                if not _is_minus_two(lam, exact):
                    emit(lam, exact, m.mult, "T5")
    # T6/T7: pure beta-slot modes
    if p <= 5:
        if spec.betti[p] > 0:
            emit(float(-p), Fraction(-p), spec.betti[p], "T6")
        for m in spec.coclosed(p):
            for lam, exact in _quad_roots(-2, (p - 2) ** 2, m):
                # T7 excludes lam = -p; that solution is T6's (and at p = 2
                # the harmonic double root lives entirely in the T6 entry)
                if exact == -p or (exact is None and abs(lam + p) <= 1e-12):
                    continue
                emit(lam, exact, m.mult, "T7")
    return sorted(found, key=lambda r: (r.lam, r.gen_type))


def one_form_catalog(spec: LinkSpectrum,
                     window: tuple[float, float]) -> list[CriticalRate]:
    """Homogeneous harmonic 1-forms on the Calabi-Yau cone, window in [-3, 1].

    Requires the Obata bound (nonzero function eigenvalues > 5), the Killing
    bound (1-form eigenvalues >= 8) and h_1 = 0; under them the catalog is
    empty on any window inside [-3, 0].  The window is taken half-open
    (a, b] so the boundary rate 1 of the moving family is reachable.
    """
    a, b = window
    if not (a < b and a >= -3.0 - _TIE_TOL and b <= 1.0 + _TIE_TOL):
        raise WindowOutOfRange("one-form catalog proved only inside [-3, 1]")
    if spec.betti[1] != 0:
        raise ConstraintViolation("catalog requires h_1 = 0")
    for m in spec.nonzero(0):
        if m.mu <= 5.0:
            raise ConstraintViolation(
                f"Obata bound violated: mu_0 = {m.mu} <= 5")
    for m in spec.nonzero(1):
        if m.mu < 8.0:
            raise ConstraintViolation(
                f"Killing bound violated: mu_1 = {m.mu} < 8")
    found: list[CriticalRate] = []

    def emit(lam, exact, mult, tag):
        if _accept(lam, window, closed_right=True):
            found.append(CriticalRate(lam=float(lam), degree=1,
                                      multiplicity=mult, gen_type=tag))

    for m in spec.nonzero(0):
        if 5.0 < m.mu <= 12.0:
            lam, exact = _quad_roots(-3, 4, m)[0]
            emit(lam, exact, m.mult, "1F1")
            if m.mu == 12.0:
                emit(1.0, Fraction(1), m.mult, "1F4")
    if spec.betti[0] > 0:
        emit(1.0, Fraction(1), spec.betti[0], "1F2")  # d(r^2) = 2 r dr
    for m in spec.nonzero(1):
        if m.mu == 8.0:
            emit(1.0, Fraction(1), m.mult, "1F3-killing")
    return sorted(found, key=lambda r: (r.lam, r.gen_type))


def paired_catalog(spec: LinkSpectrum,
                   window: tuple[float, float]) -> list[CriticalRate]:
    """Closed-and-coclosed 2-/3-form pairs on the cone, window in (-2, 0].

    The three rate-0 generators are the structure forms (the G2 3-form
    d theta ^ omega + Re Omega, 6 Re Omega + 4 d theta ^ omega, 6 Im Omega);
    the moving family has lambda = sqrt(mu_0 + 4) - 4 for mu_0 in (5, 12].
    Half-open window (a, b].
    """
    a, b = window
    if not (a < b and a >= -2.0 - _TIE_TOL and b <= 0.0 + _TIE_TOL):
        raise WindowOutOfRange("paired catalog proved only inside (-2, 0]")
    found: list[CriticalRate] = []

    def emit(lam, exact, mult, tag):
        if _accept(lam, window, closed_right=True):
            found.append(CriticalRate(lam=float(lam), degree=2,
                                      multiplicity=mult, gen_type=tag))

    emit(0.0, Fraction(0), 1, "P1-phi")
    emit(0.0, Fraction(0), 1, "P2-6ReOmega+4dtheta^omega")
    emit(0.0, Fraction(0), 1, "P3-6ImOmega")
    for m in spec.nonzero(0):
        if 5.0 < m.mu <= 12.0:
            lam, exact = _quad_roots(-4, 4, m)[0]
            emit(lam, exact, m.mult, "P4")
    return sorted(found, key=lambda r: (r.lam, r.gen_type))


def function_rates(n_complex: int, modes: Sequence[Mode],
                   window: tuple[float, float]) -> list[CriticalRate]:
    """Rates of the function Laplacian, mu = lam (lam + 2n - 2), open window.

    mu = 0 gives lam in {0, -(2n-2)} with the constants spanning the rate-0
    kernel; no log terms ever occur for functions.
    """
    if n_complex < 2:
        raise ValueError("complex dimension must be >= 2")
    a, b = window
    if not a < b:
        raise WindowOutOfRange("window must be an increasing pair")
    shift = n_complex - 1
    found: list[CriticalRate] = []
    for m in modes:
        if m.mu < 0:
            raise ConstraintViolation("negative eigenvalue")
        for lam, exact in _quad_roots(-shift, shift * shift, m):
            if _accept(lam, window):
                found.append(CriticalRate(lam=float(lam), degree=0,
                                          multiplicity=m.mult,
                                          gen_type="function"))
    return sorted(found, key=lambda r: r.lam)


def function_gap_report(n_complex: int, modes: Sequence[Mode]) -> dict:
    """Check the two function-rate gap statements against supplied data.

    The interval (-2n+2, 0) is rate-free automatically; (0, 1] is rate-free
    exactly when no nonzero eigenvalue lies in (0, 2n-1].
    """
    shift = n_complex - 1
    gap_negative = True
    for m in modes:
        for lam, _ in _quad_roots(-shift, shift * shift, m):
            if -2 * shift < lam < 0 and not (
                    abs(lam) <= _TIE_TOL or abs(lam + 2 * shift) <= _TIE_TOL):
                gap_negative = False
    threshold = 2.0 * n_complex - 1.0
    offenders = [m.mu for m in modes if 0 < m.mu <= threshold]
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
        raise WeightOrderViolation("weight length does not match catalogs")
    pairs = list(zip(delta.cone_weights, delta_prime.cone_weights))
    pairs.append((delta.end_weight, delta_prime.end_weight))
    cats = list(cone_catalogs) + [list(end_catalog)]
    total = 0
    for (lo, hi), cat in zip(pairs, cats):
        if not lo < hi:
            raise WeightOrderViolation(f"need delta < delta', got {lo} >= {hi}")
        for rate in cat:
            if abs(rate.lam - lo) <= _TIE_TOL or abs(rate.lam - hi) <= _TIE_TOL:
                raise CriticalEndpoint(
                    f"weight endpoint ties critical rate {rate.lam}")
            if lo < rate.lam < hi:
                total += rate.dim
    return total
