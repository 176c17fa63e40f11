import collections
import decimal
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as hst

from cone_forge import spectra as sp
from cone_forge.errors import InputError

DATA = Path(__file__).resolve().parents[1] / "src" / "cone_forge" / "data"


def make_spec(betti=(1, 0, 1, 1, 0, 1), modes=()):
    return sp.LinkSpectrum(betti=betti, modes=tuple(
        sp.Mode(p=p, mu=Fraction(mu), mult=mult) for p, mu, mult in modes))


# ---------------------------------------------------------------------------
# spectrum validation


def test_poincare_duality_enforced():
    with pytest.raises(InputError, match="Poincare duality fails"):
        sp.LinkSpectrum(betti=(1, 1, 0, 0, 0, 1))


def test_zero_mode_multiplicity_must_match_betti():
    with pytest.raises(InputError, match="must have multiplicity h_p"):
        make_spec(modes=[(2, 0, 3)])


def test_constraint_records_enforced():
    rec = sp.ConstraintRecord(p=0, bound=5.0, strict=True)
    with pytest.raises(InputError, match="violates bound"):
        sp.LinkSpectrum(betti=(1, 0, 1, 1, 0, 1),
                        modes=(sp.Mode(p=0, mu=4.0, mult=1),),
                        constraints=(rec,))
    sp.LinkSpectrum(betti=(1, 0, 1, 1, 0, 1),
                    modes=(sp.Mode(p=0, mu=6.0, mult=1),),
                    constraints=(rec,))


def test_tagged_constraint_scopes():
    rec = sp.ConstraintRecord(p=2, bound=9.0, strict=False, tag="primitive-11")
    sp.LinkSpectrum(betti=(1, 0, 1, 1, 0, 1),
                    modes=(sp.Mode(p=2, mu=4.0, mult=1, tag="other"),),
                    constraints=(rec,))
    with pytest.raises(InputError, match="violates bound"):
        sp.LinkSpectrum(betti=(1, 0, 1, 1, 0, 1),
                        modes=(sp.Mode(p=2, mu=4.0, mult=1, tag="primitive-11"),),
                        constraints=(rec,))


@pytest.mark.parametrize("kwargs, message", [
    ({"mu": 4, "mult": 0}, "multiplicity must be >= 1"),
    ({"mu": -0.5, "mult": 1}, "negative eigenvalue"),
], ids=["mult", "mu"])
def test_bad_mode_refused_where_built(kwargs, message):
    # checked only inside LinkSpectrum: function_rates took mult 0 as is
    with pytest.raises(InputError, match=message):
        sp.Mode(p=0, **kwargs)


def test_mode_holds_one_exact_eigenvalue():
    assert sp.Mode(p=0, mu=0.1, mult=1).mu == Fraction(0.1) != Fraction(1, 10)
    assert sp.Mode(p=0, mu="33/4", mult=1).mu == Fraction(33, 4)
    assert type(sp.Mode(p=0, mu=12, mult=1).mu) is int


def _bounded(mu, strict):
    return sp.spectrum_from_dict({
        "betti": _S5_BETTI, "coexact_modes": [{"p": 0, "mu": mu, "mult": 1}],
        "constraints": [{"p": 0, "bound": 5, "strict": strict}]})


def test_eigenvalue_just_above_a_strict_bound_is_accepted():
    # 5 + 1e-16 rounded to the float 5.0: "violates bound > 5.0", exit 2
    mu = "50000000000000001/10000000000000000"
    assert [m.mu for m in _bounded(mu, True).nonzero(0)] == [Fraction(mu)]


def test_eigenvalue_just_below_a_bound_is_refused():
    # 5 - 1e-18 rounded to the float 5.0, which met ">= 5": exit 0
    with pytest.raises(InputError, match=r"mode \(p=0, mu=5.0\) violates "
                       "bound >= 5.0"):
        _bounded("4999999999999999999/1000000000000000000", False)


@pytest.mark.parametrize("mult", [1, 2])
def test_tiny_eigenvalue_is_not_harmonic(mult):
    # 1e-400 rounded to 0.0: read as harmonic, so mult 1 was replaced by the
    # Betti family and mult 2 refused ("must have multiplicity h_p = 1")
    spec = sp.spectrum_from_dict({"betti": _S5_BETTI, "coexact_modes": [
        {"p": 0, "mu": "1e-400", "mult": mult}]})
    assert [m.mu for m in spec.nonzero(0)] == [Fraction("1e-400")]
    rates = sp.function_rates(3, spec.coclosed(0), (-0.5, 6.5))
    assert [(r.lam, r.multiplicity, r.root.cmp(0)) for r in rates] == [
        (0.0, 1, 0), (0.0, mult, 1)]


@pytest.mark.parametrize("mu", ["1e-8", "1e-17", "1e-310"])
def test_small_eigenvalue_rate_keeps_its_digits(mu):
    # -2 + sqrt(4 + mu) cancelled: 1e-8 printed 2.49999976276e-09 and 1e-17
    # and 1e-310 printed 0, the row of the harmonic family
    spec = sp.spectrum_from_dict({"betti": _S5_BETTI, "coexact_modes": [
        {"p": 0, "mu": mu, "mult": 1}]})
    rates = sp.function_rates(3, spec.coclosed(0), (-0.5, 6.5))
    with decimal.localcontext(decimal.Context(prec=400)):
        exact = (4 + decimal.Decimal(mu)).sqrt() - 2
    assert [r.lam for r in rates] == [
        0.0, pytest.approx(float(exact), rel=1e-12, abs=0)]


@pytest.mark.parametrize("bound", ["23/2", 11.5])
def test_bound_read_exactly_like_mu(bound):
    spec = sp.spectrum_from_dict({
        "betti": _S5_BETTI, "coexact_modes": [{"p": 0, "mu": 12, "mult": 1}],
        "constraints": [{"p": 0, "bound": bound}]})
    assert spec.constraints[0].bound == Fraction(23, 2)


def test_schema_errors():
    with pytest.raises(InputError, match="betti must be six"):
        sp.spectrum_from_dict({"betti": [1, 0, 0]})
    with pytest.raises(InputError, match="malformed mode entry"):
        sp.spectrum_from_dict({"betti": [1, 0, 0, 0, 0, 1],
                               "coexact_modes": [{"p": 0}]})
    with pytest.raises(InputError, match="must be a JSON object"):
        sp.spectrum_from_dict([1, 2, 3])


_S5_BETTI = [1, 0, 0, 0, 0, 1]


@pytest.mark.parametrize("doc, message", [
    # each loaded as data the file does not state: int() truncated the
    # numbers, a string iterated as six 1s, and bool("false") is True
    ({"betti": [1.9, 0, 0, 0, 0, 1.2]}, "missing or malformed 'betti'"),
    ({"betti": "111111"}, "missing or malformed 'betti'"),
    ({"betti": _S5_BETTI, "coexact_modes": [{"p": 0.7, "mu": 12, "mult": 2}]},
     "malformed mode entry"),
    ({"betti": _S5_BETTI, "coexact_modes": [{"p": 0, "mu": 12, "mult": 2.9}]},
     "malformed mode entry"),
    ({"betti": _S5_BETTI, "constraints": [{"p": 0.5, "bound": 5}]},
     "malformed constraint entry"),
    ({"betti": _S5_BETTI,
      "constraints": [{"p": 0, "bound": 5, "strict": "false"}]},
     "malformed constraint entry"),
], ids=["betti-float", "betti-string", "mode-p", "mode-mult", "constraint-p",
        "strict-string"])
def test_non_integer_fields_refused(doc, message):
    with pytest.raises(InputError, match=message):
        sp.spectrum_from_dict(doc)


def test_load_shipped_s5():
    spec = sp.load_spectrum(DATA / "s5.json")
    assert spec.betti == (1, 0, 0, 0, 0, 1)
    assert spec.completeness(0) == 61.0
    assert [m.mu for m in spec.nonzero(0)] == [5, 12, 21, 32, 45, 60]


def test_load_shipped_s2xs3():
    spec = sp.load_spectrum(DATA / "s2xs3_partial.json")
    assert spec.betti == (1, 0, 1, 1, 0, 1)
    assert spec.completeness(0) == 5.0
    assert spec.completeness(1) == 8.0
    bounds = {(c.p, c.bound, c.strict) for c in spec.constraints}
    assert (0, 5.0, True) in bounds and (1, 8.0, False) in bounds


def test_shipped_spectrum_by_name():
    assert sp.shipped_spectrum("s5").betti == (1, 0, 0, 0, 0, 1)
    assert sp.load_spectrum("s2xs3_partial").betti == (1, 0, 1, 1, 0, 1)
    with pytest.raises(FileNotFoundError):
        sp.load_spectrum("no_such_spectrum")


def test_implicit_harmonic_modes():
    spec = make_spec()
    modes = spec.coclosed(2)
    assert modes[0].mu == 0.0 and modes[0].mult == 1


def test_hat_pair_symmetry():
    spec = make_spec(modes=[(0, 7, 1), (1, 8, 2), (2, 11, 1)])
    for p in range(7):
        window = (-12.0, 8.0)
        cat = sp.harmonic_rate_catalog(spec, p, window)
        tally = {}
        for r in cat:
            mu_hat = round((r.lam + 2.0) ** 2, 6)
            if mu_hat > 0:
                key = (mu_hat, r.lam > -2.0)
                tally[key] = tally.get(key, 0) + r.multiplicity
        for (mu_hat, upper), mult in tally.items():
            assert tally.get((mu_hat, not upper)) == mult, (p, mu_hat)


def test_log_mode_iff_rate_minus_two():
    spec = make_spec()
    cat = sp.harmonic_rate_catalog(spec, 2, (-6.5, 2.5))
    t6 = [r for r in cat if r.gen_type == "T6"]
    assert len(t6) == 1 and t6[0].lam == -2.0 and t6[0].log_mode
    assert t6[0].dim == 2  # phi_21 and log r phi_21
    assert all(r.log_mode == (abs(r.lam + 2.0) < 1e-12) for r in cat)


def test_harmonic_catalog_known_generators():
    # p=2, h2=1: T6 at lambda = -2 with multiplicity 1
    spec = make_spec()
    cat = sp.harmonic_rate_catalog(spec, 2, (-2.5, -1.5))
    assert [(r.lam, r.gen_type, r.multiplicity) for r in cat] == \
        [(-2.0, "T6", 1)]
    # p=1, mu_0 = 12: T4 root at sqrt(12+4)-3 = 1 (T2 carries r dr there too)
    spec12 = make_spec(modes=[(0, 12, 1)])
    cat = sp.harmonic_rate_catalog(spec12, 1, (0.5, 1.5))
    assert {(r.lam, r.gen_type) for r in cat} == {(1.0, "T4"), (1.0, "T2")}
    # empty spectrum, empty window result
    empty = sp.LinkSpectrum(betti=(0, 0, 0, 0, 0, 0))
    assert sp.harmonic_rate_catalog(empty, 3, (-5.0, 5.0)) == []


def test_harmonic_catalog_t7_includes_green_partner():
    # harmonic p-modes also solve (lam+p)(lam-p+4) = 0 at lam = p-4
    spec = make_spec(betti=(1, 0, 0, 0, 0, 1))
    cat = sp.harmonic_rate_catalog(spec, 0, (-5.0, 1.0))
    assert [(r.lam, r.gen_type) for r in cat] == [(-4.0, "T7"), (0.0, "T6")]


def test_harmonic_p1_empty_under_link_bounds():
    # with the function bound (> 5), the 1-form bound (>= 8) and h_1 = 0,
    # no 1-form critical rate lies in (-3, 0)
    spec = make_spec(modes=[(0, 5.5, 2), (0, 12, 1), (1, 8, 1), (1, 11, 3)])
    assert sp.harmonic_rate_catalog(spec, 1, (-3.0, 0.0)) == []


def test_t4_rates_match_exact_one_forms():
    # d of a degree-k harmonic polynomial is a harmonic 1-form of rate k-1;
    # the T4 equation (lam+1)(lam+5) = k(k+4) must reproduce exactly that
    for k in range(1, 7):
        spec = make_spec(betti=(1, 0, 0, 0, 0, 1), modes=[(0, k * (k + 4), 1)])
        cat = sp.harmonic_rate_catalog(spec, 1, (k - 1.5, k - 0.5))
        assert [r.lam for r in cat if r.gen_type == "T4"] == [float(k - 1)]


def test_critical_endpoint_rejected():
    spec = make_spec()
    with pytest.raises(InputError, match="ties the window endpoint"):
        sp.harmonic_rate_catalog(spec, 2, (-2.0, 1.0))


def test_tie_is_exact_equality():
    # an endpoint 1e-10 from a rate is no tie, on either side of it
    spec = make_spec()
    assert sp.harmonic_rate_catalog(spec, 2, (-2.0 + 1e-10, 1.0)) == []
    [t6] = sp.harmonic_rate_catalog(spec, 2, (-2.0 - 1e-10, -1.5))
    assert (t6.lam, t6.gen_type, t6.log_mode) == (-2.0, "T6", True)
    s5 = sp.load_spectrum(DATA / "s5.json").coclosed(0)
    rates = sp.function_rates(3, s5, (1e-10, 2.0 - 1e-10))
    assert [(r.lam, r.multiplicity) for r in rates] == [(1.0, 6)]
    with pytest.raises(InputError, match="ties the window endpoint"):
        sp.function_rates(3, s5, (1e-10, 2.0))


def test_rates_near_minus_two_are_not_log_modes():
    # mu = 1 + 1e-13 puts T4 and T5 roots within 1e-13 of -2 on both sides;
    # a float tie tolerance made T4 a log mode and dropped T5's lower root
    spec = make_spec(betti=(1, 0, 0, 0, 0, 1), modes=[(2, 1.0000000000001, 1)])
    cat = sp.harmonic_rate_catalog(spec, 3, (-2.5, 0.5))
    assert [r.gen_type for r in cat] == ["T5", "T4", "T5"]
    assert cat[0].lam < -2.0 < cat[1].lam < 0.0 < cat[2].lam
    assert not any(r.log_mode for r in cat)
    assert sum(r.dim for r in cat) == 3


# ---------------------------------------------------------------------------
# one-form catalog


def obata_spec(extra=()):
    return make_spec(modes=[(1, 8, 1)] + list(extra))


def test_one_form_empty_below_zero():
    assert sp.one_form_catalog(obata_spec(), (-3.0, 0.0)) == []


def test_one_form_mu12_twice_tagged():
    cat = sp.one_form_catalog(obata_spec([(0, 12, 1)]), (0.0, 1.0))
    tags = sorted(r.gen_type for r in cat if r.lam == 1.0)
    assert tags == ["1F1", "1F2", "1F3-killing", "1F4"]


def test_one_form_killing_entry():
    cat = sp.one_form_catalog(obata_spec(), (0.0, 1.0))
    assert {(r.lam, r.gen_type) for r in cat} == {(1.0, "1F2"),
                                                  (1.0, "1F3-killing")}


def test_one_form_moving_family_rate():
    cat = sp.one_form_catalog(obata_spec([(0, 7.25, 1)]), (0.0, 1.0))
    moving = [r for r in cat if r.gen_type == "1F1"]
    assert moving[0].lam == pytest.approx(math.sqrt(11.25) - 3.0)
    # an exact rational root: sqrt(33/4 + 4) = 7/2
    cat = sp.one_form_catalog(obata_spec([(0, Fraction(33, 4), 1)]), (0.0, 1.0))
    assert [r.lam for r in cat if r.gen_type == "1F1"] == [0.5]


def test_one_form_constraint_violations():
    bad_obata = make_spec(modes=[(0, 4.5, 1)])
    with pytest.raises(InputError, match="Obata bound violated"):
        sp.one_form_catalog(bad_obata, (-3.0, 0.0))
    bad_killing = make_spec(modes=[(1, 7.0, 1)])
    with pytest.raises(InputError, match="Killing bound violated"):
        sp.one_form_catalog(bad_killing, (-3.0, 0.0))
    bad_h1 = sp.LinkSpectrum(betti=(1, 1, 1, 1, 1, 1))
    with pytest.raises(InputError, match="requires h_1 = 0"):
        sp.one_form_catalog(bad_h1, (-3.0, 0.0))
    with pytest.raises(InputError, match="proved only inside"):
        sp.one_form_catalog(obata_spec(), (-4.0, 0.0))
    with pytest.raises(InputError, match="proved only inside"):  # exact
        sp.one_form_catalog(obata_spec(), (-3.0 - 1e-10, 0.0))


# ---------------------------------------------------------------------------
# paired catalog


def test_paired_three_generators_when_no_moving_family():
    cat = sp.paired_catalog(obata_spec(), (-2.0, 0.0))
    assert [r.lam for r in cat] == [0.0, 0.0, 0.0]
    assert {r.gen_type[:2] for r in cat} == {"P1", "P2", "P3"}


def test_paired_moving_family():
    cat = sp.paired_catalog(obata_spec([(0, 7.25, 1), (0, 12, 1)]),
                            (-2.0, 0.0))
    p4 = [r for r in cat if r.gen_type == "P4"]
    assert sorted(r.lam for r in p4) == pytest.approx(
        [math.sqrt(11.25) - 4.0, 0.0])
    cat = sp.paired_catalog(obata_spec([(0, Fraction(33, 4), 1)]), (-2.0, 0.0))
    assert [r.lam for r in cat if r.gen_type == "P4"] == [-0.5]


def test_paired_window_range():
    with pytest.raises(InputError, match="proved only inside"):
        sp.paired_catalog(obata_spec(), (-2.0, 0.5))
    with pytest.raises(InputError, match="proved only inside"):  # exact
        sp.paired_catalog(obata_spec(), (-2.0, 1e-10))


# ---------------------------------------------------------------------------
# function rates


def harmonic_polynomial_dim(k, nvars=6):
    """Brute force: kernel dimension of the Laplacian on degree-k monomials."""
    monos = [m for m in itertools.combinations_with_replacement(range(nvars), k)]
    lower = {m: i for i, m in enumerate(
        itertools.combinations_with_replacement(range(nvars), k - 2))} \
        if k >= 2 else {}
    A = np.zeros((len(lower), len(monos)))
    for col, m in enumerate(monos):
        counts = [m.count(v) for v in range(nvars)]
        for v in range(nvars):
            if counts[v] >= 2:
                c = counts[v] * (counts[v] - 1)
                new = list(counts)
                new[v] -= 2
                key = tuple(itertools.chain.from_iterable(
                    [vv] * nn for vv, nn in enumerate(new)))
                A[lower[key], col] += c
    rank = np.linalg.matrix_rank(A) if lower else 0
    return len(monos) - rank


def test_function_rates_round_sphere_oracle():
    spec = sp.load_spectrum(DATA / "s5.json")
    rates = sp.function_rates(3, spec.coclosed(0), (-0.5, 6.5))
    got = {r.lam: r.multiplicity for r in rates}
    expect = {0.0: 1}
    for k in range(1, 7):
        expect[float(k)] = harmonic_polynomial_dim(k)
    assert got == expect
    assert expect[2.0] == 20


def test_function_rates_zero_mode():
    rates = sp.function_rates(3, [sp.Mode(p=0, mu=Fraction(0), mult=1)],
                              (-5.0, 1.0))
    assert sorted(r.lam for r in rates) == [-4.0, 0.0]


def test_function_rates_mu12():
    rates = sp.function_rates(3, [sp.Mode(p=0, mu=Fraction(12), mult=1)],
                              (-7.0, 3.0))
    assert sorted(r.lam for r in rates) == [-6.0, 2.0]


@pytest.mark.parametrize("window", [(5.5, 0.5), (1.0, 0.0), (2.0, 2.0)])
def test_function_rates_refuse_non_increasing_window(window):
    # (1, 0) has the rate 0 on an endpoint: the order is refused first
    spec = sp.load_spectrum(DATA / "s5.json")
    with pytest.raises(InputError, match="window must be an increasing pair"):
        sp.function_rates(3, spec.coclosed(0), window)


def test_function_gap_report():
    good = [sp.Mode(p=0, mu=0.0, mult=1), sp.Mode(p=0, mu=6.0, mult=2)]
    rep = sp.function_gap_report(3, good)
    assert rep["no_rate_in_negative_gap"] and rep["no_rate_in_zero_one"]
    sphere = [sp.Mode(p=0, mu=5.0, mult=6)]
    rep = sp.function_gap_report(3, sphere)
    assert not rep["no_rate_in_zero_one"]  # the round sphere saturates


# ---------------------------------------------------------------------------
# index change


def end_kernel_dim2():
    # K_infty(0) = span{1, t}: one generator plus its t-partner
    return [sp.CriticalRate(lam=0.0, degree=0, multiplicity=1,
                            gen_type="end-constant", log_mode=True)]


def test_index_change_reproduces_minus_one():
    nu = 0.25
    N = sp.index_change(
        [[]], end_kernel_dim2(),
        sp.WeightVector((-2.0,), -nu), sp.WeightVector((-1.9,), nu))
    assert N == 2
    assert -N // 2 == -1  # the openness-proof index via duality


def test_index_change_empty():
    N = sp.index_change([[], []], [],
                        sp.WeightVector((0.0, 0.0), 0.0),
                        sp.WeightVector((1.0, 1.0), 1.0))
    assert N == 0


def test_index_change_errors():
    with pytest.raises(InputError, match="need delta < delta'"):
        sp.index_change([[]], [], sp.WeightVector((1.0,), 0.0),
                        sp.WeightVector((0.0,), 1.0))
    rate = sp.CriticalRate(lam=0.5, degree=0, multiplicity=1, gen_type="x")
    with pytest.raises(InputError, match="weight endpoint ties critical rate"):
        sp.index_change([[rate]], [], sp.WeightVector((0.5,), 0.0),
                        sp.WeightVector((1.0,), 1.0))


@settings(max_examples=60, deadline=None)
@given(hst.lists(hst.tuples(hst.floats(-5, 5), hst.integers(1, 4)),
                 max_size=8),
       hst.floats(-6, 6), hst.floats(0.01, 3), hst.floats(0.01, 3))
def test_index_change_window_additivity(entries, lo, gap1, gap2):
    cat = [sp.CriticalRate(lam=l, degree=0, multiplicity=m, gen_type="t")
           for l, m in entries]
    mid, hi = lo + gap1, lo + gap1 + gap2
    if any(r.lam in (lo, mid, hi) for r in cat):
        return  # exact ties are tested separately as errors
    def wv(x):
        return sp.WeightVector((x,), x)
    full = sp.index_change([cat], cat, wv(lo), wv(hi))
    split = (sp.index_change([cat], cat, wv(lo), wv(mid))
             + sp.index_change([cat], cat, wv(mid), wv(hi)))
    assert full == split
    assert full >= 0
    assert full >= sp.index_change([cat], cat, wv(lo), wv(mid))


# ---------------------------------------------------------------------------
# every catalog decision against sympy's exact arithmetic


def _sym(q):
    q = Fraction(q)
    return sympy.Rational(q.numerator, q.denominator)


def _sym_root(root):
    return _sym(root.c) + root.s * sympy.sqrt(_sym(root.d))


def _sym_catalog(candidates, window, logs):
    """Rows (type, mult, log_mode, root) that sympy puts strictly inside the
    window, and whether any candidate root equals an endpoint."""
    a, b = (_sym(w) for w in window)
    rows, tie = collections.Counter(), False
    for tag, mult, root in candidates:
        if (root - a).is_zero or (root - b).is_zero:
            tie = True
        elif (root - a).is_positive and (root - b).is_negative:
            rows[tag, mult, logs and bool((root + 2).is_zero), root] += 1
    return rows, tie


def _sym_roots(center, shift_sq, mode, tag, exclude=None):
    disc = shift_sq + _sym(mode.mu)
    roots = {center + sympy.sqrt(disc), center - sympy.sqrt(disc)}
    return [(tag, mode.mult, r) for r in roots
            if exclude is None or not (r - exclude).is_zero]


def _sym_harmonic(spec, p):
    """The generator rules of harmonic_rate_catalog, with sympy roots."""
    out = []
    if 2 <= p <= 6:
        for m in spec.nonzero(p - 2):
            out += _sym_roots(-2, (p - 4) ** 2, m, "T1")
    if 1 <= p <= 6 and spec.betti[p - 1] > 0:
        if p != 4:
            out.append(("T2", spec.betti[p - 1], sympy.Integer(2 - p)))
        out.append(("T3", spec.betti[p - 1], sympy.Integer(p - 6)))
    if 1 <= p <= 5:
        for m in spec.nonzero(p - 1):
            out += _sym_roots(-3, (p - 3) ** 2, m, "T4")
            out += _sym_roots(-1, (p - 3) ** 2, m, "T5", exclude=-2)
    if p <= 5:
        if spec.betti[p] > 0:
            out.append(("T6", spec.betti[p], sympy.Integer(-p)))
        for m in spec.coclosed(p):
            out += _sym_roots(-2, (p - 2) ** 2, m, "T7", exclude=-p)
    return out


def _check_against_sympy(catalog, candidates, window, logs):
    want, tie = _sym_catalog(candidates, window, logs)
    try:
        got = catalog()
    except InputError as exc:
        assert tie and "ties" in str(exc)
        return
    assert not tie
    assert collections.Counter(
        (r.gen_type, r.multiplicity, r.log_mode, _sym_root(r.root))
        for r in got) == want
    for r in got:  # the printed float is the root, rounded
        assert abs(r.lam - float(_sym_root(r.root))) <= 1e-12 * (1 + abs(r.lam))


# a float within a few ulps-of-2^-44 of an integer or half-integer, where a
# float tie tolerance misjudged membership, ties and lambda = -2
_near = hst.builds(lambda k, j: k / 2 + j * 2.0 ** -44,
                   hst.integers(-16, 8), hst.integers(-3, 3))
_mu = hst.one_of(
    hst.integers(1, 40),
    hst.builds(lambda n, d: f"{n}/{d}", hst.integers(1, 160), hst.integers(1, 9)),
    hst.floats(0.01, 40.0),
    _near.filter(lambda x: x > 0))
_end = hst.one_of(hst.integers(-8, 4), _near, hst.floats(-9.0, 5.0))


@settings(max_examples=100, deadline=None)
@given(betti=hst.tuples(hst.integers(0, 1), hst.integers(0, 2),
                        hst.integers(0, 1)),
       modes=hst.lists(hst.tuples(hst.integers(0, 5), _mu,
                                  hst.integers(1, 3)), max_size=3),
       p=hst.integers(0, 6), n=hst.integers(2, 4),
       ends=hst.tuples(_end, _end).filter(lambda e: e[0] != e[1]))
@example(betti=(1, 0, 0), modes=[(2, 1.0000000000001, 1)], p=3, n=3,
         ends=(-2.5, 0.5))
@example(betti=(1, 0, 1), modes=[(1, "8", 2), (0, 12, 1)], p=2, n=2,
         ends=(-4, -2))
def test_catalog_decisions_match_sympy(betti, modes, p, n, ends):
    h0, h1, h2 = betti
    spec = sp.spectrum_from_dict({
        "betti": [h0, h1, h2, h2, h1, h0],
        "coexact_modes": [{"p": q, "mu": mu, "mult": k} for q, mu, k in modes]})
    window = tuple(sorted(ends))
    _check_against_sympy(lambda: sp.harmonic_rate_catalog(spec, p, window),
                         _sym_harmonic(spec, p), window, logs=True)
    shift = n - 1
    cands = [c for m in spec.coclosed(0)
             for c in _sym_roots(-shift, shift * shift, m, "function")]
    _check_against_sympy(lambda: sp.function_rates(n, spec.coclosed(0), window),
                         cands, window, logs=False)
