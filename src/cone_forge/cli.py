"""Single command-line entry point: cone-forge <group> <command> [options].

Exit codes: 0 when the run and all internal verifications succeed, 1 when a
verification fails (a residual above tolerance, an inequality violated) or
an edge quadrature comes out non-finite, 2 on usage or input errors.
Results go to stdout, diagnostics to stderr.  `_check` holds the one pass
rule (finite and at or below tolerance, so NaN fails), every failed check
raises `VerificationFailed`, and `dispatch` alone prints the `verification
failed:` line.  `_emit_json` writes all JSON, a non-finite float as null.
Configuration (tolerances, grid sizes, seed, output format) is read from
the JSON file named by CONE_FORGE_CONFIG or --config; identical inputs and
config produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import bessel as _bessel
from . import edge as _edge
from . import g2 as _g2
from . import lattice as _lattice
from . import spectra as _spectra
from . import stenzel as _stenzel
from .spectra import load_spectrum  # re-exported: the ingestion surface

__all__ = ["RunConfig", "dispatch", "main", "load_spectrum"]

USAGE_ERROR = 2
VERIFY_ERROR = 1


@dataclass
class RunConfig:
    g2_tol: float = 1e-6
    g2_step: float = 1e-4
    stenzel_cone_tol: float = 1e-4
    stenzel_smoothing_tol: float = 1e-3
    stenzel_steps: int = 2000
    stenzel_wmax: float = 20.0
    kernel_tol: float = 1e-8
    seed: int = 0
    format: str = "csv"

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        cfg = cls()
        source = path or os.environ.get("CONE_FORGE_CONFIG")
        if source:
            with open(source) as fh:
                doc = json.load(fh)
            for key, val in doc.items():
                if not hasattr(cfg, key):
                    raise ValueError(f"unknown config key {key!r}")
                kind = type(getattr(cfg, key))
                # an int key takes a JSON integer only, so 1.9 is refused
                # rather than truncated; bool is an int subclass, refused too
                if isinstance(val, bool) or not isinstance(
                        val, (int, float) if kind is float else kind):
                    raise ValueError(f"config key {key!r} must be "
                                     f"{kind.__name__}, not {val!r}")
                setattr(cfg, key, kind(val))
        for key in ("g2_tol", "g2_step", "stenzel_cone_tol",
                    "stenzel_smoothing_tol", "kernel_tol", "stenzel_steps",
                    "stenzel_wmax"):
            if not 0 < getattr(cfg, key) < math.inf:
                raise ValueError(f"config key {key!r} must be positive and "
                                 f"finite, not {getattr(cfg, key)!r}")
        if cfg.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', "
                             f"not {cfg.format!r}")
        return cfg


class VerificationFailed(Exception):
    """A check of a command's own output failed: exit 1."""


def _check(name: str, worst: float, tol: float) -> None:
    """A check passes only on a finite value at or below tol, so NaN fails."""
    if not (math.isfinite(worst) and worst <= tol):
        raise VerificationFailed(f"{name} {worst:.3e} > {tol:.1e}")


def _plain(obj):
    """obj with numpy arrays and scalars as Python values and every
    non-finite float as None (JSON null)."""
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(val) for val in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit_json(obj, indent=2, file=None):
    """The one JSON writer: strict JSON, on stdout unless file is given."""
    print(json.dumps(_plain(obj), indent=indent, allow_nan=False), file=file)


def _emit_rows(header, rows, fmt):
    if fmt == "json":
        _emit_json([dict(zip(header, r)) for r in rows])
        return
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    sys.stdout.write(out.getvalue())


# ---------------------------------------------------------------------------
# g2


def _cmd_g2_lincheck(args, cfg: RunConfig) -> None:
    rng = np.random.default_rng(args.seed if args.seed is not None else cfg.seed)
    h = args.step if args.step is not None else cfg.g2_step
    rows, residuals = [], []
    for k in range(args.samples):
        gamma = _g2.random_unit_3form(rng)
        dec = _g2.project_3form(_g2.PHI0, gamma)
        # the three components of a sample are one stacked residual call
        res = _g2.linearization_residual(
            np.stack((dec.pi1, dec.pi7, dec.pi27)), h)
        for name, r in zip(("pi1", "pi7", "pi27"), res.tolist()):
            residuals.append(r)
            rows.append((k, name, f"{r:.6e}"))
    _emit_rows(("sample", "component", "residual"), rows, cfg.format)
    if args.verify:  # np.max, unlike max(), propagates NaN
        _check("linearization residual", np.max(residuals), cfg.g2_tol)


# ---------------------------------------------------------------------------
# bessel


def _cmd_bessel_eval(args, cfg: RunConfig) -> None:
    # an overflowed K gives 0 * inf in the Wronskian: reported as null and
    # failed by the gate below, so numpy's warning would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        ev = _bessel.bessel_eval(args.mu, args.x)
        res = _bessel.wronskian_residual(args.mu, args.x)
    _emit_json({"mu": args.mu, "x": args.x, "i": ev.value_i,
                "k": ev.value_k, "regime": ev.regime,
                "wronskian_residual": res})
    if args.verify:
        _check("Wronskian residual", res, 1e-9)


# ---------------------------------------------------------------------------
# stenzel


def _cmd_stenzel_profile(args, cfg: RunConfig) -> None:
    prof = _stenzel.solve_profile(
        args.n, args.wmax if args.wmax is not None else cfg.stenzel_wmax,
        args.steps if args.steps is not None else cfg.stenzel_steps)
    if args.verify and (prof.f[0] != 0.0 or prof.fprime[0] != 0.0
                        or not np.all(np.diff(prof.fprime) > 0)):
        raise VerificationFailed("profile boundary/monotonicity invariant")
    rows = [(f"{w:.12g}", f"{f:.12g}", f"{fp:.12g}")
            for w, f, fp in zip(prof.w, prof.f, prof.fprime)]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("w", "f", "fprime"))
            w.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        _emit_rows(("w", "f", "fprime"), rows, cfg.format)


def _positive_int(text: str) -> int:
    """argparse type for counts: a run over zero items checks nothing."""
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {val}")
    return val


def _positive_float(text: str) -> float:
    """argparse type for step sizes and extents: 0 would check nothing."""
    val = float(text)
    if not 0.0 < val < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite value > 0, got {val}")
    return val


def _parse_eps(text: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError(f"expected 're' or 're,im', "
                                         f"got {text!r}")
    vals = [float(v) for v in parts]
    if not all(map(math.isfinite, vals)):
        raise argparse.ArgumentTypeError(f"parts must be finite, got {text!r}")
    return complex(*vals)


def _cmd_stenzel_ma_check(args, cfg: RunConfig) -> None:
    eps = args.eps if args.eps is not None else 0.0
    rng = np.random.default_rng(args.seed if args.seed is not None else cfg.seed)
    if eps == 0:
        potential = _stenzel.cone_potential_fn(3)
        tol = cfg.stenzel_cone_tol
    else:
        prof = _stenzel.solve_profile(3, cfg.stenzel_wmax, cfg.stenzel_steps)
        potential = _stenzel.stenzel_potential_fn(prof, eps)
        tol = cfg.stenzel_smoothing_tol
    rows, residuals = [], []
    for k in range(args.points):
        pt = _stenzel.random_chart_point(eps, rng)
        res = _stenzel.monge_ampere_residual(potential, pt, h=1e-3)
        residuals.append(res)
        rows.append((k, f"{res:.6e}"))
    _emit_rows(("point", "residual"), rows, cfg.format)
    worst = float(np.max(residuals))  # NaN propagates, unlike max()
    print(f"max residual {worst:.3e} over {args.points} points "
          f"(tolerance {tol:.1e})", file=sys.stderr)
    _check("Monge-Ampere residual", worst, tol)


# ---------------------------------------------------------------------------
# spectra


def _parse_window(text: str) -> tuple[float, float]:
    a, _, b = text.partition(":")
    return float(a), float(b)


def _cmd_spectra_rates(args, cfg: RunConfig) -> None:
    if args.verify and args.kind in ("one-form", "paired"):
        raise ValueError(f"--verify has no check for --kind {args.kind}")
    spec = load_spectrum(args.input)
    window = _parse_window(args.window)
    if args.kind == "harmonic":
        cat = _spectra.harmonic_rate_catalog(spec, args.p, window)
        degrees = range(max(args.p - 2, 0), min(args.p, 5) + 1)
    elif args.kind == "one-form":
        cat = _spectra.one_form_catalog(spec, window)
        degrees = (0, 1)
    elif args.kind == "paired":
        cat = _spectra.paired_catalog(spec, window)
        degrees = (0,)
    else:
        cat = _spectra.function_rates(args.n, spec.coclosed(0), window)
        degrees = (0,)
        report = _spectra.function_gap_report(args.n, spec.coclosed(0))
        _emit_json(report, indent=None, file=sys.stderr)
    for p in degrees:
        print(f"catalog complete below mu = {spec.completeness(p)} "
              f"in link degree {p}", file=sys.stderr)
    rows = [(f"{r.lam:.12g}", r.degree, r.multiplicity, r.gen_type,
             int(r.log_mode)) for r in cat]
    _emit_rows(("lambda", "degree", "mult", "type", "log_mode"), rows,
               cfg.format)
    if args.verify and args.kind == "harmonic":
        # hat-pair symmetry: rates -2 +- sqrt(mu_hat) carry equal dimension.
        # A rate is c + s sqrt(d) exactly, so |lam + 2| is the exact triple
        # side * (c + 2, s, d), with side the sign of lam + 2.
        wide = _spectra.harmonic_rate_catalog(spec, args.p, (-8.01, 4.01))
        tally, where = {}, {}
        for r in wide:
            x = r.root
            side = x.cmp(-2)
            if side:  # lam = -2 is mu_hat = 0, its own partner
                key = (side * (x.c + 2), side * x.s, x.d), side
                tally[key] = tally.get(key, 0) + r.multiplicity
                where[key] = r.lam
        for (size, side), mult in tally.items():
            if tally.get((size, -side)) != mult:
                raise VerificationFailed(f"hat-pair symmetry broken at "
                                         f"lambda = {where[size, side]}")
    if args.verify and args.kind == "functions":
        # every rate solves (lam + n - 1)^2 = mu + (n - 1)^2 exactly for a
        # listed mode of its multiplicity and lies strictly inside the
        # window.  With lam = c + s sqrt(d) and a = c + n - 1, the square
        # is a^2 + d, and it is rational only when s a = 0 (d = 0 if s = 0).
        shift = args.n - 1
        for r in cat:
            x, a = r.root, r.root.c + shift
            solves = not (x.s and a) and any(
                a * a + x.d == m.mu_exact + shift * shift
                and m.mult == r.multiplicity for m in spec.coclosed(0))
            if not (solves and x.cmp(window[0]) > 0 > x.cmp(window[1])):
                raise VerificationFailed(
                    f"function rate {r.lam} does not solve (lam + {shift})^2 "
                    f"= mu + {shift * shift} inside the window")


def _parse_end_rates(text: str):
    """RATE:DIM pairs: a NaN rate would lie in no window and a negative
    dimension would subtract from N, so both are refused."""
    out = []
    for part in text.split(","):
        lam, _, dim = part.partition(":")
        rate, mult = float(lam), int(dim)
        if not math.isfinite(rate) or mult < 0:
            raise ValueError(f"end rate {part!r} needs a finite rate and a "
                             "dimension >= 0")
        out.append(_spectra.CriticalRate(lam=rate, degree=0,
                                         multiplicity=mult, gen_type="end"))
    return out


def _cmd_spectra_index_change(args, cfg: RunConfig) -> None:
    spec = load_spectrum(args.input)
    deltas = [float(x) for x in args.delta.split(",")]
    dprimes = [float(x) for x in args.delta_prime.split(",")]
    if len(deltas) != len(dprimes) or len(deltas) < 1:
        raise ValueError("delta and delta-prime must have equal length >= 1")
    cone_w, end_w = tuple(deltas[:-1]), deltas[-1]
    cone_wp, end_wp = tuple(dprimes[:-1]), dprimes[-1]
    cats = []
    for lo, hi in zip(cone_w, cone_wp):
        if args.functions:
            cats.append(_spectra.function_rates(args.n, spec.coclosed(0),
                                                (lo, hi)))
        else:
            cats.append(_spectra.harmonic_rate_catalog(spec, args.p, (lo, hi)))
    end_cat = _parse_end_rates(args.end_rates)
    N = _spectra.index_change(
        cats, end_cat,
        _spectra.WeightVector(cone_w, end_w),
        _spectra.WeightVector(cone_wp, end_wp))
    _emit_json({"N": N}, indent=None)
    if args.verify and N < 0:
        raise VerificationFailed("index change must be nonnegative")


# ---------------------------------------------------------------------------
# edge


def _read_rhs(path: str):
    """(r, z) columns of an rhs CSV; only line 1 may be a header.

    Blank lines are skipped.  Any other row that is short or does not parse,
    and a file without data rows, is an input error.
    """
    rs, zs = [], []
    with open(path) as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            try:
                r, z = float(row[0]), float(row[1])
            except (IndexError, ValueError):
                if reader.line_num == 1:
                    continue  # header
                raise ValueError(f"{path}: line {reader.line_num}: expected "
                                 f"two numbers 'r,z', got {row!r}")
            rs.append(r)
            zs.append(z)
    if not rs:
        raise ValueError(f"{path}: no data rows")
    return np.array(rs), np.array(zs)


def _mode_problem(args) -> _edge.ModeProblem:
    grid, z = _read_rhs(args.rhs)
    support = args.support
    if support is None:
        nz = np.nonzero(z)[0]
        support = float(grid[nz[-1]]) if nz.size else float(grid[0])
        support = min(support, 0.999999)
    return _edge.ModeProblem(n=args.n, mu=args.mu, grid=grid, rhs=z,
                             support_max=support)


def _cmd_edge_solve(args, cfg: RunConfig) -> None:
    prob = _mode_problem(args)
    y = _edge.solve_mode(prob)
    res = _edge.operator_residual(prob, y)
    _emit_rows(("r", "y"), [(f"{r:.12g}", f"{v:.12g}")
                            for r, v in zip(prob.grid, y)], cfg.format)
    print(f"operator residual {res:.3e}", file=sys.stderr)
    if args.verify:
        _check("operator residual", res,
               1e-6 * (1.0 + float(np.max(np.abs(prob.rhs)))))


def _cmd_edge_split(args, cfg: RunConfig) -> None:
    prob = _mode_problem(args)
    sol = _edge.split_solution(prob, args.delta_p, args.delta_pp)
    lhs, rhs = (None, None)
    if prob.n != 0:
        lhs, rhs = _edge.coefficient_bound_check(prob, args.delta_pp)
    # checked after the bound pair, whose Gamma factors overflow first
    if not np.all(np.isfinite(sol.shell_norms)):
        raise _edge.QuadratureFailure(
            f"shell norm beyond the float range at delta'' = {args.delta_pp}")
    _emit_json({
        "c_low": sol.c_low,
        "c_low_regularized": sol.c_low_regularized,
        "delta_pp": sol.delta_pp,
        "shell_norms": sol.shell_norms,
        "coefficient_bound": {"lhs": lhs, "rhs": rhs},
    })
    if args.verify and lhs is not None:
        _check("coefficient bound", lhs, rhs)


def _cmd_edge_kernel(args, cfg: RunConfig) -> None:
    modes = _edge.kernel_modes(args.nmax)
    rows = [(m.n, f"{m.identity_residual:.6e}", f"{m.ode0_residual:.6e}",
             f"{m.ode1_residual:.6e}", f"{m.log_ratio:.8f}",
             f"{m.inverse_ratio:.8f}", m.normal_form) for m in modes]
    _emit_rows(("n", "identity_residual", "ode0_residual", "ode1_residual",
                "log_ratio", "inverse_ratio", "normal_form"), rows, cfg.format)
    worst = float(np.max([(m.identity_residual, m.ode0_residual,
                           m.ode1_residual) for m in modes]))
    print(f"{len(modes)} modes, worst residual {worst:.3e}", file=sys.stderr)
    _check("kernel residual", worst, cfg.kernel_tol)


# ---------------------------------------------------------------------------
# lattice


def _named_vectors():
    L = _lattice.build_k3_lattice()
    emb = _lattice.matching_embedding(L)
    return L, dict(zip(emb.labels, emb.images)), emb


def _cmd_lattice_build(args, cfg: RunConfig) -> None:
    L = _lattice.build_k3_lattice()
    _emit_json({"rank": L.rank, "determinant": L.determinant(),
                "signature": L.signature(), "even": L.is_even()})
    if args.verify:
        rng = np.random.default_rng(cfg.seed)
        for _ in range(200):
            v = rng.integers(-9, 10, L.rank)
            if int(_lattice.pairing(L, v, v)) % 2 != 0:
                raise VerificationFailed("even-lattice square parity")


def _cmd_lattice_match(args, cfg: RunConfig) -> None:
    L, named, emb = _named_vectors()
    _emit_json({"labels": emb.labels, "gram": emb.source_gram,
                "images": named})
    if args.verify:
        got = [[int(_lattice.pairing(L, a, b)) for b in emb.images]
               for a in emb.images]
        if got != emb.source_gram.tolist():
            raise VerificationFailed("embedding Gram mismatch")


def _named_vector(named, name):
    if name not in named:
        raise ValueError(f"unknown vector {name!r}; use pi, kplus, kminus")
    return named[name]


def _parse_dots(text, named):
    out = []
    if not text:
        return out
    for part in text.split(","):
        name, _, val = part.partition(":")
        out.append((_named_vector(named, name), int(val)))
    return out


def _cmd_lattice_search(args, cfg: RunConfig) -> None:
    L, named, emb = _named_vectors()
    dots = _parse_dots(args.dots, named)
    res = _lattice.constrained_class_search(list(emb.images), args.square,
                                            dots, args.bound, L=L)
    cert = asdict(res.certificate) if res.certificate else None
    _emit_json({"solutions": res.solutions, "certificate": cert})
    if args.verify:
        if res.certificate is not None and res.solutions:
            raise VerificationFailed(
                "certificate contradicts a found solution")
        for sol in res.solutions:
            vec = sum(c * v for c, v in zip(sol, emb.images))
            if int(_lattice.pairing(L, vec, vec)) != args.square or any(
                    int(_lattice.pairing(L, vec, w)) != val
                    for w, val in dots):
                raise VerificationFailed(
                    f"solution {sol} fails the exact constraints")


def _cmd_lattice_complement(args, cfg: RunConfig) -> None:
    L, named, emb = _named_vectors()
    names = args.of.split(",") if args.of else ["pi", "kplus", "kminus"]
    vecs = [_named_vector(named, n) for n in names]
    basis = _lattice.orthogonal_complement(L, vecs)
    _emit_rows(tuple(f"e{i}" for i in range(L.rank)), basis, cfg.format)
    print(f"complement rank {len(basis)}", file=sys.stderr)
    if args.verify:
        for b in basis:
            if any(int(_lattice.pairing(L, b, v)) != 0 for v in vecs):
                raise VerificationFailed("complement vector pairs nonzero")


def _cmd_lattice_generic(args, cfg: RunConfig) -> None:
    L, named, emb = _named_vectors()
    basis = _lattice.orthogonal_complement(L, list(emb.images))
    avoid = []
    for square, dots in ((-2, [(named["kplus"], 0)]),
                         (0, [(named["kplus"], 0), (named["kminus"], 2)])):
        found = _lattice.constrained_class_search(
            list(emb.images), square, dots, bound=args.avoid_bound, L=L)
        for coeffs in found.solutions:
            vec = sum(c * v for c, v in zip(coeffs, emb.images))
            avoid.append(vec)
    gd = _lattice.generic_direction(L, basis, avoid,
                                    seed=args.seed if args.seed is not None
                                    else cfg.seed)
    _emit_json({
        "coords": [str(c) for c in gd.coords],
        "square": str(gd.square),
        "normalized": gd.normalized,
        "avoid_count": len(avoid),
        "avoid_vacuous": not avoid,
    })
    if args.verify:
        from fractions import Fraction
        vec = np.array([Fraction(c) for c in gd.coords], dtype=object)
        if gd.square <= 0 or any(
                (vec @ L.gram @ np.asarray(C, dtype=object)) == 0
                for C in avoid):
            raise VerificationFailed(
                "generic direction hits an avoid hyperplane")


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cone-forge", description=__doc__)
    p.add_argument("--config", help="JSON config path "
                   "(default: $CONE_FORGE_CONFIG)")
    sub = p.add_subparsers(dest="group", required=True)

    g2p = sub.add_parser("g2").add_subparsers(dest="command", required=True)
    q = g2p.add_parser("lincheck")
    q.add_argument("--samples", type=_positive_int, default=100)
    q.add_argument("--step", type=_positive_float)
    q.add_argument("--seed", type=int)
    q.add_argument("--verify", action="store_true")
    q.set_defaults(func=_cmd_g2_lincheck)

    bp = sub.add_parser("bessel").add_subparsers(dest="command", required=True)
    q = bp.add_parser("eval")
    q.add_argument("--mu", type=float, required=True)
    q.add_argument("--x", type=float, required=True)
    q.add_argument("--verify", action="store_true")
    q.set_defaults(func=_cmd_bessel_eval)

    stp = sub.add_parser("stenzel").add_subparsers(dest="command", required=True)
    q = stp.add_parser("profile")
    q.add_argument("--n", type=int, default=3)
    q.add_argument("--wmax", type=_positive_float)
    q.add_argument("--steps", type=_positive_int)
    q.add_argument("--out")
    q.add_argument("--verify", action="store_true")
    q.set_defaults(func=_cmd_stenzel_profile)
    q = stp.add_parser("ma-check")
    q.add_argument("--eps", type=_parse_eps, help="re or re,im")
    q.add_argument("--points", type=_positive_int, default=50)
    q.add_argument("--seed", type=int)
    q.add_argument("--verify", action="store_true")
    q.set_defaults(func=_cmd_stenzel_ma_check)

    spp = sub.add_parser("spectra").add_subparsers(dest="command", required=True)
    q = spp.add_parser("rates")
    q.add_argument("--input", required=True)
    q.add_argument("--p", type=int, default=0)
    q.add_argument("--window", required=True)
    q.add_argument("--kind", choices=("harmonic", "one-form", "paired",
                                      "functions"), default="functions")
    q.add_argument("--n", type=int, default=3)
    q.add_argument("--verify", action="store_true")
    q.set_defaults(func=_cmd_spectra_rates)
    q = spp.add_parser("index-change")
    q.add_argument("--input", required=True)
    q.add_argument("--delta", required=True,
                   help="comma list: cone weights then end weight")
    q.add_argument("--delta-prime", required=True)
    q.add_argument("--p", type=int, default=0)
    q.add_argument("--functions", action="store_true")
    q.add_argument("--n", type=int, default=3)
    q.add_argument("--end-rates", default="0:2",
                   help="end catalog as rate:dim pairs, comma-separated")
    q.add_argument("--verify", action="store_true")
    q.set_defaults(func=_cmd_spectra_index_change)

    ep = sub.add_parser("edge").add_subparsers(dest="command", required=True)
    q = ep.add_parser("solve")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--mu", type=float, required=True)
    q.add_argument("--rhs", required=True, help="CSV file with rows r,z")
    q.add_argument("--support", type=float)
    q.add_argument("--verify", action="store_true")
    q.set_defaults(func=_cmd_edge_solve)
    q = ep.add_parser("split")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--mu", type=float, required=True)
    q.add_argument("--rhs", required=True)
    q.add_argument("--support", type=float)
    q.add_argument("--delta-p", type=float, default=0.0)
    q.add_argument("--delta-pp", type=float, required=True)
    q.add_argument("--verify", action="store_true")
    q.set_defaults(func=_cmd_edge_split)
    q = ep.add_parser("kernel")
    q.add_argument("--nmax", type=int, required=True)
    q.add_argument("--verify", action="store_true")
    q.set_defaults(func=_cmd_edge_kernel)

    lp = sub.add_parser("lattice").add_subparsers(dest="command", required=True)
    q = lp.add_parser("build")
    q.add_argument("--verify", action="store_true")
    q.set_defaults(func=_cmd_lattice_build)
    q = lp.add_parser("match")
    q.add_argument("--verify", action="store_true")
    q.set_defaults(func=_cmd_lattice_match)
    q = lp.add_parser("search")
    q.add_argument("--square", type=int, required=True)
    q.add_argument("--dots", default="",
                   help="name:value pairs over pi,kplus,kminus")
    q.add_argument("--bound", type=int, default=1000)
    q.add_argument("--verify", action="store_true")
    q.set_defaults(func=_cmd_lattice_search)
    q = lp.add_parser("complement")
    q.add_argument("--of", help="comma list of pi,kplus,kminus")
    q.add_argument("--verify", action="store_true")
    q.set_defaults(func=_cmd_lattice_complement)
    q = lp.add_parser("generic")
    q.add_argument("--seed", type=int)
    q.add_argument("--avoid-bound", type=int, default=50)
    q.add_argument("--verify", action="store_true")
    q.set_defaults(func=_cmd_lattice_generic)
    return p


# the package's input exceptions all subclass ValueError; OSError covers
# paths that are missing, directories or unreadable
_INPUT_ERRORS = (OSError, ValueError, KeyError)


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        cfg = RunConfig.load(args.config)
        args.func(args, cfg)
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except _edge.QuadratureFailure as exc:  # numerical, not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
