"""Single command-line entry point: cone-forge <group> <command> [options].

Exit codes: 0 when the run and all internal verifications succeed, 1 when a
verification fails (a residual above tolerance, an inequality violated) or
a computation gives no usable result, 2 on usage or input errors.  Each
code has one exception class in `errors.py`, and `dispatch` maps each class
to its code and its one stderr line: `InputError` (and `OSError`) to 2,
`NumericalFailure` and `VerificationFailed` to 1.  Results go to stdout,
diagnostics to stderr.  `_check` holds the one pass rule (finite and at or
below tolerance, so NaN fails) and each gate's tolerance is a constant
beside it.  `_emit_json` writes all JSON, a non-finite float as null.
Every run parameter (grid, step, seed) is a flag with a fixed default.  The
JSON file named by CONE_FORGE_CONFIG or --config sets the output format
only, so no file moves a gate; identical inputs and config produce
byte-identical output.
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

from .errors import InputError, NumericalFailure, VerificationFailed

# numpy and the module of a command are imported inside its handler, so a
# command loads only what it runs; a handler looks up each function on its
# module when it runs, where a caller may have replaced it
__all__ = ["RunConfig", "dispatch", "main"]


USAGE_ERROR = 2
VERIFY_ERROR = 1
# the largest counts; each row is kept until it prints, so at the cap
MAX_SAMPLES = 100_000  # 0.15 ms and 0.9 KB a g2 sample: 15 s and 90 MB
MAX_POINTS = 100_000  # 0.12 ms and 0.35 KB a Monge-Ampere point: 12 s, 35 MB
# the Stenzel profile grid of `stenzel profile` and of the smoothed potential
PROFILE_WMAX = 20.0
PROFILE_STEPS = 2000


@dataclass
class RunConfig:
    format: str = "csv"

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        cfg = cls()
        source = path or os.environ.get("CONE_FORGE_CONFIG")
        if source:
            from .spectra import _read_json
            doc = _read_json(source)
            if not isinstance(doc, dict):
                raise InputError("config must be a JSON object")
            for key, val in doc.items():
                if key != "format":
                    raise InputError(f"unknown config key {key!r}")
                cfg.format = val
        if cfg.format not in ("csv", "json"):
            raise InputError(f"format must be 'csv' or 'json', "
                             f"not {cfg.format!r}")
        return cfg


# the tolerance of each gate; README's Checks table names each one
G2_TOL = 1e-6
WRONSKIAN_TOL = 1e-9
STENZEL_CONE_TOL = 1e-4
STENZEL_SMOOTHING_TOL = 1e-3
OPERATOR_TOL = 1e-6  # times 1 + sup|z|, the scale of the rhs
KERNEL_TOL = 1e-8


def _check(name: str, worst: float, tol: float) -> None:
    """A check passes only on a finite value at or below tol, so NaN fails."""
    if not (math.isfinite(worst) and worst <= tol):
        raise VerificationFailed(f"{name} {worst:.3e} > {tol:.1e}")


def _parsed(convert, value):
    """convert(value), with its ValueError (a malformed number, a negative
    seed) as an input error that keeps the message."""
    try:
        return convert(value)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _plain(obj):
    """obj with numpy arrays and scalars as Python values and every
    non-finite float as None (JSON null)."""
    if hasattr(obj, "tolist"):  # a numpy value; numpy need not be loaded
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(val) for val in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit_json(obj, indent=2, file=None):
    """The one JSON writer: strict JSON, on stdout unless file is given."""
    print(json.dumps(_plain(obj), indent=indent, allow_nan=False), file=file)


def _emit_rows(header, rows, fmt, file=None):
    """The one row writer: JSON records or CSV, on stdout unless file is
    given."""
    if fmt == "json":
        _emit_json([dict(zip(header, r)) for r in rows], file=file)
        return
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    (file or sys.stdout).write(out.getvalue())


# ---------------------------------------------------------------------------
# g2


def _cmd_g2_lincheck(args, cfg: RunConfig) -> None:
    if args.samples > MAX_SAMPLES:
        raise InputError(f"samples must be <= {MAX_SAMPLES}, got {args.samples}")
    import numpy as np
    from . import g2

    rng = _parsed(np.random.default_rng, args.seed)
    rows, residuals = [], []
    for k in range(args.samples):
        gamma = g2.random_unit_3form(rng)
        dec = g2.project_3form(g2.PHI0, gamma)
        # the three components of a sample are one stacked residual call
        res = g2.linearization_residual(
            np.stack((dec.pi1, dec.pi7, dec.pi27)), args.step)
        for name, r in zip(("pi1", "pi7", "pi27"), res.tolist()):
            residuals.append(r)
            rows.append((k, name, f"{r:.6e}"))
    _emit_rows(("sample", "component", "residual"), rows, cfg.format)
    if args.verify:  # np.max, unlike max(), propagates NaN
        _check("linearization residual", np.max(residuals), G2_TOL)


# ---------------------------------------------------------------------------
# bessel


def _cmd_bessel_eval(args, cfg: RunConfig) -> None:
    import numpy as np
    from . import bessel

    # an overflowed K gives 0 * inf in the Wronskian: reported as null and
    # failed by the gate below, so numpy's warning would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        ev = bessel.bessel_eval(args.mu, args.x)
        res = bessel.wronskian_residual(args.mu, args.x)
    _emit_json({"mu": args.mu, "x": args.x, "i": ev.value_i,
                "k": ev.value_k, "regime": ev.regime,
                "wronskian_residual": res})
    if args.verify:
        _check("Wronskian residual", res, WRONSKIAN_TOL)


# ---------------------------------------------------------------------------
# stenzel


def _cmd_stenzel_profile(args, cfg: RunConfig) -> None:
    import numpy as np
    from . import stenzel

    prof = stenzel.solve_profile(args.n, args.wmax, args.steps)
    if args.verify and (prof.f[0] != 0.0 or prof.fprime[0] != 0.0
                        or not np.all(np.diff(prof.fprime) > 0)):
        raise VerificationFailed("profile boundary/monotonicity invariant")
    header = ("w", "f", "fprime")
    rows = [(f"{w:.12g}", f"{f:.12g}", f"{fp:.12g}")
            for w, f, fp in zip(prof.w, prof.f, prof.fprime)]
    if args.out:  # a profile file is CSV whatever the format
        with open(args.out, "w", newline="") as fh:
            _emit_rows(header, rows, "csv", file=fh)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        _emit_rows(header, rows, cfg.format)


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
    # |eps| itself must be a float: abs(1e308+1e308j) raises OverflowError
    if not math.isfinite(math.hypot(*vals)):
        raise argparse.ArgumentTypeError(f"parts and modulus must be finite, "
                                         f"got {text!r}")
    return complex(*vals)


def _cmd_stenzel_ma_check(args, cfg: RunConfig) -> None:
    if args.points > MAX_POINTS:
        raise InputError(f"points must be <= {MAX_POINTS}, got {args.points}")
    import numpy as np
    from . import stenzel

    rng = _parsed(np.random.default_rng, args.seed)
    if args.eps == 0:
        potential = stenzel.cone_potential_fn(3)
        tol = STENZEL_CONE_TOL
    else:
        prof = stenzel.solve_profile(3, PROFILE_WMAX, PROFILE_STEPS)
        potential = stenzel.stenzel_potential_fn(prof, args.eps)
        tol = STENZEL_SMOOTHING_TOL
    rows, residuals = [], []
    # at a huge |eps| the points' |z|^2 overflows and the residual is NaN,
    # which the check below fails, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(args.points):
            pt = stenzel.random_chart_point(args.eps, rng)
            res = stenzel.monge_ampere_residual(potential, pt, h=1e-3)
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
    return _parsed(float, a), _parsed(float, b)


def _cmd_spectra_rates(args, cfg: RunConfig) -> None:
    from . import spectra

    if args.verify and args.kind in ("one-form", "paired"):
        raise InputError(f"--verify has no check for --kind {args.kind}")
    spec = spectra.load_spectrum(args.input)
    window = _parse_window(args.window)
    if args.kind == "harmonic":
        cat = spectra.harmonic_rate_catalog(spec, args.p, window)
        degrees = range(max(args.p - 2, 0), min(args.p, 5) + 1)
    elif args.kind == "one-form":
        cat = spectra.one_form_catalog(spec, window)
        degrees = (0, 1)
    elif args.kind == "paired":
        cat = spectra.paired_catalog(spec, window)
        degrees = (0,)
    else:
        cat = spectra.function_rates(args.n, spec.coclosed(0), window)
        degrees = (0,)
        report = spectra.function_gap_report(args.n, spec.coclosed(0))
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
        wide = spectra.harmonic_rate_catalog(spec, args.p, (-8.01, 4.01))
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
                a * a + x.d == m.mu + shift * shift
                and m.mult == r.multiplicity for m in spec.coclosed(0))
            if not (solves and x.cmp(window[0]) > 0 > x.cmp(window[1])):
                raise VerificationFailed(
                    f"function rate {r.lam} does not solve (lam + {shift})^2 "
                    f"= mu + {shift * shift} inside the window")


def _parse_end_rates(text: str):
    """RATE:DIM pairs: a NaN rate would lie in no window and a negative
    dimension would subtract from N, so both are refused."""
    from . import spectra

    out = []
    for part in text.split(","):
        lam, _, dim = part.partition(":")
        rate, mult = _parsed(float, lam), _parsed(int, dim)
        if not math.isfinite(rate) or mult < 0:
            raise InputError(f"end rate {part!r} needs a finite rate and a "
                             "dimension >= 0")
        out.append(spectra.CriticalRate(lam=rate, degree=0,
                                        multiplicity=mult, gen_type="end"))
    return out


def _cmd_spectra_index_change(args, cfg: RunConfig) -> None:
    from . import spectra

    spec = spectra.load_spectrum(args.input)
    deltas = [_parsed(float, x) for x in args.delta.split(",")]
    dprimes = [_parsed(float, x) for x in args.delta_prime.split(",")]
    if len(deltas) != len(dprimes) or len(deltas) < 1:
        raise InputError("delta and delta-prime must have equal length >= 1")
    cone_w, end_w = tuple(deltas[:-1]), deltas[-1]
    cone_wp, end_wp = tuple(dprimes[:-1]), dprimes[-1]
    cats = []
    for lo, hi in zip(cone_w, cone_wp):
        if args.functions:
            cats.append(spectra.function_rates(args.n, spec.coclosed(0),
                                               (lo, hi)))
        else:
            cats.append(spectra.harmonic_rate_catalog(spec, args.p, (lo, hi)))
    end_cat = _parse_end_rates(args.end_rates)
    N = spectra.index_change(
        cats, end_cat,
        spectra.WeightVector(cone_w, end_w),
        spectra.WeightVector(cone_wp, end_wp))
    _emit_json({"N": N}, indent=None)
    if args.verify and N < 0:
        raise VerificationFailed("index change must be nonnegative")


# ---------------------------------------------------------------------------
# edge


def _read_rhs(path: str):
    """(r, z) columns of an rhs CSV; only line 1 may be a header.

    Blank lines are skipped.  Any other row that is short, long or does not
    parse, a file that is not UTF-8 CSV, and a file without data rows, is an
    input error.
    """
    import numpy as np

    rs, zs = [], []
    try:
        with open(path, encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row:
                    continue
                try:
                    r, z = float(row[0]), float(row[1])
                except (IndexError, ValueError):
                    if reader.line_num == 1:
                        continue  # header
                    r = None
                if r is None or len(row) > 2:  # a third field is not cut off
                    raise InputError(f"{path}: line {reader.line_num}: "
                                     f"expected two numbers 'r,z', got {row!r}")
                rs.append(r)
                zs.append(z)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not rs:
        raise InputError(f"{path}: no data rows")
    return np.array(rs), np.array(zs)


def _mode_problem(args):
    import numpy as np
    from . import edge

    grid, z = _read_rhs(args.rhs)
    support = args.support
    if support is None:
        nz = np.nonzero(z)[0]
        support = float(grid[nz[-1]]) if nz.size else float(grid[0])
        support = min(support, 0.999999)
    return edge.ModeProblem(n=args.n, mu=args.mu, grid=grid, rhs=z,
                            support_max=support)


def _cmd_edge_solve(args, cfg: RunConfig) -> None:
    import numpy as np
    from . import edge

    prob = _mode_problem(args)
    y = edge.solve_mode(prob)
    res = edge.operator_residual(prob, y)
    _emit_rows(("r", "y"), [(f"{r:.12g}", f"{v:.12g}")
                            for r, v in zip(prob.grid, y)], cfg.format)
    print(f"operator residual {res:.3e}", file=sys.stderr)
    if args.verify:
        _check("operator residual", res,
               OPERATOR_TOL * (1.0 + float(np.max(np.abs(prob.rhs)))))


def _cmd_edge_split(args, cfg: RunConfig) -> None:
    import numpy as np
    from . import edge

    prob = _mode_problem(args)
    sol = edge.split_solution(prob, args.delta_p, args.delta_pp)
    lhs, rhs = (None, None)
    if prob.n != 0:
        lhs, rhs = edge.coefficient_bound_check(prob, args.delta_pp)
    # checked after the bound pair, whose Gamma factors overflow first
    if not np.all(np.isfinite(sol.shell_norms)):
        raise NumericalFailure(
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
    import numpy as np
    from . import edge

    modes = edge.kernel_modes(args.nmax)
    rows = [(m.n, f"{m.identity_residual:.6e}", f"{m.ode0_residual:.6e}",
             f"{m.ode1_residual:.6e}", f"{m.log_ratio:.8f}",
             f"{m.inverse_ratio:.8f}", m.normal_form) for m in modes]
    _emit_rows(("n", "identity_residual", "ode0_residual", "ode1_residual",
                "log_ratio", "inverse_ratio", "normal_form"), rows, cfg.format)
    worst = float(np.max([(m.identity_residual, m.ode0_residual,
                           m.ode1_residual) for m in modes]))
    print(f"{len(modes)} modes, worst residual {worst:.3e}", file=sys.stderr)
    _check("kernel residual", worst, KERNEL_TOL)


# ---------------------------------------------------------------------------
# lattice


def _named_vectors():
    from . import lattice

    L = lattice.build_k3_lattice()
    emb = lattice.matching_embedding(L)
    return L, dict(zip(emb.labels, emb.images)), emb


# the lattice module checks its own results on every call, so --verify adds
# only the per-solution check of search and the check of generic
def _cmd_lattice_build(args, cfg: RunConfig) -> None:
    from . import lattice

    L = lattice.build_k3_lattice()
    _emit_json({"rank": L.rank, "determinant": L.determinant(),
                "signature": L.signature(), "even": L.is_even()})


def _cmd_lattice_match(args, cfg: RunConfig) -> None:
    _, named, emb = _named_vectors()
    _emit_json({"labels": emb.labels, "gram": emb.source_gram,
                "images": named})


def _named_vector(named, name):
    if name not in named:
        raise InputError(f"unknown vector {name!r}; use pi, kplus, kminus")
    return named[name]


def _parse_dots(text, named):
    out = []
    if not text:
        return out
    for part in text.split(","):
        name, _, val = part.partition(":")
        out.append((_named_vector(named, name), _parsed(int, val)))
    return out


def _cmd_lattice_search(args, cfg: RunConfig) -> None:
    from . import lattice

    L, named, emb = _named_vectors()
    dots = _parse_dots(args.dots, named)
    res = lattice.constrained_class_search(list(emb.images), args.square,
                                           dots, args.bound, L=L)
    cert = asdict(res.certificate) if res.certificate else None
    _emit_json({"solutions": res.solutions, "certificate": cert})
    if args.verify:
        for sol in res.solutions:
            vec = sum(c * v for c, v in zip(sol, emb.images))
            if int(lattice.pairing(L, vec, vec)) != args.square or any(
                    int(lattice.pairing(L, vec, w)) != val
                    for w, val in dots):
                raise VerificationFailed(
                    f"solution {sol} fails the exact constraints")


def _cmd_lattice_complement(args, cfg: RunConfig) -> None:
    from . import lattice

    L, named, emb = _named_vectors()
    names = args.of.split(",") if args.of else ["pi", "kplus", "kminus"]
    vecs = [_named_vector(named, n) for n in names]
    basis = lattice.orthogonal_complement(L, vecs)
    _emit_rows(tuple(f"e{i}" for i in range(L.rank)), basis, cfg.format)
    print(f"complement rank {len(basis)}", file=sys.stderr)


def _cmd_lattice_generic(args, cfg: RunConfig) -> None:
    import numpy as np
    from . import lattice

    L, named, emb = _named_vectors()
    basis = lattice.orthogonal_complement(L, list(emb.images))
    avoid = []
    for square, dots in ((-2, [(named["kplus"], 0)]),
                         (0, [(named["kplus"], 0), (named["kminus"], 2)])):
        found = lattice.constrained_class_search(
            list(emb.images), square, dots, bound=args.avoid_bound, L=L)
        for coeffs in found.solutions:
            vec = sum(c * v for c, v in zip(coeffs, emb.images))
            avoid.append(vec)
    gd = lattice.generic_direction(L, basis, avoid, seed=args.seed)
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
    q.add_argument("--step", type=_positive_float, default=1e-4)
    q.add_argument("--seed", type=int, default=0)
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
    q.add_argument("--wmax", type=_positive_float, default=PROFILE_WMAX)
    q.add_argument("--steps", type=_positive_int, default=PROFILE_STEPS)
    q.add_argument("--out")
    q.add_argument("--verify", action="store_true")
    q.set_defaults(func=_cmd_stenzel_profile)
    q = stp.add_parser("ma-check")
    q.add_argument("--eps", type=_parse_eps, default=0.0, help="re or re,im")
    q.add_argument("--points", type=_positive_int, default=50)
    q.add_argument("--seed", type=int, default=0)
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
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--avoid-bound", type=int, default=50)
    q.add_argument("--verify", action="store_true")
    q.set_defaults(func=_cmd_lattice_generic)
    return p


# OSError covers paths that are missing, directories or unreadable
_INPUT_ERRORS = (OSError, InputError)


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse before Python 3.12 reads "--opt=--" as an empty list
        if [] in vars(args).values():
            parser.error("expected one argument")
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
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
