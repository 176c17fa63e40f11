"""Hypothesis fuzz of the cone-forge inputs: the argv of `g2 lincheck`,
`bessel eval`, `stenzel profile`, `stenzel ma-check`, `edge solve`, `edge
split`, `edge kernel`, `spectra rates`, `spectra index-change`, `lattice
search`, `lattice complement` and `lattice generic`, the rhs CSV that the
README `edge solve` and `edge split` read, spectrum and config JSON
documents, and files that are not UTF-8.

Each run goes through `cli.dispatch` in-process.  Whatever the numbers,
finite, NaN, infinite, beyond the float range or negative, and whatever the
JSON types, the exit code is one of the documented ones (0 ok, 1
verification or numerical failure, 2 usage or input error), no exception
escapes, and stdout holds no NaN or Infinity (except for `edge solve`,
whose argv fuzz checks exit codes only); `g2 lincheck` and the `stenzel`
commands raise no RuntimeWarning.  Sizes are drawn small and past their
caps (`stenzel.MAX_STEPS`, which is also drawn, `edge.MAX_NMAX`,
`cli.MAX_SAMPLES` and `cli.MAX_POINTS`), so no case allocates more than
about 110 MB or runs for more than a second.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cone_forge import cli, edge, stenzel
from _manufactured import bump

_SPECIAL = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400"])
_MALFORMED = st.sampled_from(["", "x", "1:2", "0x1", "1e", "--"])


def _numbers(bound=None):
    """Option values as text: finite floats (within +-bound), or a special."""
    finite = (st.floats(allow_nan=False, allow_infinity=False) if bound is None
              else st.floats(-bound, bound))
    return st.one_of(finite.map(repr), _SPECIAL)


_ORDERS = _numbers(1e6)
_MODES = st.one_of(st.integers(-50, 50), st.integers()).map(str)
_VERIFY = st.sampled_from([[], ["--verify"]])


@pytest.fixture(scope="module")
def rhs_csv(tmp_path_factory):
    grid = edge.log_grid(1e-6, 1.0, 512)
    path = tmp_path_factory.mktemp("fuzz") / "rhs.csv"
    path.write_text("r,z\n" + "".join(
        f"{r!r},{v!r}\n" for r, v in zip(grid, bump(0.25, 0.5)(grid))))
    return str(path)


def _dispatch(argv):
    """(exit code, stdout, stderr, RuntimeWarnings) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.dispatch(argv)  # an escaping exception fails the test
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code:
        assert "Traceback" not in err.getvalue()
    return (code, out.getvalue(), err.getvalue(),
            [w for w in caught if issubclass(w.category, RuntimeWarning)])


def _exit_code(argv):
    return _dispatch(argv)[0]


def _clean(argv):
    """Exit code of one run whose stdout must hold no NaN or Infinity."""
    code, out = _dispatch(argv)[:2]
    assert "NaN" not in out and "Infinity" not in out, (argv, out)
    return code


# tiny, moderate and huge steps as text, beside any float and the specials
_STEPS = st.one_of(
    _numbers(), st.floats(5e-324, 1e-280).map(repr),
    st.floats(1e-8, 10.0).map(repr), st.floats(1e200, 1e308).map(repr),
    st.sampled_from(["5e-324", "1e-310", "1e300", "1.7976931348623157e308"]))


@settings(max_examples=60, deadline=None)
@given(samples=st.integers(1, 3) | st.integers(cli.MAX_SAMPLES + 1),
       step=_STEPS, seed=st.integers(0, 2 ** 32 - 1), verify=_VERIFY)
def test_g2_lincheck_fuzz(samples, step, seed, verify):
    code, out, err, runtime_warnings = _dispatch(
        ["g2", "lincheck", f"--samples={samples}", f"--step={step}",
         f"--seed={seed}", *verify])
    assert "RuntimeWarning" not in err and not runtime_warnings
    assert "NaN" not in out and "Infinity" not in out
    if samples > cli.MAX_SAMPLES:
        assert code == 2 and out == ""
    elif code == 0:
        assert len(out.splitlines()) == 1 + 3 * samples


@settings(max_examples=60, deadline=None)
@given(mu=_ORDERS, x=_numbers(), verify=_VERIFY)
def test_bessel_eval_fuzz(mu, x, verify):
    _clean(["bessel", "eval", f"--mu={mu}", f"--x={x}", *verify])


def _sizes(small, *edges):
    """Integer option values as text: small ones, any integer, the given
    edge values, and text that is no integer."""
    return st.one_of(small, st.integers(), st.sampled_from(edges)).map(str) \
        | _MALFORMED


@settings(max_examples=60, deadline=None)
@given(n=_sizes(st.integers(-2, 12), 400, 10 ** 30), wmax=_numbers(),
       steps=_sizes(st.integers(-2, 3000), stenzel.MAX_STEPS,
                    stenzel.MAX_STEPS + 1, 10 ** 30), verify=_VERIFY)
def test_stenzel_profile_fuzz(n, wmax, steps, verify):
    code, out, err, runtime_warnings = _dispatch(
        ["stenzel", "profile", f"--n={n}", f"--wmax={wmax}",
         f"--steps={steps}", *verify])
    assert not runtime_warnings, (n, wmax, steps, err)
    assert "nan" not in out and "inf" not in out, (n, wmax, steps)


_EPS = st.one_of(_numbers(), st.tuples(_numbers(), _numbers()).map(
    ",".join), _MALFORMED, st.sampled_from(["1,2,3", "0,0", "nan,0"]))


@settings(max_examples=60, deadline=None)
@given(eps=st.one_of(st.none(), _EPS),
       points=st.integers(-1, 4) | st.integers(cli.MAX_POINTS + 1),
       seed=_sizes(st.integers(-2, 2 ** 64), 2 ** 64))
def test_stenzel_ma_check_fuzz(eps, points, seed):
    extra = [] if eps is None else [f"--eps={eps}"]
    code, out, err, runtime_warnings = _dispatch(
        ["stenzel", "ma-check", *extra, f"--points={points}",
         f"--seed={seed}"])
    assert not runtime_warnings, (eps, err)
    if points > cli.MAX_POINTS:
        assert code == 2 and out == ""


@settings(max_examples=40, deadline=None)
@given(n=_MODES, mu=_ORDERS, support=st.one_of(st.none(), _numbers()),
       verify=_VERIFY)
def test_edge_solve_fuzz(rhs_csv, n, mu, support, verify):
    extra = [] if support is None else [f"--support={support}"]
    _exit_code(["edge", "solve", f"--n={n}", f"--mu={mu}", "--rhs", rhs_csv,
                *extra, *verify])


@settings(max_examples=40, deadline=None)
@given(n=_MODES, mu=_ORDERS, dp=_numbers(), dpp=_numbers(), verify=_VERIFY)
def test_edge_split_fuzz(rhs_csv, n, mu, dp, dpp, verify):
    _clean(["edge", "split", f"--n={n}", f"--mu={mu}", "--rhs", rhs_csv,
            f"--delta-p={dp}", f"--delta-pp={dpp}", *verify])


# rhs CSV contents for the README `edge solve` and `edge split` argv
_README_EDGE = {
    "solve": ["edge", "solve", "--n", "2", "--mu", "1.0"],
    "split": ["edge", "split", "--n", "2", "--mu", "1.0", "--delta-p", "0.5",
              "--delta-pp", "1.5"],
}
_CELL = st.one_of(
    st.floats(-2.0, 2.0), st.floats(1e-9, 1.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0]))


@st.composite
def _rhs_rows(draw):
    """0-12 rows r,z: log-uniform or drawn r, maybe a duplicate r, maybe sorted."""
    count = draw(st.integers(0, 12))
    if draw(st.booleans()):
        rs = [float(r) for r in np.geomspace(1e-3, 0.9, count)]
    else:
        rs = draw(st.lists(_CELL, min_size=count, max_size=count))
    rows = [(r, draw(_CELL)) for r in rs]
    if rows and draw(st.booleans()):
        j = draw(st.integers(0, len(rows) - 1))
        rows.insert(j, (rows[j][0], draw(_CELL)))
    if draw(st.booleans()):
        rows.sort(key=lambda row: row[0] if row[0] == row[0] else math.inf)
    return rows


@settings(max_examples=120, deadline=None)
@given(rows=_rhs_rows(), header=st.booleans(),
       cmd=st.sampled_from(sorted(_README_EDGE)), verify=_VERIFY)
def test_edge_rhs_csv_fuzz(tmp_path_factory, rows, header, cmd, verify):
    path = tmp_path_factory.mktemp("csv") / "rhs.csv"
    path.write_text(("r,z\n" if header else "")
                    + "".join(f"{r!r},{z!r}\n" for r, z in rows))
    _clean(_README_EDGE[cmd] + ["--rhs", str(path), *verify])


# ---------------------------------------------------------------------------
# spectrum and config JSON documents


class _Raw(str):
    """JSON text written as it is: numbers that no float holds (1e400)."""


def _to_json(value) -> str:
    if isinstance(value, _Raw):
        return str(value)
    if isinstance(value, dict):
        return "{%s}" % ", ".join(f"{json.dumps(k)}: {_to_json(v)}"
                                  for k, v in value.items())
    if isinstance(value, list):
        return "[%s]" % ", ".join(map(_to_json, value))
    return json.dumps(value)  # NaN and +-Infinity as Python writes them


_ODD = st.sampled_from([math.nan, math.inf, -math.inf, _Raw("1e400"),
                        _Raw("-1e400"), _Raw("1" + "0" * 400)])
_LEAF = st.one_of(_ODD, st.integers(-3, 12), st.floats(-20.0, 80.0),
                  st.text(max_size=4), st.booleans(), st.none())
# any JSON value: odd numbers, strings, lists and nested objects
_VALUE = st.recursive(_LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=3), inner, max_size=2)), max_leaves=4)


def _or_value(strategy):
    return st.one_of(strategy, _VALUE)


_MODE = st.fixed_dictionaries(
    {"p": _or_value(st.integers(0, 5)),
     "mu": _or_value(st.one_of(st.integers(0, 60),
                               st.sampled_from(["33/4", "1/2", "1e400"]))),
     "mult": _or_value(st.integers(1, 3))},
    optional={"tag": _VALUE})
_CONSTRAINT = st.fixed_dictionaries(
    {"p": _or_value(st.integers(0, 5)), "bound": _or_value(st.integers(0, 10))},
    optional={"strict": _VALUE, "tag": _VALUE})
_SPECTRUM = _or_value(st.fixed_dictionaries({}, optional={
    "betti": _or_value(st.one_of(
        st.sampled_from([[1, 0, 0, 0, 0, 1], [1, 0, 1, 1, 0, 1]]),
        st.lists(_or_value(st.integers(0, 2)), min_size=6, max_size=6))),
    "coexact_modes": _or_value(st.lists(_MODE, max_size=3)),
    "constraints": _or_value(st.lists(_CONSTRAINT, max_size=2)),
    "complete_below": _or_value(st.one_of(
        st.floats(0.0, 100.0),
        st.dictionaries(st.sampled_from(["0", "1", "2", "x"]),
                        _or_value(st.floats(0.0, 60.0)), max_size=2))),
    "name": _VALUE}))
# a window inside the range each catalog is proved on
_KIND_WINDOW = {"functions": "-9:9", "harmonic": "-9:9", "one-form": "-3:1",
                "paired": "-1.5:0"}


@settings(max_examples=150, deadline=None)
@given(doc=_SPECTRUM, kind=st.sampled_from(sorted(_KIND_WINDOW)),
       p=st.integers(0, 6), verify=_VERIFY)
# a constraint that is not an object escaped as an AttributeError
@example(doc={"betti": [1, 0, 0, 0, 0, 1], "constraints": [math.nan]},
         kind="functions", p=0, verify=[])
def test_spectrum_json_fuzz(tmp_path_factory, doc, kind, p, verify):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(_to_json(doc))
    _clean(["spectra", "rates", "--input", str(path), "--kind", kind,
            f"--window={_KIND_WINDOW[kind]}", f"--p={p}", *verify])


# the one key, a gate and a run parameter that it no longer sets, and junk
_CONFIG_KEYS = st.sampled_from(sorted(vars(cli.RunConfig()))
                               + ["g2_tol", "seed", "bogus"])
# commands that read the format, a gate or a seed, and no grid size
_CONFIG_COMMANDS = st.sampled_from([
    ["lattice", "build", "--verify"], ["g2", "lincheck", "--samples", "1"],
    ["bessel", "eval", "--mu", "1", "--x", "1", "--verify"],
    ["edge", "kernel", "--nmax", "1"]])


@settings(max_examples=80, deadline=None)
@given(doc=_or_value(st.dictionaries(_CONFIG_KEYS, _or_value(st.one_of(
           st.sampled_from(["csv", "json"]), st.integers(-2, 2 ** 64),
           st.floats())), max_size=3)),
       argv=_CONFIG_COMMANDS)
def test_config_json_fuzz(tmp_path_factory, doc, argv):
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(_to_json(doc))
    _clean(["--config", str(path), *argv])


# bytes that occur nowhere in UTF-8, between arbitrary bytes
_NOT_UTF8 = st.tuples(st.binary(max_size=30),
                      st.sampled_from([b"\xff", b"\xfe", b"\xc0", b"\xf5"]),
                      st.binary(max_size=30)).map(b"".join)


@settings(max_examples=60, deadline=None)
@given(data=_NOT_UTF8, which=st.sampled_from(["config", "spectrum", "rhs"]))
def test_non_utf8_file_fuzz(tmp_path_factory, data, which):
    path = tmp_path_factory.mktemp("bytes") / "input"
    path.write_bytes(data)
    argv = {"config": ["--config", str(path), "lattice", "build"],
            "spectrum": ["spectra", "rates", "--input", str(path),
                         "--window=0:1"],
            "rhs": _README_EDGE["solve"] + ["--rhs", str(path)]}[which]
    assert _clean(argv) == 2


# ---------------------------------------------------------------------------
# spectra and lattice argv

_NUMBER_TEXT = st.one_of(_numbers(100.0), _MALFORMED)
_DIMENSIONS = st.one_of(st.integers(-3, 12), st.integers(), st.sampled_from(
    [2 ** 52, 2 ** 52 + 1, 10 ** 160, 10 ** 400])).map(str)
_SHIPPED = st.sampled_from(["s5", "s2xs3_partial"])


@settings(max_examples=100, deadline=None)
@given(spec=_SHIPPED, lo=_NUMBER_TEXT, hi=_NUMBER_TEXT,
       sep=st.sampled_from([":", ":", "", "::"]),
       kind=st.sampled_from(sorted(_KIND_WINDOW)), p=_DIMENSIONS,
       n=_DIMENSIONS, verify=_VERIFY)
def test_spectra_rates_argv_fuzz(spec, lo, hi, sep, kind, p, n, verify):
    _clean(["spectra", "rates", "--input", spec, f"--window={lo}{sep}{hi}",
            "--kind", kind, f"--p={p}", f"--n={n}", *verify])


_END_RATE = st.tuples(_NUMBER_TEXT, st.one_of(
    st.integers(-2, 5).map(str), _MALFORMED, st.just(str(10 ** 30)))).map(
        ":".join)


@settings(max_examples=100, deadline=None)
@given(spec=_SHIPPED, delta=st.lists(_NUMBER_TEXT, min_size=1, max_size=3),
       dprime=st.lists(_NUMBER_TEXT, min_size=1, max_size=3),
       end=st.lists(_END_RATE, min_size=1, max_size=3),
       functions=st.booleans(), p=_DIMENSIONS, n=_DIMENSIONS, verify=_VERIFY)
def test_spectra_index_change_argv_fuzz(spec, delta, dprime, end, functions,
                                        p, n, verify):
    _clean(["spectra", "index-change", "--input", spec,
            f"--delta={','.join(delta)}", f"--delta-prime={','.join(dprime)}",
            f"--end-rates={','.join(end)}", f"--p={p}", f"--n={n}",
            *(["--functions"] if functions else []), *verify])


_DOT = st.tuples(
    st.sampled_from(["pi", "kplus", "kminus", "", "x"]),
    st.one_of(st.integers(-50, 50), st.integers(), st.just(2 ** 63)).map(str)
    | _MALFORMED).map(":".join)


@settings(max_examples=80, deadline=None)
@given(square=st.one_of(st.integers(-100, 100), st.integers()),
       dots=st.lists(_DOT, max_size=3), bound=st.integers(-2, 1000),
       verify=_VERIFY)
def test_lattice_search_argv_fuzz(square, dots, bound, verify):
    _clean(["lattice", "search", f"--square={square}",
            f"--dots={','.join(dots)}", f"--bound={bound}", *verify])


# the cap itself takes seconds; the README order is 10
@settings(max_examples=40, deadline=None)
@given(nmax=_sizes(st.integers(-2, 12), edge.MAX_NMAX + 1, 10 ** 30),
       verify=_VERIFY)
def test_edge_kernel_fuzz(nmax, verify):
    _clean(["edge", "kernel", f"--nmax={nmax}", *verify])


_NAMES = st.lists(st.sampled_from(["pi", "kplus", "kminus", "", "x", "PI"]),
                  max_size=5).map(",".join)


@settings(max_examples=60, deadline=None)
@given(of=st.one_of(st.none(), _NAMES, _MALFORMED), verify=_VERIFY)
def test_lattice_complement_argv_fuzz(of, verify):
    _clean(["lattice", "complement", *([] if of is None else [f"--of={of}"]),
            *verify])


@settings(max_examples=40, deadline=None)
@given(seed=_sizes(st.integers(-2, 2 ** 64), 2 ** 64),
       avoid=_sizes(st.integers(-2, 60), 10 ** 30), verify=_VERIFY)
def test_lattice_generic_argv_fuzz(seed, avoid, verify):
    _clean(["lattice", "generic", f"--seed={seed}", f"--avoid-bound={avoid}",
            *verify])
