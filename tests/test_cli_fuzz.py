"""Hypothesis fuzz of the `g2 lincheck`, `bessel eval`, `edge solve` and
`edge split` argv, and of the rhs CSV that the README `edge solve` and
`edge split` read.

Each run goes through `cli.dispatch` in-process.  Whatever the numbers,
finite, NaN, infinite, beyond the float range or negative, the exit code is
one of the documented ones (0 ok, 1 verification or numerical failure, 2
usage or input error), no exception escapes, and the rhs and `g2 lincheck`
fuzzes print no NaN or Infinity; `g2 lincheck` raises no RuntimeWarning.
"""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_forge import cli, edge
from _manufactured import bump

_SPECIAL = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400"])


def _numbers(bound=None):
    """Option values as text: finite floats (within +-bound), or a special."""
    finite = (st.floats(allow_nan=False, allow_infinity=False) if bound is None
              else st.floats(-bound, bound))
    return st.one_of(finite.map(repr), _SPECIAL)


_ORDERS = _numbers(1e6)
_MODES = st.integers(-50, 50).map(str)
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


# tiny, moderate and huge steps as text, beside any float and the specials
_STEPS = st.one_of(
    _numbers(), st.floats(5e-324, 1e-280).map(repr),
    st.floats(1e-8, 10.0).map(repr), st.floats(1e200, 1e308).map(repr),
    st.sampled_from(["5e-324", "1e-310", "1e300", "1.7976931348623157e308"]))


@settings(max_examples=60, deadline=None)
@given(samples=st.integers(1, 3), step=_STEPS,
       seed=st.integers(0, 2 ** 32 - 1), verify=_VERIFY)
def test_g2_lincheck_fuzz(samples, step, seed, verify):
    code, out, err, runtime_warnings = _dispatch(
        ["g2", "lincheck", f"--samples={samples}", f"--step={step}",
         f"--seed={seed}", *verify])
    assert "RuntimeWarning" not in err and not runtime_warnings
    assert "NaN" not in out and "Infinity" not in out
    if code == 0:
        assert len(out.splitlines()) == 1 + 3 * samples


@settings(max_examples=60, deadline=None)
@given(mu=_ORDERS, x=_numbers(), verify=_VERIFY)
def test_bessel_eval_fuzz(mu, x, verify):
    out = _dispatch(["bessel", "eval", f"--mu={mu}", f"--x={x}", *verify])[1]
    assert "NaN" not in out and "Infinity" not in out


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
    out = _dispatch(["edge", "split", f"--n={n}", f"--mu={mu}", "--rhs",
                     rhs_csv, f"--delta-p={dp}", f"--delta-pp={dpp}",
                     *verify])[1]
    assert "NaN" not in out and "Infinity" not in out


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
    out = _dispatch(_README_EDGE[cmd] + ["--rhs", str(path), *verify])[1]
    assert "NaN" not in out and "Infinity" not in out
