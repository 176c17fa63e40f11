"""Hypothesis fuzz of the `bessel eval`, `edge solve` and `edge split` argv.

Each run goes through `cli.dispatch` in-process.  Whatever the numbers,
finite, NaN, infinite, beyond the float range or negative, the exit code is
one of the documented ones (0 ok, 1 verification or numerical failure, 2
usage or input error) and no exception escapes.
"""

import contextlib
import io

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


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)  # an escaping exception fails the test
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code:
        assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=60, deadline=None)
@given(mu=_ORDERS, x=_numbers(), verify=_VERIFY)
def test_bessel_eval_fuzz(mu, x, verify):
    _exit_code(["bessel", "eval", f"--mu={mu}", f"--x={x}", *verify])


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
    _exit_code(["edge", "split", f"--n={n}", f"--mu={mu}", "--rhs", rhs_csv,
                f"--delta-p={dp}", f"--delta-pp={dpp}", *verify])
