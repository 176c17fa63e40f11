import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from _fresh_python import run_python
from _manufactured import bump
from cone_forge import cli, edge, spectra
from cone_forge.spectra import ConstraintViolation

DATA = Path(__file__).resolve().parents[1] / "src" / "cone_forge" / "data"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def test_s5_function_rates_are_integers():
    code, out, err = run(["spectra", "rates", "--input", str(DATA / "s5.json"),
                          "--window=-0.5:6.5"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert all(float(r[0]) == int(float(r[0])) for r in rows)


def test_malformed_spectrum_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(["spectra", "rates", "--input", str(bad),
                          "--window=0:1"])
    assert code == 2


@pytest.mark.parametrize("window", ["5.5:0.5", "1:0"])
@pytest.mark.parametrize("kind", ["functions", "harmonic"])
def test_rates_non_increasing_window_exits_2(window, kind):
    code, out, err = run(["spectra", "rates", "--input", str(DATA / "s5.json"),
                          f"--window={window}", "--kind", kind])
    assert code == 2
    assert err == "error: window must be an increasing pair\n"
    assert out == ""


def test_betti_duality_violation_exits_2(tmp_path):
    doc = {"betti": [1, 2, 0, 0, 0, 1], "coexact_modes": []}
    f = tmp_path / "nodual.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(["spectra", "rates", "--input", str(f),
                          "--window=0:1"])
    assert code == 2


def test_edge_kernel_row_count():
    code, out, err = run(["edge", "kernel", "--nmax", "5"])
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("n,")
    assert len(rows) - 1 == 10


def test_usage_error_exits_2():
    assert run(["bogus"])[0] == 2
    assert run(["edge", "kernel"])[0] == 2  # missing --nmax


def test_g2_lincheck_csv_and_verify():
    code, out, err = run(["g2", "lincheck", "--samples", "4", "--verify"])
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "sample,component,residual"
    assert len(rows) - 1 == 12  # three components per sample
    comps = {r.split(",")[1] for r in rows[1:]}
    assert comps == {"pi1", "pi7", "pi27"}


def test_determinism_byte_identical():
    a = run(["g2", "lincheck", "--samples", "3", "--seed", "9"])
    b = run(["g2", "lincheck", "--samples", "3", "--seed", "9"])
    assert a == b
    a = run(["lattice", "generic", "--seed", "4"])
    b = run(["lattice", "generic", "--seed", "4"])
    assert a == b


def test_ma_check_determinism_byte_identical():
    argv = ["stenzel", "ma-check", "--eps", "0.5,0.5", "--points", "50",
            "--seed", "7"]
    a, b = run(argv), run(argv)
    assert a[0] == 0
    assert a[1] == b[1]


def test_config_file_and_env(tmp_path, monkeypatch):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"seed": 5, "format": "json"}))
    code, out, err = run(["--config", str(cfgf), "g2", "lincheck",
                          "--samples", "1"])
    assert code == 0
    assert json.loads(out)[0]["component"] == "pi1"
    monkeypatch.setenv("CONE_FORGE_CONFIG", str(cfgf))
    code2, out2, err2 = run(["g2", "lincheck", "--samples", "1"])
    assert code2 == 0 and json.loads(out2) == json.loads(out)
    monkeypatch.delenv("CONE_FORGE_CONFIG")


def test_bad_config_exits_2(tmp_path):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"nonsense": 1}))
    assert run(["--config", str(cfgf), "lattice", "build"])[0] == 2
    cfgf.write_text(json.dumps({"g2_tol": -1}))
    assert run(["--config", str(cfgf), "lattice", "build"])[0] == 2


def test_config_format_must_be_csv_or_json(tmp_path):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"format": "xml"}))
    code, out, err = run(["--config", str(cfgf), "g2", "lincheck",
                          "--samples", "1"])
    assert code == 2
    assert out == "" and err.startswith("error:") and "xml" in err
    # the edge grid fields are gone: no command read them
    for key in ("edge_points", "edge_rmin"):
        cfgf.write_text(json.dumps({key: 1}))
        code, out, err = run(["--config", str(cfgf), "lattice", "build"])
        assert code == 2 and "unknown config key" in err


@pytest.mark.parametrize("doc", [{"seed": 1.9}, {"stenzel_steps": 150.7},
                                 {"stenzel_steps": 0}, {"stenzel_steps": -5},
                                 {"stenzel_wmax": 0.0}, {"seed": True},
                                 {"g2_tol": float("nan")}])
def test_config_bad_value_exits_2(tmp_path, doc):
    # a fractional integer is refused, not truncated (1.9 is not seed 1),
    # and grid sizes are checked at load, whatever the command reads
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(doc))
    code, out, err = run(["--config", str(cfgf), "lattice", "build"])
    key = next(iter(doc))
    assert code == 2
    assert out == "" and err.startswith("error:") and key in err


def test_config_integral_values_still_load(tmp_path):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"seed": 3, "stenzel_steps": 150,
                                "g2_tol": 1, "stenzel_wmax": 12}))
    cfg = cli.RunConfig.load(str(cfgf))
    assert (cfg.seed, cfg.stenzel_steps) == (3, 150)
    assert cfg.g2_tol == 1.0 and isinstance(cfg.g2_tol, float)
    assert cfg.stenzel_wmax == 12.0


def test_edge_empty_rhs_path_exits_2():
    for cmd in ("solve", "split"):
        code, out, err = run(EDGE_ARGS[cmd] + ["--rhs", ""])
        assert code == 2
        assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("eps", ["1,2,3", "1,", "a", "", "nan", "inf",
                                 "1,nan", "1e400"])
def test_stenzel_ma_check_bad_eps_exits_2(eps):
    code, out, err = run(["stenzel", "ma-check", "--eps", eps,
                          "--points", "1"])
    assert code == 2
    assert out == ""
    assert "error: argument --eps" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["g2", "lincheck", "--samples", "0", "--verify"],
    ["g2", "lincheck", "--samples=-3", "--verify"],
    ["stenzel", "ma-check", "--points", "0"],
    ["stenzel", "ma-check", "--points=-1", "--eps", "0.5,0.5"],
])
def test_vacuous_counts_exit_2(argv):
    # a run over zero samples or points checks nothing and must not pass
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert "must be >= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["stenzel", "profile", "--n", "3", "--wmax", "5", "--steps", "0"],
     "must be >= 1"),
    (["stenzel", "profile", "--n", "3", "--wmax", "5", "--steps=-10"],
     "must be >= 1"),
    (["stenzel", "profile", "--n", "3", "--wmax", "0", "--steps", "200"],
     "must be a finite value > 0"),
    (["stenzel", "profile", "--n", "3", "--wmax=-5", "--steps", "200"],
     "must be a finite value > 0"),
    (["g2", "lincheck", "--samples", "2", "--step", "0"],
     "must be a finite value > 0"),
    (["g2", "lincheck", "--samples", "2", "--step=-1e-4"],
     "must be a finite value > 0"),
])
def test_zero_sizes_refused_not_defaulted(argv, message):
    # 0 was read as "not given" and replaced by the config default (exit 0)
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


def test_bessel_eval_near_integer_order_verifies():
    # the reflection formula cancelled here: K off by 1.8e-7, exit 1
    code, out, err = run(["bessel", "eval", "--mu", "1.00000000001",
                          "--x", "0.99", "--verify"])
    assert code == 0, err
    assert json.loads(out)["regime"] == "temme"


def test_import_leaves_out_scipy_integrate():
    # the command-line import floor loads no scipy module at all
    proc = run_python(
        ["-c", "import sys, cone_forge.cli; "
         "print('scipy.integrate' in sys.modules); "
         "print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "[]"]


def test_module_entry_point_runs_commands():
    proc = run_python(["-m", "cone_forge.cli", "lattice", "build"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rank"] == 22
    assert run_python(["-m", "cone_forge.cli", "bogus"]).returncode == 2


@pytest.mark.parametrize("argv", [
    ["edge", "solve", "--n", "2", "--mu", "1.0", "--rhs", "adir"],
    ["--config", "adir", "lattice", "build"],
    ["spectra", "rates", "--input", "adir", "--window=0:1"],
    ["stenzel", "profile", "--steps", "50", "--out", "adir"],
])
def test_directory_as_path_exits_2(tmp_path, argv):
    (tmp_path / "adir").mkdir()
    proc = run_python(["-m", "cone_forge.cli", *argv], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["lattice", "complement", "--of", "pi,foo"],
    ["lattice", "search", "--square=-2", "--dots", "foo:0", "--bound", "5"],
])
def test_unknown_vector_name_exits_2(argv):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err == "error: unknown vector 'foo'; use pi, kplus, kminus\n"


def test_stenzel_profile_out_file(tmp_path):
    out_file = tmp_path / "profile.csv"
    code, out, err = run(["stenzel", "profile", "--n", "3", "--wmax", "5",
                          "--steps", "200", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "w,f,fprime"
    assert len(lines) == 202


def test_stenzel_ma_check_exit():
    code, out, err = run(["stenzel", "ma-check", "--points", "2",
                          "--seed", "1"])
    assert code == 0
    assert "max residual" in err


def test_bessel_eval_json():
    code, out, err = run(["bessel", "eval", "--mu", "0.5", "--x", "1.0",
                          "--verify"])
    assert code == 0
    doc = json.loads(out)
    assert doc["i"] == pytest.approx(np.sqrt(2 / np.pi) * np.sinh(1.0))
    assert doc["wronskian_residual"] <= 1e-10


def test_index_change_cli():
    code, out, err = run(["spectra", "index-change",
                          "--input", str(DATA / "s2xs3_partial.json"),
                          "--delta=-2.0,-0.1", "--delta-prime=-1.9,0.1",
                          "--p", "0", "--end-rates", "0:2"])
    assert code == 0
    assert json.loads(out) == {"N": 2}


def test_lattice_cli_roundtrip():
    code, out, err = run(["lattice", "build"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"rank": 22, "determinant": -1, "signature": [3, 19],
                   "even": True}
    code, out, err = run(["lattice", "match"])
    assert json.loads(out)["gram"] == [[-2, 1, 0], [1, 4, 0], [0, 0, 4]]
    code, out, err = run(["lattice", "search", "--square=-2",
                          "--dots", "kplus:0", "--bound", "200"])
    doc = json.loads(out)
    assert doc["solutions"] == [] and doc["certificate"]["modulus"] == 4
    code, out, err = run(["lattice", "complement"])
    assert code == 0
    assert "complement rank 19" in err
    code, out, err = run(["lattice", "generic", "--seed", "2"])
    doc = json.loads(out)
    assert doc["avoid_vacuous"] is True


def test_edge_solve_and_split_cli(tmp_path):
    from _manufactured import bump
    grid = edge.log_grid(1e-6, 1.0, 512)
    z = bump(0.25, 0.5)(grid)
    rhs = tmp_path / "rhs.csv"
    rhs.write_text("r,z\n" + "\n".join(f"{r:.17g},{v:.17g}"
                                       for r, v in zip(grid, z)))
    code, out, err = run(["edge", "solve", "--n", "2", "--mu", "1.0",
                          "--rhs", str(rhs)])
    assert code == 0
    assert out.splitlines()[0] == "r,y"
    code, out, err = run(["edge", "split", "--n", "2", "--mu", "1.0",
                          "--rhs", str(rhs), "--delta-p", "0.5",
                          "--delta-pp", "1.5", "--verify"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficient_bound"]["lhs"] <= doc["coefficient_bound"]["rhs"]


EDGE_ARGS = {"solve": ["edge", "solve", "--n", "2", "--mu", "1.0"],
             "split": ["edge", "split", "--n", "2", "--mu", "1.0",
                       "--delta-p", "0.5", "--delta-pp", "1.5"]}


def _rhs_rows():
    from _manufactured import bump
    grid = edge.log_grid(1e-6, 1.0, 512)
    return [f"{r:.17g},{v:.17g}" for r, v in zip(grid, bump(0.25, 0.5)(grid))]


def test_edge_rhs_without_data_rows_exits_2(tmp_path):
    rhs = tmp_path / "rhs.csv"
    rhs.write_text("r,z\n")
    for cmd in ("solve", "split"):
        code, out, err = run(EDGE_ARGS[cmd] + ["--rhs", str(rhs)])
        assert code == 2
        assert err.startswith("error:") and "no data rows" in err


@pytest.mark.parametrize("bad", ["oops,1.0", "0.3", "r,z"])
@pytest.mark.parametrize("cmd", ["solve", "split"])
def test_edge_rhs_bad_row_after_line_1_exits_2(tmp_path, bad, cmd):
    # a row after the header that is short or does not parse is an input
    # error, never silently dropped
    rows = _rhs_rows()
    rows.insert(100, bad)
    rhs = tmp_path / "rhs.csv"
    rhs.write_text("r,z\n" + "\n".join(rows) + "\n")
    code, out, err = run(EDGE_ARGS[cmd] + ["--rhs", str(rhs)])
    assert code == 2
    assert err.startswith("error:") and "line 102" in err


def _write_rhs(path, grid, z):
    path.write_text("r,z\n" + "".join(f"{r!r},{v!r}\n" for r, v in zip(grid, z)))
    return str(path)


def test_edge_solve_refused_before_any_output(tmp_path):
    # both used to print every row and then exit 2 from the residual check
    grid = [float(r) for r in np.geomspace(1e-3, 0.5, 10)]
    grid[3] *= 1.01  # not uniform in log r
    cases = [(grid, [1.0] * 9 + [0.0], "uniform log grid"),
             ([0.1, 0.2], [1.0, 0.0], "at least 5 grid points")]
    for i, (g, z, message) in enumerate(cases):
        rhs = _write_rhs(tmp_path / f"rhs{i}.csv", g, z)
        code, out, err = run(EDGE_ARGS["solve"] + ["--rhs", rhs])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err


@pytest.mark.parametrize("cmd", ["solve", "split"])
@pytest.mark.parametrize("z2, message", [
    (None, "at least 2 knots"), (math.nan, "finite"), (math.inf, "finite")])
def test_edge_rhs_unusable_samples_exit_2(tmp_path, cmd, z2, message):
    if z2 is None:
        grid, z = [0.1], [0.0]
    else:
        grid = [float(r) for r in np.geomspace(1e-3, 0.5, 10)]
        z = [1.0] * 9 + [0.0]
        z[2] = z2
    rhs = _write_rhs(tmp_path / "rhs.csv", grid, z)
    code, out, err = run(EDGE_ARGS[cmd] + ["--rhs", rhs])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_edge_rhs_header_optional(tmp_path):
    rows = _rhs_rows()
    with_header = tmp_path / "with.csv"
    with_header.write_text("r,z\n" + "\n".join(rows) + "\n")
    without = tmp_path / "without.csv"
    without.write_text("\n".join(rows) + "\n")
    a = run(EDGE_ARGS["solve"] + ["--rhs", str(with_header)])
    b = run(EDGE_ARGS["solve"] + ["--rhs", str(without)])
    assert a[0] == b[0] == 0
    assert a[1] == b[1]


# ---------------------------------------------------------------------------
# spectra: pinned README output and --verify for every kind


README_SPECTRA = [
    (["spectra", "rates", "--input", "s5", "--window=-0.5:6.5"],
     "lambda,degree,mult,type,log_mode\n"
     "0,0,1,function,0\n1,0,6,function,0\n2,0,20,function,0\n"
     "3,0,50,function,0\n4,0,105,function,0\n5,0,196,function,0\n"
     "6,0,336,function,0\n"),
    (["spectra", "rates", "--input", "s2xs3_partial", "--p", "2",
      "--kind", "harmonic", "--window=-2.5:0.5"],
     "lambda,degree,mult,type,log_mode\n-2,2,1,T6,1\n0,2,1,T4,0\n"),
    (["spectra", "index-change", "--input", "s2xs3_partial",
      "--delta=-2.0,-0.1", "--delta-prime=-1.9,0.1", "--end-rates", "0:2"],
     '{"N": 2}\n'),
]


@pytest.mark.parametrize("argv,stdout", README_SPECTRA)
def test_readme_spectra_commands_golden(argv, stdout):
    assert run(argv)[:2] == (0, stdout)
    assert run(argv + ["--verify"])[:2] == (0, stdout)


@pytest.mark.parametrize("kind", ["one-form", "paired"])
def test_spectra_verify_refused_without_a_check(kind):
    code, out, err = run(["spectra", "rates", "--input", "s2xs3_partial",
                          "--kind", kind, "--window=-2:0", "--verify"])
    assert (code, out) == (2, "")
    assert err == f"error: --verify has no check for --kind {kind}\n"


def test_spectra_functions_verify_catches_a_bad_rate(monkeypatch):
    # (0.5 + 2)^2 = mu + 4 gives mu = 2.25, which s5 does not list
    bad = spectra.CriticalRate(lam=0.5, degree=0, multiplicity=1,
                               gen_type="function")
    real = cli._spectra.function_rates
    monkeypatch.setattr(cli._spectra, "function_rates",
                        lambda *a: real(*a) + [bad])
    code, out, err = run(["spectra", "rates", "--input", "s5",
                          "--window=-0.5:6.5", "--verify"])
    assert code == 1
    assert "function rate 0.5 does not solve" in err


def test_spectra_functions_verify_checks_the_window(monkeypatch):
    # a true rate of the listed mode mu = 12 (multiplicity 20), but outside
    real = cli._spectra.function_rates
    monkeypatch.setattr(cli._spectra, "function_rates",
                        lambda n, modes, w: real(n, modes, (-6.5, 6.5)))
    code, out, err = run(["spectra", "rates", "--input", "s5",
                          "--window=-0.5:6.5", "--verify"])
    assert code == 1
    assert "function rate -6.0 does not solve" in err


@pytest.mark.parametrize("mu", ["NaN", "Infinity", '"1e400"'])
def test_non_finite_eigenvalue_exits_2(tmp_path, mu):
    f = tmp_path / "spec.json"
    f.write_text('{"betti": [1, 0, 0, 0, 0, 1], "coexact_modes": '
                 f'[{{"p": 0, "mu": {mu}, "mult": 1}}]}}')
    code, out, err = run(["spectra", "rates", "--input", str(f),
                          "--window=-9:9"])
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed mode entry")


# ---------------------------------------------------------------------------
# gates that NaN cannot pass


def test_bessel_eval_nan_residual_fails():
    # K overflows at order 1000, so the Wronskian residual is NaN
    code, out, err = run(["bessel", "eval", "--mu", "1000", "--x", "1",
                          "--verify"])
    assert code == 1
    assert "Wronskian residual nan" in err


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


def test_bessel_eval_non_finite_prints_null():
    # K overflows at order 1000: k and the residual print as null, the
    # check still fails, and no numpy warning reaches stderr
    for verify, code in (([], 0), (["--verify"], 1)):
        proc = run_python(["-m", "cone_forge.cli", "bessel", "eval",
                           "--mu", "1000", "--x", "1", *verify])
        assert proc.returncode == code
        doc = json.loads(proc.stdout, parse_constant=_refuse_constant)
        assert doc["k"] is None and doc["wronskian_residual"] is None
        assert doc["i"] == 0.0
        assert "Warning" not in proc.stderr


@pytest.mark.parametrize("x, i, k", [("1e103", None, 0.0),
                                     ("1.7976931348623157e308", None, 0.0),
                                     ("5e-324", 1.7735e-162, 5.6386e161)])
def test_bessel_eval_extreme_arguments_print_ieee_limits(x, i, k):
    # from x ~ 6.5e102 and below ~1e-308 the values were NaN and printed
    # null; I overflows to inf (null) beyond e^x's range, K underflows to 0
    code, out, err = run(["bessel", "eval", "--mu", "0.5", "--x", x])
    assert code == 0
    doc = json.loads(out, parse_constant=_refuse_constant)
    assert doc["k"] == pytest.approx(k, rel=1e-4)
    assert doc["i"] == (None if i is None else pytest.approx(i, rel=1e-4))


@pytest.mark.parametrize("end_rates", ["nan:2", "inf:1", "-inf:1", "0:-3",
                                       "0:2,nan:1"])
def test_index_change_refuses_bad_end_rates(end_rates):
    code, out, err = run(["spectra", "index-change", "--input", "s5",
                          "--delta=-0.5,-0.1", "--delta-prime=2.5,0.1",
                          f"--end-rates={end_rates}"])
    assert (code, out) == (2, "")
    assert err.startswith("error: end rate")


def test_index_change_zero_dimension_end_rate():
    base = ["spectra", "index-change", "--input", "s5", "--delta=-0.5,-0.1",
            "--delta-prime=2.5,0.1", "--end-rates"]
    assert run(base + ["0:0"])[:2] == run(base + ["5:2"])[:2]


def _nan_first(real):
    """real, with the first call's value (a residual or an array of them)
    made NaN."""
    calls = []

    def fake(*args, **kwargs):
        calls.append(1)
        value = real(*args, **kwargs)
        return value * math.nan if len(calls) == 1 else value
    return fake


def test_g2_lincheck_nan_residual_fails(monkeypatch):
    monkeypatch.setattr(cli._g2, "linearization_residual",
                        _nan_first(cli._g2.linearization_residual))
    code, out, err = run(["g2", "lincheck", "--samples", "2", "--verify"])
    assert code == 1
    assert "linearization residual nan" in err


def test_stenzel_ma_check_nan_residual_fails(monkeypatch):
    monkeypatch.setattr(cli._stenzel, "monge_ampere_residual",
                        _nan_first(cli._stenzel.monge_ampere_residual))
    code, out, err = run(["stenzel", "ma-check", "--points", "2",
                          "--seed", "1"])
    assert code == 1
    assert "max residual nan" in err


# ---------------------------------------------------------------------------
# edge: pinned README output, non-finite orders, numerical failures

README_SPLIT = """{
  "c_low": 0.0023036938118918084,
  "c_low_regularized": 0.0028796172648647604,
  "delta_pp": 1.5,
  "shell_norms": [
    0.001220268926370345,
    0.00226858382204984,
    3.3776382999986454e-13,
""" + "    0.0,\n" * 12 + """    0.0
  ],
  "coefficient_bound": {
    "lhs": 0.0023036938118918084,
    "rhs": 0.047214824163804
  }
}
"""


def _readme_rhs(tmp_path):
    rhs = tmp_path / "rhs.csv"
    rhs.write_text("r,z\n" + "\n".join(_rhs_rows()) + "\n")
    return str(rhs)


def test_readme_edge_commands_golden(tmp_path):
    # the n != 0 Green-kernel pass, pinned bit for bit
    import hashlib
    rhs = _readme_rhs(tmp_path)
    code, out, err = run(EDGE_ARGS["solve"] + ["--rhs", rhs])
    assert (code, err) == (0, "operator residual 1.260e-05\n")
    assert out.splitlines()[300] == "0.00324162825691,-1.49355163839e-05"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a5822b05b42849d7b3a65df1c120ebcc38b34cdf646a85715fd7a36eef637b75")
    code, out, err = run(EDGE_ARGS["split"] + ["--rhs", rhs])
    assert (code, out, err) == (0, README_SPLIT, "")


def test_edge_solve_n0_large_order(tmp_path):
    # mu = 25 formed s^(-2 mu) = inf at r = 1e-8, below the support, and
    # 0 * inf = NaN there ended in a traceback
    from _manufactured import bump
    grid = edge.log_grid()
    rhs = _write_rhs(tmp_path / "rhs.csv", grid.tolist(),
                     bump(0.25, 0.5)(grid).tolist())
    code, out, err = run(["edge", "solve", "--n", "0", "--mu", "25",
                          "--rhs", rhs])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == grid.size
    ys = np.array([float(y) for _, y in rows])
    assert np.all(np.isfinite(ys)) and ys[-1] > 0.0


@pytest.mark.parametrize("argv", [
    ["bessel", "eval", "--mu", "inf", "--x", "1"],
    ["bessel", "eval", "--mu", "nan", "--x", "1"],
    ["bessel", "eval", "--mu", "1e400", "--x", "1", "--verify"],
    ["edge", "solve", "--n", "2", "--mu", "inf"],
    ["edge", "solve", "--n", "0", "--mu", "nan"],
    ["edge", "split", "--n", "1", "--mu", "nan", "--delta-p", "0",
     "--delta-pp", "1"],
    ["edge", "split", "--n", "0", "--mu", "1", "--delta-p", "0.5",
     "--delta-pp", "inf"],
    ["edge", "split", "--n", "0", "--mu", "1", "--delta-p", "0.5",
     "--delta-pp", "nan"],
    ["edge", "split", "--n", "2", "--mu", "1", "--delta-p", "0.5",
     "--delta-pp", "inf"],
    ["edge", "split", "--n", "2", "--mu", "1", "--delta-p", "0.5",
     "--delta-pp", "nan"],
])
def test_non_finite_order_exits_2(tmp_path, argv):
    if argv[0] == "edge":
        argv = argv + ["--rhs", _readme_rhs(tmp_path)]
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("argv, code", [
    (["g2", "lincheck", "--samples", "2", "--step", "1e300"], 2),
    (["edge", "split", "--n", "1", "--mu", "1", "--rhs", "rhs.csv",
      "--delta-p", "0.5", "--delta-pp", "200"], 1),
])
def test_overflow_prints_one_error_line_and_no_warning(tmp_path, argv, code):
    # a fresh process, since pytest captures warnings in-process: numpy's
    # overflow warnings used to precede the one error line on stderr
    _readme_rhs(tmp_path)
    proc = run_python(["-m", "cone_forge.cli", *argv], cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: ")


def test_quadrature_failure_exits_1_without_traceback(tmp_path):
    # Gamma(dpp + 2 + mu) beyond the float range: no bound pair is claimed
    code, out, err = run(["edge", "split", "--n", "1", "--mu", "1",
                          "--rhs", _readme_rhs(tmp_path), "--delta-p", "0.5",
                          "--delta-pp", "200"])
    assert (code, out) == (1, "")
    assert err.startswith("error: non-finite bound pair")
    assert len(err.splitlines()) == 1


def test_edge_split_shell_norms_finite_up_to_the_float_range(tmp_path):
    # the squared terms overflowed long before the norms did: at delta'' = 40
    # three norms of 8.4e160 to 5.5e184 printed as Infinity; at 400 the norms
    # are beyond the float range, and the run claims nothing
    argv = ["edge", "split", "--n", "0", "--mu", "1", "--rhs",
            _readme_rhs(tmp_path), "--delta-p", "0.5", "--delta-pp"]
    code, out, err = run(argv + ["40"])
    norms = json.loads(out, parse_constant=_refuse_constant)["shell_norms"]
    assert (code, err) == (0, "")
    assert len(norms) == 16 and all(math.isfinite(v) for v in norms)
    assert max(norms) == pytest.approx(5.45e184, rel=1e-3)
    code, out, err = run(argv + ["400"])
    assert (code, out) == (1, "")
    assert err.startswith("error: shell norm") and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# one verdict line and one JSON writer for every command

_TIGHT = {"g2_tol": 1e-30, "stenzel_cone_tol": 1e-30, "kernel_tol": 1e-30}
_README_RHS_TOL = 1e-6 * (1.0 + float(np.max(
    bump(0.25, 0.5)(edge.log_grid(1e-6, 1.0, 512)))))


@pytest.mark.parametrize("argv, name, tol, worst", [
    (["g2", "lincheck", "--samples", "2", "--verify"],
     "linearization residual", 1e-30,
     lambda out, err: max(float(row.split(",")[2])
                          for row in out.splitlines()[1:])),
    (["stenzel", "ma-check", "--points", "2", "--seed", "1"],
     "Monge-Ampere residual", 1e-30,
     lambda out, err: float(err.split()[2])),  # max residual X over ...
    (["edge", "kernel", "--nmax", "1"], "kernel residual", 1e-30,
     lambda out, err: float(err.split()[4])),  # 2 modes, worst residual X
    (["bessel", "eval", "--mu", "1000", "--x", "1", "--verify"],
     "Wronskian residual", 1e-9, lambda out, err: math.nan),
    (["edge", "solve", "--n", "2", "--mu", "1.0", "--rhs", "RHS", "--verify"],
     "operator residual", _README_RHS_TOL, lambda out, err: 0.5),
], ids=["g2", "stenzel", "kernel", "bessel", "edge-solve"])
def test_failed_check_prints_one_verdict_line(tmp_path, monkeypatch, argv,
                                              name, tol, worst):
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps(_TIGHT))
    monkeypatch.setattr(cli._edge, "operator_residual", lambda prob, y: 0.5)
    argv = [_readme_rhs(tmp_path) if a == "RHS" else a for a in argv]
    code, out, err = run(["--config", str(cfg), *argv])
    assert code == 1
    assert err.splitlines()[-1] == (
        f"verification failed: {name} {worst(out, err):.3e} > {tol:.1e}")


@pytest.mark.parametrize("argv", [
    ["bessel", "eval", "--mu", "1000", "--x", "1"],
    ["edge", "split", "--n", "2", "--mu", "1.0", "--rhs", "RHS",
     "--delta-p", "0.5", "--delta-pp", "1.5"],
    README_SPECTRA[2][0],
    ["lattice", "build"],
    ["lattice", "match"],
    ["lattice", "search", "--square=-2", "--dots", "kplus:0", "--bound", "200"],
    ["lattice", "complement"],
    ["lattice", "generic", "--seed", "1"],
    ["g2", "lincheck", "--samples", "1"],
    ["stenzel", "profile", "--n", "3", "--wmax", "5", "--steps", "200"],
    ["stenzel", "ma-check", "--points", "1"],
    README_SPECTRA[0][0],
    ["edge", "solve", "--n", "2", "--mu", "1.0", "--rhs", "RHS"],
    ["edge", "kernel", "--nmax", "1"],
])
def test_json_output_is_strict(tmp_path, argv):
    # every JSON output parses without NaN or Infinity; the row commands
    # print JSON under {"format": "json"}
    cfg = tmp_path / "json.json"
    cfg.write_text(json.dumps({"format": "json"}))
    argv = [_readme_rhs(tmp_path) if a == "RHS" else a for a in argv]
    code, out, err = run(["--config", str(cfg), *argv])
    assert code == 0, err
    doc = json.loads(out, parse_constant=_refuse_constant)
    if argv[0] == "bessel":
        assert doc["k"] is None and doc["wronskian_residual"] is None
