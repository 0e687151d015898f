import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from lcrit import cli
from lcrit import critzeros as cz
from lcrit import lfengine as lf
from lcrit import scanner as sc


def test_cli_chars_json(tmp_path, capsys):
    out = tmp_path / "chars.json"
    rc = cli.main(["chars", "--q", "5", "--json", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["q"] == 5
    assert len(d["characters"]) == 4
    assert "config" in d
    text = capsys.readouterr().out
    assert "principal" in text


def test_cli_bounds(capsys):
    assert cli.main(["bounds", "--q", "7"]) == 0
    text = capsys.readouterr().out
    assert "thm1" in text and "thm4" in text


def test_cli_zeros_csv(tmp_path, capsys):
    out = tmp_path / "zeros.csv"
    rc = cli.main(["zeros", "--rect", "0.5,4,20,26", "--res", "0.5",
                   "--csv", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2  # header + the single zero in this window


def test_cli_scan(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = cli.main(["scan", "--q", "5", "--chi", "1",
                   "--grid", "1e3:1e4:4", "--csv", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5


def test_cli_scan_with_no_evaluated_point_fails(tmp_path, capsys):
    # far left of the strip |L| overflows at every point: nothing to report
    # an extreme of, so nan and exit 1, and the overflow is in the records only
    out = tmp_path / "scan.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["scan", "--q", "5", "--chi", "1", "--grid", "1e3:1e4:3",
                       "--sigma", "-100", "--csv", str(out)])
    assert rc == 1
    text, err = capsys.readouterr()
    assert text.startswith("3 points, 3 errors; max |L|/loglog t = nan ")
    assert "min |L|·loglog t = nan " in text
    assert err == ""
    assert len(out.read_text().strip().splitlines()) == 4


# thm4's S_2 and m pin the S_2 series to p <= 10**6 (a 20000 table moved them)
@pytest.mark.parametrize("argv,expect", [
    (["tau", "--q", "5", "--chi", "1", "--x", "50", "--tol", "0.05"],
     {"success": True, "tolerance": 0.05}),
    (["thm2", "--q", "7", "--chi", "1", "--x", "70"], {"theorem": 2, "passed": True}),
    (["thm4", "--q", "8", "--chi", "2", "--x", "70"],
     {"theorem": 4, "passed": True, "m": pytest.approx(2.8839642653956297, abs=1e-12),
      "s_const": [pytest.approx(1.0788877716085599, abs=1e-12), pytest.approx(0, abs=1e-12)]}),
], ids=["tau", "thm2", "thm4"])
def test_cli_json_report(argv, expect, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--json", str(out)]) == 0
    d = json.loads(out.read_text())
    assert {k: d[k] for k in expect} == expect
    assert not {"seed", "search_interval", "in_interval"} & d.keys()
    assert d["config"] == {
        "euler_maclaurin_cutoff": lf.EULER_MACLAURIN_CUTOFF,
        "bernoulli_terms": lf.BERNOULLI_TERMS,
        "branch_anchor_sigma": lf.BRANCH_ANCHOR_SIGMA,
        "sieve_limit": 10**6,
    }
    assert ("success: True" if argv[0] == "tau" else ": ok") in capsys.readouterr().out


_TAU = ["tau", "--q", "5", "--chi", "1", "--x", "50"]


def test_cli_tau_has_no_window():
    with pytest.raises(SystemExit) as info:
        cli.main(_TAU + ["--interval", "1,2"])
    assert info.value.code == 2


def test_cli_tau_zero_tolerance_rejected(capsys):
    # 0 is a tolerance like any other, outside (0, 1/2); omit --tol for 1/log^2 x
    with pytest.raises(SystemExit) as info:
        cli.main(_TAU + ["--tol", "0"])
    assert info.value.code == 2
    assert "tolerance must lie in (0, 1/2)" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["zeros", "--rect", "1,2,3"], "expected s1,s2,t1,t2"),
    (["scan", "--q", "5", "--chi", "1", "--grid", "1e3:1e6"], "expected t1:t2:N"),
    (["scan", "--q", "5", "--chi", "9", "--grid", "1e3:1e4:4"], "label 0..3 mod 5"),
    (["scan", "--q", "5", "--chi", "0", "--grid", "1e3:1e4:4"], "non-principal"),
    # well-formed, but outside the library's domain
    (["scan", "--q", "5", "--chi", "1", "--grid", "0:1e4:2"], "t > e (got --grid 0:10000:2)"),
    (["scan", "--q", "5", "--chi", "1", "--grid", "1e3:-1:2"], "t > e (got --grid 1000:-1:2)"),
    (["scan", "--q", "5", "--chi", "1", "--grid", "1:2:3"], "need t > e"),
    (["scan", "--q", "5", "--chi", "1", "--grid", "1e3:1e4:0"], "at least one point"),
    (["scan", "--q", "1", "--chi", "0", "--grid", "1e3:1e4:4"], "modulus must be >= 3"),
    (["zeros", "--rect", "4,0.5,20,26"], "sigma_min < sigma_max"),
    (["zeros", "--rect", "0.5,4,20,26", "--res", "0"], "grid_resolution must be positive"),
    (["chars", "--q", "1"], "modulus must be >= 3"),
    (["bounds", "--q", "2"], "q must be >= 3"),
    (_TAU[:-1] + ["3"], "need x^eps > q"),
    (["thm2", "--q", "7", "--chi", "1", "--delta", "0.3"], "delta must lie in (1/2, 1)"),
    (_TAU + ["--tol", "0.7"], "tolerance must lie in (0, 1/2)"),
    # not finite: a nan fails every comparison, so each end is checked as e < t < inf
    (["scan", "--q", "5", "--chi", "1", "--grid", "nan:1e4:3"], "t > e (got --grid nan:10000:3)"),
    (["scan", "--q", "5", "--chi", "1", "--grid", "1e3:inf:3"], "t > e (got --grid 1000:inf:3)"),
    (["scan", "--q", "5", "--chi", "1", "--grid", "1e3:1e4:3", "--sigma", "nan"],
     "need finite sigma and t"),
    (["scan", "--q", "5", "--chi", "1", "--grid", "1e3:1e4:3", "--sigma", "inf"],
     "need finite sigma and t"),
    (["zeros", "--rect", "0,3,40,inf"], "bounds must be finite"),
    (["zeros", "--rect", "0,3,40,41", "--res", "nan"], "grid_resolution must be positive"),
    (_TAU[:-1] + ["inf"], "x must be finite (got inf)"),
    (["thm2", "--q", "5", "--chi", "1", "--x", "nan"], "x must be finite (got nan)"),
], ids=["rect-three-numbers", "grid-two-fields", "chi-out-of-range", "scan-principal",
        "scan-t-zero", "scan-t2-negative", "scan-t-below-e", "scan-no-points", "scan-q-one",
        "rect-reversed", "zeros-res-zero", "chars-q-one", "bounds-q-two", "tau-x-small",
        "thm2-delta", "tau-tol-large", "scan-t-nan", "scan-t-inf", "scan-sigma-nan",
        "scan-sigma-inf", "zeros-t-inf", "zeros-res-nan", "tau-x-inf", "thm2-x-nan"])
def test_cli_malformed_input_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lcrit ")
    assert message in err


@pytest.mark.parametrize("argv, stub", [
    (["scan", "--q", "5", "--chi", "1", "--grid", "1e3:1e4:1000001"], (sc, "scan")),
    (["zeros", "--rect", "0,3,40,41", "--res", "1e-4"], (cz, "find_critical_points")),
], ids=["scan-grid", "zeros-res"])
def test_cli_work_above_the_cap_is_a_usage_error(argv, stub, monkeypatch, capsys):
    # more than MAX_POINTS = 10**6 points; the stub fails fast should the
    # command get past its check
    def unreachable(*args, **kwargs):
        raise AssertionError("evaluated past the point cap")

    monkeypatch.setattr(*stub, unreachable)
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert "more than MAX_POINTS = 1000000" in capsys.readouterr().err


def test_import_leaves_sympy_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, lcrit, lcrit.cli; sys.exit('sympy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
