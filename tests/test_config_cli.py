import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lcrit import cli
from lcrit import config as cfgmod


def test_defaults_complete():
    cfg = cfgmod.load_config(None)
    for key in cfgmod.DEFAULTS:
        assert key in cfg


def test_parse_config_text():
    cfg = cfgmod.parse_config_text(
        """
        # a comment
        bernoulli_terms = 12
        branch_anchor_sigma = 7.5  # trailing comment
        """
    )
    assert cfg == {"bernoulli_terms": 12, "branch_anchor_sigma": 7.5}


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError):
        cfgmod.parse_config_text("no_such_key = 1")
    with pytest.raises(ValueError):
        cfgmod.parse_config_text("just words")


def test_load_config_missing_explicit_path(tmp_path):
    with pytest.raises(FileNotFoundError):
        cfgmod.load_config(str(tmp_path / "absent.cfg"))


def test_env_var_wins(tmp_path, monkeypatch):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("sieve_limit = 5000\n")
    b.write_text("sieve_limit = 7000\n")
    monkeypatch.setenv(cfgmod.ENV_VAR, str(b))
    cfg = cfgmod.load_config(str(a))
    assert cfg["sieve_limit"] == 7000
    assert cfg["config_file"] == str(b)


def test_eval_config_conversion():
    cfg = cfgmod.load_config(None)
    ec = cfgmod.eval_config(cfg)
    assert ec.bernoulli_terms == cfg["bernoulli_terms"]


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


def test_cli_config_file_threads_through(tmp_path, monkeypatch):
    cfgfile = tmp_path / "lcrit.cfg"
    cfgfile.write_text("sieve_limit = 20000\n")
    out = tmp_path / "chars.json"
    monkeypatch.setenv(cfgmod.ENV_VAR, str(cfgfile))
    assert cli.main(["chars", "--q", "3", "--json", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["config"]["sieve_limit"] == 20000


def test_cli_scan(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = cli.main(["scan", "--q", "5", "--chi", "1",
                   "--grid", "1e3:1e4:4", "--csv", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5


def test_import_leaves_sympy_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, lcrit, lcrit.cli; sys.exit('sympy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
