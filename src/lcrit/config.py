"""Runtime configuration: key = value text files, LCRIT_CONFIG override.

The effective configuration (defaults merged with the file, if any) is
embedded into every JSON report for reproducibility.
"""

from __future__ import annotations

import os
from dataclasses import asdict, fields
from pathlib import Path

from .lfengine import EvalConfig

# each value's type is the type its key parses to
DEFAULTS = {**asdict(EvalConfig()), "sieve_limit": 10**6}

DEFAULT_PATH = "lcrit.cfg"
ENV_VAR = "LCRIT_CONFIG"


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        out[key] = type(DEFAULTS[key])(val)
    return out


def load_config(path: str | None = None) -> dict:
    """Defaults merged with the config file; LCRIT_CONFIG wins over path."""
    cfg = dict(DEFAULTS)
    chosen = os.environ.get(ENV_VAR) or path or DEFAULT_PATH
    p = Path(chosen)
    if p.is_file():
        cfg.update(parse_config_text(p.read_text()))
        cfg["config_file"] = str(p)
    else:
        if os.environ.get(ENV_VAR) or path:
            raise FileNotFoundError(f"config file not found: {chosen}")
        cfg["config_file"] = ""
    return cfg


def eval_config(cfg: dict) -> EvalConfig:
    return EvalConfig(**{f.name: cfg[f.name] for f in fields(EvalConfig)})
