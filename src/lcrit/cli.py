"""Command-line interface: chars, bounds, zeros, scan, tau, thm2, thm4, verify."""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import acceptance
from . import auxseries as aux
from . import critzeros as cz
from . import diophantine as dio
from . import lfengine as lf
from . import primesums as ps
from . import scanner as sc
from .characters import character_to_json, enumerate_characters


SIEVE_LIMIT = 10**6  # the prime table of tau (at least x + 1), thm2 and thm4

# the fixed parameters every JSON report carries
CONFIG = {
    "euler_maclaurin_cutoff": lf.EULER_MACLAURIN_CUTOFF,
    "bernoulli_terms": lf.BERNOULLI_TERMS,
    "branch_anchor_sigma": lf.BRANCH_ANCHOR_SIGMA,
    "sieve_limit": SIEVE_LIMIT,
}


def cmd_chars(args):
    chars = enumerate_characters(args.q)
    tables = [character_to_json(c) for c in chars]
    out = {"q": args.q, "characters": tables, "config": CONFIG}
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=1)
    for c in chars:
        kind = "principal" if c.is_principal else (
            "primitive" if c.is_primitive else f"induced (conductor {c.conductor})"
        )
        parity = "even" if c.parity == 1 else "odd"
        print(f"chi_{args.q}.{c.label}: order {c.order}, {parity}, {kind}")
    return 0


def cmd_bounds(args):
    b = sc.theorem_bounds(args.q)
    print(f"q = {b.q}")
    print(f"C0      = {b.euler_constant:.15f}")
    print(f"thm1    = {b.thm1:.15f}   (limsup |L|/log log t upper bound)")
    print(f"thm2    = {b.thm2:.15f}   (constructive lower-bound constant)")
    print(f"thm3    = {b.thm3:.15f}   (liminf |L| log log t lower bound)")
    print(f"thm4    = {b.thm4:.15f}   (constructive upper-bound constant)")
    return 0


def cmd_zeros(args):
    s1, s2, t1, t2 = args.rect
    rect = cz.SearchRect(s1, s2, t1, t2, grid_resolution=args.res)
    pts = cz.find_critical_points(rect)
    if args.csv:
        cz.write_csv(pts, args.csv)
    print(f"count: {pts.expected_count}; refined: {len(pts)}; complete: {pts.complete}")
    for p in pts:
        print(f"  {p.beta_prime:.12f} + {p.gamma_prime:.12f} i   |zeta'| = {p.residual:.2e}")
    return 0 if pts.complete else 1


def cmd_scan(args):
    t1, t2, n = args.grid
    ts = np.exp(np.linspace(math.log(t1), math.log(t2), n))
    points = [complex(args.sigma, float(t)) for t in ts]
    rep = sc.scan(points, args.chr)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(rep.to_csv())
    print(
        f"{len(rep.records)} points, {rep.errors} errors; "
        f"max |L|/loglog t = {rep.max_norm_large:.6f} (thm1 bound {rep.bounds.thm1:.6f}); "
        f"min |L|·loglog t = {rep.min_norm_small:.6f} (thm3 bound {rep.bounds.thm3:.6f})"
    )
    return 0


def cmd_tau(args):
    tbl = ps.sieve(max(SIEVE_LIMIT, int(args.x) + 1))
    scheme = aux.make_scheme("B", args.chr, args.x, tbl, delta=args.delta)
    cert = dio.find_tau(dio.targets_from_scheme(scheme, tbl, args.tol))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({**cert.to_json(), "config": CONFIG}, fh, indent=1)
    print(
        f"success: {cert.success}; max defect {cert.max_defect:.6f} "
        f"(tolerance {cert.tolerance}); k has {len(str(abs(cert.k)))} digits"
    )
    return 0 if cert.success else 1


def _chain(args, which):
    tbl = ps.sieve(SIEVE_LIMIT)
    fn = sc.check_thm2_chain if which == 2 else sc.check_thm4_chain
    rep = fn(args.chr, x=args.x, delta=args.delta, tbl=tbl)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({**rep.to_json(), "config": CONFIG}, fh, indent=1)
    rel = ">=" if which == 2 else "<="
    print(
        f"theorem {which} chain: |L(1+i tau)| = {rep.abs_l:.4f} "
        f"{rel} threshold {rep.threshold:.4f}: {'ok' if rep.passed else 'VIOLATED'} "
        f"(transfer defect {rep.transfer_defect:.4f}, tau ~ 1e{rep.tau_log10:.0f})"
    )
    return 0 if rep.passed else 1


def cmd_verify(args):
    results = acceptance.run_all()
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    return 0 if n_pass == len(results) else 1


def _numbers(metavar: str, sep: str, kinds: tuple):
    """An argparse type for text shaped like ``metavar``: one number of each
    kind, joined by ``sep``."""

    def parse(text: str) -> tuple:
        parts = text.split(sep)
        try:
            if len(parts) == len(kinds):
                return tuple(kind(v) for kind, v in zip(kinds, parts))
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {metavar}, got {text!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lcrit",
        description="Extreme values of Dirichlet L-functions at zeros of zeta': "
        "characters, bounds, zero finding, scans, and constructive tau shifts.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chars", help="enumerate Dirichlet characters mod q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--json", help="write character tables to this JSON file")
    p.set_defaults(fn=cmd_chars)

    p = sub.add_parser("bounds", help="the four theorem constants for q")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("zeros", help="zeros of zeta' in a rectangle")
    p.add_argument("--rect", required=True, metavar="s1,s2,t1,t2",
                   type=_numbers("s1,s2,t1,t2", ",", (float,) * 4))
    p.add_argument("--res", type=float, default=0.25)
    p.add_argument("--csv", help="write zero list to this CSV file")
    p.set_defaults(fn=cmd_zeros)

    p = sub.add_parser("scan", help="|L| statistics on a sigma + it grid")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--chi", type=int, required=True, help="character label")
    p.add_argument("--grid", required=True, metavar="t1:t2:N",
                   type=_numbers("t1:t2:N", ":", (float, float, int)))
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--csv", help="write plot-ready CSV to this file")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("tau", help="constructive simultaneous approximation")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.75)
    p.add_argument("--tol", type=float, help="angle tolerance (default 1/log^2 x)")
    p.add_argument("--json", help="write the certificate to this JSON file")
    p.set_defaults(fn=cmd_tau)

    for which in (2, 4):
        p = sub.add_parser(f"thm{which}", help=f"theorem {which} toy pipeline")
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--chi", type=int, required=True)
        p.add_argument("--x", type=float, default=200.0)
        p.add_argument("--delta", type=float, default=0.75)
        p.add_argument("--json", help="write the pipeline report to JSON")
        p.set_defaults(fn=lambda a, w=which: _chain(a, w))

    p = sub.add_parser("verify", help="run the full acceptance suite")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # the library rejects input outside its domain with ValueError: a usage error here
    try:
        if "chi" in vars(args):
            chars = enumerate_characters(args.q)
            if not 0 <= args.chi < len(chars):
                ap.error(f"--chi must be a character label 0..{len(chars) - 1} mod {args.q}")
            args.chr = chars[args.chi]
        return args.fn(args)
    except ValueError as exc:
        ap.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
