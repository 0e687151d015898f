"""Regenerate perfbench/reference.json, the values the workloads check against.

    python3 perfbench/make_reference.py

- lscan: |L(1+it)| and both inequality verdicts for every operation of seed 0,
  as computed by lcrit at the commit that introduced the benchmark.
- zeros: the zeros of zeta' in each strip, found with mpmath alone
  (findroot from a 0.25-spaced grid of starts, deduplicated, residual
  below 1e-25 at 40 digits); no lcrit code is involved.
- aux_roots: the closed-form and Newton roots for each (kind, x), from lcrit.

The file is committed; rerun this only when a defect in lcrit is fixed
deliberately, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import lcrit  # noqa: E402
import lcrit.auxseries  # noqa: E402,F401
import lcrit.critzeros  # noqa: E402,F401
import lcrit.scanner  # noqa: E402,F401
import worker  # noqa: E402


def zeta_prime_zeros(t_lo: float, t_hi: float, step: float = 0.25) -> list[list[float]]:
    found: list[mp.mpc] = []
    with mp.workdps(40):
        f = lambda s: mp.zeta(s, derivative=1)  # noqa: E731
        n_sig, n_t = int(round(3 / step)), int(round((t_hi - t_lo) / step))
        for i in range(n_sig + 1):
            for j in range(n_t + 1):
                s0 = mp.mpc(3 * i / n_sig, t_lo + (t_hi - t_lo) * j / n_t)
                try:
                    z = mp.findroot(f, s0)
                except (ValueError, ZeroDivisionError):
                    continue
                if not (0 <= z.real <= 3 and t_lo <= z.imag <= t_hi):
                    continue
                if abs(f(z)) > mp.mpf("1e-25"):
                    continue
                if all(abs(z - w) > mp.mpf("1e-12") for w in found):
                    found.append(z)
    found.sort(key=lambda z: float(z.imag))
    return [[float(z.real), float(z.imag)] for z in found]


def main() -> None:
    ctx, _, _ = worker.lscan_setup(lcrit)
    worker.lscan_prepare(lcrit, ctx)
    lscan = []
    for op in worker.lscan_ops(0):
        val, r1, r3 = worker.lscan_run(lcrit, ctx, op)
        lscan.append([op["t"], (5, 7)[op["chi"]], abs(val), r1.violation, r3.violation])

    zeros = {f"{a:g}-{b:g}": zeta_prime_zeros(a, b) for a, b in worker.ZERO_STRIPS}

    ctx, _, _ = worker.aux_setup(lcrit)
    aux = {}
    for kind, x in worker.AUX_POINTS:
        out = worker.aux_run(lcrit, ctx, {"kind": kind, "x": x, "phase": 0.0})
        aux[f"{kind}@{x:g}"] = [[out["root_c"].real, out["root_c"].imag],
                                [out["root_n"].real, out["root_n"].imag]]

    ref = {"lscan": {"seed": 0, "ops": lscan}, "zeros": zeros, "aux_roots": aux}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
