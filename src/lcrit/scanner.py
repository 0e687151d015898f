"""Theorem constants, inequality sweeps, toy pipelines, and scan reports.

The four extreme-value constants are simple closed forms in Euler's constant
C0 and the multiplicative factors phi(q)/q and prod_{p|q}(p+1)/p.  The
pointwise inequality checks come in two chains: an upper bound for
the truncated log L sum (theorem-1 direction) and a lower bound (theorem-3
direction), each with an error allowance fitted on the two smallest scales
and then frozen.  The theorem-2/4 chains run the full constructive mechanism
at toy scale: weight scheme -> tau certificate -> transfer identity ->
|L(1 + i tau)|.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, asdict
from functools import lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple

import mpmath as mp
import numpy as np

from . import auxseries as aux
from . import diophantine as dio
from . import lfengine
from . import primesums as ps
from .characters import (
    Character,
    primitive_characters,
    ramified_product,
    unit_density,
)


# ---------------------------------------------------------------------------
# Euler's constant, twice


@lru_cache(maxsize=1)
def euler_constant_dual() -> tuple:
    """C0 by two independent routes at 90 digits; returns (value, |difference|).

    Route 1: harmonic-minus-log with Euler-Maclaurin correction terms.
    Route 2: the exponential-integral series
        C0 = sum_{k>=1} (-1)^{k+1} n^k/(k k!) - log n - E1(n),  |E1(n)| < e^-n/n,
    at n = 60, where the discarded E1 term is below 1e-27.
    """
    with mp.workdps(90):
        # route 1: C0 = H_N - log N - 1/2N + sum B_2k / (2k N^2k)
        N = 100
        h = mp.fsum(mp.mpf(1) / i for i in range(1, N + 1))
        c1 = h - mp.log(N) - mp.mpf(1) / (2 * N)
        for k in range(1, 12):
            c1 += mp.bernoulli(2 * k) / (2 * k * mp.mpf(N) ** (2 * k))
        # route 2: alternating series at n = 60 (terms peak near 1e25,
        # hence the generous working precision)
        n = 60
        term = mp.mpf(n)  # n^k / k!
        s = mp.mpf(0)
        for k in range(1, 400):
            s += (-1) ** (k + 1) * term / k
            term *= mp.mpf(n) / (k + 1)
            if term < mp.mpf("1e-40") and k > n:
                break
        c2 = s - mp.log(n)
        diff = abs(c1 - c2)
        return +c1, float(diff)


# ---------------------------------------------------------------------------
# Theorem constants


@dataclass(frozen=True)
class ExtremeBounds:
    q: int
    euler_constant: float
    thm1: float  # limsup |L(rho')| / log log gamma'  <= 2 e^C0 phi(q)/q
    thm2: float  # constructive lower-bound constant   e^C0 phi(q)/q
    thm3: float  # liminf |L(rho')| log log gamma'    >= pi^2 e^-C0/12 prod (p+1)/p
    thm4: float  # mirrored upper-bound constant   2x thm3


@lru_cache(maxsize=None)
def theorem_bounds(q: int) -> ExtremeBounds:
    """The four constants at q: the one place C0, phi(q)/q and
    prod_{p|q}(p+1)/p are combined (frozen, so cached copies are shared)."""
    if q < 3:
        raise ValueError("q must be >= 3")
    c0 = float(euler_constant_dual()[0])
    dens = unit_density(q)
    ram = ramified_product(q)
    thm2 = math.exp(c0) * dens
    thm3 = math.pi**2 * math.exp(-c0) / 12.0 * ram
    return ExtremeBounds(q=q, euler_constant=c0,
                         thm1=2 * thm2, thm2=thm2, thm3=thm3, thm4=2 * thm3)


# ---------------------------------------------------------------------------
# Pointwise inequality checks (theorem 1 and theorem 3 directions)


@dataclass(frozen=True)
class DefectReport:
    q: int
    char_label: int
    s: complex
    x: float
    lhs: float
    rhs: float
    allowance: float
    margin: float  # rhs - lhs (thm1) or lhs - rhs (thm3); violation below -allowance
    violation: bool


def coprime_majorant(x: float, q: int, tbl: ps.PrimeTable) -> float:
    """A(x) = sum_{n<=x, (n,q)=1} Lambda(n)/(n log n): the unconditional
    pointwise majorant of |truncated log L| on Re s >= 1."""
    pp = tbl.prime_powers(x)
    mask = np.gcd(pp.p, q) == 1
    return float(np.sum((1.0 / (pp.k * pp.n.astype(np.float64)))[mask]))


def thm1_rhs(x: float, q: int) -> float:
    """log(thm2 log x) = log log x + C0 - log(q/phi(q))."""
    return math.log(theorem_bounds(q).thm2 * math.log(x))


_ALLOWANCE_SAFETY = 2.0  # a fitted allowance K is twice the worst defect


def _fit_allowance(t_small: tuple, defect: Callable[[float], float]) -> float:
    """K = 2 max |defect(x)| log x over x = log^2 t at the given heights."""
    return _ALLOWANCE_SAFETY * max(
        abs(defect(x)) * math.log(x) for x in (math.log(t) ** 2 for t in t_small))


def fit_thm1_allowance(q: int, t_small: tuple, tbl: ps.PrimeTable) -> float:
    """K from the majorant defect A(log^2 t) - rhs at the two smallest
    heights, frozen."""
    return _fit_allowance(t_small, lambda x: coprime_majorant(x, q, tbl) - thm1_rhs(x, q))


def thm3_rhs(x: float, q: int) -> float:
    """log(thm4 / log x) = -log log x - C0 + log(pi^2/6) + sum_{p|q} log((p+1)/p)."""
    return math.log(theorem_bounds(q).thm4 / math.log(x))


def coprime_minorant(x: float, q: int, tbl: ps.PrimeTable) -> float:
    """-sum_{p<=x, p coprime q} log(1+1/p) minus the prime-power mismatch
    bound: an unconditional lower bound for the truncated log L real part."""
    p = tbl.primes_upto(x)
    mask = np.gcd(p, q) == 1
    pf = p[mask].astype(np.float64)
    base = -float(np.sum(np.log1p(1.0 / pf)))
    # the truncated Lambda-sum differs from the sum of full Euler-factor
    # logs by prime powers p^k > x with p <= x; bound that pile crudely
    mism = 4.0 / (math.sqrt(x) * math.log(x))
    return base - mism


def fit_thm3_allowance(q: int, t_small: tuple, tbl: ps.PrimeTable) -> float:
    """K from the minorant defect rhs - minorant(log^2 t) at the two
    smallest heights, frozen."""
    return _fit_allowance(t_small, lambda x: thm3_rhs(x, q) - coprime_minorant(x, q, tbl))


def _defect_report(theorem: int, s: complex, chr: Character, x: float,
                   lhs: float, allowance_k: float) -> DefectReport:
    """The theorem-1 (upper) or theorem-3 (lower) verdict on
    lhs = Re(truncated log L at cutoff x), with allowance K/log x."""
    rhs = (thm1_rhs if theorem == 1 else thm3_rhs)(x, chr.modulus)
    margin = rhs - lhs if theorem == 1 else lhs - rhs
    allowance = allowance_k / math.log(x)
    return DefectReport(
        q=chr.modulus, char_label=chr.label, s=complex(s), x=x,
        lhs=lhs, rhs=rhs, allowance=allowance, margin=margin,
        violation=margin < -allowance,
    )


def check_thm1_inequality(s: complex, chr: Character, T: float,
                          tbl: ps.PrimeTable, allowance_k: float) -> DefectReport:
    """Upper-bound chain at height T > 1: Re(truncated log L at cutoff
    x = log^2 T) against log log x + C0 + log(phi(q)/q), with allowance
    K/log x."""
    if T <= 1:
        raise ValueError("need T > 1")
    x = math.log(T) ** 2
    return _defect_report(1, s, chr, x, lfengine.log_l_truncated(s, chr, x, tbl).real,
                          allowance_k)


def check_thm3_inequality(s: complex, chr: Character, x: float,
                          tbl: ps.PrimeTable, allowance_k: float) -> DefectReport:
    """Lower-bound chain: Re(truncated log L at cutoff x) against
    -log log x - C0 + log(pi^2/6) + sum_{p|q} log((p+1)/p) - K/log x."""
    return _defect_report(3, s, chr, x, lfengine.log_l_truncated(s, chr, x, tbl).real,
                          allowance_k)


def sweep_inequalities(qs=(3, 4, 5, 7, 8, 11), t_lo: float = 1e3, t_hi: float = 1e6,
                       n_t: int = 1000, *, tbl: ps.PrimeTable) -> dict:
    """The default grid: both inequality checks for every primitive
    character of every q, at sigma = 1 and t log-spaced, from one truncated
    sum per (character, t).  Returns a summary with violation counts
    (expected zero) and the frozen allowances."""
    ts = np.exp(np.linspace(math.log(t_lo), math.log(t_hi), n_t))
    t_small = (float(ts[0]), float(ts[1]))
    out = {"grid": {"qs": list(qs), "t_lo": t_lo, "t_hi": t_hi, "n_t": n_t,
                    "sigma": 1.0},
           "per_q": {}, "violations_thm1": 0, "violations_thm3": 0,
           "checked": 0}
    for q in qs:
        ks = {1: fit_thm1_allowance(q, t_small, tbl), 3: fit_thm3_allowance(q, t_small, tbl)}
        worst = dict.fromkeys(ks, math.inf)
        viol = dict.fromkeys(ks, 0)
        for chr in primitive_characters(q):
            if chr.is_principal:
                continue
            for t in ts:
                s = complex(1.0, float(t))
                x = math.log(float(t)) ** 2
                lhs = lfengine.log_l_truncated(s, chr, x, tbl).real
                for theorem, k in ks.items():
                    r = _defect_report(theorem, s, chr, x, lhs, k)
                    viol[theorem] += r.violation
                    worst[theorem] = min(worst[theorem], r.margin + r.allowance)
                out["checked"] += 1
        out["per_q"][q] = {"allowance_k_thm1": ks[1], "allowance_k_thm3": ks[3],
                           "min_guarded_margin_thm1": worst[1],
                           "min_guarded_margin_thm3": worst[3],
                           "violations": viol[1] + viol[3]}
        out["violations_thm1"] += viol[1]
        out["violations_thm3"] += viol[3]
    return out


# ---------------------------------------------------------------------------
# Theorem 2 / Theorem 4 toy pipelines


@dataclass
class ChainReport:
    theorem: int
    q: int
    char_label: int
    x: float
    delta: float
    epsilon: float
    m: float
    s_const: complex
    tau_str: str
    tau_log10: float
    max_defect: float
    tolerance: float
    transfer_defect: float
    abs_l: float
    reference: float  # e^C0 phi/q * eps log x  (thm2) or its mirror (thm4)
    threshold: float  # acceptance floor / cap
    achieved_ratio: float
    passed: bool

    def to_json(self) -> dict:
        d = asdict(self)
        d["s_const"] = [self.s_const.real, self.s_const.imag]
        return d


class _Chain(NamedTuple):
    """What separates the theorem-2 and theorem-4 pipelines; the target
    kind also fixes S and m (see aux.make_scheme)."""

    target_kind: str  # supplies the angle targets
    transfer_kind: str  # its M_x(1) enters the transfer identity
    transfer_term: Callable[[int], float]  # the transfer adds log of this at q
    reference: Callable[[ExtremeBounds, float, float], float]  # (bounds at q, eps, x)
    factor: float  # threshold = factor * reference
    passes: Callable[[float, float], bool]  # (|L|, threshold): floor or cap


_CHAINS = {
    2: _Chain("B", "C", unit_density,
              lambda b, eps, x: b.thm2 * eps * math.log(x), 0.5, operator.ge),
    4: _Chain("Bprime", "Cprime", ramified_product,
              lambda b, eps, x: b.thm4 / (eps * math.log(x)), 2.0, operator.le),
}


def _check_chain(theorem: int, chr: Character, x: float, delta: float,
                 tbl: ps.PrimeTable, tolerance: float,
                 cert: dio.TauCertificate | None) -> ChainReport:
    spec = _CHAINS[theorem]
    scheme = aux.make_scheme(spec.target_kind, chr, x, tbl, delta=delta)
    params = scheme.params
    tg = dio.targets_from_scheme(scheme, tbl, tolerance)
    if cert is None:
        cert = dio.find_tau(tg)
    elif (cert.primes, cert.targets, cert.tolerance) != (tg.primes, tg.targets, tg.tolerance):
        raise ValueError("tau certificate was made for other angle targets or tolerance")
    if not cert.success:
        raise RuntimeError("tau certificate does not meet its tolerance")
    tau = cert.tau
    # |L(1 + i tau)| takes the cutoff max(x, log^2 |tau|); one phase set serves
    # it and the transfer sum, and a table shorter than the cutoff raises
    with mp.workdps(40):
        at = abs(mp.mpf(tau))
        cut = max(x, float(mp.log(at)) ** 2) if at > 3 else x
    phases = aux.shift_phases(tau, cut, tbl)
    # transfer: sum Lambda chi /(n^{1+i tau} log n) vs M_x(1) + log of the transfer term
    lhs = lfengine.log_l_truncated(1.0 + 0j, chr, x, tbl, phases)
    mx1 = aux.aux_series(1.0 + 0j, aux.WeightScheme(spec.transfer_kind, params), tbl)
    transfer_defect = abs(lhs - mx1 - math.log(spec.transfer_term(chr.modulus)))
    abs_l = math.exp(lfengine.log_l_truncated(1.0 + 0j, chr, cut, tbl, phases).real)
    eps = params.epsilon
    reference = spec.reference(theorem_bounds(chr.modulus), eps, x)
    threshold = spec.factor * reference
    with mp.workdps(20):
        tl10 = float(mp.log10(abs(mp.mpf(cert.tau_str)))) if mp.mpf(cert.tau_str) != 0 else 0.0
    return ChainReport(
        theorem=theorem, q=chr.modulus, char_label=chr.label, x=x, delta=delta,
        epsilon=eps, m=params.m, s_const=params.s_const, tau_str=cert.tau_str,
        tau_log10=tl10, max_defect=cert.max_defect, tolerance=cert.tolerance,
        transfer_defect=transfer_defect, abs_l=abs_l, reference=reference,
        threshold=threshold, achieved_ratio=abs_l / reference,
        passed=spec.passes(abs_l, threshold),
    )


def check_thm2_chain(chr: Character, x: float = 200.0, delta: float = 0.75, *,
                     tbl: ps.PrimeTable, tolerance: float = 0.02,
                     cert: dio.TauCertificate | None = None) -> ChainReport:
    """Constructive lower-bound pipeline at toy scale.

    Scheme B supplies the angle targets; find_tau makes the shift explicit
    (a given ``cert`` must be for those targets and ``tolerance``, else
    ValueError); the
    transfer identity is verified at s = 1 for scheme C; |L(1+i tau)| is
    the truncated prime-sum evaluation.  The floor is
    0.5 * e^C0 (phi(q)/q) * eps log x.  The chain bounds |L(1 + i tau)|
    only: it certifies nothing about a zero of zeta' near 1 + i tau.
    """
    return _check_chain(2, chr, x, delta, tbl, tolerance, cert)


def check_thm4_chain(chr: Character, x: float = 200.0, delta: float = 0.75, *,
                     tbl: ps.PrimeTable, tolerance: float = 0.02,
                     cert: dio.TauCertificate | None = None) -> ChainReport:
    """Mirror pipeline: scheme B' targets, scheme C' transfer, upper bound
    |L(1+i tau)| <= 2 * (pi^2 e^-C0/6) prod (p+1)/p / (eps log x).  Like
    the theorem-2 chain, it says nothing about a zero of zeta' near 1 + i tau."""
    return _check_chain(4, chr, x, delta, tbl, tolerance, cert)


# ---------------------------------------------------------------------------
# Scan reports


@dataclass(frozen=True)
class ScanRecord:
    point: complex
    abs_l: float
    norm_large: float  # |L| / log log t
    norm_small: float  # |L| * log log t
    error: str = ""


@dataclass(frozen=True)
class ScanReport:
    """The records of one scan; every summary is read off them, and a record
    with an error is kept out of the extremes."""

    q: int
    char_label: int
    bounds: ExtremeBounds
    records: tuple  # tuple[ScanRecord], in scan order

    @property
    def errors(self) -> int:
        return sum(1 for rec in self.records if rec.error)

    @property
    def running_max_large(self) -> list:
        """max |L|/log log t over the records so far (-inf before the first
        evaluated point)."""
        return list(accumulate((-math.inf if rec.error else rec.norm_large
                                for rec in self.records), max))

    @property
    def running_min_small(self) -> list:
        """min |L|·log log t over the records so far (inf before the first
        evaluated point)."""
        return list(accumulate((math.inf if rec.error else rec.norm_small
                                for rec in self.records), min))

    @property
    def max_norm_large(self) -> float:
        """max |L|/log log t over the evaluated points, nan if there are none."""
        return max((rec.norm_large for rec in self.records if not rec.error), default=math.nan)

    @property
    def min_norm_small(self) -> float:
        """min |L|·log log t over the evaluated points, nan if there are none."""
        return min((rec.norm_small for rec in self.records if not rec.error), default=math.nan)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["sigma", "t", "abs_l", "norm_large", "norm_small",
                    "running_max_large", "running_min_small",
                    "thm1_bound", "thm3_bound", "source", "error"])
        b = self.bounds
        for rec, rml, rms in zip(self.records, self.running_max_large,
                                 self.running_min_small):
            w.writerow([
                f"{rec.point.real:.17g}", f"{rec.point.imag:.17g}",
                f"{rec.abs_l:.17g}", f"{rec.norm_large:.17g}",
                f"{rec.norm_small:.17g}", f"{rml:.17g}", f"{rms:.17g}",
                f"{b.thm1:.17g}", f"{b.thm3:.17g}", "sigma_grid", rec.error,
            ])
        return buf.getvalue()


def scan(points, chr: Character) -> ScanReport:
    """Evaluate |L| at each point and report the normalized extremes.

    The character must be non-principal and there must be at least one
    point, each finite with t > e (so log log t > 0); an evaluator error or
    a non-finite |L| is recorded as "Type: message", is kept out of the
    running extremes, and the scan continues.  numpy's overflow and invalid
    warnings are off: such a point is reported by its record.
    """
    if chr.is_principal:
        raise ValueError("scan requires a non-principal character")
    records = []
    with np.errstate(over="ignore", invalid="ignore"):
        for s in points:
            s = complex(s)
            if not (math.isfinite(s.real) and math.isfinite(s.imag)):
                raise ValueError(f"scan points need finite sigma and t (got {s})")
            if s.imag <= math.e:
                raise ValueError("scan points need t > e")
            llt = math.log(math.log(s.imag))
            try:
                val, error = abs(lfengine.dirichlet_l(s, chr).value), ""
                if not math.isfinite(val):
                    raise OverflowError(f"|L| = {val} is not finite")
            except (lfengine.ZetaPoleError, ValueError, ZeroDivisionError,
                    OverflowError) as exc:
                val, error = math.nan, f"{type(exc).__name__}: {exc}"
            records.append(ScanRecord(point=s, abs_l=val, norm_large=val / llt,
                                      norm_small=val * llt, error=error))
    if not records:
        raise ValueError("scan needs at least one point")
    return ScanReport(chr.modulus, chr.label, theorem_bounds(chr.modulus), tuple(records))
