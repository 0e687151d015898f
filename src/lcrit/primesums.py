"""Prime/von Mangoldt infrastructure and the finite prime sums.

Everything here is a finite sum over primes or prime powers: the sieve and
its prime-power view, a Mertens sum, and the Lambda-weighted Dirichlet sums
for totally multiplicative weights |a(p)| <= 1 with their Euler-product
identity.  Prime-power terms (k >= 2) are always summed exactly, never estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .characters import Character

SIEVE_LIMIT_GUARD = 10**9
_ROUNDOFF = 2.0**-53  # unit roundoff of float64


@dataclass
class PrimeTable:
    """Primes up to a limit with one prime-power view, for the largest x asked."""

    limit: int
    primes: np.ndarray  # int64, ascending
    _pp_x: float = field(default=-math.inf, repr=False)
    _pp: "PrimePowers" = field(default=None, repr=False)

    def primes_upto(self, y: float) -> np.ndarray:
        if y > self.limit:
            raise ValueError(f"y={y} exceeds table limit {self.limit}")
        k = int(np.searchsorted(self.primes, int(np.floor(y)), side="right"))
        return self.primes[:k]

    def prime_powers(self, x: float) -> "PrimePowers":
        """All prime powers p^k <= x, sorted by value: a prefix of the view
        kept, which is rebuilt only when a larger x is asked for."""
        if not x <= self._pp_x:
            self._pp, self._pp_x = _build_prime_powers(self, x), x
        m = int(np.searchsorted(self._pp.n, int(np.floor(x)), side="right"))
        return PrimePowers(*(a[:m] for a in self._pp))


class PrimePowers(NamedTuple):
    """Structured view of {p^k <= x}: values, logs, and factor data."""

    n: np.ndarray  # int64, p^k
    logn: np.ndarray  # float64, k*log p
    logp: np.ndarray  # float64, Lambda(p^k) = log p
    p: np.ndarray  # int64, the base prime
    k: np.ndarray  # int64, the exponent
    p_index: np.ndarray  # int64, index of p in the PrimeTable


def sieve(x_max: int) -> PrimeTable:
    """Eratosthenes sieve; x_max in [2, 10^9]."""
    if not 2 <= x_max <= SIEVE_LIMIT_GUARD:
        raise ValueError(f"x_max must be in [2, {SIEVE_LIMIT_GUARD}], got {x_max}")
    flags = np.ones(x_max + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(np.sqrt(x_max)) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.flatnonzero(flags).astype(np.int64)
    return PrimeTable(limit=x_max, primes=primes)


def _build_prime_powers(tbl: PrimeTable, x: float) -> PrimePowers:
    if x > tbl.limit:
        raise ValueError(f"x={x} exceeds table limit {tbl.limit}")
    xi = int(np.floor(x))
    parts = []  # (p^k, p, k, index of p) per k; 2^k <= x for each k past 1
    for k in range(1, max(2, xi.bit_length())):
        cut = int(np.searchsorted(tbl.primes, int(xi ** (1.0 / k)) + 1, side="right"))
        vals = tbl.primes[:cut] ** k
        m = int(np.searchsorted(vals, xi, side="right"))  # p^k grows with p
        parts.append((vals[:m], tbl.primes[:m], np.full(m, k, dtype=np.int64),
                      np.arange(m, dtype=np.int64)))
    n, p, kk, idx = (np.concatenate(part) for part in zip(*parts))
    order = np.argsort(n, kind="stable")
    n, p, kk, idx = n[order], p[order], kk[order], idx[order]
    logp = np.log(p.astype(np.float64))
    return PrimePowers(n=n, logn=kk * logp, logp=logp, p=p, k=kk, p_index=idx)


# ---------------------------------------------------------------------------
# Mertens-type sums


def mertens_logp_over_p(y: float, tbl: PrimeTable) -> float:
    """Sum of log p / p over p <= y (compare log y + r)."""
    p = tbl.primes_upto(y).astype(np.float64)
    return float(np.sum(np.log(p) / p))


# ---------------------------------------------------------------------------
# Weighted Lambda sums (the workhorse behind V_x, W_x, Z_x and M_x)


def _check_weights(w: np.ndarray) -> None:
    if np.any(np.abs(w) > 1 + 1e-12):
        raise ValueError("totally multiplicative weight must satisfy |a(p)| <= 1")


def weights_for_character(chr: Character, values: np.ndarray) -> np.ndarray:
    """chi evaluated on an int64 array via residue lookup."""
    table = chr.coeff_array()
    return table[np.asarray(values) % chr.modulus]


def lift_weights(prime_weights: np.ndarray, x: float, tbl: PrimeTable) -> np.ndarray:
    """a(p)^k at each prime power p^k <= x, in the order of tbl.prime_powers(x).

    ``prime_weights[i]`` is a(tbl.primes[i]) and must cover every prime <= x;
    complete multiplicativity gives the weight at p^k.  Raises ValueError
    unless |a(p)| <= 1.
    """
    pp = tbl.prime_powers(x)
    _check_weights(prime_weights)
    return np.asarray(prime_weights, dtype=np.complex128)[pp.p_index] ** pp.k


def power_weighted_sum(
    s: complex,
    x: float,
    power_weights: np.ndarray,
    tbl: PrimeTable,
    over_log: bool = False,
) -> complex:
    """Sum over prime powers n <= x of b(n) Lambda(n) / n^s, divided
    additionally by log n when over_log is set, where ``power_weights`` holds
    b(n) in the order of tbl.prime_powers(x) (as built by lift_weights)."""
    pp = tbl.prime_powers(x)
    if over_log:
        coeff = power_weights / pp.k  # Lambda(n)/log n = 1/k
    else:
        coeff = power_weights * pp.logp
    return kernels.dirichlet_sum(pp.logn, coeff, complex(s))


class DiscExpansion(NamedTuple):
    """A prime-power sum F(s) = sum_n a_n n^(-s) as its Taylor expansion
    about ``center``, for |s - center| < ``radius``.

    ``moments`` holds M_k = sum_n a_n (-log n)^k n^(-center), k = 0..K+1;
    F^(d)(s) is sum_{k<=K} M_(k+d) (s - center)^k / k! for d = 0, 1, within
    ``bound[d]`` of the direct sum.
    """

    center: complex
    radius: float
    moments: tuple[complex, ...]
    bound: tuple[float, float]

    def at(self, s: complex, deriv: int = 0) -> complex:
        """F (deriv 0) or F' (deriv 1) at s, by Horner's rule."""
        h = complex(s) - self.center
        m = self.moments
        acc = 0j
        for k in range(len(m) - 2, -1, -1):
            acc = m[k + deriv] + acc * h / (k + 1)
        return acc


def disc_expansion(
    center: complex,
    radius: float,
    x: float,
    power_weights: np.ndarray,
    tbl: PrimeTable,
    over_log: bool = False,
) -> DiscExpansion:
    """power_weighted_sum(s, x, power_weights, tbl, over_log) as a
    DiscExpansion about ``center`` of radius ``radius``, from one moment pass.

    With U = log x (the largest log n) and R the radius, K is the least
    order with (RU)^(K+1)/(K+1)! e^(RU) <= u, u the unit roundoff.  bound[d]
    is U^d mass [(RU)^(K+1)/(K+1)! + u (K + log2 n + 2)]: the truncation
    remainder plus a rounding term for both routes, where mass =
    sum |a_n| n^(R - Re center) is the largest sum of |terms| on the disc.
    """
    pp = tbl.prime_powers(x)
    log_x = math.log(x)
    ru = radius * log_x
    order = 0
    while ru ** (order + 1) / math.factorial(order + 1) * math.exp(ru) > _ROUNDOFF:
        order += 1
    coeff = power_weights / pp.k if over_log else power_weights * pp.logp  # as power_weighted_sum
    moments, mass = kernels.dirichlet_moments(pp.logn, coeff, center, radius, order + 1)
    rounding = _ROUNDOFF * (order + math.log2(max(len(pp.n), 1)) + 2)
    bound = mass * (ru ** (order + 1) / math.factorial(order + 1) + rounding)
    return DiscExpansion(complex(center), float(radius), tuple(moments), (bound, bound * log_x))


def lambda_weighted_sum(
    s: complex,
    x: float,
    prime_weights: np.ndarray,
    tbl: PrimeTable,
    over_log: bool = False,
) -> complex:
    """Sum over prime powers n = p^k <= x of a(p)^k Lambda(n) / n^s,
    divided additionally by log n when over_log is set.

    ``prime_weights[i]`` is a(tbl.primes[i]); complete multiplicativity gives
    the weight a(p)^k at p^k.
    """
    return power_weighted_sum(s, x, lift_weights(prime_weights, x, tbl), tbl, over_log)


def lambda_chi_over_log(
    s: complex, x: float, prime_weights: np.ndarray, tbl: PrimeTable
) -> tuple[complex, complex, float]:
    """Both sides of the log-weighted identity:

    sum_{1<n<=x} a(n) Lambda(n) / (n^s log n)  vs
    sum_{p<=x} -log(1 - a(p)/p^s),

    returning (lhs, rhs, |defect|).
    """
    if s.real < 1:
        raise ValueError("need Re s >= 1")
    if x < 2:
        raise ValueError("need x >= 2")
    lhs = lambda_weighted_sum(s, x, prime_weights, tbl, over_log=True)
    p = tbl.primes_upto(x).astype(np.float64)
    w = np.asarray(prime_weights[: len(p)], dtype=np.complex128)
    z = w * np.exp(-complex(s) * np.log(p))
    rhs = complex(-np.sum(np.log1p(-z)))
    return lhs, rhs, abs(lhs - rhs)
