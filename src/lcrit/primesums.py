"""Prime/von Mangoldt infrastructure and the finite prime sums.

Everything here is a finite sum over primes or prime powers: the Mertens
sums, the Euler-product identities for totally multiplicative weights
|a(p)| <= 1, the Perron weight w(u), and the tails T_x, Q_x, Q'_x.
Prime-power terms (k >= 2) are always summed exactly, never estimated.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .characters import Character

SIEVE_LIMIT_GUARD = 10**9
_CACHE_MAGIC = b"LCRITPT1"


@dataclass
class PrimeTable:
    """Primes up to a limit with a cache of their logarithms."""

    limit: int
    primes: np.ndarray  # int64, ascending
    log_primes: np.ndarray  # float64, log of each prime
    _pp_cache: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.primes)

    def primes_upto(self, y: float) -> np.ndarray:
        if y > self.limit:
            raise ValueError(f"y={y} exceeds table limit {self.limit}")
        k = int(np.searchsorted(self.primes, int(np.floor(y)), side="right"))
        return self.primes[:k]

    def prime_powers(self, x: float) -> "PrimePowers":
        """All prime powers p^k <= x, sorted by value; cached per x."""
        key = float(x)
        if key not in self._pp_cache:
            self._pp_cache[key] = _build_prime_powers(self, x)
        return self._pp_cache[key]


class PrimePowers(NamedTuple):
    """Structured view of {p^k <= x}: values, logs, and factor data."""

    n: np.ndarray  # int64, p^k
    logn: np.ndarray  # float64, k*log p
    logp: np.ndarray  # float64, Lambda(p^k) = log p
    p: np.ndarray  # int64, the base prime
    k: np.ndarray  # int64, the exponent
    p_index: np.ndarray  # int64, index of p in the PrimeTable


def sieve(x_max: int) -> PrimeTable:
    """Eratosthenes sieve with log cache; x_max in [2, 10^9]."""
    if not 2 <= x_max <= SIEVE_LIMIT_GUARD:
        raise ValueError(f"x_max must be in [2, {SIEVE_LIMIT_GUARD}], got {x_max}")
    flags = np.ones(x_max + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(np.sqrt(x_max)) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.flatnonzero(flags).astype(np.int64)
    return PrimeTable(limit=x_max, primes=primes, log_primes=np.log(primes))


def _build_prime_powers(tbl: PrimeTable, x: float) -> PrimePowers:
    if x > tbl.limit:
        raise ValueError(f"x={x} exceeds table limit {tbl.limit}")
    xi = int(np.floor(x))
    parts_n, parts_p, parts_k, parts_idx = [], [], [], []
    cut = int(np.searchsorted(tbl.primes, xi, side="right"))
    p1 = tbl.primes[:cut]
    parts_n.append(p1)
    parts_p.append(p1)
    parts_k.append(np.ones(len(p1), dtype=np.int64))
    parts_idx.append(np.arange(len(p1), dtype=np.int64))
    k = 2
    while True:
        bound = xi ** (1.0 / k)
        cutk = int(np.searchsorted(tbl.primes, int(bound) + 1, side="right"))
        pk_base = tbl.primes[:cutk]
        vals = pk_base**k
        keep = vals <= xi
        pk_base, vals = pk_base[keep], vals[keep]
        if len(pk_base) == 0:
            break
        parts_n.append(vals)
        parts_p.append(pk_base)
        parts_k.append(np.full(len(pk_base), k, dtype=np.int64))
        parts_idx.append(np.arange(len(pk_base), dtype=np.int64))
        k += 1
    n = np.concatenate(parts_n)
    p = np.concatenate(parts_p)
    kk = np.concatenate(parts_k)
    idx = np.concatenate(parts_idx)
    order = np.argsort(n, kind="stable")
    n, p, kk, idx = n[order], p[order], kk[order], idx[order]
    logp = np.log(p.astype(np.float64))
    return PrimePowers(n=n, logn=kk * logp, logp=logp, p=p, k=kk, p_index=idx)


# ---------------------------------------------------------------------------
# Sieve cache file (little-endian u64 prime list with versioned header)


def save_table(tbl: PrimeTable, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack("<QQ", tbl.limit, len(tbl.primes)))
        fh.write(tbl.primes.astype("<u8").tobytes())


def load_table(path: str) -> PrimeTable:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _CACHE_MAGIC:
            raise ValueError("not a lcrit prime-table cache file")
        limit, count = struct.unpack("<QQ", fh.read(16))
        primes = np.frombuffer(fh.read(8 * count), dtype="<u8").astype(np.int64)
    return PrimeTable(limit=int(limit), primes=primes, log_primes=np.log(primes))


# ---------------------------------------------------------------------------
# Mertens-type sums and the prime-power tail


def theta(x: float, tbl: PrimeTable) -> float:
    """Chebyshev theta: sum of log p over p <= x."""
    return float(np.sum(np.log(tbl.primes_upto(x).astype(np.float64))))


def mertens_logp_over_p(y: float, tbl: PrimeTable) -> float:
    """Sum of log p / p over p <= y (compare log y + r)."""
    p = tbl.primes_upto(y).astype(np.float64)
    return float(np.sum(np.log(p) / p))


def mertens_logp_residual(y: float, tbl: PrimeTable) -> float:
    """mertens_logp_over_p(y) - log y, for constant-r studies."""
    return mertens_logp_over_p(y, tbl) - float(np.log(y))


def mertens_log2p_over_p(y: float, tbl: PrimeTable) -> float:
    """Sum of log^2 p / p over p <= y (compare (1/2) log^2 y)."""
    p = tbl.primes_upto(y).astype(np.float64)
    return float(np.sum(np.log(p) ** 2 / p))


def mertens_log2p_residual(y: float, tbl: PrimeTable) -> float:
    """(sum - (1/2) log^2 y) / log y, bounded by a constant."""
    return (mertens_log2p_over_p(y, tbl) - 0.5 * np.log(y) ** 2) / np.log(y)


def prime_power_tail(y1: float, y2: float, a: float, tbl: PrimeTable) -> float:
    """Sum of log p / p^a over primes in [y1, y2], a > 1."""
    if not (1 < y1 < y2 <= tbl.limit):
        raise ValueError("need 1 < y1 < y2 <= table limit")
    if a <= 1:
        raise ValueError("need a > 1")
    p = tbl.primes
    lo = int(np.searchsorted(p, int(np.ceil(y1)), side="left"))
    hi = int(np.searchsorted(p, int(np.floor(y2)), side="right"))
    sel = p[lo:hi].astype(np.float64)
    return float(np.sum(np.log(sel) / sel**a))


def prime_power_tail_ratio(y1: float, y2: float, a: float, tbl: PrimeTable) -> float:
    """prime_power_tail normalized by its predicted order y1^(1-a)."""
    return prime_power_tail(y1, y2, a, tbl) / y1 ** (1.0 - a)


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
    return kernels.dirichlet_sum(np.ascontiguousarray(pp.logn), np.ascontiguousarray(coeff), complex(s))


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


def euler_log_form(s: complex, x: float, prime_weights: np.ndarray, tbl: PrimeTable) -> complex:
    """sum_{p<=x} log(1 - a(p)/p^s)^{-1} alone."""
    return lambda_chi_over_log(s, x, prime_weights, tbl)[1]


def lambda_chi_linear(
    s: complex, x: float, prime_weights: np.ndarray, tbl: PrimeTable
) -> tuple[complex, complex, float]:
    """Both sides of the linear identity:

    sum_{n<=x} Lambda(n) a(n) / n^s  vs  sum_{p<=x} a(p) log p / (p^s - a(p)),

    returning (lhs, rhs, |defect|).
    """
    if s.real < 1:
        raise ValueError("need Re s >= 1")
    if x < 2:
        raise ValueError("need x >= 2")
    lhs = lambda_weighted_sum(s, x, prime_weights, tbl, over_log=False)
    p = tbl.primes_upto(x).astype(np.float64)
    w = np.asarray(prime_weights[: len(p)], dtype=np.complex128)
    ps = np.exp(complex(s) * np.log(p))
    rhs = complex(np.sum(w * np.log(p) / (ps - w)))
    return lhs, rhs, abs(lhs - rhs)


def rational_prime_form_unimodular(
    s: complex, x: float, prime_weights: np.ndarray, tbl: PrimeTable
) -> complex:
    """sum_{p<=x} log p / (conj(a(p)) p^s - 1), valid when |a(p)| = 1."""
    p = tbl.primes_upto(x).astype(np.float64)
    w = np.asarray(prime_weights[: len(p)], dtype=np.complex128)
    if np.any(np.abs(np.abs(w) - 1) > 1e-12):
        raise ValueError("unimodular form needs |a(p)| = 1")
    ps = np.exp(complex(s) * np.log(p))
    return complex(np.sum(np.log(p) / (np.conj(w) * ps - 1)))


# ---------------------------------------------------------------------------
# Perron weight


@dataclass(frozen=True)
class PerronWeight:
    """w(u) = 1 on [1,x], linear log-taper to 0 on (x, xy], 0 beyond."""

    x: float
    y: float = 2.0

    def __post_init__(self):
        if self.x < 2 or self.y < 2:
            raise ValueError("need x >= 2 and y >= 2")

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        w = 1.0 - np.log(u / self.x) / np.log(self.y)
        return np.clip(w, 0.0, 1.0)


def perron_weighted_sum(
    s: complex, chr: Character, pw: PerronWeight, tbl: PrimeTable
) -> tuple[complex, complex, float]:
    """(weighted sum over n <= xy, unweighted sum over n <= x, |defect|)."""
    if s.real < 1:
        raise ValueError("need Re s >= 1")
    pp = tbl.prime_powers(pw.x * pw.y)
    chi = weights_for_character(chr, pp.n)
    wvals = pw(pp.n.astype(np.float64))
    coeff = chi * pp.logp * wvals
    weighted = kernels.dirichlet_sum(
        np.ascontiguousarray(pp.logn), np.ascontiguousarray(coeff), complex(s)
    )
    mask = pp.n <= pw.x
    unweighted = kernels.dirichlet_sum(
        np.ascontiguousarray(pp.logn[mask]),
        np.ascontiguousarray((chi * pp.logp)[mask]),
        complex(s),
    )
    return weighted, unweighted, abs(weighted - unweighted)


# ---------------------------------------------------------------------------
# Tails T_x, Q_x, Q'_x (absolutely convergent for Re s > 1)


class TailEstimate(NamedTuple):
    value: complex
    tail_bound: float  # bound on the discarded part beyond the cutoff


def _tail_bound_q(cutoff: float, sigma: float) -> float:
    # sum_{n > cutoff} n^-sigma <= cutoff^(1-sigma)/(sigma-1)
    return cutoff ** (1.0 - sigma) / (sigma - 1.0)


def _tail_bound_qprime(cutoff: float, sigma: float) -> float:
    # sum_{n > cutoff} log n * n^-sigma via integral
    lc = np.log(cutoff)
    return cutoff ** (1.0 - sigma) * (lc / (sigma - 1.0) + 1.0 / (sigma - 1.0) ** 2)


def _tail_primes(x: float, cutoff: float, tbl: PrimeTable) -> np.ndarray:
    if cutoff > tbl.limit:
        raise ValueError("cutoff exceeds table limit")
    p = tbl.primes
    lo = int(np.searchsorted(p, int(np.floor(x)), side="right"))
    hi = int(np.searchsorted(p, int(np.floor(cutoff)), side="right"))
    return p[lo:hi].astype(np.float64)


def tail_T(s: complex, x: float, chr: Character, cutoff: float, tbl: PrimeTable) -> TailEstimate:
    """T_x(s) = sum_{p > x} chi(p)/p^s, truncated at the cutoff."""
    if s.real <= 1:
        raise ValueError("T_x requires Re s > 1")
    sel = _tail_primes(x, cutoff, tbl)
    if len(sel) == 0:
        return TailEstimate(0j, _tail_bound_q(max(cutoff, x), s.real))
    chi = weights_for_character(chr, sel.astype(np.int64))
    val = complex(np.sum(chi * np.exp(-complex(s) * np.log(sel))))
    return TailEstimate(val, _tail_bound_q(cutoff, s.real))


def tail_Q(s: complex, x: float, cutoff: float, tbl: PrimeTable) -> TailEstimate:
    """Q_x(s) = sum_{p > x} 1/p^s, truncated at the cutoff."""
    if s.real <= 1:
        raise ValueError("Q_x requires Re s > 1")
    sel = _tail_primes(x, cutoff, tbl)
    if len(sel) == 0:
        return TailEstimate(0j, _tail_bound_q(max(cutoff, x), s.real))
    val = complex(np.sum(np.exp(-complex(s) * np.log(sel))))
    return TailEstimate(val, _tail_bound_q(cutoff, s.real))


def tail_Q_prime(s: complex, x: float, cutoff: float, tbl: PrimeTable) -> TailEstimate:
    """Q'_x(s) = -sum_{p > x} log p / p^s (term-by-term derivative)."""
    if s.real <= 1:
        raise ValueError("Q'_x requires Re s > 1")
    sel = _tail_primes(x, cutoff, tbl)
    if len(sel) == 0:
        return TailEstimate(0j, _tail_bound_qprime(max(cutoff, x), s.real))
    val = complex(-np.sum(np.log(sel) * np.exp(-complex(s) * np.log(sel))))
    return TailEstimate(val, _tail_bound_qprime(cutoff, s.real))
