"""Constructive simultaneous Diophantine approximation for prime angles.

Goal: a real tau with ||tau log p / 2 pi - U_p|| <= tol for every prime
p <= x, where U_p is a rational target angle (in turns) and ||.|| is the
distance to the nearest integer.  Kronecker's theorem guarantees existence
(the log p are rationally independent); this module finds an explicit tau.

Strategy: write tau = 2 pi (k + U_2)/log 2 with integer k, which nails the
p = 2 constraint exactly, then reduce the remaining constraints
||k gamma_p - V_p|| <= tol (gamma_p = log p/log 2) to a closest-vector
problem on an integer lattice solved by LLL with a Kannan embedding (the
floating-point LLL of Schnorr and Euchner, Math. Programming 66, 1994).  The
resulting k is astronomically large (hundreds of digits for ~50 primes), so
tau is carried as an mpmath value plus its exact integer k, and the
certificate re-verifies every defect at sufficient precision.

The lattice is a target-free prefix (the k generator and the s_int I rows,
fixed by the primes and the tolerance) plus one target row.  The prefix is
reduced once per (primes, tolerance) and kept in a small cache; each search
then embeds its target row below the reduced prefix and reduces again.  The
split is exact: until the rows above the last one are reduced, _lll neither
reads nor changes the last row, so the whole reduction first computes the
reduced prefix.  _lll recomputes the Gram-Schmidt coefficients from the
integer rows on every visit, so the second call walks the reduced prefix
without a change (its coefficients agree with the ones the whole reduction
carries up to rounding, so only a test that rounding flips could part the
two) and meets the target row where the whole reduction does.  Both calls use
the float scale of the whole lattice.  Split and whole give the same basis
row for row on every lattice the tests try, and the same certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

import mpmath as mp

_DELTA = 0.99  # Lovasz constant
_MAX_SWAPS = 1_000_000  # a reduction past this many swaps fails instead of running on
_BIG_COEFF = 2.0**26  # a larger size-reduction coefficient leaves float mu stale
# size-reduction bound: |mu| up to 1/2 + 1e-9 stays, so an exact tie at 1/2 is
# kept whichever way the float lands, and n + 1/2 rounds up, as exact LLL does
_ETA = 0.5 + 1e-9
_A_W = 1000  # weight of the k column: s_int * delta_lat / h_int, the per-unit-k penalty
_PREFIX_CACHE_SIZE = 8  # reduced target-free prefixes kept, one per (primes, tolerance)


class LatticeSearchError(RuntimeError):
    """The lattice step of the tau search failed: no candidate tau, or a
    reduction passed its swap cap.  ``dim`` is the length of the lattice's
    rows, so a failing prefix reduction reports the search's dimension."""

    def __init__(self, reason: str, dim: int, bits: int):
        super().__init__(f"{reason} (dimension {dim}, {bits}-bit entries)")
        self.reason, self.dim, self.bits = reason, dim, bits


@dataclass(frozen=True)
class AngleTargets:
    """Primes with target angles (turns, exact rationals) and a tolerance."""

    primes: tuple
    targets: tuple  # tuple[Fraction], same length
    tolerance: float

    def __post_init__(self):
        if len(self.primes) != len(self.targets):
            raise ValueError("primes and targets must have equal length")
        if not 0 < self.tolerance < 0.5:
            raise ValueError("tolerance must lie in (0, 1/2)")
        if len(self.primes) == 0:
            raise ValueError("need at least one prime")
        if list(self.primes) != sorted(set(self.primes)):
            raise ValueError("primes must be strictly increasing")


@dataclass(frozen=True)
class TauCertificate:
    """A tau and its defects, recomputed at full precision by find_tau;
    the largest defect, the weight defects and the verdict follow from them."""

    tau_str: str  # decimal string of tau (mpmath, full precision)
    k: int  # nonzero integer in tau = 2 pi (k + U_2)/log 2
    primes: tuple
    targets: tuple  # Fractions
    defects: tuple  # ||tau log p/2pi - U_p|| per prime, floats
    tolerance: float

    @property
    def max_defect(self) -> float:
        return max(self.defects)

    @property
    def weight_defects(self) -> tuple:
        """|p^{-i tau} - e^{-2 pi i U_p}| = 2 sin(pi defect) per prime."""
        return tuple(2 * math.sin(math.pi * d) for d in self.defects)

    @property
    def success(self) -> bool:
        return self.max_defect <= self.tolerance

    @property
    def tau(self) -> mp.mpf:
        with mp.workdps(max(30, len(self.tau_str) + 10)):
            return mp.mpf(self.tau_str)

    def to_json(self) -> dict:
        return {
            "tau": self.tau_str,
            "k": str(self.k),
            "primes": list(self.primes),
            "targets": [[t.numerator, t.denominator] for t in self.targets],
            "defects": list(self.defects),
            "max_defect": self.max_defect,
            "weight_defects": list(self.weight_defects),
            "tolerance": self.tolerance,
            "success": self.success,
        }


def targets_from_scheme(scheme, tbl, tolerance: float | None = None) -> AngleTargets:
    """Angle targets U_p = arg(conj of weight at p)/2pi for all p <= x.

    The tolerance defaults to 1/log^2 x, the resolution the linearization
    argument needs.
    """
    pr = scheme.params
    primes = tuple(int(p) for p in tbl.primes_upto(pr.x))
    targets = tuple((-scheme.prime_weight_angle(p)) % 1 for p in primes)
    if tolerance is None:
        tolerance = 1.0 / math.log(pr.x) ** 2
    return AngleTargets(primes=primes, targets=targets, tolerance=tolerance)


def _verify(tau_str: str, k: int, tg: AngleTargets) -> TauCertificate:
    dps = len(tau_str) + 30
    defects = tuple(kronecker_defect_str(tau_str, p, t, dps) for p, t in zip(tg.primes, tg.targets))
    return TauCertificate(tau_str, k, tg.primes, tg.targets, defects, tg.tolerance)


def kronecker_defect_str(tau_str: str, p: int, target: Fraction, dps: int) -> float:
    """||tau log p / 2 pi - target|| for tau given as a decimal string, at
    dps digits of working precision."""
    with mp.workdps(dps):
        v = mp.mpf(tau_str) * mp.log(p) / (2 * mp.pi)
        v -= mp.mpf(target.numerator) / target.denominator
        frac = v - mp.floor(v)
        return float(min(frac, 1 - frac))


def _tau_from_k(k: int, u2: Fraction, dps: int) -> str:
    with mp.workdps(dps):
        tau = 2 * mp.pi * (k + mp.mpf(u2.numerator) / u2.denominator) / mp.log(2)
        return mp.nstr(tau, dps - 10, strip_zeros=False)


def _lattice_size(primes: tuple, tolerance: float) -> tuple[int, int]:
    """s_int, the lattice's unit for one turn, and the working precision.

    Both follow from the pigeonhole estimate for the size of k needed to hit
    len(primes) - 1 targets to within tolerance / 3.
    """
    n = len(primes) - 1
    delta_lat = tolerance / 3.0
    log_h = (
        n * math.log(1.0 / (2 * delta_lat))
        + (n / 2.0) * math.log(2.0) / 2.0
        + math.log(1e3)
    )
    dps = int(log_h / math.log(10)) + 80
    with mp.workdps(dps):
        h_int = int(mp.e**log_h)
        return int(mp.mpf(h_int) * _A_W / delta_lat), dps


def _gammas(primes: tuple) -> list:
    """log p / log 2 for every prime after 2, at the current precision."""
    log2 = mp.log(2)
    return [mp.log(p) / log2 for p in primes[1:]]


def _bits(rows) -> int:
    return max(abs(v) for row in rows for v in row).bit_length()


@lru_cache(maxsize=_PREFIX_CACHE_SIZE)
def _reduced_prefix(primes: tuple, tolerance: float) -> tuple[tuple, int]:
    """The target-free rows of find_tau's lattice, LLL-reduced, as tuples,
    and the bit size of the unreduced rows.

    The rows are the k generator (s_int log p/log 2 rounded, the k weight, 0)
    and s_int times each unit vector: the primes and the tolerance fix them.
    The target row's entries stay below s_int, so these bits are the whole
    lattice's, and the embedding reduction uses the same float scale.
    """
    s_int, dps = _lattice_size(primes, tolerance)
    with mp.workdps(dps):
        rows = [[int(mp.nint(s_int * g)) for g in _gammas(primes)] + [_A_W, 0]]
    n = len(primes) - 1
    for i in range(n):
        e = [0] * n
        e[i] = s_int
        rows.append(e + [0, 0])
    bits = _bits(rows)
    return tuple(tuple(row) for row in _lll(rows, bits)), bits


def find_tau(tg: AngleTargets) -> TauCertificate:
    """Search for tau meeting every target within tolerance.

    The primes must start with 2 and number at least two.  The candidates
    come from a Kannan-embedded integer lattice: its target-free prefix is
    LLL-reduced once per (primes, tolerance), and each search reduces only
    its target row against that reduced prefix (the module docstring says
    why this gives the whole lattice's reduced basis).  The first candidate
    that meets the tolerance is returned, else the best.  The returned
    certificate always carries re-verified defects; ``success`` records
    whether the tolerance was met.  LatticeSearchError is raised when the
    reduced basis holds no candidate or a reduction passes its swap cap.
    """
    if len(tg.primes) < 2 or tg.primes[0] != 2:
        raise ValueError("the search needs the prime 2 and at least one more prime")

    prefix, bits = _reduced_prefix(tg.primes, tg.tolerance)
    s_int, dps_work = _lattice_size(tg.primes, tg.tolerance)
    u2 = tg.targets[0]
    with mp.workdps(dps_work):
        u = mp.mpf(u2.numerator) / u2.denominator
        rt = []
        for t, g in zip(tg.targets[1:], _gammas(tg.primes)):
            v = mp.mpf(t.numerator) / t.denominator - u * g
            rt.append(int(mp.nint(s_int * (v - mp.floor(v)))))
    b_int = int(mp.mpf(s_int) * (tg.tolerance / 3.0))
    best = None
    for row in _lll([*prefix, rt + [0, b_int]], bits):
        if abs(row[-1]) != b_int:
            continue
        if row[-1] == b_int:  # negate so the row is (combo) - r_t
            row = [-v for v in row]
        kaw = row[-2]
        if kaw % _A_W != 0:
            continue
        k = kaw // _A_W
        if k == 0:
            continue
        cand = _tau_from_k(k, u2, dps_work)
        cert = _verify(cand, k, tg)
        if best is None or cert.max_defect < best.max_defect:
            best = cert
        if cert.success:
            return cert
    if best is None:
        raise LatticeSearchError("lattice reduction produced no candidate tau", len(rt) + 2, bits)
    return best


def _lll(rows: list, bits: int) -> list:
    """LLL-reduce the integer rows (delta = 0.99), after Schnorr and Euchner.

    The basis stays in exact ints.  Row k's Gram-Schmidt coefficients are
    recomputed in float64 on every visit, so nothing is carried across a
    swap; after a size reduction by a coefficient above 2^26 they are
    recomputed before the Lovasz test.  The float rows are divided by
    2^(bits - 500) when ``bits`` passes 500, so that squared norms stay
    inside the float range; ``bits`` is the bit size of the unreduced
    lattice.
    """
    b = [list(row) for row in rows]
    m = len(b)
    scale = 1 << max(0, bits - 500)
    bf = [[v / scale for v in row] for row in b]
    mu = [[0.0] * m for _ in range(m)]
    c = [0.0] * m  # squared norms of the Gram-Schmidt vectors
    k = swaps = 0
    while k < m:
        muk = mu[k]
        big = True
        while big:
            rk = []  # rk[j] = mu[k][j] * c[j]
            for j in range(k):
                rk.append(sum(map(mul, bf[k], bf[j])) - sum(map(mul, mu[j], rk)))
                muk[j] = rk[j] / c[j]
            ck = sum(map(mul, bf[k], bf[k])) - sum(map(mul, muk, rk))
            big = reduced = False
            for j in range(k - 1, -1, -1):
                if abs(muk[j]) > _ETA:
                    r = math.floor(muk[j] + _ETA)
                    big = big or abs(r) > _BIG_COEFF
                    reduced = True
                    b[k] = [u - r * v for u, v in zip(b[k], b[j])]
                    for i in range(j):
                        muk[i] -= r * mu[j][i]
                    muk[j] -= r
            if reduced:
                bf[k] = [v / scale for v in b[k]]
        c[k] = ck
        if k and ck < (_DELTA - muk[k - 1] ** 2) * c[k - 1]:
            swaps += 1
            if swaps > _MAX_SWAPS:
                raise LatticeSearchError(f"reduction passed {_MAX_SWAPS} swaps", len(b[0]), bits)
            b[k - 1], b[k] = b[k], b[k - 1]
            bf[k - 1], bf[k] = bf[k], bf[k - 1]
            k -= 1
        else:
            k += 1
    return b


def revalidate(cert: TauCertificate) -> bool:
    """Recompute every defect from tau_str; True iff they match the stored
    values to 1e-12."""
    dps = len(cert.tau_str) + 30
    return all(abs(kronecker_defect_str(cert.tau_str, p, t, dps) - d) <= 1e-12
               for p, t, d in zip(cert.primes, cert.targets, cert.defects))
