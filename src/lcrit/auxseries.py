"""Auxiliary Dirichlet polynomials with piecewise prime weights.

Four totally multiplicative weight schemes (B, C, Bprime, Cprime) assign each
prime a unimodular value depending on which of the ranges

    p <= x^eps | (x^eps, m x^eps] | (m x^eps, x^delta] | (x^delta, x]

it falls in (B and Bprime additionally special-case p | q).  The resulting
weighted Lambda-sums W_x, Z_x, M_x linearize near s = 1; the constants S_1
and S_2, the choice of the shift parameter m, and the two concentric circles
used in the root-localization argument all live here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp
import numpy as np

from . import kernels
from . import lfengine
from . import primesums as ps
from .characters import Character, prime_divisors

SCHEME_KINDS = ("B", "C", "Bprime", "Cprime")
S2_CUTOFF = 10**6  # S_2's prime series runs over p <= S2_CUTOFF
_NEWTON_STEPS = 50  # newton_root's iteration cap

# weight tables: (p | q entry or None, range1, range2, range3, range4)
# entries: +1, -1 scalars, or "chi" / "chibar" / "-chi" / "-chibar"
_TABLES = {
    "B": (1, "chibar", -1, 1, -1),
    "C": (None, 1, "-chi", "chi", "-chi"),
    "Bprime": (-1, "-chibar", 1, -1, 1),
    "Cprime": (None, -1, "chi", "-chi", "chi"),
}


def _decode(tag) -> tuple[bool, int]:
    """(negated, chi exponent) of a _TABLES entry: the weight is
    (-1)^negated * chi^exponent, exponent 0, 1 or -1 (chibar)."""
    if isinstance(tag, int):
        return tag == -1, 0
    return tag.startswith("-"), -1 if tag.endswith("bar") else 1


@dataclass(frozen=True)
class SchemeParams:
    """Shared parameters (x, delta, m, chi) of a weight scheme.

    eps = 2 delta - 1; requires x^eps > q and log x > 2 log m / (1 - eps).
    """

    x: float
    delta: float
    m: float
    chr: Character
    s_const: complex = 0j  # the S constant this scheme was built around

    def __post_init__(self):
        if not 0.5 < self.delta < 1:
            raise ValueError("delta must lie in (1/2, 1)")
        if self.m <= 1:
            raise ValueError("m must exceed 1")
        eps = 2 * self.delta - 1
        if self.x**eps <= self.chr.modulus:
            raise ValueError("need x^eps > q")
        if math.log(self.x) <= 2 * math.log(self.m) / (1 - eps):
            raise ValueError("need log x > 2 log m / (1 - eps)")
        if self.chr.is_principal:
            raise ValueError("scheme requires a non-principal character")

    @property
    def epsilon(self) -> float:
        return 2 * self.delta - 1

    @property
    def curvature(self) -> float:
        """2 delta^2 - 1 - eps^2 (negative for all admissible delta)."""
        return 2 * self.delta**2 - 1 - self.epsilon**2

    def breakpoints(self) -> tuple[float, float, float, float]:
        e = self.epsilon
        return (self.x**e, self.m * self.x**e, self.x**self.delta, self.x)

    def range_index(self, p):
        """Weight range of p (scalar or array): 0..3 for p <= x, ranges
        left-open and right-closed at the breakpoints, and 4 beyond x."""
        return np.searchsorted(self.breakpoints(), p, side="left")


@dataclass(frozen=True)
class WeightScheme:
    """One of the four weight schemes, bound to its parameters."""

    kind: str
    params: SchemeParams
    # id(tbl) -> (tbl, lifted weights); holding tbl keeps its id from being reused
    _power_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"kind must be one of {SCHEME_KINDS}")

    def prime_weights(self, primes: np.ndarray) -> np.ndarray:
        """Weight at each prime (complex128), vectorized; primes beyond x get 0."""
        pr = self.params
        primes = np.asarray(primes, dtype=np.int64)
        pq, *tags = _TABLES[self.kind]
        chi_p = pr.chr.coeff_array()[primes % pr.chr.modulus]
        out = np.zeros(len(primes), dtype=np.complex128)
        rng = pr.range_index(primes)
        for j, tag in enumerate(tags):
            neg, e = _decode(tag)
            mask = rng == j
            vals = 1.0 if e == 0 else chi_p[mask] if e == 1 else np.conj(chi_p[mask])
            out[mask] = -vals if neg else vals
        if pq is not None:
            out[(pr.chr.modulus % primes == 0) & (rng < 4)] = complex(pq)
        return out

    def power_weights(self, tbl: ps.PrimeTable) -> np.ndarray:
        """a(p)^k at each prime power p^k <= x, in the order of
        tbl.prime_powers(x); built and range-checked once per table."""
        hit = self._power_cache.get(id(tbl))
        if hit is None:
            x = self.params.x
            wk = ps.lift_weights(self.prime_weights(tbl.primes_upto(x)), x, tbl)
            wk.flags.writeable = False
            hit = self._power_cache[id(tbl)] = (tbl, wk)
        return hit[1]

    def prime_weight_angle(self, p: int) -> Fraction:
        """Exact angle (in turns) of the weight at prime p <= x."""
        pr = self.params
        rng = int(pr.range_index(p))
        if rng == 4:
            raise ValueError("p beyond the scheme range")
        pq, *tags = _TABLES[self.kind]
        neg, e = _decode(pq if pq is not None and pr.chr.modulus % p == 0 else tags[rng])
        ang = Fraction(0)
        if e:
            ang = pr.chr.angle(p)
            if ang is None:
                raise ValueError(f"weight vanishes at p={p} (p | q in a chi range)")
        return (e * ang + Fraction(int(neg), 2)) % 1


# ---------------------------------------------------------------------------
# The constants S_1 and S_2


def s1_constant(chr: Character) -> complex:
    """S_1 = -L'/L(1, chibar) + sum_{p|q} log p / (p - 1)."""
    chibar = chr.conjugate()
    ll = lfengine.l_log_derivative(1.0 + 0j, chibar).value
    q = chr.modulus
    ram = sum(math.log(p) / (p - 1) for p in prime_divisors(q))
    return -ll + ram


def s1_constant_series(chr: Character, x: float, tbl: ps.PrimeTable) -> complex:
    """Truncated Dirichlet-series route:
    sum_{n<=x} Lambda(n) chibar(n)/n + sum_{n<=x, (n,q)>1} Lambda(n)/n."""
    chibar = chr.conjugate()
    pp = tbl.prime_powers(x)
    chi = ps.weights_for_character(chibar, pp.n)
    inv = np.exp(-pp.logn)
    part1 = complex(np.sum(chi * pp.logp * inv))
    ramified = chr.modulus % pp.p == 0
    part2 = float(np.sum((pp.logp * inv)[ramified]))
    return part1 + part2


def s2_constant(chr: Character, tbl: ps.PrimeTable) -> complex:
    """S_2 = L'/L(1, chibar) + 2 sum_p chibar(p)^2 log p / (p^2 - chibar(p)^2)
             - sum_{p|q} log p / (p + 1), the series over p <= S2_CUTOFF;
    a table shorter than that raises ValueError."""
    chibar = chr.conjugate()
    ll = lfengine.l_log_derivative(1.0 + 0j, chibar).value
    primes = tbl.primes_upto(S2_CUTOFF)
    p = primes.astype(np.float64)
    w = chibar.coeff_array()[primes % chr.modulus]
    w2 = w * w
    series = complex(2 * np.sum(w2 * np.log(p) / (p * p - w2)))
    q = chr.modulus
    ram = sum(math.log(pq) / (pq + 1) for pq in prime_divisors(q))
    return ll + series - ram


def s2_constant_series(chr: Character, x: float, tbl: ps.PrimeTable) -> complex:
    """Truncated route: sum_{n<=x} Lambda(n) a(n)/n with a(p) = -chibar(p),
    minus sum_{p|q} log p/(p+1)."""
    chibar = chr.conjugate()
    w = -ps.weights_for_character(chibar, tbl.primes_upto(x))
    # a(p) = 0 at p | q contributes nothing, matching the convention a_p = -chibar(p)
    val = ps.lambda_weighted_sum(1.0 + 0j, x, w, tbl, over_log=False)
    ram = sum(math.log(p) / (p + 1) for p in prime_divisors(chr.modulus))
    return val - ram


def choose_m(s_const: complex, theorem: int) -> float:
    """m from 4 log m = +-Re S + 4|S| + 1 (sign + for theorem 2, - for 4)."""
    if theorem == 2:
        lm = (s_const.real + 4 * abs(s_const) + 1) / 4.0
    elif theorem == 4:
        lm = (-s_const.real + 4 * abs(s_const) + 1) / 4.0
    else:
        raise ValueError("theorem must be 2 or 4")
    return math.exp(lm)


def make_scheme(kind: str, chr: Character, x: float, tbl: ps.PrimeTable,
                delta: float = 0.75) -> WeightScheme:
    """Build a scheme with S and m computed from the character.

    B/C use S_1 with the theorem-2 choice of m; Bprime/Cprime use S_2 with
    the theorem-4 choice.
    """
    if kind in ("B", "C"):
        s_const = s1_constant(chr)
        m = choose_m(s_const, 2)
    else:
        s_const = s2_constant(chr, tbl)
        m = choose_m(s_const, 4)
    params = SchemeParams(x=x, delta=delta, m=m, chr=chr, s_const=s_const)
    return WeightScheme(kind=kind, params=params)


# ---------------------------------------------------------------------------
# The series themselves


def _shift_phases(tau, x: float, tbl: ps.PrimeTable) -> np.ndarray:
    """exp(-i tau log n) per prime power n <= x, phases reduced mod 2 pi at
    full precision."""
    pp = tbl.prime_powers(x)
    tau_mp = mp.mpf(tau) if not isinstance(tau, mp.mpf) else tau
    digits = int(mp.floor(mp.log10(abs(tau_mp)))) + 1 if tau_mp != 0 else 1
    with mp.workdps(max(mp.mp.dps, digits + 25)):
        two_pi = 2 * mp.pi
        # log p per prime once; log p^k = k log p keeps the mpmath work at
        # one high-precision log per distinct prime
        logs: dict[int, mp.mpf] = {}
        phases = np.empty(len(pp.n), dtype=np.complex128)
        for i in range(len(pp.n)):
            p = int(pp.p[i])
            if p not in logs:
                logs[p] = mp.log(p)
            ph = mp.fmod(-tau_mp * int(pp.k[i]) * logs[p], two_pi)
            phases[i] = cmath.exp(1j * float(ph))
    return phases


def v_series_shifted(s: complex, tau, x: float, tbl: ps.PrimeTable,
                     over_log: bool = False, chr: Character | None = None) -> complex:
    """V_x(s + i tau) for tau far beyond double range (mpmath mpf).

    The phase tau * log n is reduced mod 2 pi at full precision per prime
    power, after which the sum runs in double precision.
    """
    weights = _shift_phases(tau, x, tbl)
    if chr is not None:
        weights = weights * ps.weights_for_character(chr, tbl.prime_powers(x).n)
    return ps.power_weighted_sum(s, x, weights, tbl, over_log=over_log)


def aux_series(s: complex, scheme: WeightScheme, tbl: ps.PrimeTable) -> complex:
    """W_x / Z_x (kinds B, Bprime: Lambda-weighted) or M_x (kinds C, Cprime:
    additionally divided by log n), at the point s."""
    over_log = scheme.kind in ("C", "Cprime")
    return ps.power_weighted_sum(s, scheme.params.x, scheme.power_weights(tbl), tbl,
                                 over_log=over_log)


# ---------------------------------------------------------------------------
# Linearization near s = 1 and its root


def _check_linear_domain(s: complex, pr: SchemeParams) -> None:
    bound = (6 * abs(pr.s_const) + 2) / (abs(pr.curvature) * math.log(pr.x) ** 2)
    if abs(s - 1) > bound * (1 + 1e-9):
        raise ValueError("s outside the linearization neighbourhood of 1")
    if s.real < 1 - 1e-12:
        raise ValueError("linearization requires Re s >= 1")


def _linear_model(scheme: WeightScheme) -> tuple[complex, float]:
    """(constant, slope) of the linear model constant + slope (s - 1):
    S_1 - 2 log m and -curv log^2 x / 2 for W_x (kind B),
    S_2 + 2 log m and +curv log^2 x / 2 for Z_x (kind Bprime)."""
    pr = scheme.params
    slope = pr.curvature * math.log(pr.x) ** 2 / 2
    if scheme.kind == "B":
        return pr.s_const - 2 * math.log(pr.m), -slope
    if scheme.kind == "Bprime":
        return pr.s_const + 2 * math.log(pr.m), slope
    raise ValueError("the linear model applies to kinds B and Bprime only")


def linear_form(s: complex, scheme: WeightScheme) -> complex:
    """The linear model of W_x (kind B) or Z_x (kind Bprime) near s = 1."""
    _check_linear_domain(s, scheme.params)
    constant, slope = _linear_model(scheme)
    return constant + slope * (s - 1)


def closed_form_root(scheme: WeightScheme) -> complex:
    """Exact root of the linear model of W_x (kind B) or Z_x (kind Bprime)."""
    constant, slope = _linear_model(scheme)
    return 1 - constant / slope


# ---------------------------------------------------------------------------
# The finite-x constant W_x(1) / Z_x(1) and the root of its linear model


class FiniteXConstant(NamedTuple):
    total: complex  # W_x(1) (kind B) or Z_x(1) (kind Bprime)
    model: complex  # S_1 - 2 log m or S_2 + 2 log m, the linear form at s = 1
    residuals: tuple[complex, complex, complex, complex]  # per range: sum - share

    @property
    def f0(self) -> complex:
        """F_0(x) = total - model, the finite-x residual the model leaves out."""
        return self.total - self.model


def finite_x_constant(scheme: WeightScheme, tbl: ps.PrimeTable) -> FiniteXConstant:
    """W_x(1) (kind B) or Z_x(1) (kind Bprime) as direct sums over the prime
    powers n = p^k <= x, one sum per range of the base prime p.

    Each range is compared with its asymptotic share: range 1 (p <= x^eps,
    which holds every p | q as x^eps > q) with the S constant, i.e. the same
    sum over all prime powers; ranges 2-4, where the weight is a scalar t = +-1, with
    t log(b_j / b_{j-1}) from Mertens' theorem.  The shares add up to the
    model constant, so the residuals add up to F_0(x).  They are
    prime-distribution fluctuations (range 1 cut off at n <= x, the Mertens
    error on (b_{j-1}, b_j]), not a smooth term in 1/log x.
    """
    model = _linear_model(scheme)[0]
    pr = scheme.params
    pp = tbl.prime_powers(pr.x)
    terms = scheme.power_weights(tbl) * pp.logp / pp.n.astype(np.float64)
    bps = pr.breakpoints()
    rng = pr.range_index(pp.p)
    sums = [complex(np.sum(terms[rng == j])) for j in range(4)]
    signs = [-1 if _decode(t)[0] else 1 for t in _TABLES[scheme.kind][2:]]
    shares = [pr.s_const] + [
        t * math.log(hi / lo) for t, lo, hi in zip(signs, bps[:-1], bps[1:])
    ]
    residuals = tuple(sm - sh for sm, sh in zip(sums, shares))
    return FiniteXConstant(sum(sums), model, residuals)


def finite_x_root(scheme: WeightScheme, tbl: ps.PrimeTable) -> complex:
    """closed_form_root with the model constant replaced by the finite-x
    constant: the root of W_x(1) + slope (s - 1) (Z_x(1) for kind Bprime)."""
    total = finite_x_constant(scheme, tbl).total
    return 1 - total / _linear_model(scheme)[1]


def aux_series_derivative(s: complex, scheme: WeightScheme, tbl: ps.PrimeTable) -> complex:
    """Term-by-term d/ds of the Lambda-weighted sum (kinds B, Bprime)."""
    pr = scheme.params
    if scheme.kind not in ("B", "Bprime"):
        raise ValueError("derivative used for kinds B and Bprime only")
    pp = tbl.prime_powers(pr.x)
    # not through power_weighted_sum: its weights * log n argument would stay
    # alive beside the coefficients, one more complex array per prime power
    # (10 MB more peak RSS at x = 1e7)
    coeff = -scheme.power_weights(tbl) * pp.logp * pp.logn
    return kernels.dirichlet_sum(pp.logn, coeff, complex(s))


def newton_root(scheme: WeightScheme, tbl: ps.PrimeTable) -> complex:
    """Newton refinement of the root of the full W_x / Z_x sum, started at
    the closed-form root."""
    pr = scheme.params
    s = closed_form_root(scheme)
    tol = 1e-3 / math.log(pr.x) ** 3
    for _ in range(_NEWTON_STEPS):
        f = aux_series(s, scheme, tbl)
        fp = aux_series_derivative(s, scheme, tbl)
        step = f / fp
        s = s - step
        if abs(step) < tol:
            return s
    raise RuntimeError("Newton iteration did not converge")


# ---------------------------------------------------------------------------
# Rouche circles


class RoucheCircles(NamedTuple):
    center: complex  # 1 + (c1 + i c2)/log^2 x
    outer_radius: float  # c1 / (2 log^2 x)
    inner_radius: float  # c1 / (4 log^2 x)
    c1: float
    c2: float


def rouche_circles(pr: SchemeParams) -> RoucheCircles:
    """Concentric circles around 1 + (c1 + i c2)/log^2 x with
    c1 = (4|S|+1)/|curv|, c2 = -Im S/|curv|."""
    curv = abs(pr.curvature)
    c1 = (4 * abs(pr.s_const) + 1) / curv
    c2 = -pr.s_const.imag / curv
    lx2 = math.log(pr.x) ** 2
    center = 1 + (c1 + 1j * c2) / lx2
    return RoucheCircles(center, c1 / (2 * lx2), c1 / (4 * lx2), c1, c2)


def inner_circle_points(pr: SchemeParams, n: int = 256) -> np.ndarray:
    rc = rouche_circles(pr)
    phi = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return rc.center + rc.inner_radius * np.exp(1j * phi)


def linear_form_min_on_inner(scheme: WeightScheme) -> float:
    """min |linear form| over 256 points of the inner circle boundary."""
    return min(abs(linear_form(s, scheme)) for s in inner_circle_points(scheme.params))


def root_in_inner_circle(scheme: WeightScheme) -> bool:
    rc = rouche_circles(scheme.params)
    return abs(closed_form_root(scheme) - rc.center) < rc.inner_radius

